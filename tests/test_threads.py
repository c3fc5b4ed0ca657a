"""`optim.both` and the calls that use it: the helper thread must change
no result, bit for bit, and must not change how errors surface.

`optim._cpus` is the one patch point: 1 runs every `both` inline, 2 puts
its first half on the helper thread whatever the machine has.
"""
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tplrec import agent, optim
from tplrec.agent import AgentConfig, QNetwork, Transition, cql_loss, recommend, train_agent
from tplrec.coldstart import RepresentativeTable, build_representatives
from tplrec.data import ingest
from tplrec.embed import EmbeddingTable

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_helper(monkeypatch):
    """No helper thread yet; the one a test starts is shut down after it."""
    monkeypatch.setattr(optim, "_helper", None)
    yield
    if optim._helper is not None:
        optim._helper.shutdown()


def helper_on(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(optim, "_cpus", lambda: 2 if on else 1)


def both_ways(monkeypatch, call):
    """`call()` with the helper forced off, then on."""
    out = []
    for on in (False, True):
        helper_on(monkeypatch, on)
        out.append(call())
    return out


class TestBoth:
    def test_first_half_runs_on_the_helper(self, monkeypatch, fresh_helper):
        helper_on(monkeypatch, True)
        first, second = optim.both(threading.current_thread, threading.current_thread)
        assert second is threading.current_thread() and first is not second
        assert first.name.startswith("tplrec-helper")

    def test_inline_in_order_on_one_cpu(self, monkeypatch, fresh_helper):
        helper_on(monkeypatch, False)
        order = []
        assert optim.both(lambda: order.append("f") or 1, lambda: order.append("g") or 2) == (1, 2)
        assert order == ["f", "g"] and optim._helper is None

    def test_helper_sees_the_callers_errstate(self, monkeypatch, fresh_helper):
        helper_on(monkeypatch, True)
        big = np.array([1e308])
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                optim.both(lambda: big * 10.0, lambda: None)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning from the helper would raise here
            assert optim.both(lambda: big * 10.0, lambda: big)[0][0] == np.inf

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_exception_surfaces_after_both_halves(self, monkeypatch, fresh_helper, failing):
        helper_on(monkeypatch, True)
        finished = []

        def half(name):
            def run():
                if name == failing:
                    raise ValueError(name)
                time.sleep(0.05)
                finished.append(name)
            return run

        with pytest.raises(ValueError, match=failing):
            optim.both(half("helper"), half("caller"))
        assert finished == ["caller" if failing == "helper" else "helper"]

    def test_callers_exception_wins(self, monkeypatch, fresh_helper):
        helper_on(monkeypatch, True)

        def fail(name):
            def run():
                raise ValueError(name)
            return run

        with pytest.raises(ValueError, match="caller"):
            optim.both(fail("helper"), fail("caller"))

    def test_nested_call_on_the_helper_runs_inline(self):
        # in a child process: were it to deadlock, the helper thread would hang the exit too
        out = run_child("""
import threading
from tplrec import optim
optim._cpus = lambda: 2
seen = {}
def outer():
    seen["outer"] = threading.current_thread()
    seen["inner"] = optim.both(threading.current_thread, threading.current_thread)
optim.both(outer, lambda: None)
print(seen["outer"].name.startswith("tplrec-helper"), seen["inner"] == (seen["outer"], seen["outer"]))
""")
        assert out.split() == ["True", "True"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_helper(self):
        out = run_child("""
import os, threading
from tplrec import optim
optim._cpus = lambda: 2
optim.both(lambda: None, lambda: None)
pid = os.fork()
if pid == 0:
    first, _ = optim.both(threading.current_thread, lambda: None)
    os._exit(0 if first.name.startswith("tplrec-helper") else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
""")
        assert out.split() == ["0"]


def run_child(script: str) -> str:
    """Standard output of `script` run by a fresh interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def make_catalog(seed=0, m=300, d=8, hidden=32, dtype=np.float32):
    rng = np.random.default_rng(seed)
    has_rep = rng.random(m) < 0.9
    vectors = np.where(has_rep[:, None], rng.normal(size=(m, d)), 0.0)
    rep = RepresentativeTable(vectors=vectors, blend=0.5, has_rep=has_rep)
    net = QNetwork(d, m, hidden=hidden, rng=rng)
    net.params = {name: p.astype(dtype) for name, p in net.params.items()}
    return rng, rep, net


class TestRecommendParity:
    @pytest.mark.parametrize("mode", agent.MODES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_helper_changes_no_answer(self, monkeypatch, mode, dtype):
        rng, rep, net = make_catalog(dtype=dtype)
        avail = np.flatnonzero(rep.has_rep)
        k = 12
        n = 3 * agent._BLOCK + 57
        queries = [rng.choice(avail, size=int(rng.integers(1, 30)), replace=False).tolist() for _ in range(n)]
        # truncating queries among the caller's blocks and among the helper's
        for at in (3, agent._BLOCK + 5, n - 40, n - 1):
            queries[at] = avail[int(rng.integers(0, 4)):][: len(avail) - k + 3].tolist()

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = recommend(queries, k, net, rep, mode=mode, with_scores=True)
            return got, [str(w.message) for w in caught]

        (off, off_warnings), (on, on_warnings) = both_ways(monkeypatch, run)
        assert sum(len(a) < k for a in off) == 4
        assert off_warnings == on_warnings == [
            f"only {len(a)} recommendable libraries for k={k}; truncating" for a in off if len(a) < k]
        for a, b in zip(off, on, strict=True):
            assert np.array_equal(np.array(a), np.array(b))

    def test_single_block_starts_no_thread(self, monkeypatch, fresh_helper):
        helper_on(monkeypatch, True)
        rng, rep, net = make_catalog()
        avail = np.flatnonzero(rep.has_rep)
        recommend(avail[:3].tolist(), 10, net, rep)
        recommend([avail[i:i + 3].tolist() for i in range(agent._BLOCK)], 10, net, rep)
        assert optim._helper is None


def cql_case(rng, b, m=200, d=8, terminal=None):
    term = rng.integers(0, 2, size=b).astype(bool) if terminal is None else np.full(b, terminal)
    return Transition(rng.normal(size=(b, d)), rng.integers(0, m, size=b), rng.uniform(0, 2, size=b),
                      rng.normal(size=(b, d)), term)


class TestCQLParity:
    @pytest.mark.parametrize("b", [1, 2, 129, 512])
    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    @pytest.mark.parametrize("terminal", [None, True])
    def test_helper_changes_no_bit(self, monkeypatch, b, gamma, terminal):
        rng, _, online = make_catalog(seed=b, m=200, hidden=48)
        target = QNetwork.from_params({k: v + np.float32(0.01) for k, v in online.params.items()})
        batch = cql_case(rng, b, terminal=terminal)
        w = rng.random(b)
        off, on = both_ways(monkeypatch, lambda: cql_loss(batch, online, target, 5.5, gamma, w / w.sum()))
        assert off[0] == on[0]
        assert np.array_equal(off[2], on[2])
        assert off[1].keys() == on[1].keys()
        for name in off[1]:
            assert np.array_equal(off[1][name], on[1][name]), name


class TestTrainParity:
    def test_train_agent_is_bitwise_the_same(self, monkeypatch):
        rng = np.random.default_rng(3)
        lines = [f"p{u}\tl{i}" for u in range(40) for i in rng.choice(150, 6, replace=False)]
        ds = ingest(lines)
        rows = rng.normal(size=(ds.n_projects + ds.n_libraries, 8))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        table = EmbeddingTable(rows[:ds.n_projects], rows[ds.n_projects:])
        rep = build_representatives(table, ds, 0.5)
        cfg = AgentConfig(epochs=2, batch_size=64, hidden=32, target_sync=5, seed=4)
        (net_off, stats_off), (net_on, stats_on) = both_ways(monkeypatch, lambda: train_agent(ds, table, rep, cfg))
        for name, p in net_off.params.items():
            assert np.array_equal(p, net_on.params[name]), name
        assert stats_off.log == stats_on.log


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_run_starts_no_thread():
    """With one CPU allowed, training and a several-block recommend run inline."""
    script = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from tplrec import optim
from tplrec.agent import AgentConfig, recommend, train_agent
from tplrec.coldstart import build_representatives
from tplrec.data import ingest
from tplrec.embed import EmbeddingTable
rng = np.random.default_rng(1)
ds = ingest([f"p{u}\\tl{i}" for u in range(30) for i in rng.choice(60, 5, replace=False)])
rows = rng.normal(size=(ds.n_projects + ds.n_libraries, 4))
table = EmbeddingTable(rows[:ds.n_projects], rows[ds.n_projects:])
rep = build_representatives(table, ds, 0.5)
net, _ = train_agent(ds, table, rep, AgentConfig(epochs=1, batch_size=32, hidden=16))
recommend([[int(i)] for i in np.flatnonzero(rep.has_rep)] * 9, 3, net, rep)
print(threading.active_count(), optim._helper is None)
"""
    assert run_child(script).split() == ["1", "True"]
