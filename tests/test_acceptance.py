"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v``. The PASS/FAIL lines are
written to the terminal even under output capture. The benchmark
criterion needs an external interaction file and is skipped unless the
TPLREC_DS1 environment variable points at one.
"""
import os
import time
from itertools import combinations

import numpy as np
import pytest

from tplrec.agent import (
    AgentConfig,
    QNetwork,
    ReplayBuffer,
    Transition,
    cql_loss,
    gen_transition,
    reward,
    train_agent,
)
from tplrec.cli import main
from tplrec.coldstart import aggregate, build_representatives
from tplrec.data import ingest, popularity
from tplrec.embed import EmbedConfig, EmbeddingTable, debiased_contrastive_loss, build_adjacency, propagate, train_embeddings
from tplrec.evaluation import (
    ProtocolConfig,
    coverage_at_k,
    epc_at_k,
    precision_recall_at_k,
    run_protocol,
)
from tplrec.synth import head_tail, planted_communities

from oracles import reward_expanded

FAST_EMBED = EmbedConfig(dim=32, batch_size=512, negatives=64, learning_rate=1e-3,
                         patience=10, max_epochs=80, seed=0)
FAST_AGENT = AgentConfig(epochs=12, batch_size=128, transitions_per_project=4,
                         target_sync=50, seed=0)


def report(capsys, name, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_bipartite(rng, n, m):
    lines = []
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(1, m + 1), replace=False):
            lines.append(f"p{u}\tl{i}")
    return ingest(lines)


def test_propagation_oracle(capsys):
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(50):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 11))  # n + m <= 20 vertices
        ds = random_bipartite(rng, n, m)
        emb = rng.normal(size=(ds.n_projects + ds.n_libraries, 6))
        layers = int(rng.integers(0, 4))
        cases.append((ds, emb, layers))

    worst = 0.0
    start = time.perf_counter()
    got = [propagate(build_adjacency(ds), emb, layers) for ds, emb, layers in cases]
    elapsed = time.perf_counter() - start

    for (ds, emb, layers), out in zip(cases, got):
        n, m = ds.n_projects, ds.n_libraries
        a = np.zeros((n + m, n + m))
        for u, i in ds.interactions:
            a[u, n + i] = a[n + i, u] = 1.0
        deg = a.sum(axis=1)
        dinv = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1)), 0.0)
        norm = np.diag(dinv) @ a @ np.diag(dinv)
        acc, power = emb.copy(), emb.copy()
        for _ in range(layers):
            power = norm @ power
            acc += power
        worst = max(worst, float(np.abs(out - acc / (layers + 1)).max()))

    ok = worst < 1e-6 and elapsed < 1.0
    report(capsys, "propagation matches dense oracle on 50 graphs",
           ok, f"max err {worst:.2e}, {elapsed * 1000:.0f}ms")


def test_gradient_checks(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    eps = 1e-5
    worst = 0.0
    checked_contrastive = 0
    checked_cql = 0

    # a table of 5 projects and 15 libraries (120 entries, every one checked)
    emb = rng.normal(size=(20, 6))
    users = rng.integers(0, 5, size=5)
    pos = rng.integers(5, 20, size=5)
    negs = rng.integers(5, 20, size=(5, 8))
    w = 1.0 - 0.5 * rng.random(5)
    _, grad = debiased_contrastive_loss(emb, users, pos, negs, w, 0.2)
    flat, gflat = emb.reshape(-1), grad.reshape(-1)
    for j in rng.choice(flat.size, size=flat.size, replace=False):
        flat[j] += eps
        lp, _ = debiased_contrastive_loss(emb, users, pos, negs, w, 0.2)
        flat[j] -= 2 * eps
        lm, _ = debiased_contrastive_loss(emb, users, pos, negs, w, 0.2)
        flat[j] += eps
        fd = (lp - lm) / (2 * eps)
        worst = max(worst, abs(fd - gflat[j]) / max(1e-6, abs(fd) + abs(gflat[j])))
        checked_contrastive += 1

    net = QNetwork(4, 6, hidden=16, rng=2)
    target = QNetwork(4, 6, hidden=16, rng=3)
    batch = [Transition(rng.normal(size=4), int(rng.integers(6)),
                        float(rng.uniform(0, 2)), rng.normal(size=4),
                        bool(rng.integers(2))) for _ in range(8)]
    eps = 1e-6
    _, grads, _ = cql_loss(batch, net, target, 5.5, 0.9)
    for name, par in net.params.items():
        flat = par.reshape(-1)
        for j in rng.choice(flat.size, size=min(35, flat.size), replace=False):
            flat[j] += eps
            lp, *_ = cql_loss(batch, net, target, 5.5, 0.9)
            flat[j] -= 2 * eps
            lm, *_ = cql_loss(batch, net, target, 5.5, 0.9)
            flat[j] += eps
            fd = (lp - lm) / (2 * eps)
            g = grads[name].reshape(-1)[j]
            worst = max(worst, abs(fd - g) / max(1e-6, abs(fd) + abs(g)))
            checked_cql += 1

    elapsed = time.perf_counter() - start
    ok = (worst < 1e-4 and checked_contrastive >= 100
          and checked_cql >= 100 and elapsed < 30.0)
    report(capsys, "analytic gradients match finite differences",
           ok, f"{checked_contrastive}+{checked_cql} points, "
               f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_coldstart_algebra(capsys):
    rng = np.random.default_rng(4)

    # singleton user at full blend: representative equals the user's vector
    ds1 = ingest(["p\tl", "p\tl2", "q\tl2"])
    t1 = EmbeddingTable(unit_rows(rng, 2, 5), unit_rows(rng, 2, 5))
    exact = np.array_equal(build_representatives(t1, ds1, 1.0).vectors[0], t1.projects[0])

    ds = random_bipartite(rng, 12, 9)
    table = EmbeddingTable(unit_rows(rng, ds.n_projects, 5), unit_rows(rng, ds.n_libraries, 5))
    rep = build_representatives(table, ds, 0.5)
    avail = np.flatnonzero(rep.has_rep).tolist()

    incr_err = 0.0
    for _ in range(200):
        picks = rng.choice(avail, size=int(rng.integers(2, len(avail))), replace=False).tolist()
        base, extra = picks[:-1], picks[-1]
        want = (len(base) * aggregate(base, rep) + rep.vectors[extra]) / (len(base) + 1)
        incr_err = max(incr_err, float(np.abs(aggregate(picks, rep) - want).max()))

    reward_err = 0.0
    for _ in range(1000):
        known = rng.choice(ds.n_libraries, size=int(rng.integers(1, 5)), replace=False).tolist()
        action = int(rng.integers(ds.n_libraries))
        direct = reward(aggregate(known, rep), action, table.libraries)
        reward_err = max(reward_err, abs(direct - reward_expanded(action, known, table, ds, 0.5)))

    ok = exact and incr_err < 1e-9 and reward_err < 1e-9
    report(capsys, "cold-start algebra identities hold",
           ok, f"incremental err {incr_err:.1e}, reward err {reward_err:.1e}")


def test_reward_bound(capsys):
    rng = np.random.default_rng(5)
    lib = unit_rows(rng, 50, 8)
    states = unit_rows(rng, 100_000, 8)
    actions = rng.integers(50, size=100_000)
    r = 1.0 + np.einsum("ij,ij->i", lib[actions], states)
    ok = bool((r >= 0.0).all() and (r <= 2.0).all())
    report(capsys, "reward stays in [0, 2] over 1e5 samples",
           ok, f"range [{r.min():.6f}, {r.max():.6f}]")


def test_cql_regularizer_nonnegative(capsys):
    ds = planted_communities(n_projects=60, n_libraries=40, n_communities=2,
                             interactions_per_project=6, noise=0.1, seed=6)
    emb = train_embeddings(ds, EmbedConfig(dim=16, batch_size=256, negatives=32,
                                           learning_rate=1e-3, patience=5,
                                           max_epochs=20, seed=0))
    rep = build_representatives(emb.table, ds, 0.5)
    _, stats = train_agent(ds, emb.table, rep,
                           AgentConfig(epochs=5, batch_size=64, target_sync=20, seed=0))
    ok = stats.min_regularizer >= 0.0
    report(capsys, "conservatism regularizer never negative during training",
           ok, f"min {stats.min_regularizer:.3e}")


def test_buffer_properties(capsys):
    lines = ["p0\trare_lib"] + [f"p{j}\tmid" for j in range(12)] + [f"p{j}\thot" for j in range(20)]
    for j in range(20):
        lines.append(f"p{j}\tanchor")
    ds = ingest(lines)
    pop = popularity(ds)
    rare_i = ds.libraries.index("rare_lib")
    mid_i = ds.libraries.index("mid")
    hot_i = ds.libraries.index("hot")

    def trans(a):
        return Transition(np.zeros(1), a, 1.0, np.zeros(1), True)

    buf = ReplayBuffer(100, (0.2, 0.5, 0.3), pop, rng=0)
    rng = np.random.default_rng(7)
    purity = True
    for _ in range(300):
        buf.insert(trans(int(rng.choice([rare_i, mid_i, hot_i]))), project=int(rng.integers(5)))
        purity &= all(pop.rates[t.action] < 0.1 for t in buf.rare)
    _, tags = buf.sample(10)
    composition = (tags.count("rare"), tags.count("rand"), tags.count("seq"))

    empty_rare = ReplayBuffer(100, (0.2, 0.5, 0.3), pop, rng=0)
    for _ in range(30):
        empty_rare.insert(trans(hot_i), project=0)
    quotas = empty_rare._quotas(10)
    reassigned = (quotas["rare"], quotas["rand"], quotas["seq"])

    ok = composition == (2, 5, 3) and purity and reassigned == (0, 7, 3)
    report(capsys, "replay buffer composition, purity, and quota reassignment",
           ok, f"batch {composition}, empty-rare quotas {reassigned}")


def test_metric_oracles(capsys):
    ok = True
    # hand-checked examples
    p, r = precision_recall_at_k([11, 12, 13], [11], 3)
    ok &= abs(p - 100 / 3) < 1e-9 and r == 100.0
    ok &= precision_recall_at_k([1, 2], [3], 2) == (0.0, 0.0)
    ok &= precision_recall_at_k([1, 2], [1, 2], 2) == (100.0, 100.0)

    lines = [f"p{u}\talways" for u in range(10)]
    lines += [f"p{u}\toften" for u in range(6)] + [f"p{u}\tsome" for u in range(2)]
    ds = ingest(lines)
    pop = popularity(ds)
    always, often, some = (ds.libraries.index(n) for n in ("always", "often", "some"))
    ok &= epc_at_k([[always]], [[always]], pop, 1) == 0.0
    ok &= abs(epc_at_k([[some, often]], [[some, often]], pop, 2) - 60.0) < 1e-9

    ok &= coverage_at_k([[j for j in range(10)]] * 4, 100, 10) == 10.0
    ok &= coverage_at_k([[0, 1], [1, 2], [2, 3]], 8, 2) == 50.0
    ok &= coverage_at_k([[j] for j in range(5)], 5, 1) == 100.0

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        rec = rng.choice(50, size=int(rng.integers(1, 20)), replace=False).tolist()
        truth = rng.choice(50, size=int(rng.integers(1, 20)), replace=False).tolist()
        k = int(rng.integers(1, 20))
        p, r = precision_recall_at_k(rec, truth, k)
        worst = max(worst, abs(p * k - r * len(truth)))
    ok &= worst < 1e-9
    report(capsys, "metric hand examples and precision-recall identity",
           bool(ok), f"identity err {worst:.1e}")


def test_end_to_end_signal(capsys):
    start = time.perf_counter()
    ds = planted_communities(n_projects=200, n_libraries=200, n_communities=4,
                             interactions_per_project=20, noise=0.1, seed=0)
    base = dict(protocol="coldstart-30", folds=2, k=10, seed=0,
                embed=FAST_EMBED, agent=FAST_AGENT)
    agent_rec = run_protocol(ds, ProtocolConfig(policy="agent", **base)).averages["recall"]
    random_rec = run_protocol(ds, ProtocolConfig(policy="random", **base)).averages["recall"]
    elapsed = time.perf_counter() - start
    ok = agent_rec >= 5.0 * random_rec and elapsed < 600.0
    report(capsys, "agent beats uniform random by 5x on planted communities",
           ok, f"recall {agent_rec:.1f} vs {random_rec:.1f}, {elapsed:.0f}s")


def test_debias_signal(capsys):
    wins = 0
    details = []
    for seed in range(3):
        ds = head_tail(n_projects=200, n_head=20, n_tail=180, head_prob=0.55,
                       tail_per_project=8, n_clusters=20, seed=seed)
        agent = AgentConfig(epochs=20, batch_size=128, transitions_per_project=8,
                            target_sync=100, grad_steps_per_epoch=30, seed=0)
        base = dict(protocol="coldstart-30", folds=2, k=10, seed=seed, policy="agent")
        full = run_protocol(ds, ProtocolConfig(
            embed=FAST_EMBED, agent=agent, **base)).averages
        ablated = run_protocol(ds, ProtocolConfig(
            embed=EmbedConfig(**{**FAST_EMBED.__dict__, "beta": 0.0}),
            agent=AgentConfig(**{**agent.__dict__, "mu": (0.0, 1.0, 0.0)}),
            **base)).averages
        won = full["coverage"] > ablated["coverage"] and full["epc"] > ablated["epc"]
        wins += won
        details.append(f"s{seed}: cov {full['coverage']:.0f}/{ablated['coverage']:.0f} "
                       f"epc {full['epc']:.0f}/{ablated['epc']:.0f}")
    ok = wins >= 2
    report(capsys, "debiased full agent beats ablated variant on coverage and novelty",
           ok, f"{wins}/3 seeds; " + "; ".join(details))


def test_determinism(capsys, tmp_path):
    ds = planted_communities(n_projects=40, n_libraries=30, n_communities=2,
                             interactions_per_project=6, noise=0.1, seed=9)
    data = tmp_path / "data.tsv"
    data.write_text("\n".join(f"{ds.projects[u]}\t{ds.libraries[i]}"
                              for u, i in ds.interactions) + "\n")
    fast = ["--dim", "8", "--embed-batch", "128", "--negatives", "16",
            "--embed-lr", "0.001", "--patience", "3", "--embed-epochs", "6",
            "--agent-epochs", "2", "--agent-batch", "32", "--hidden", "16",
            "--target-sync", "10", "--transitions-per-project", "2"]

    def run(tag):
        out = tmp_path / tag
        assert main(["train", "--dataset", str(data), "--output", str(out), *fast]) == 0
        assert main(["evaluate", "--dataset", str(data), "--output", str(out / "eval"),
                     "--folds", "2", "--protocol", "coldstart-30", *fast]) == 0
        blobs = {}
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq",
                     "curve.csv", "vocab.tsv"):
            blobs[name] = (out / name).read_bytes()
        # the manifest records the output directory, which differs by design
        blobs["manifest.txt"] = b"\n".join(
            l for l in (out / "manifest.txt").read_bytes().splitlines()
            if not l.startswith(b"output "))
        blobs["report.csv"] = (out / "eval" / "report.csv").read_bytes()
        blobs["report.txt"] = b"\n".join(
            l for l in (out / "eval" / "report.txt").read_bytes().splitlines()
            if not l.startswith(b"# elapsed"))
        return blobs

    a, b = run("a"), run("b")
    diffs = [name for name in a if a[name] != b[name]]
    report(capsys, "repeated runs produce byte-identical artifacts and reports",
           not diffs, "all identical" if not diffs else f"differs: {diffs}")


def test_benchmark_mode(capsys):
    path = os.environ.get("TPLREC_DS1", "")
    if not path or not os.path.isfile(path):
        with capsys.disabled():
            print("SKIP: benchmark mode (set TPLREC_DS1 to an interaction file)")
        pytest.skip("no benchmark dataset provided")
    ds = ingest(path)
    base = dict(protocol="coldstart-100", folds=10, k=10, seed=0)
    agent = run_protocol(ds, ProtocolConfig(policy="agent", **base))
    popular = run_protocol(ds, ProtocolConfig(policy="popularity", **base))
    avg = agent.averages
    ok = (len(agent.fold_metrics) == 10
          and all(np.isfinite(v) for v in avg.values())
          and avg["recall"] > popular.averages["recall"])
    report(capsys, "benchmark protocol completes and beats popularity baseline",
           ok, f"recall {avg['recall']:.2f} vs {popular.averages['recall']:.2f}")
