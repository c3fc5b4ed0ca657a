"""The command line in process under odd values: whatever one key is set
to, `main` returns an exit code in 0..3 and raises nothing; a failure
prints exactly one stderr line, a success only `warning:` lines."""
import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.cli import DEFAULTS, main
from tplrec.synth import planted_communities

VALUES = ["0", "-1", "2", "1e300", "nan", "inf", "x", "", str(2**31), str(2**63), str(10**20)]
HUGE = VALUES[-3:]
# Valid at any size: with one of the huge values, training runs without end.
UNBOUNDED = ("agent_epochs", "layers")
TINY = ["--dim", "4", "--embed-batch", "64", "--negatives", "4", "--patience", "2", "--embed-epochs", "3",
        "--agent-epochs", "1", "--agent-batch", "16", "--hidden", "8", "--transitions-per-project", "1",
        "--folds", "2"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding a tiny dataset and a model trained on it, made
    the working directory so that any `--output` lands inside it."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = planted_communities(n_projects=20, n_libraries=12, n_communities=2,
                             interactions_per_project=4, noise=0.1, seed=5)
    (root / "data.tsv").write_bytes("".join(f"{ds.projects[u]}\t{ds.libraries[i]}\n"
                                            for u, i in ds.interactions).encode())
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert main(["train", "--dataset", "data.tsv", "--output", "model", *TINY]) == 0
        yield root, ds
    finally:
        os.chdir(cwd)


def run(argv):
    """(exit code, stderr lines) of one in-process run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def check(code, err):
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err) == 1, err
    else:
        assert all(line.startswith("warning: ") for line in err), err


def setting(keys):
    """One (key, value) pair, keeping the huge values off `UNBOUNDED` keys."""
    return st.sampled_from(keys).flatmap(lambda key: st.tuples(
        st.just(key), st.sampled_from([v for v in VALUES if key not in UNBOUNDED or v not in HUGE])))


@given(command=st.sampled_from(["train", "evaluate"]), kv=setting(sorted(DEFAULTS)),
       junk=st.one_of(st.just(b""), st.binary(min_size=1, max_size=24)))
@settings(max_examples=200, deadline=None)
def test_train_and_evaluate(workdir, command, kv, junk):
    root, _ = workdir
    (root / "fuzz.tsv").write_bytes((root / "data.tsv").read_bytes() + junk)
    key, value = kv
    argv = [command, "--dataset", "fuzz.tsv", "--output", "out", *TINY, "--" + key, value]
    check(*run(argv))


# Lone surrogates are how Python decodes argument bytes that are not UTF-8.
JUNK = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), min_size=1, max_size=8)


@given(kv=setting(["k", "mode"]), junk=st.one_of(st.just(""), JUNK))
@settings(max_examples=100, deadline=None)
def test_recommend(workdir, kv, junk):
    _, ds = workdir
    key, value = kv
    query = ",".join([ds.libraries[i] for i in ds.by_project[0][:2]] + [junk] * bool(junk))
    check(*run(["recommend", "--model-dir", "model", "--query", query, "--" + key, value]))
