import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tplrec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, RunConfig, UsageError, _Libraries, load_config, main
from tplrec.errors import DataError
from tplrec.synth import head_tail, planted_communities


FAST_TRAIN = [
    "--dim", "8", "--embed-batch", "128", "--negatives", "16",
    "--embed-lr", "0.001", "--patience", "3", "--embed-epochs", "6",
    "--agent-epochs", "2", "--agent-batch", "32", "--hidden", "16",
    "--target-sync", "10", "--transitions-per-project", "2",
]

FAST_EVAL = FAST_TRAIN + ["--folds", "2", "--protocol", "coldstart-30"]


@pytest.fixture()
def dataset_file(tmp_path):
    ds = planted_communities(n_projects=30, n_libraries=24, n_communities=2,
                             interactions_per_project=5, noise=0.1, seed=7)
    path = tmp_path / "data.tsv"
    lines = [f"{ds.projects[u]}\t{ds.libraries[i]}" for u, i in ds.interactions]
    path.write_text("\n".join(lines) + "\n")
    return path, ds


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None, [])
        assert cfg == RunConfig()

    def test_file_and_override_precedence(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("seed 3\nk = 5\n# comment\n\n")
        cfg = load_config(str(p), ["--seed", "9"])
        assert cfg.seed == 9  # command line wins
        assert cfg.k == 5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.conf"
        p.write_text("warp_speed 11\n")
        with pytest.raises(UsageError):
            load_config(str(p), [])
        with pytest.raises(UsageError):
            load_config(None, ["--warp-speed", "11"])

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            load_config(None, ["--seed", "banana"])

    def test_missing_override_value(self):
        with pytest.raises(UsageError):
            load_config(None, ["--seed"])

    def test_dashes_map_to_underscores(self):
        cfg = load_config(None, ["--query-fraction", "0.3"])
        assert cfg.query_fraction == 0.3

    def test_value_may_hold_equals(self, tmp_path):
        # a line splits once, at its first `=` or run of whitespace
        p = tmp_path / "run.conf"
        p.write_text("dataset /data/a=b.tsv\noutput=out=1\nk = 5\nseed\t=3\n")
        cfg = load_config(str(p), [])
        assert (cfg.dataset, cfg.output, cfg.k, cfg.seed) == ("/data/a=b.tsv", "out=1", 5, 3)

    @pytest.mark.parametrize("line", ["seed", "seed 3 4", "= 3", "seed =", "seed = 3 4", "seed=3 4"])
    def test_line_not_one_key_and_value_rejected(self, tmp_path, line):
        p = tmp_path / "run.conf"
        p.write_text(line + "\n")
        with pytest.raises(UsageError, match="expected 'key value'"):
            load_config(str(p), [])


BAD_VALUES = [
    ("--temperature", "0"),
    ("--mu-rare", "0.5"),
    ("--target-sync", "0"),
    ("--hidden", "0"),
    ("--agent-batch", "0"),
    ("--transitions-per-project", "0"),
    ("--layers", "-1"),
    ("--k", "0"),
    ("--mode", "bogus"),
    ("--blend", "2"),
    ("--query-fraction", "1"),
    ("--train-fraction", "0"),
    ("--embed-lr", "-1"),
    ("--agent-lr", "0"),
    ("--l2", "-1"),
    ("--capacity", "0"),
    ("--folds", "1"),
    ("--seed", "-1"),
    # array sizes above 2**31 - 1, which NumPy refused with a traceback
    ("--dim", "2147483648"),
    ("--negatives", "4611686018427387904"),
    ("--hidden", "99999999999999999999"),
    ("--agent-batch", "99999999999999999999"),
    ("--transitions-per-project", "4611686018427387904"),
]


class TestBadValues:
    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("key,value", BAD_VALUES)
    def test_rejected_before_training(self, dataset_file, tmp_path, capsys, monkeypatch,
                                      command, key, value):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("tplrec.cli.train_embeddings", no_training)
        monkeypatch.setattr("tplrec.evaluation.train_embeddings", no_training)
        path, _ = dataset_file
        argv = [command, "--dataset", str(path), "--output", str(tmp_path / "out"), key, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:")
        assert not (tmp_path / "out").exists()


# Values that once got past the config checks: a traceback in training
# (negative or NaN ratio), a numeric failure (NaN alpha or l2), or an
# untrained Q-network written with exit 0 (no epoch).
OUT_OF_RANGE = [
    ["--mu_rare", "-0.5", "--mu_rand", "1.0", "--mu_seq", "0.5"],
    ["--mu_rare", "nan"],
    ["--alpha", "nan"],
    ["--l2", "nan"],
    ["--agent_epochs", "0"],
]


@pytest.mark.parametrize("overrides", OUT_OF_RANGE, ids=" ".join)
def test_out_of_range_config_is_one_usage_line(dataset_file, tmp_path, capsys, overrides):
    path, _ = dataset_file
    argv = ["train", "--dataset", str(path), "--output", str(tmp_path / "out"), *FAST_TRAIN, *overrides]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: bad configuration:"), err
    assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_missing_dataset_is_data_error(self, capsys):
        assert main(["ingest", "/no/such/file.tsv"]) == EXIT_DATA

    def test_train_without_dataset_is_usage(self, capsys):
        assert main(["train"]) == EXIT_USAGE

    def test_unknown_override_is_usage(self, dataset_file, capsys):
        path, _ = dataset_file
        assert main(["train", "--dataset", str(path), "--bogus", "1"]) == EXIT_USAGE

    def test_project_with_every_library_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "full.tsv"
        data.write_text("a\tx\na\ty\nb\tx\n")
        assert main(["train", "--dataset", str(data), "--output", str(tmp_path / "model")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "a uses all 2 libraries" in err

    @pytest.mark.parametrize("case", ["dataset not UTF-8", "config not UTF-8", "output is a file"])
    def test_bad_file_is_one_data_line(self, dataset_file, tmp_path, capsys, case):
        path, _ = dataset_file
        latin1 = tmp_path / "latin1.tsv"
        latin1.write_bytes("p\tl\np\tcafé\n".encode("latin-1"))
        argv = {
            "dataset not UTF-8": ["train", "--dataset", str(latin1), "--output", str(tmp_path / "out")],
            "config not UTF-8": ["evaluate", "--config", str(latin1), "--dataset", str(path)],
            "output is a file": ["train", "--dataset", str(path), "--output", str(path), *FAST_TRAIN],
        }[case]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert (str(latin1) in err[0] and "offset 9" in err[0]) or case == "output is a file"

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("dataset", ["missing", "malformed"])
    def test_bad_dataset_makes_no_output_directory(self, tmp_path, capsys, command, dataset):
        data = tmp_path / "data.tsv"
        if dataset == "malformed":
            data.write_text("a\tb\tc\n")
        out = tmp_path / "out"
        assert main([command, "--dataset", str(data), "--output", str(out)]) == EXIT_DATA
        assert not out.exists()

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tc\td\n")
        assert main(["ingest", str(bad)]) == EXIT_DATA

    @pytest.mark.parametrize("command", ["recommend", "train"])
    def test_argument_not_utf8_is_one_usage_line(self, dataset_file, tmp_path, capsys, command):
        # an argument byte 0xff, as Python decodes it on Linux: a lone surrogate
        path, _ = dataset_file
        argv = {
            "recommend": ["recommend", "--model-dir", str(tmp_path), "--query", "\udcff"],
            "train": ["train", "--dataset", str(path), "--output", str(tmp_path / "m\udcff"), *FAST_TRAIN],
        }[command]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and "not UTF-8" in err[0], err
        assert [p.name for p in tmp_path.iterdir()] == ["data.tsv"]  # refused before any work


class TestIngest:
    def test_summary_output(self, dataset_file, capsys):
        path, ds = dataset_file
        assert main(["ingest", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"projects: {ds.n_projects}" in out
        assert f"libraries: {ds.n_libraries}" in out
        assert f"interactions: {ds.n_interactions}" in out
        assert "long-tail histogram" in out


class TestVocabularyLookup:
    def test_names_and_indices_match_the_library_lines(self, tmp_path):
        names = ["lib1", "lib10", "a b", "p0", "lib1x"]
        path = tmp_path / "vocab.tsv"
        path.write_text("model\tabc\nproject\tp0\nproject\tlib1\n" + "".join(f"library\t{n}\n" for n in names))
        libraries = _Libraries(path)
        assert libraries.model_id == "abc"
        assert [libraries[j] for j in range(len(names))] == names
        assert [libraries.index(n) for n in names] == list(range(len(names)))
        for absent in ("lib", "ib1", "lib1\nlibrary\tlib10", "project", "abc", ""):
            assert libraries.index(absent) is None, absent

    def test_file_without_model_line_or_libraries(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("library\tx\nlibrary\ty")  # no final newline
        libraries = _Libraries(path)
        assert libraries.model_id is None
        assert (libraries.index("x"), libraries.index("y"), libraries[1]) == (0, 1, "y")
        path.write_text("project\tp\n")
        assert _Libraries(path).index("p") is None

    def test_model_line_without_final_newline(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("model\t0123456789abcdef")
        libraries = _Libraries(path)
        assert (libraries.model_id, len(libraries)) == ("0123456789abcdef", 0)

    @pytest.mark.parametrize("line", [0, 3], ids=["model line", "unprinted library line"])
    def test_file_not_utf8_is_data_error(self, tmp_path, line):
        lines = [b"model\tabc", b"project\tp0", b"library\tx", b"library\ty"]
        lines[line] += b"\xff"
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataError, match="vocab.tsv is not UTF-8"):
            _Libraries(path)


class TestTrainRecommend:
    def run_train(self, path, out, extra=()):
        args = ["train", "--dataset", str(path), "--output", str(out), *FAST_TRAIN, *extra]
        return main(args)

    def test_artifacts_written(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq",
                     "curve.csv", "embed_curve.csv", "vocab.tsv", "manifest.txt"):
            assert (out / name).is_file()
        manifest = (out / "manifest.txt").read_text()
        assert manifest.count("sha256:") == 6

    def test_embed_curve_is_the_history(self, dataset_file, tmp_path, capsys):
        from tplrec.cli import protocol_config
        from tplrec.data import ingest
        from tplrec.embed import train_embeddings

        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        result = train_embeddings(ingest(path), protocol_config(load_config(None, FAST_TRAIN)).embed)
        assert len(result.history) > 1
        rows = [line.split(",") for line in (out / "embed_curve.csv").read_text().splitlines()]
        assert rows[0] == ["epoch", "loss", "val_recall"]
        assert rows[1:-1] == [[str(e), f"{loss:.6f}", f"{r:.6f}"] for e, loss, r in result.history]
        assert rows[-1] == ["best_epoch", str(result.best_epoch)]

    def test_train_deterministic(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(path, a) == EXIT_OK
        assert self.run_train(path, b) == EXIT_OK
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq", "curve.csv", "embed_curve.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_blend_zero_representatives_equal_embeddings(self, dataset_file, tmp_path, capsys):
        from tplrec.coldstart import RepresentativeTable
        from tplrec.embed import EmbeddingTable

        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out, extra=["--blend", "0.0"]) == EXIT_OK
        emb = EmbeddingTable.load(out / "embeddings.tple")
        rep = RepresentativeTable.load(out / "representatives.tplr")
        assert np.allclose(rep.vectors[rep.has_rep], emb.libraries[rep.has_rep], atol=1e-6)

    def test_recommend_output(self, dataset_file, tmp_path, capsys):
        path, ds = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        capsys.readouterr()
        query = ",".join([ds.libraries[i] for i in list(ds.by_project[0])[:2]])
        assert main(["recommend", "--model-dir", str(out), "--query", query, "--k", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        names = set()
        for rank, line in enumerate(lines, 1):
            r, name, qval = line.split("\t")
            assert int(r) == rank
            float(qval)
            names.add(name)
        assert not names & set(query.split(","))

    def test_recommend_equals_in_process_recommend_on_the_loaded_model(self, dataset_file, tmp_path, capsys):
        from tplrec.cli import _load_model

        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        _, net, rep = _load_model(out)
        self.assert_cli_prints_in_process_picks(path, out, net, rep, capsys)

    def assert_cli_prints_in_process_picks(self, path, out, net, rep, capsys):
        """CLI `recommend` on the model in `out` prints what in-process
        `recommend` gives with `net` and `rep`, for every third project."""
        from tplrec.agent import recommend
        from tplrec.data import ingest

        ds = ingest(path)  # the training's own indices
        for u in range(0, ds.n_projects, 3):
            query = ds.by_project[u][:2].tolist()
            capsys.readouterr()
            query_ids = ",".join(ds.libraries[i] for i in query)
            assert main(["recommend", "--model-dir", str(out), "--query", query_ids, "--k", "5"]) == EXIT_OK
            picks = recommend(query, 5, net, rep, with_scores=True)
            assert capsys.readouterr().out == "".join(
                f"{rank}\t{ds.libraries[a]}\t{v:.6f}\n" for rank, (a, v) in enumerate(picks, 1))

    def test_recommend_equals_in_process_recommend_on_the_trained_model(self, dataset_file, tmp_path, capsys,
                                                                          monkeypatch):
        from tplrec import cli

        held = {}

        def keep(name, func):
            def call(*args, **kwargs):
                held[name] = func(*args, **kwargs)
                return held[name]
            monkeypatch.setattr(cli, name, call)

        keep("train_agent", cli.train_agent)
        keep("build_representatives", cli.build_representatives)
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        (net, _), rep = held["train_agent"], held["build_representatives"]
        self.assert_cli_prints_in_process_picks(path, out, net, rep, capsys)

    def test_recommend_unknown_library(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        code = main(["recommend", "--model-dir", str(out), "--query", "no-such-lib"])
        assert code == EXIT_DATA

    def test_recommend_missing_model(self, tmp_path, capsys):
        code = main(["recommend", "--model-dir", str(tmp_path / "void"), "--query", "x"])
        assert code == EXIT_DATA

    def test_recommend_k_zero_is_usage(self, tmp_path, capsys):
        code = main(["recommend", "--model-dir", str(tmp_path / "void"), "--query", "x", "--k", "0"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("query", ["", ","])
    def test_recommend_empty_query_is_usage(self, tmp_path, capsys, query):
        # the model directory does not exist: the query is refused before any artifact is read
        code = main(["recommend", "--model-dir", str(tmp_path / "void"), "--query", query])
        assert code == EXIT_USAGE
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_recommend_repeated_library_counts_once(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        outputs = []
        for query in ("l00", "l00,l00"):
            capsys.readouterr()
            assert main(["recommend", "--model-dir", str(out), "--query", query, "--k", "3"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


    def assert_one_data_error(self, argv, capsys, *fragments):
        capsys.readouterr()
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err
        assert all(f in err[0] for f in fragments), err[0]

    def test_model_id_stamped_in_vocab_and_artifacts(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        kind, model_id = (out / "vocab.tsv").read_text().splitlines()[0].split("\t")
        assert kind == "model" and len(model_id) == 16
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq"):
            raw = (out / name).read_bytes()
            assert raw[4] == 2 and raw[20:28].hex() == model_id

    def test_mixed_model_directory_is_data_error(self, dataset_file, tmp_path, capsys):
        path, ds = dataset_file
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(path, a) == EXIT_OK
        assert self.run_train(path, b, extra=["--seed", "1"]) == EXIT_OK
        shutil.copy(b / "representatives.tplr", a / "representatives.tplr")
        query = ds.libraries[ds.by_project[0][0]]
        self.assert_one_data_error(["recommend", "--model-dir", str(a), "--query", query], capsys,
                                   "model id", "representatives.tplr")

    def test_vocabulary_shorter_than_the_model_is_data_error(self, dataset_file, tmp_path, capsys):
        path, ds = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        vocab = out / "vocab.tsv"
        lines = vocab.read_text().splitlines(keepends=True)
        first = next(j for j, line in enumerate(lines) if line.startswith("library\t"))
        vocab.write_text("".join(lines[:first + 3]))  # the model line is intact
        query = lines[first].split("\t")[1].strip()
        self.assert_one_data_error(["recommend", "--model-dir", str(out), "--query", query, "--k", "5"],
                                   capsys, "vocab.tsv", f"lists 3 libraries where the model has {ds.n_libraries}")

    def test_corrupt_availability_mask_is_data_error(self, dataset_file, tmp_path, capsys):
        path, ds = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        rep = out / "representatives.tplr"
        raw = bytearray(rep.read_bytes())
        raw[-1] = 7  # the last library's availability byte
        rep.write_bytes(bytes(raw))
        query = ds.libraries[ds.by_project[0][0]]
        self.assert_one_data_error(["recommend", "--model-dir", str(out), "--query", query], capsys,
                                   "mask byte 7", "representatives.tplr")

    def test_version_one_model_is_data_error(self, dataset_file, tmp_path, capsys):
        path, ds = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        # rewrite the directory as the version-1 format wrote it: a 17-byte
        # header without pad or model id, and no model line in the vocabulary
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq"):
            raw = (out / name).read_bytes()
            (out / name).write_bytes(raw[:4] + bytes([1]) + raw[8:20] + raw[28:])
        vocab = out / "vocab.tsv"
        vocab.write_text(vocab.read_text().split("\n", 1)[1])
        query = ds.libraries[ds.by_project[0][0]]
        self.assert_one_data_error(["recommend", "--model-dir", str(out), "--query", query], capsys,
                                   "unsupported version 1", "qnet.tplq")


class TestOneStderrLine:
    """A failure prints one line and its exit code; a warning prints as one line."""

    @pytest.fixture(autouse=True)
    def plain_warnings(self, monkeypatch):
        # print warnings as Python does outside a test runner, which records them instead
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        monkeypatch.setattr(warnings, "showwarning", show)

    def run(self, argv, capsys, code):
        capsys.readouterr()
        assert main(argv) == code
        return capsys.readouterr()

    def train(self, tmp_path, n_libraries=24, extra=()):
        ds = planted_communities(n_projects=30, n_libraries=n_libraries, n_communities=2,
                                 interactions_per_project=5, noise=0.1, seed=7)
        path = tmp_path / "data.tsv"
        path.write_text("".join(f"{ds.projects[u]}\t{ds.libraries[i]}\n" for u, i in ds.interactions))
        out = tmp_path / "model"
        argv = ["train", "--dataset", str(path), "--output", str(out), *FAST_TRAIN, *extra]
        return argv, out, ds

    @pytest.mark.parametrize("key", ["--agent-lr", "--embed-lr"])
    def test_divergence_is_one_numeric_line(self, tmp_path, capsys, key):
        argv, _, _ = self.train(tmp_path, extra=[key, "1e300"])
        err = self.run(argv, capsys, EXIT_NUMERIC).err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:"), err

    @pytest.mark.parametrize("key", ["--agent-lr", "--embed-lr"])
    def test_evaluate_divergence_is_one_numeric_line(self, tmp_path, capsys, key):
        # every fold fails, so no fold's warning comes before the failure
        argv, _, _ = self.train(tmp_path, extra=[key, "1e300", "--folds", "2"])
        err = self.run(["evaluate", *argv[1:]], capsys, EXIT_NUMERIC).err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:"), err

    def test_evaluate_without_project_is_one_data_line(self, tmp_path, capsys):
        # every project has one library, so no fold has a test project to evaluate
        path = tmp_path / "data.tsv"
        path.write_text("".join(f"p{u}\tl{u % 3}\n" for u in range(10)))
        argv = ["evaluate", "--dataset", str(path), "--output", str(tmp_path / "eval"), *FAST_EVAL]
        err = self.run(argv, capsys, EXIT_DATA).err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:"), err

    def test_refused_allocation_is_one_data_line(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 37.3 GiB for an array with shape (100000100, 100000000)")

        monkeypatch.setattr("tplrec.cli.train_embeddings", refuse)
        argv, _, _ = self.train(tmp_path, extra=["--dim", "100000000"])
        err = self.run(argv, capsys, EXIT_DATA).err.splitlines()
        assert err == ["data error: Unable to allocate 37.3 GiB for an array with shape (100000100, 100000000)"]

    @pytest.mark.parametrize("k", ["1000", "99999999999999999999"])
    def test_truncated_k_warns_in_one_line(self, tmp_path, capsys, k):
        argv, out, ds = self.train(tmp_path, n_libraries=20)
        assert main(argv) == EXIT_OK
        query = ds.libraries[ds.by_project[0][0]]
        result = self.run(["recommend", "--model-dir", str(out), "--query", query, "--k", k], capsys, EXIT_OK)
        lines = result.out.splitlines()
        assert 0 < len(lines) < 20
        assert result.err.splitlines() == [f"warning: only {len(lines)} recommendable libraries for k={k}; truncating"]

    def test_quotas_that_round_past_the_batch(self, dataset_file, tmp_path, capsys):
        # mu (0.5, 0, 0.5) of a batch of 5 rounds to 3 rare and 3 sequential rows
        path, _ = dataset_file
        argv = ["evaluate", "--dataset", str(path), "--output", str(tmp_path / "eval"), *FAST_EVAL,
                "--mu_rare", "0.5", "--mu_rand", "0", "--mu_seq", "0.5", "--agent_batch", "5"]
        assert self.run(argv, capsys, EXIT_OK).err == ""


class TestEvaluate:
    def test_reports_written(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "eval"
        args = ["evaluate", "--dataset", str(path), "--output", str(out), *FAST_EVAL]
        assert main(args) == EXIT_OK
        table = (out / "report.txt").read_text()
        assert "Precision@K" in table and "avg" in table
        csv_lines = (out / "report.csv").read_text().strip().splitlines()
        assert any(l.startswith("avg,recall,") for l in csv_lines)
        assert (out / "manifest.txt").is_file()

    def test_reports_deterministic(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file

        def run(out):
            args = ["evaluate", "--dataset", str(path), "--output", str(out), *FAST_EVAL]
            assert main(args) == EXIT_OK
            # the table carries a wall-clock line; strip it before comparing
            table = [l for l in (out / "report.txt").read_text().splitlines()
                     if not l.startswith("# elapsed")]
            return table, (out / "report.csv").read_bytes()

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_config_file_driven(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "eval"
        conf = tmp_path / "run.conf"
        pairs = ["dataset " + str(path), "output " + str(out), "folds 2",
                 "protocol coldstart-30"]
        for j in range(0, len(FAST_TRAIN), 2):
            pairs.append(f"{FAST_TRAIN[j][2:].replace('-', '_')} {FAST_TRAIN[j + 1]}")
        conf.write_text("\n".join(pairs) + "\n")
        assert main(["evaluate", "--config", str(conf)]) == EXIT_OK
        assert (out / "report.txt").is_file()


def test_cli_import_skips_scipy_special(dataset_file, tmp_path):
    # every `tplrec recommend` process pays for its imports, and a query needs nothing of SciPy:
    # no `scipy` module after importing the CLI, nor after one `recommend`, each in a fresh process
    path, ds = dataset_file
    model = tmp_path / "model"
    assert main(["train", "--dataset", str(path), "--output", str(model), *FAST_TRAIN]) == EXIT_OK
    query = ",".join(ds.libraries[i] for i in ds.by_project[0][:2])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    report = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    for run in ("", f"assert main(['recommend', '--model-dir', {str(model)!r}, '--query', {query!r}]) == 0"):
        code = f"import sys\nfrom tplrec.cli import main\n{run}\n{report}"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.splitlines()[-1] == "[]", result.stdout
