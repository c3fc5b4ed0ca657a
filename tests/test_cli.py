import numpy as np
import pytest

from tplrec.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, RunConfig, UsageError, load_config, main
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

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tc\td\n")
        assert main(["ingest", str(bad)]) == EXIT_DATA


class TestIngest:
    def test_summary_output(self, dataset_file, capsys):
        path, ds = dataset_file
        assert main(["ingest", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"projects: {ds.n_projects}" in out
        assert f"libraries: {ds.n_libraries}" in out
        assert f"interactions: {ds.n_interactions}" in out
        assert "long-tail histogram" in out


class TestTrainRecommend:
    def run_train(self, path, out, extra=()):
        args = ["train", "--dataset", str(path), "--output", str(out), *FAST_TRAIN, *extra]
        return main(args)

    def test_artifacts_written(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        out = tmp_path / "model"
        assert self.run_train(path, out) == EXIT_OK
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq",
                     "curve.csv", "vocab.tsv", "manifest.txt"):
            assert (out / name).is_file()
        manifest = (out / "manifest.txt").read_text()
        assert manifest.count("sha256:") == 5

    def test_train_deterministic(self, dataset_file, tmp_path, capsys):
        path, _ = dataset_file
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_train(path, a) == EXIT_OK
        assert self.run_train(path, b) == EXIT_OK
        for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq", "curve.csv"):
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
