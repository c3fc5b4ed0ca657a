import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.agent import AgentConfig
from tplrec.data import InteractionDataset, ingest, popularity
from tplrec.embed import EmbedConfig
import tplrec.evaluation
from tplrec.errors import DataError, NumericError
from tplrec.evaluation import (
    MetricsReport,
    ProtocolConfig,
    coverage_at_k,
    epc_at_k,
    precision_recall_at_k,
    run_protocol,
)
from tplrec.synth import planted_communities


class TestPrecisionRecall:
    def test_hand_case(self):
        # 3 hits in a 10-list against 5 truth items
        p, r = precision_recall_at_k([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [0, 1, 2, 90, 91], 10)
        assert p == pytest.approx(30.0)
        assert r == pytest.approx(60.0)

    def test_perfect_and_zero(self):
        p, r = precision_recall_at_k([5, 6], [5, 6], 2)
        assert (p, r) == (100.0, 100.0)
        p, r = precision_recall_at_k([5, 6], [7], 2)
        assert (p, r) == (0.0, 0.0)

    def test_truncates_to_k(self):
        p, r = precision_recall_at_k([9, 1, 2], [2], 2)
        assert p == 0.0 and r == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(DataError):
            precision_recall_at_k([1], [], 1)

    @given(
        rec=st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
        truth=st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
        k=st.integers(1, 20),
    )
    @settings(max_examples=1000, deadline=None)
    def test_precision_recall_identity(self, rec, truth, k):
        # P * k == R * |truth| (both equal 100 * hits)
        p, r = precision_recall_at_k(rec, truth, k)
        assert p * k == pytest.approx(r * len(truth))


def pop_for(rate_by_name):
    lines = []
    n = 10
    for name, rate in rate_by_name.items():
        for u in range(int(round(rate * n))):
            lines.append(f"p{u}\t{name}")
    for u in range(n):
        lines.append(f"p{u}\tanchor")
    ds = ingest(lines)
    return ds, popularity(ds)


class TestEPC:
    def test_two_hit_hand_case(self):
        # hits with rates 0.2 and 0.6 -> mean complement 0.6 -> 60
        ds, pop = pop_for({"a": 0.2, "b": 0.6})
        a, b = ds.libraries.index("a"), ds.libraries.index("b")
        other = ds.libraries.index("anchor")
        got = epc_at_k([[a, b, other]], [[a, b]], pop, 3)
        assert got == pytest.approx(60.0)

    def test_no_hits_is_zero(self):
        ds, pop = pop_for({"a": 0.2})
        a = ds.libraries.index("a")
        assert epc_at_k([[a]], [[ds.libraries.index("anchor")]], pop, 1) == 0.0

    def test_misses_do_not_contribute(self):
        ds, pop = pop_for({"a": 0.2, "b": 0.9})
        a, b = ds.libraries.index("a"), ds.libraries.index("b")
        with_miss = epc_at_k([[a, b]], [[a]], pop, 2)
        without = epc_at_k([[a]], [[a]], pop, 1)
        assert with_miss == pytest.approx(without)

    def test_rank_discounted_weighs_early_hits(self):
        # rare hit first vs popular hit first; discounting favors rank 1
        ds, pop = pop_for({"a": 0.1, "b": 0.9})
        a, b = ds.libraries.index("a"), ds.libraries.index("b")
        rare_first = epc_at_k([[a, b]], [[a, b]], pop, 2, rank_discounted=True)
        pop_first = epc_at_k([[b, a]], [[a, b]], pop, 2, rank_discounted=True)
        assert rare_first > pop_first
        # unweighted variant is order-invariant
        assert epc_at_k([[a, b]], [[a, b]], pop, 2) == pytest.approx(
            epc_at_k([[b, a]], [[a, b]], pop, 2))

    def test_bounded(self):
        rng = np.random.default_rng(0)
        ds, pop = pop_for({"a": 0.2, "b": 0.6, "c": 0.9})
        m = ds.n_libraries
        for _ in range(200):
            rec = rng.choice(m, size=3, replace=False).tolist()
            truth = rng.choice(m, size=2, replace=False).tolist()
            v = epc_at_k([rec], [truth], pop, 3)
            assert 0.0 <= v <= 100.0


class TestCoverage:
    def test_half_catalog(self):
        lists = [[0, 1], [1, 2], [3, 0]]
        assert coverage_at_k(lists, 8, 2) == pytest.approx(50.0)

    def test_respects_k(self):
        lists = [[0, 1, 2]]
        assert coverage_at_k(lists, 10, 2) == pytest.approx(20.0)

    def test_empty_lists(self):
        assert coverage_at_k([], 10, 5) == 0.0

    def test_full_catalog(self):
        assert coverage_at_k([[i] for i in range(4)], 4, 1) == pytest.approx(100.0)


class TestMetricsReport:
    def make_report(self):
        r = MetricsReport(protocol="coldstart-30", k=10, seed=0)
        r.fold_metrics = [
            {"precision": 10.0, "recall": 20.0, "epc": 30.0, "coverage": 40.0},
            {"precision": 20.0, "recall": 40.0, "epc": 50.0, "coverage": 60.0},
        ]
        r.skipped = [1, 0]
        return r

    def test_averages(self):
        r = self.make_report()
        assert r.averages == {"precision": 15.0, "recall": 30.0, "epc": 40.0, "coverage": 50.0}

    def test_incomplete_folds_excluded_from_average(self):
        r = self.make_report()
        r.incomplete = [1]
        assert r.averages["precision"] == pytest.approx(10.0)

    def test_table_mentions_elapsed_and_avg(self):
        r = self.make_report()
        r.elapsed = 1.25
        text = r.to_table()
        assert "# elapsed" in text
        assert "avg" in text
        assert "coldstart-30" in text

    def test_machine_lines_shape(self):
        r = self.make_report()
        lines = r.machine_lines()
        assert lines[1] == "0,precision,10,10.000000"
        assert sum(1 for l in lines if l.startswith("avg,")) == 4


def fast_cfg(**kw):
    base = dict(
        protocol="coldstart-30",
        folds=2,
        seed=0,
        embed=EmbedConfig(dim=16, batch_size=256, negatives=32, learning_rate=1e-3,
                          patience=5, max_epochs=20, seed=0),
        agent=AgentConfig(epochs=3, batch_size=64, transitions_per_project=2,
                          target_sync=20, seed=0),
    )
    base.update(kw)
    return ProtocolConfig(**base)


SMALL = dict(n_projects=40, n_libraries=30, n_communities=2,
             interactions_per_project=6, noise=0.1, seed=5)


class TestProtocols:
    def test_config_validation(self):
        with pytest.raises(DataError):
            ProtocolConfig(protocol="bogus")
        with pytest.raises(DataError):
            ProtocolConfig(policy="oracle")
        with pytest.raises(DataError):
            ProtocolConfig(mode="greedy")
        with pytest.raises(DataError):
            ProtocolConfig(k=0)
        with pytest.raises(DataError):
            ProtocolConfig(folds=1)
        with pytest.raises(ValueError):
            EmbedConfig(val_fraction=0)
        with pytest.raises(ValueError):
            EmbedConfig(init_scale=0)

    def test_coldstart_runs_and_reports(self):
        ds = planted_communities(**SMALL)
        report = run_protocol(ds, fast_cfg())
        assert len(report.fold_metrics) == 2
        assert not report.incomplete
        for m in report.fold_metrics:
            for v in m.values():
                assert 0.0 <= v <= 100.0

    def test_random_policy_needs_no_training(self):
        ds = planted_communities(**SMALL)
        report = run_protocol(ds, fast_cfg(policy="random"))
        assert len(report.fold_metrics) == 2

    def test_popularity_policy_deterministic(self):
        ds = planted_communities(**SMALL)
        a = run_protocol(ds, fast_cfg(policy="popularity"))
        b = run_protocol(ds, fast_cfg(policy="popularity"))
        assert a.fold_metrics == b.fold_metrics

    def test_agent_deterministic(self):
        ds = planted_communities(**SMALL)
        a = run_protocol(ds, fast_cfg())
        b = run_protocol(ds, fast_cfg())
        assert a.fold_metrics == b.fold_metrics

    def test_interaction_split_single_fold(self):
        ds = planted_communities(**SMALL)
        report = run_protocol(ds, fast_cfg(protocol="interaction-split", policy="popularity"))
        assert len(report.fold_metrics) == 1

    def test_coldstart_100_uses_query_fraction(self):
        ds = planted_communities(**SMALL)
        a = run_protocol(ds, fast_cfg(protocol="coldstart-100", policy="popularity",
                                      query_fraction=0.5))
        b = run_protocol(ds, fast_cfg(protocol="coldstart-100", policy="popularity",
                                      query_fraction=0.8))
        assert a.fold_metrics != b.fold_metrics


def fail_training(monkeypatch, error_for_seed):
    """Make fold training raise `error_for_seed(embed seed)` where it returns one."""
    real = tplrec.evaluation.train_embeddings

    def train(ds, cfg, *args, **kwargs):
        error = error_for_seed(cfg.seed)
        if error is not None:
            raise error
        return real(ds, cfg, *args, **kwargs)

    monkeypatch.setattr(tplrec.evaluation, "train_embeddings", train)


class TestFoldFailures:
    def test_numeric_error_marks_fold_incomplete(self, monkeypatch):
        # fold f trains with embed seed 0 + f
        fail_training(monkeypatch, lambda seed: NumericError("diverged") if seed == 1 else None)
        ds = planted_communities(**SMALL)
        with pytest.warns(UserWarning, match="fold 1 failed"):
            report = run_protocol(ds, fast_cfg())
        assert report.incomplete == [1]
        assert report.averages == report.fold_metrics[0]

    def test_project_with_every_library_marks_fold_incomplete(self):
        # the project trains in one fold, which fails, and is tested in the other
        ds = planted_communities(**SMALL)
        every = [(ds.n_projects, i) for i in range(ds.n_libraries)]
        ds = InteractionDataset(ds.projects + ("every",), ds.libraries, np.concatenate([ds.interactions, every]))
        with pytest.warns(UserWarning, match="every uses all 30 libraries"):
            report = run_protocol(ds, fast_cfg(protocol="coldstart-100"))
        assert len(report.incomplete) == 1

    def test_programming_error_propagates(self, monkeypatch):
        fail_training(monkeypatch, lambda seed: TypeError("bug") if seed == 1 else None)
        with pytest.raises(TypeError):
            run_protocol(planted_communities(**SMALL), fast_cfg())

    @pytest.mark.parametrize("protocol", ["coldstart-30", "interaction-split"])
    def test_every_fold_failing_raises(self, monkeypatch, protocol):
        fail_training(monkeypatch, lambda seed: NumericError("diverged"))
        with pytest.raises(NumericError), pytest.warns(UserWarning):
            run_protocol(planted_communities(**SMALL), fast_cfg(protocol=protocol))

    def test_no_project_to_evaluate_raises(self):
        # every project has one library, so no test project splits into query and truth
        ds = ingest([f"p{u}\tl{u % 3}" for u in range(8)])
        with pytest.raises(DataError, match="no test projects"), pytest.warns(UserWarning):
            run_protocol(ds, fast_cfg(policy="popularity"))
