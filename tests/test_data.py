import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.data import (
    InteractionDataset,
    SplitSpec,
    ingest,
    popularity,
    restrict,
    seen_libraries,
    split_interactions,
    split_query_test,
    split_users,
)
from tplrec.errors import DataError, ParseError


def toy(lines):
    return ingest(lines)


class TestIngest:
    def test_basic_counts(self):
        ds = toy(["p1\tl1", "p1\tl2", "p2\tl1"])
        assert ds.n_projects == 2
        assert ds.n_libraries == 2
        assert ds.n_interactions == 3

    def test_duplicates_collapsed(self):
        ds = toy(["p1\tl1", "p1\tl1"])
        assert ds.n_interactions == 1

    def test_comments_and_blank_lines_skipped(self):
        ds = toy(["# header", "", "p1\tl1"])
        assert ds.n_interactions == 1

    def test_first_appearance_order(self):
        ds = toy(["b\tx", "a\ty", "a\tx"])
        assert ds.projects == ("b", "a")
        assert ds.libraries == ("x", "y")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            toy(["p1\tl1", "garbage line with too many fields here\textra\tmore"])

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            toy(["# only comments"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ingest(tmp_path / "nope.tsv")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("p1\tl1\np2\tl2\n")
        ds = ingest(p)
        assert ds.n_projects == 2


class TestDatasetInvariants:
    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(("p",), ("l",), ((0, 1),))

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(("p",), ("l",), ((0, 0), (0, 0)))

    def test_project_without_interactions_rejected(self):
        with pytest.raises(DataError):
            InteractionDataset(("p", "q"), ("l",), ((0, 0),))


class TestPopularity:
    def test_boundary_not_rare(self):
        # 1 of 10 projects -> rate exactly 0.1, strict < keeps it non-rare
        lines = [f"p{j}\tcommon" for j in range(10)] + ["p0\tniche"]
        ds = toy(lines)
        pop = popularity(ds)
        niche = ds.libraries.index("niche")
        assert pop.rates[niche] == pytest.approx(0.1)
        assert not pop.is_rare(niche)

    def test_universal_library_is_popular(self):
        ds = toy([f"p{j}\tl" for j in range(5)])
        pop = popularity(ds)
        assert pop.rates[0] == 1.0
        assert pop.is_popular(0)

    def test_rates_match_brute_force(self):
        rng = np.random.default_rng(5)
        lines = []
        for u in range(30):
            for i in rng.choice(40, size=rng.integers(1, 10), replace=False):
                lines.append(f"p{u}\tl{i}")
        ds = toy(lines)
        pop = popularity(ds)
        for i in range(ds.n_libraries):
            users = {u for u, j in ds.interactions if j == i}
            assert pop.counts[i] == len(users)
            assert pop.rates[i] == pytest.approx(len(users) / 30)

    def test_counts_sum_to_interactions(self):
        ds = toy(["p1\tl1", "p1\tl2", "p2\tl1", "p3\tl3"])
        assert popularity(ds).counts.sum() == ds.n_interactions

    def test_rate_invariant_under_reordering(self):
        lines = ["p1\tl1", "p2\tl1", "p2\tl2"]
        a = popularity(toy(lines))
        b = popularity(toy(list(reversed(lines))))
        # identifiers intern in a different order; compare by name
        assert a.rates.sum() == pytest.approx(b.rates.sum())


def ten_projects():
    lines = []
    for u in range(10):
        lines.append(f"p{u}\tl{u % 3}")
        lines.append(f"p{u}\tl{(u + 1) % 3}")
    return toy(lines)


class TestUserSplit:
    def test_each_fold_tests_one_project(self):
        ds = ten_projects()
        folds = split_users(ds, SplitSpec(fold_count=10, seed=1))
        assert all(len(f.test_projects) == 1 for f in folds)

    def test_folds_partition_projects(self):
        ds = ten_projects()
        folds = split_users(ds, SplitSpec(fold_count=3, seed=1))
        all_test = np.concatenate([f.test_projects for f in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        for f in folds:
            assert not set(f.train_projects) & set(f.test_projects)

    def test_determinism(self):
        ds = ten_projects()
        a = split_users(ds, SplitSpec(fold_count=4, seed=7))
        b = split_users(ds, SplitSpec(fold_count=4, seed=7))
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test_projects, fb.test_projects)

    def test_too_many_folds(self):
        with pytest.raises(DataError):
            split_users(ten_projects(), SplitSpec(fold_count=11, seed=0))


class TestQueryTestSplit:
    def test_thirty_percent_of_ten(self):
        q, t = split_query_test(list(range(10)), 0.3, seed_or_rng=0)
        assert len(q) == 3 and len(t) == 7

    def test_fraction_one_invalid(self):
        with pytest.raises(DataError):
            split_query_test(list(range(10)), 1.0)

    def test_two_items_floor_one(self):
        q, t = split_query_test([4, 9], 0.3, seed_or_rng=0)
        assert len(q) == 1 and len(t) == 1

    def test_single_item_rejected(self):
        with pytest.raises(DataError):
            split_query_test([1], 0.5)

    @given(n=st.integers(2, 40), frac=st.floats(0.05, 0.95), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_cover(self, n, frac, seed):
        items = list(range(100, 100 + n))
        q, t = split_query_test(items, frac, seed_or_rng=seed)
        assert not set(q) & set(t)
        assert sorted(set(q) | set(t)) == items
        assert len(q) >= 1 and len(t) >= 1


class TestInteractionSplit:
    def test_even_split(self):
        ds = toy([f"p1\tl{j}" for j in range(4)] + ["p2\tl0"])
        train, test = split_interactions(ds, 0.5, seed=0)
        assert len(train[0]) == 2 and len(test[0]) == 2

    def test_single_interaction_goes_to_train(self):
        ds = toy(["p1\tl1"])
        train, test = split_interactions(ds, 0.5, seed=0)
        assert train[0] == (0,) and test[0] == ()

    def test_union_recovers_dataset(self):
        rng = np.random.default_rng(3)
        lines = [f"p{u}\tl{i}" for u in range(20) for i in rng.choice(15, rng.integers(1, 8), replace=False)]
        ds = toy(lines)
        train, test = split_interactions(ds, 0.6, seed=2)
        rebuilt = {(u, i) for u in range(ds.n_projects) for i in train[u] + test[u]}
        assert rebuilt == set(ds.interactions)
        for u in range(ds.n_projects):
            assert not set(train[u]) & set(test[u])
            assert len(train[u]) >= 1


class TestRestrict:
    def test_keeps_catalog_and_reindexes(self):
        ds = toy(["p1\tl1", "p2\tl2", "p3\tl1"])
        sub = restrict(ds, [0, 2])
        assert sub.n_projects == 2
        assert sub.n_libraries == ds.n_libraries
        assert sub.projects == ("p1", "p3")

    def test_seen_libraries(self):
        ds = toy(["p1\tl1", "p2\tl2"])
        assert seen_libraries(ds, [0]) == {0}
