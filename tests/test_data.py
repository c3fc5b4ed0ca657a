import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from tplrec.data import (
    RARE_THRESHOLD,
    InteractionDataset,
    ingest,
    popularity,
    restrict,
    rows,
    split_groups,
    split_interactions,
    split_query_test,
    split_users,
)
from tplrec.errors import DataError, ParseError

from oracles import rows_loop


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

    # every line boundary of str.splitlines but "\n"
    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_file_splits_at_newline_only(self, tmp_path, char):
        p = tmp_path / "d.tsv"
        p.write_bytes(f"p1\tlib{char}x\np2\tlibb\nbad\n".encode())
        with pytest.raises(ParseError, match="line 3"):
            ingest(p)
        p.write_bytes(f"p1\tlib{char}x\np2\tlibb\n".encode())
        assert ingest(p).libraries == (f"lib{char}x", "libb")

    def test_crlf_file_ingests_as_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        text = "# header\np1\tl1\n\np2\tl2\np1\tl2\n"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        a, b = ingest(lf), ingest(crlf)
        assert (a.projects, a.libraries) == (b.projects, b.libraries) == (("p1", "p2"), ("l1", "l2"))
        assert np.array_equal(a.interactions, b.interactions)
        crlf.write_bytes(b"p1\tl1\r\n\r\nbad\r\n")
        with pytest.raises(ParseError, match="line 3: .* got 'bad'$"):
            ingest(crlf)


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


edge_lists = st.integers(1, 8).flatmap(lambda n: st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.just(n), st.just(m),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), unique=True, min_size=n, max_size=n * m),
)))


def dataset(n, m, pairs):
    return InteractionDataset(tuple(f"p{u}" for u in range(n)), tuple(f"l{i}" for i in range(m)), pairs)


class TestArrayCore:
    @given(edge_lists)
    @settings(max_examples=80, deadline=None)
    def test_views_match_per_edge_loop(self, case):
        n, m, pairs = case
        if {u for u, _ in pairs} != set(range(n)):
            with pytest.raises(DataError, match="projects without interactions"):
                dataset(n, m, pairs)
            return
        ds = dataset(n, m, pairs)
        assert ds.interactions.dtype == np.int64 and ds.interactions.tolist() == [list(p) for p in pairs]
        assert [r.tolist() for r in ds.by_project] == rows_loop(pairs, n, 0)
        by_library = rows(ds.interactions[:, 1], ds.interactions[:, 0], m)
        assert [r.tolist() for r in by_library] == rows_loop(pairs, m, 1)
        assert popularity(ds).counts.tolist() == [len(r) for r in rows_loop(pairs, m, 1)]
        for array in (ds.interactions, *ds.by_project, *by_library):
            with pytest.raises(ValueError):
                array[...] = 0

    @given(edge_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_bad_pairs_rejected(self, case, data):
        n, m, pairs = case
        j = data.draw(st.integers(0, len(pairs) - 1))
        u, i = pairs[j]
        with pytest.raises(DataError, match="duplicate"):
            dataset(n, m, pairs + [(u, i)])
        for bad in ((n, i), (u, m), (-1, i), (u, -1)):
            with pytest.raises(DataError, match="out of range"):
                dataset(n, m, pairs[:j] + [bad] + pairs[j + 1:])

    def test_ingest_keeps_first_appearance_order(self):
        ds = toy(["a\tx", "b\ty", "a\tx", "b\tx", "a\ty", "b\ty"])
        assert ds.interactions.tolist() == [[0, 0], [1, 1], [1, 0], [0, 1]]

    def test_restrict_and_seen_match_per_edge_loop(self):
        rng = np.random.default_rng(11)
        ds = toy([f"p{u}\tl{i}" for u in range(12) for i in rng.choice(9, rng.integers(1, 5), replace=False)])
        keep = [1, 4, 5, 9]
        sub = restrict(ds, keep)
        assert sub.interactions.tolist() == [[keep.index(u), i] for u, i in ds.interactions.tolist() if u in keep]
        used = {i for u, i in ds.interactions.tolist() if u in keep}
        assert (popularity(sub).counts > 0).tolist() == [i in used for i in range(ds.n_libraries)]


class TestPopularity:
    def test_boundary_not_rare(self):
        # 1 of 10 projects -> rate exactly 0.1, strict < keeps it non-rare
        lines = [f"p{j}\tcommon" for j in range(10)] + ["p0\tniche"]
        ds = toy(lines)
        pop = popularity(ds)
        niche = ds.libraries.index("niche")
        assert pop.rates[niche] == pytest.approx(0.1)
        assert not pop.rates[niche] < RARE_THRESHOLD

    def test_universal_library_is_popular(self):
        ds = toy([f"p{j}\tl" for j in range(5)])
        pop = popularity(ds)
        assert pop.rates[0] == 1.0

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
        folds = split_users(ds, 10, seed=1)
        assert all(len(f.test_projects) == 1 for f in folds)

    def test_folds_partition_projects(self):
        ds = ten_projects()
        folds = split_users(ds, 3, seed=1)
        all_test = np.concatenate([f.test_projects for f in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        for f in folds:
            assert not set(f.train_projects) & set(f.test_projects)

    def test_determinism(self):
        ds = ten_projects()
        a = split_users(ds, 4, seed=7)
        b = split_users(ds, 4, seed=7)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test_projects, fb.test_projects)

    def test_too_many_folds(self):
        with pytest.raises(DataError):
            split_users(ten_projects(), 11, seed=0)

    def test_too_few_folds(self):
        with pytest.raises(DataError):
            split_users(ten_projects(), 1, seed=0)


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


class TestSplitGroups:
    @pytest.mark.parametrize("n,fraction,size", [
        (1, 0.5, 1), (1, 0.05, 1), (2, 0.05, 1), (2, 0.5, 1), (2, 0.95, 1),
        (10, 0.04, 1), (10, 0.25, 3), (10, 0.3, 3), (10, 0.95, 9)])
    def test_size_rule(self, n, fraction, size):
        # round-half-up of fraction * n, clamped to [1, n - 1]; a group of one keeps its entry
        groups = np.random.default_rng(n).permutation(np.repeat([3, 0], n))
        mask = split_groups(groups, fraction, np.random.default_rng(0))
        assert mask[groups == 3].sum() == mask[groups == 0].sum() == size

    @given(sizes=st.lists(st.integers(2, 30), min_size=1, max_size=8),
           fraction=st.floats(0.01, 0.99), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_both_parts_nonempty(self, sizes, fraction, seed):
        groups = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(sizes)), sizes))
        mask = split_groups(groups, fraction, np.random.default_rng(seed))
        kept = np.bincount(groups[mask], minlength=len(sizes))
        assert (kept >= 1).all() and (kept <= np.array(sizes) - 1).all()

    def test_subsets_uniform(self):
        # 20000 groups of 5 keep 2 each: the 10 subsets should be equally likely
        trials, n = 20000, 5
        mask = split_groups(np.repeat(np.arange(trials), n), 0.4, np.random.default_rng(1)).reshape(trials, n)
        assert (mask.sum(axis=1) == 2).all()
        _, counts = np.unique(mask @ (1 << np.arange(n)), return_counts=True)
        assert len(counts) == 10
        assert chisquare(counts).pvalue > 1e-3

    def test_deterministic_for_a_seed(self):
        groups = np.repeat(np.arange(50), 7)
        a, b, c = (split_groups(groups, 0.5, np.random.default_rng(s)) for s in (4, 4, 5))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInteractionSplit:
    def test_even_split(self):
        ds = toy([f"p1\tl{j}" for j in range(4)] + ["p2\tl0"])
        train = split_interactions(ds, 0.5, seed=0)
        assert train[:4].sum() == 2 and (~train[:4]).sum() == 2

    def test_single_interaction_goes_to_train(self):
        ds = toy(["p1\tl1"])
        assert split_interactions(ds, 0.5, seed=0).tolist() == [True]

    def test_union_recovers_dataset(self):
        rng = np.random.default_rng(3)
        lines = [f"p{u}\tl{i}" for u in range(20) for i in rng.choice(15, rng.integers(1, 8), replace=False)]
        ds = toy(lines)
        train = split_interactions(ds, 0.6, seed=2)
        assert train.shape == (ds.n_interactions,)
        u = ds.interactions[:, 0]
        degree = np.bincount(u, minlength=ds.n_projects)
        kept = np.bincount(u[train], minlength=ds.n_projects)
        assert (kept >= 1).all()
        assert (kept[degree >= 2] <= degree[degree >= 2] - 1).all()


class TestRestrict:
    def test_keeps_catalog_and_reindexes(self):
        ds = toy(["p1\tl1", "p2\tl2", "p3\tl1"])
        sub = restrict(ds, [0, 2])
        assert sub.n_projects == 2
        assert sub.n_libraries == ds.n_libraries
        assert sub.projects == ("p1", "p3")

    def test_seen_libraries(self):
        ds = toy(["p1\tl1", "p2\tl2"])
        assert (popularity(restrict(ds, [0])).counts > 0).tolist() == [True, False]
