import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.coldstart import RepresentativeTable, aggregate, build_representatives, segment_sums
from tplrec.data import InteractionDataset, ingest
from tplrec.embed import EmbeddingTable
from tplrec.errors import DataError

from oracles import aggregate_mean, by_library, representative_loop


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_setup(seed, n=6, m=5, d=4):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(n):
        for i in rng.choice(m, size=rng.integers(1, m + 1), replace=False):
            lines.append(f"p{u}\tl{i}")
    ds = ingest(lines)
    table = EmbeddingTable(unit_rows(rng, ds.n_projects, d), unit_rows(rng, ds.n_libraries, d))
    return ds, table


class TestRepresentative:
    def test_blend_one_single_user_equals_user(self):
        # with blend 1 and a single user the representative is that user's vector
        ds = ingest(["p\tl", "p\tl2", "q\tl2"])
        rng = np.random.default_rng(0)
        table = EmbeddingTable(unit_rows(rng, 2, 3), unit_rows(rng, 2, 3))
        got = build_representatives(table, ds, blend=1.0).vectors[0]
        assert np.array_equal(got, table.projects[0])

    def test_blend_zero_equals_library(self):
        ds, table = random_setup(1)
        rep = build_representatives(table, ds, blend=0.0)
        for i, users in enumerate(by_library(ds)):
            if len(users):
                assert np.allclose(rep.vectors[i], table.libraries[i], atol=1e-12)

    def test_brute_force_oracle(self):
        ds, table = random_setup(2)
        rep = build_representatives(table, ds, 0.5)
        for i, users in enumerate(by_library(ds)):
            users = users.tolist()
            if not users:
                continue
            w = np.array([max(float(table.projects[u] @ table.libraries[i]), 0.0) for u in users])
            if w.sum() > 0:
                user_term = sum(w[j] * table.projects[u] for j, u in enumerate(users)) / w.sum()
            else:
                user_term = np.mean([table.projects[u] for u in users], axis=0)
            want = 0.5 * user_term + 0.5 * table.libraries[i]
            assert np.allclose(rep.vectors[i], want, atol=1e-12)

    def test_equal_weights_give_midpoint(self):
        # two users at equal cosine to the library, blend 1 -> midpoint
        ds = ingest(["p\tl", "q\tl"])
        projects = np.array([[1.0, 0.0], [0.0, 1.0]])
        libraries = np.array([[1.0, 1.0]]) / np.sqrt(2)
        table = EmbeddingTable(projects, libraries)
        got = build_representatives(table, ds, blend=1.0).vectors[0]
        assert np.allclose(got, np.array([0.5, 0.5]), atol=1e-12)

    def test_all_clamped_falls_back_to_mean(self):
        ds = ingest(["p\tl", "q\tl"])
        projects = np.array([[1.0, 0.0], [0.0, 1.0]])
        libraries = np.array([[-1.0, 0.0]])
        # both cosine weights clamp to <= 0, so the user term is the plain mean
        table = EmbeddingTable(projects, libraries)
        got = build_representatives(table, ds, blend=1.0).vectors[0]
        assert np.allclose(got, np.array([0.5, 0.5]))

    def test_norm_bounded_for_unit_inputs(self):
        # convex combination of a convex user mix and the library vector
        for seed in range(5):
            ds, table = random_setup(10 + seed)
            rep = build_representatives(table, ds, 0.5)
            norms = np.linalg.norm(rep.vectors[rep.has_rep], axis=1)
            assert np.all(norms <= 1.0 + 1e-9)


class TestBuildRepresentatives:
    def test_mask_matches_usage(self):
        ds, table = random_setup(4)
        rep = build_representatives(table, ds, 0.5)
        for i, users in enumerate(by_library(ds)):
            assert rep.has_rep[i] == bool(len(users))

    @given(seed=st.integers(0, 200), blend=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_library_loop(self, seed, blend):
        rng = np.random.default_rng(seed)
        n, m, d = int(rng.integers(2, 9)), int(rng.integers(3, 9)), 4
        pairs = [(u, int(i)) for u in range(n) for i in rng.choice(m - 1, rng.integers(1, m), replace=False)]
        # the last library has no user, and library 0's users all point away from it
        pairs = sorted(set(pairs) | {(0, 0), (1, 0)})
        projects = unit_rows(rng, n, d)
        libraries = unit_rows(rng, m, d)
        for u in {u for u, i in pairs if i == 0}:  # reflect away from library 0
            projects[u] -= 2.0 * max(float(projects[u] @ libraries[0]), 0.0) * libraries[0]
        ds = InteractionDataset(tuple(f"p{u}" for u in range(n)), tuple(f"l{i}" for i in range(m)), pairs)
        table = EmbeddingTable(projects, libraries)
        rep = build_representatives(table, ds, blend)
        assert not rep.has_rep[m - 1] and not rep.vectors[m - 1].any()
        assert all(float(projects[u] @ libraries[0]) <= 0.0 for u in by_library(ds)[0])
        for i in np.flatnonzero(rep.has_rep):
            assert np.abs(rep.vectors[i] - representative_loop(i, table, ds, blend)).max() <= 1e-12

    def test_blend_out_of_range(self):
        ds, table = random_setup(5)
        with pytest.raises(DataError):
            build_representatives(table, ds, 1.5)


class TestAggregate:
    def test_singleton_is_identity(self):
        ds, table = random_setup(6)
        rep = build_representatives(table, ds, 0.5)
        i = int(np.flatnonzero(rep.has_rep)[0])
        assert np.array_equal(aggregate([i], rep), rep.vectors[i])

    def test_incremental_update_identity(self):
        # mean over n+1 items == (n * mean_n + new) / (n + 1)
        ds, table = random_setup(7, n=10, m=8)
        rep = build_representatives(table, ds, 0.5)
        avail = np.flatnonzero(rep.has_rep).tolist()
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, len(avail)))
            picks = rng.choice(avail, size=size + 1, replace=False).tolist()
            base, extra = picks[:-1], picks[-1]
            n = len(base)
            incr = (n * aggregate(base, rep) + rep.vectors[extra]) / (n + 1)
            assert np.allclose(aggregate(base + [extra], rep), incr, atol=1e-9)

    @given(seed=st.integers(0, 10_000), size=st.integers(1, 40), d=st.sampled_from([1, 2, 64]))
    @settings(max_examples=60, deadline=None)
    def test_mean_of_representatives(self, seed, size, d):
        # signed zeros and repeated libraries; NumPy's mean sums a single column
        # pairwise, so only there may the last bits differ
        rng = np.random.default_rng(seed)
        m = 9
        vectors = rng.normal(size=(m, d))
        vectors[rng.random((m, d)) < 0.3] = -0.0
        rep = RepresentativeTable(vectors, 0.5, np.ones(m, dtype=bool))
        libraries = rng.integers(0, m, size=size).tolist()
        got, want = aggregate(libraries, rep), aggregate_mean(libraries, rep)
        if d >= 2:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_empty_set_rejected(self):
        ds, table = random_setup(8)
        rep = build_representatives(table, ds, 0.5)
        with pytest.raises(DataError):
            aggregate([], rep)

    def test_missing_representative_rejected(self):
        rep = RepresentativeTable(
            vectors=np.zeros((3, 2)), blend=0.5,
            has_rep=np.array([True, False, True]),
        )
        with pytest.raises(DataError):
            aggregate([0, 1], rep)

    @given(seed=st.integers(0, 30), perm_seed=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_order_invariant(self, seed, perm_seed):
        ds, table = random_setup(seed)
        rep = build_representatives(table, ds, 0.5)
        avail = np.flatnonzero(rep.has_rep).tolist()
        shuffled = list(avail)
        np.random.default_rng(perm_seed).shuffle(shuffled)
        assert np.allclose(aggregate(avail, rep), aggregate(shuffled, rep), atol=1e-12)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        rep = RepresentativeTable(
            vectors=rng.normal(size=(5, 3)), blend=0.25,
            has_rep=np.array([True, False, True, True, False]),
        )
        path = tmp_path / "rep.tplr"
        rep.save(path)
        loaded = RepresentativeTable.load(path)
        assert np.allclose(loaded.vectors, rep.vectors, atol=1e-6)
        assert loaded.blend == pytest.approx(0.25)
        assert np.array_equal(loaded.has_rep, rep.has_rep)

    def test_mask_byte_other_than_zero_or_one_rejected(self, tmp_path):
        rep = RepresentativeTable(np.ones((3, 2)), 0.5, np.array([True, False, True]))
        path = tmp_path / "rep.tplr"
        rep.save(path)
        raw = bytearray(path.read_bytes())
        raw[-2] = 7  # the mask is the last byte per library: library 1's
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="mask byte 7"):
            RepresentativeTable.load(path)

    def test_magic(self, tmp_path):
        rep = RepresentativeTable(np.zeros((2, 2)), 0.5, np.array([True, True]))
        path = tmp_path / "rep.tplr"
        rep.save(path)
        assert path.read_bytes()[:4] == b"TPLR"


class TestSegmentSums:
    @given(seed=st.integers(0, 10_000), n_rows=st.integers(0, 12), d=st.sampled_from([1, 2, 64]))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_add_at(self, seed, n_rows, d):
        # signed zeros, tiny and huge magnitudes, and rows with no entries
        rng = np.random.default_rng(seed)
        m = 9
        vectors = rng.normal(size=(m, d)) * 10.0 ** rng.choice([-300, 0, 300], size=(m, 1))
        vectors[rng.random((m, d)) < 0.3] = -0.0
        rep = RepresentativeTable(vectors, 0.5, np.ones(m, dtype=bool))
        rows = np.repeat(np.arange(n_rows), rng.integers(0, 6, size=n_rows))
        libraries = rng.integers(0, m, size=len(rows))
        expected = np.zeros((n_rows, d))
        np.add.at(expected, rows, vectors[libraries])
        assert segment_sums(rows, libraries, n_rows, rep).tobytes() == expected.tobytes()
