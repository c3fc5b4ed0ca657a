import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from tplrec import embed
from tplrec.data import ingest
from tplrec.errors import DataError
from hypothesis import given, settings
from hypothesis import strategies as st

from tplrec.embed import (
    _LOSS_CHUNK,
    _SCORE_BLOCK,
    EmbedConfig,
    EmbeddingTable,
    _holdout_validation,
    _recall_at_10,
    _negative_sampler,
    build_adjacency,
    debiased_contrastive_loss,
    propagate,
    train_embeddings,
)
from tplrec.synth import planted_communities

from oracles import (contrastive_loss_one_shot, contrastive_loss_scattered, holdout_validation_loop,
                     recall_at_10_dense)


def random_bipartite(rng, n, m):
    lines = []
    for u in range(n):
        libs = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        for i in libs:
            lines.append(f"p{u}\tl{i}")
    return ingest(lines)


def dense_propagate_oracle(ds, emb, layers):
    """Dense normalized-adjacency power computation, independent of the sparse path."""
    n, m = ds.n_projects, ds.n_libraries
    a = np.zeros((n + m, n + m))
    for u, i in ds.interactions:
        a[u, n + i] = 1.0
        a[n + i, u] = 1.0
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    norm = np.diag(dinv) @ a @ np.diag(dinv)
    acc = emb.copy()
    power = emb.copy()
    for _ in range(layers):
        power = norm @ power
        acc += power
    return acc / (layers + 1)


class TestAdjacency:
    def test_single_edge_entry_one(self):
        ds = ingest(["p\tl"])
        adj = build_adjacency(ds).toarray()
        assert adj[0, 1] == pytest.approx(1.0)
        assert adj[1, 0] == pytest.approx(1.0)

    def test_degree_four_one(self):
        ds = ingest(["p\tl0", "p\tl1", "p\tl2", "p\tl3"])
        adj = build_adjacency(ds).toarray()
        assert adj[0, 1] == pytest.approx(0.5)  # 1/sqrt(4*1)

    def test_entry_count(self):
        rng = np.random.default_rng(0)
        ds = random_bipartite(rng, 5, 6)
        adj = build_adjacency(ds)
        assert adj.nnz == 2 * ds.n_interactions

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        ds = random_bipartite(rng, 4, 5)
        a = build_adjacency(ds).toarray()
        assert np.allclose(a, a.T)
        assert np.all(np.diag(a) == 0)


class TestPropagate:
    def test_zero_layers_identity(self):
        ds = ingest(["p\tl"])
        adj = build_adjacency(ds)
        e = np.random.default_rng(0).normal(size=(2, 3))
        assert np.array_equal(propagate(adj, e, 0), e)

    def test_single_edge_one_layer(self):
        ds = ingest(["p\tl"])
        adj = build_adjacency(ds)
        e = np.random.default_rng(1).normal(size=(2, 4))
        out = propagate(adj, e, 1)
        assert np.allclose(out[0], (e[0] + e[1]) / 2)
        assert np.allclose(out[1], (e[0] + e[1]) / 2)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            m = int(rng.integers(2, 10))
            ds = random_bipartite(rng, n, m)
            e = rng.normal(size=(n + m, 5))
            layers = int(rng.integers(0, 4))
            got = propagate(build_adjacency(ds), e, layers)
            want = dense_propagate_oracle(ds, e, layers)
            assert np.allclose(got, want, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        ds = random_bipartite(rng, 4, 4)
        adj = build_adjacency(ds)
        e = rng.normal(size=(8, 3))
        assert np.allclose(propagate(adj, 2.5 * e, 2), 2.5 * propagate(adj, e, 2))


def loss_inputs(rng, n_rows, n_users, b, k, d):
    """A random table and a batch over it: users are rows [0, n_users),
    positives and negatives the rows after them."""
    emb = rng.normal(size=(n_rows, d))
    users = rng.integers(0, n_users, size=b)
    pos = rng.integers(n_users, n_rows, size=b)
    negs = rng.integers(n_users, n_rows, size=(b, k))
    return emb, users, pos, negs, 1.0 - 0.5 * rng.random(b)


class TestContrastiveLoss:
    def test_trivial_scalar_case(self):
        d = 4
        e1 = np.zeros(d)
        e1[0] = 1.0
        emb = np.stack([e1, e1, -e1])
        loss, _ = debiased_contrastive_loss(emb, np.array([0]), np.array([1]), np.array([[2, 2, 2]]),
                                            np.ones(1), 1.0)
        expected = -math.log(math.e / (math.e + 3 * math.exp(-1)))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_beta_zero_is_plain_infonce(self):
        emb, users, pos, negs, _ = loss_inputs(np.random.default_rng(4), 12, 3, 3, 6, 5)
        plain, _ = debiased_contrastive_loss(emb, users, pos, negs, np.ones(3), 0.2)
        # weight 1 corresponds to beta = 0 regardless of popularity
        again, _ = debiased_contrastive_loss(emb, users, pos, negs, 1.0 - 0.0 * np.ones(3), 0.2)
        assert plain == pytest.approx(again)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            debiased_contrastive_loss(np.ones((2, 2)), np.array([0]), np.array([1]), np.ones((1, 2), dtype=int),
                                      np.ones(1), 0.0)

    def test_negative_row_rejected(self):
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(3), 12, 3, 3, 4, 5)
        negs[1, 2] = -1
        with pytest.raises(ValueError, match="nonnegative"):
            debiased_contrastive_loss(emb, users, pos, negs, w, 0.2)

    def test_gradients_match_finite_differences(self):
        # 32 rows x 5 = 160 entries, every one checked; users and negatives repeat
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(5), 32, 8, 8, 6, 5)
        tau = 0.2
        _, grad = debiased_contrastive_loss(emb, users, pos, negs, w, tau)
        eps = 1e-5
        it = np.nditer(emb, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            emb[ix] += eps
            lp, _ = debiased_contrastive_loss(emb, users, pos, negs, w, tau)
            emb[ix] -= 2 * eps
            lm, _ = debiased_contrastive_loss(emb, users, pos, negs, w, tau)
            emb[ix] += eps
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - grad[ix]) / max(1e-6, abs(fd) + abs(grad[ix])) < 1e-4

    @given(seed=st.integers(0, 10_000), n_users=st.integers(1, 6), n_others=st.integers(1, 12),
           b=st.integers(1, 40), k=st.integers(1, 8), d=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_input_oracle(self, seed, n_users, n_others, b, k, d):
        # few users and others for many samples, so both repeat within the batch;
        # the three rows after them are untouched, one of them all zero
        rng = np.random.default_rng(seed)
        emb, users, pos, negs, w = loss_inputs(rng, n_users + n_others, n_users, b, k, d)
        emb = np.concatenate([emb, rng.normal(size=(2, d)), np.zeros((1, d))])
        tau = float(rng.uniform(0.05, 1.0))
        loss, grad = debiased_contrastive_loss(emb, users, pos, negs, w, tau)
        want_loss, want = contrastive_loss_scattered(emb, users, pos, negs, w, tau)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.all(np.isfinite(grad))
        # relative to the size of the summands: a pair adds at most |dL/dcos| / |row|
        # <= 1 / (b * tau * |row|) to each of its rows, and a row's sum can cancel far
        # below that (a library both positive and negative; d = 1, where cos is +-1)
        touches = np.bincount(np.r_[np.repeat(users, k + 1), pos, negs.ravel()], minlength=len(emb))
        hit = touches > 0
        scale = (touches[hit] / np.linalg.norm(emb[hit], axis=1)).max() / (b * tau)
        assert np.abs(grad - want).max() <= 1e-12 * scale
        assert not grad[n_users + n_others:].any()

    @pytest.mark.parametrize("b", [1, _LOSS_CHUNK - 1, _LOSS_CHUNK, _LOSS_CHUNK + 1, 3 * _LOSS_CHUNK + 5])
    def test_chunks_match_one_shot(self, b):
        # batches ending before, at and after a chunk boundary, users and others repeating;
        # the summation order differs from both oracles'
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(b), 90, 30, b, 7, 6)
        loss, grad = debiased_contrastive_loss(emb, users, pos, negs, w, 0.1)
        for oracle in (contrastive_loss_one_shot, contrastive_loss_scattered):
            want_loss, want = oracle(emb, users, pos, negs, w, 0.1)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert np.abs(grad - want).max() <= 1e-12 * np.abs(want).max()

    def test_chunk_size_changes_nothing(self, monkeypatch):
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(5), 90, 30, 700, 7, 6)
        want_loss, want = debiased_contrastive_loss(emb, users, pos, negs, w, 0.1)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(embed, "_LOSS_CHUNK", chunk)
            loss, grad = debiased_contrastive_loss(emb, users, pos, negs, w, 0.1)
            assert loss == want_loss
            assert np.array_equal(grad, want)

    def test_float32_table_within_float32_rounding(self):
        # the arrays `EmbeddingTable.load` returns are float32
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(7), 90, 30, 300, 7, 6)
        emb = emb.astype(np.float32)
        loss, grad = debiased_contrastive_loss(emb, users, pos, negs, w, 0.1)
        want_loss, want = debiased_contrastive_loss(emb.astype(np.float64), users, pos, negs, w, 0.1)
        assert grad.dtype == np.float32 and np.isfinite(loss) and np.isfinite(grad).all()
        eps = np.finfo(np.float32).eps
        assert abs(loss - want_loss) <= 16 * eps * abs(want_loss)
        assert np.abs(grad - want).max() <= 16 * eps * np.abs(want).max()

    def test_catalog_shape_memory(self):
        # the benchmark's embedding batch: a whole (B, k + 1, d) float64 gather is 35.6 MB
        n_rows, b, k, d = 4711, 4096, 16, 64
        emb, users, pos, negs, w = loss_inputs(np.random.default_rng(0), n_rows, 1000, b, k, d)
        tracemalloc.start()
        try:
            debiased_contrastive_loss(emb, users, pos, negs, w, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * (k + 1) * d * 8 / 2

    def test_popularity_attenuation_monotone(self):
        # same geometry, higher popularity -> lower weight -> loss at least as large
        rng = np.random.default_rng(6)
        u = rng.normal(size=(1, 5))
        emb = np.concatenate([u, u + 0.1 * rng.normal(size=(1, 5)), rng.normal(size=(8, 5))])
        users, pos, negs = np.array([0]), np.array([1]), np.arange(2, 10)[None, :]
        beta = 0.5
        low, _ = debiased_contrastive_loss(emb, users, pos, negs, np.array([1.0 - beta * 0.05]), 0.2)
        high, _ = debiased_contrastive_loss(emb, users, pos, negs, np.array([1.0 - beta * 0.95]), 0.2)
        assert high >= low


def small_cfg(**kw):
    base = dict(dim=16, batch_size=256, negatives=32, learning_rate=1e-3,
                patience=5, max_epochs=30, seed=0)
    base.update(kw)
    return EmbedConfig(**base)


class TestTraining:
    def test_two_community_separation(self):
        ds = planted_communities(n_projects=60, n_libraries=40, n_communities=2,
                                 interactions_per_project=8, noise=0.0, seed=1)
        res = train_embeddings(ds, small_cfg(dim=32, negatives=64, max_epochs=80, patience=15))
        t = res.table
        comm_p = np.arange(ds.n_projects) % 2
        comm_l = np.arange(ds.n_libraries) % 2
        scores = t.projects @ t.libraries.T
        rng = np.random.default_rng(2)
        wins = 0
        trials = 1000
        for _ in range(trials):
            u = int(rng.integers(ds.n_projects))
            same = int(rng.choice(np.flatnonzero(comm_l == comm_p[u])))
            other = int(rng.choice(np.flatnonzero(comm_l != comm_p[u])))
            wins += scores[u, same] > scores[u, other]
        assert wins / trials >= 0.9

    def test_loss_decreases_on_average(self):
        ds = planted_communities(n_projects=40, n_libraries=30, n_communities=2,
                                 interactions_per_project=6, noise=0.1, seed=2)
        res = train_embeddings(ds, small_cfg(max_epochs=6, patience=6))
        losses = [l for _, l, _ in res.history[:5]]
        assert losses[-1] <= losses[0]

    def test_determinism(self):
        ds = planted_communities(n_projects=30, n_libraries=20, n_communities=2,
                                 interactions_per_project=5, seed=3)
        a = train_embeddings(ds, small_cfg(max_epochs=4, patience=4))
        b = train_embeddings(ds, small_cfg(max_epochs=4, patience=4))
        assert np.array_equal(a.table.projects, b.table.projects)
        assert np.array_equal(a.table.libraries, b.table.libraries)

    def test_rows_unit_norm(self):
        ds = planted_communities(n_projects=30, n_libraries=20, n_communities=2,
                                 interactions_per_project=5, seed=4)
        res = train_embeddings(ds, small_cfg(max_epochs=3, patience=3))
        for mat in (res.table.projects, res.table.libraries):
            norms = np.linalg.norm(mat, axis=1)
            assert np.all(np.abs(norms - 1.0) <= 1e-6)


def codes(edges, m):
    return np.sort(edges[:, 0] * m + edges[:, 1])


def item_sets(edges, n):
    sets = [set() for _ in range(n)]
    for u, i in edges.tolist():
        sets[u].add(i)
    return sets


class TestArrayKernels:
    """The array kernels draw and return exactly what the per-edge loops in
    `oracles.py` do."""

    @given(seed=st.integers(0, 10_000), fraction=st.sampled_from([0.05, 0.1, 0.3, 0.6, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_holdout_matches_loop(self, seed, fraction):
        rng = np.random.default_rng(seed)
        ds = random_bipartite(rng, int(rng.integers(1, 15)), int(rng.integers(1, 12)))
        got_train, got_val = _holdout_validation(np.random.default_rng(seed), ds, fraction)
        want_train, want_val = holdout_validation_loop(np.random.default_rng(seed), ds.interactions,
                                                       ds.n_projects, fraction)
        assert np.array_equal(got_train, want_train)
        assert np.array_equal(got_val, want_val)

    def test_recall_matches_dense_beyond_one_block(self):
        rng = np.random.default_rng(12)
        n, m = _SCORE_BLOCK + 300, 40
        table = EmbeddingTable(rng.normal(size=(n, 8)), rng.normal(size=(m, 8))).normalized()
        ds = ingest([f"p{u}\tl{i}" for u in range(n) for i in rng.choice(m, 6, replace=False)])
        edges, val = _holdout_validation(rng, ds, 0.3)
        val = val[::-1]  # projects first appear out of block order
        want = recall_at_10_dense(table, item_sets(edges, n), val)
        assert _recall_at_10(table, codes(edges, m), val) == want
        assert _recall_at_10(table, codes(edges, m), val[:0]) == 0.0


def negatives(rng, edges, n, m, users, k):
    return _negative_sampler(codes(edges, m), n, m)(rng, users, k)


class TestNegatives:
    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 4, 16]))
    @settings(max_examples=60, deadline=None)
    def test_never_a_training_item(self, seed, k):
        # dense usage; project 0 lacks a single library, so all its draws are that one
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 10)), int(rng.integers(2, 12))
        held = [rng.choice(m, size=m - 1 if u == 0 else rng.integers(1, m), replace=False) for u in range(n)]
        edges = np.array([(u, i) for u, items in enumerate(held) for i in items])
        users = rng.integers(0, n, size=int(rng.integers(1, 40)))
        got = negatives(rng, edges, n, m, users, k)
        assert got.shape == (len(users), k)
        for u, row in zip(users, got):
            assert set(row.tolist()).isdisjoint(held[u]) and row.min() >= 0 and row.max() < m

    def test_uniform_over_each_complement(self):
        # interleaved projects of degree 1, 4, 6 and m - 1 in one call; per
        # project, the counts over its non-items pass a chi-square test (fixed seed)
        m = 12
        held = {0: [0], 1: [3, 4, 5, 11], 2: list(range(1, 12, 2)), 3: list(range(1, 12))}
        edges = np.array([(u, i) for u, items in held.items() for i in items])
        users = np.tile(np.arange(4), 500)
        got = negatives(np.random.default_rng(13), edges, 4, m, users, 30)
        for u, items in held.items():
            counts = np.bincount(got[users == u].ravel(), minlength=m)
            assert not counts[items].any()
            free = np.delete(counts, items)
            assert free.min() > 0
            if len(free) > 1:
                assert chisquare(free).pvalue > 1e-3

    def test_project_with_every_library_rejected(self):
        ds = ingest(["a\tx", "a\ty", "b\tx"])
        with pytest.raises(DataError, match="a uses all 2 libraries"):
            train_embeddings(ds, small_cfg())


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        table = EmbeddingTable(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        path = tmp_path / "emb.tple"
        table.save(path)
        loaded = EmbeddingTable.load(path)
        assert np.allclose(loaded.projects, table.projects, atol=1e-6)
        assert np.allclose(loaded.libraries, table.libraries, atol=1e-6)

    def test_layout(self, tmp_path):
        table = EmbeddingTable(np.zeros((2, 3)), np.zeros((4, 3)))
        path = tmp_path / "emb.tple"
        table.save(path)
        raw = path.read_bytes()
        assert raw[:4] == b"TPLE"
        assert raw[4] == 2
        assert len(raw) == 4 + 1 + 3 + 12 + 8 + 4 * (2 + 4) * 3
