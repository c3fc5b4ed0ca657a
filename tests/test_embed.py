import math

import numpy as np
import pytest

from tplrec.data import ingest
from tplrec.embed import (
    EmbedConfig,
    EmbeddingTable,
    build_adjacency,
    debiased_contrastive_loss,
    propagate,
    train_embeddings,
)
from tplrec.synth import planted_communities


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


class TestContrastiveLoss:
    def test_trivial_scalar_case(self):
        d = 4
        e1 = np.zeros(d)
        e1[0] = 1.0
        u = e1[None, :]
        pos = e1[None, :]
        negs = -np.tile(e1, (1, 3, 1))
        loss, *_ = debiased_contrastive_loss(u, pos, negs, np.ones(1), 1.0)
        expected = -math.log(math.e / (math.e + 3 * math.exp(-1)))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_beta_zero_is_plain_infonce(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(3, 5))
        p = rng.normal(size=(3, 5))
        ng = rng.normal(size=(3, 6, 5))
        plain, *_ = debiased_contrastive_loss(u, p, ng, np.ones(3), 0.2)
        # weight 1 corresponds to beta = 0 regardless of popularity
        again, *_ = debiased_contrastive_loss(u, p, ng, 1.0 - 0.0 * np.ones(3), 0.2)
        assert plain == pytest.approx(again)

    def test_nonpositive_temperature_rejected(self):
        u = np.ones((1, 2))
        with pytest.raises(ValueError):
            debiased_contrastive_loss(u, u, np.ones((1, 2, 2)), np.ones(1), 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(4, 5))
        p = rng.normal(size=(4, 5))
        ng = rng.normal(size=(4, 6, 5))
        w = 1.0 - 0.5 * rng.random(4)
        tau = 0.2
        loss, gu, gp, gn = debiased_contrastive_loss(u, p, ng, w, tau)
        eps = 1e-5
        for arr, grad in ((u, gu), (p, gp), (ng, gn)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                arr[ix] += eps
                lp, *_ = debiased_contrastive_loss(u, p, ng, w, tau)
                arr[ix] -= 2 * eps
                lm, *_ = debiased_contrastive_loss(u, p, ng, w, tau)
                arr[ix] += eps
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grad[ix]) / max(1e-6, abs(fd) + abs(grad[ix])) < 1e-4

    def test_popularity_attenuation_monotone(self):
        # same geometry, higher popularity -> lower weight -> loss at least as large
        rng = np.random.default_rng(6)
        u = rng.normal(size=(1, 5))
        p = u + 0.1 * rng.normal(size=(1, 5))  # positively aligned positive
        ng = rng.normal(size=(1, 8, 5))
        beta = 0.5
        low, *_ = debiased_contrastive_loss(u, p, ng, np.array([1.0 - beta * 0.05]), 0.2)
        high, *_ = debiased_contrastive_loss(u, p, ng, np.array([1.0 - beta * 0.95]), 0.2)
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
        assert raw[4] == 1
        assert len(raw) == 4 + 1 + 12 + 4 * (2 + 4) * 3
