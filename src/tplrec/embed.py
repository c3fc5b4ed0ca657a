"""Collaborative embeddings over the bipartite interaction graph.

Embeddings are trained by layered neighborhood propagation (no
nonlinearities, no per-layer weights; the final embedding is the mean
over propagation depths) with a popularity-attenuated contrastive loss.
Finalized tables are unit-norm row-wise, so the score of a pair is the
plain dot product.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .artifact import read_artifact, write_artifact
from .data import InteractionDataset
from .errors import DataError, NumericError
from .optim import Adam

_MAGIC_EMB = b"TPLE"


@dataclass
class EmbedConfig:
    layers: int = 2
    dim: int = 64
    batch_size: int = 1024
    learning_rate: float = 1e-4
    l2: float = 1e-5
    negatives: int = 128
    temperature: float = 0.1
    beta: float = 0.5
    patience: int = 20
    max_epochs: int = 400
    val_fraction: float = 0.1
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.layers < 0:
            raise ValueError(f"layers must be >= 0, got {self.layers}")
        for name in ("dim", "batch_size", "negatives", "max_epochs", "learning_rate", "init_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass(eq=False)
class EmbeddingTable:
    """Project (N x d) and library (M x d) embedding matrices."""

    projects: np.ndarray
    libraries: np.ndarray

    @property
    def dim(self) -> int:
        return self.projects.shape[1]

    def normalized(self) -> "EmbeddingTable":
        def norm_rows(x):
            norms = np.linalg.norm(x, axis=1, keepdims=True)
            norms = np.where(norms < 1e-12, 1.0, norms)
            return x / norms

        return EmbeddingTable(norm_rows(self.projects), norm_rows(self.libraries))

    def save(self, path) -> None:
        """Artifact TPLE with dims (N, M, d): the N*d project values, then
        the M*d library values, as float32."""
        write_artifact(path, _MAGIC_EMB, (len(self.projects), len(self.libraries), self.dim),
                       [(self.projects, "<f4"), (self.libraries, "<f4")])

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        proj, lib = read_artifact(path, _MAGIC_EMB, lambda n, m, d: [((n, d), "<f4"), ((m, d), "<f4")])
        return cls(proj.astype(np.float64), lib.astype(np.float64))


def build_adjacency(ds: InteractionDataset) -> sp.csr_matrix:
    """Symmetrically normalized adjacency over projects followed by libraries.

    Entry for edge {u, i} is 1/sqrt(deg(u) * deg(i)); libraries with no
    interactions yield empty rows.
    """
    if ds.n_interactions == 0:
        raise DataError("cannot build adjacency for empty dataset")
    return _adjacency_from_edges(ds.n_projects, ds.n_libraries, ds.interactions)


def _adjacency_from_edges(n: int, m: int, edges: np.ndarray) -> sp.csr_matrix:
    u = edges[:, 0]
    i = edges[:, 1] + n
    deg = np.bincount(np.concatenate([u, i]), minlength=n + m).astype(np.float64)
    vals = 1.0 / np.sqrt(deg[u] * deg[i])
    rows = np.concatenate([u, i])
    cols = np.concatenate([i, u])
    data = np.concatenate([vals, vals])
    return sp.csr_matrix((data, (rows, cols)), shape=(n + m, n + m))


def propagate(adj: sp.spmatrix, emb: np.ndarray, layers: int) -> np.ndarray:
    """Mean over 0..layers of the k-step propagated embeddings."""
    acc = emb.copy()
    x = emb
    for _ in range(layers):
        x = adj @ x
        acc += x
    return acc / (layers + 1)


def debiased_contrastive_loss(user_vecs, pos_vecs, neg_vecs, pos_weight, tau):
    """Popularity-attenuated sampled-softmax loss with analytic gradients.

    For each sample the positive logit is cos(u, i+) * w / tau with
    w = 1 - beta * rate(i+) supplied as ``pos_weight``; negative logits
    are cos(u, i-) / tau. Returns the batch-mean loss and gradients of
    it w.r.t. the three input arrays.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    u = np.asarray(user_vecs, dtype=np.float64)
    p = np.asarray(pos_vecs, dtype=np.float64)
    ng = np.asarray(neg_vecs, dtype=np.float64)
    w = np.asarray(pos_weight, dtype=np.float64)
    b = u.shape[0]

    nu = np.linalg.norm(u, axis=1)
    npos = np.linalg.norm(p, axis=1)
    nneg = np.linalg.norm(ng, axis=2)

    cos_p = np.einsum("bd,bd->b", u, p) / (nu * npos)
    cos_n = np.einsum("bd,bnd->bn", u, ng) / (nu[:, None] * nneg)

    logits = np.concatenate([(w * cos_p / tau)[:, None], cos_n / tau], axis=1)
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float(np.mean(lse - logits[:, 0]))

    soft = np.exp(logits - lse[:, None])
    dl_pos = (soft[:, 0] - 1.0) / b        # d loss / d positive logit
    dl_neg = soft[:, 1:] / b               # d loss / d negative logits

    dcos_p = dl_pos * w / tau
    dcos_n = dl_neg / tau

    # cosine gradients: d cos(a, b)/da = b/(|a||b|) - cos * a/|a|^2
    gu = dcos_p[:, None] * (p / (nu * npos)[:, None] - cos_p[:, None] * u / (nu ** 2)[:, None])
    gu += np.einsum("bn,bnd->bd", dcos_n, ng / (nu[:, None] * nneg)[:, :, None])
    gu -= (dcos_n * cos_n).sum(axis=1)[:, None] * u / (nu ** 2)[:, None]

    gp = dcos_p[:, None] * (u / (nu * npos)[:, None] - cos_p[:, None] * p / (npos ** 2)[:, None])

    gn = dcos_n[:, :, None] * (
        u[:, None, :] / (nu[:, None] * nneg)[:, :, None]
        - cos_n[:, :, None] * ng / (nneg ** 2)[:, :, None]
    )
    return loss, gu, gp, gn


def _contains(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Membership of each query in the sorted, nonempty key array."""
    pos = np.searchsorted(keys, queries).clip(max=len(keys) - 1)
    return keys[pos] == queries


def _sample_negatives(rng, users, keys, m, k):
    """Uniform negatives from the library catalog minus each project's items.

    `keys` are the sorted u * m + i codes of the training pairs. A row
    that hits a training item redraws the hits, up to 64 times; rows
    redraw in order.
    """
    out = rng.integers(0, m, size=(len(users), k))
    hit = _contains(keys, users[:, None] * m + out)
    for r in np.flatnonzero(hit.any(axis=1)):
        row, bad = out[r], hit[r]
        for _ in range(64):
            row[bad] = rng.integers(0, m, size=int(bad.sum()))
            bad = _contains(keys, users[r] * m + row)
            if not bad.any():
                break
    return out


def _holdout_validation(rng, ds: InteractionDataset, fraction: float):
    """Carve out ~fraction of interactions for Recall@10 early stopping,
    keeping every project with at least one training interaction: in a
    random order, the first edges that are not their project's last."""
    edges = ds.interactions
    order = rng.permutation(len(edges))
    target = max(1, int(round(fraction * len(edges))))
    users = edges[order, 0]
    degree = np.bincount(users, minlength=ds.n_projects)
    by_user = np.argsort(users, kind="stable")
    rank = np.empty(len(edges), dtype=np.int64)
    rank[by_user] = np.arange(len(edges)) - (np.cumsum(degree) - degree)[users[by_user]]
    val_mask = np.zeros(len(edges), dtype=bool)
    val_mask[order[rank < degree[users] - 1][:target]] = True
    val: dict[int, list[int]] = {}
    for u, i in edges[val_mask].tolist():
        val.setdefault(u, []).append(i)
    return edges[~val_mask], val


# Rows per block of the validation probe's scores. With OpenBLAS, blocks of
# a multiple of 256 rows gave the full product's scores bit for bit at the
# benchmark's catalog shape; elsewhere they may differ in the last bit.
_SCORE_BLOCK = 256


def _recall_at_10(table: EmbeddingTable, keys: np.ndarray, val: dict[int, list[int]]) -> float:
    """Mean Recall@10 over the validation projects, scored a block at a
    time; training items (the sorted u * M + i codes `keys`) are never ranked."""
    if not val:
        return 0.0
    m = table.libraries.shape[0]
    k = min(10, m)
    users = np.fromiter(val, dtype=np.int64, count=len(val))
    recall = np.empty(len(users))
    for start in range(0, table.projects.shape[0], _SCORE_BLOCK):
        stop = start + _SCORE_BLOCK
        rows = np.flatnonzero((users >= start) & (users < stop))
        if not len(rows):
            continue
        scores = table.projects[start:stop] @ table.libraries.T
        lo, hi = np.searchsorted(keys, (start * m, stop * m))
        scores[keys[lo:hi] // m - start, keys[lo:hi] % m] = -np.inf
        top = np.argpartition(-scores[users[rows] - start], k - 1, axis=1)[:, :k]
        for j, picks in zip(rows, top):
            items = val[int(users[j])]
            recall[j] = np.isin(picks, items).sum() / len(items)
    return float(np.cumsum(recall)[-1]) / len(val)


@dataclass(eq=False)
class EmbedResult:
    table: EmbeddingTable
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_recall: float = 0.0


def train_embeddings(train: InteractionDataset, cfg: EmbedConfig, validation: dict[int, list[int]] | None = None) -> EmbedResult:
    """Mini-batch training with early stopping on validation Recall@10.

    When ``validation`` is None, a seeded 10% interaction holdout is
    carved from the training data. Returns the best-validation snapshot
    with rows renormalized to unit norm, plus a per-epoch history of
    (epoch, mean loss, validation recall).
    """
    rng = np.random.default_rng(cfg.seed)
    n, m = train.n_projects, train.n_libraries

    if validation is None:
        train_edges, validation = _holdout_validation(rng, train, cfg.val_fraction)
    else:
        train_edges = train.interactions
        validation = {int(u): list(v) for u, v in validation.items()}

    adj = _adjacency_from_edges(n, m, train_edges)
    counts = np.bincount(train_edges[:, 1], minlength=m)
    rates = counts / float(n)
    keys = np.sort(train_edges[:, 0] * m + train_edges[:, 1])

    e0 = rng.normal(0.0, cfg.init_scale, size=(n + m, cfg.dim))
    opt = Adam(cfg.learning_rate)

    best_recall = -1.0
    best_table: EmbeddingTable | None = None
    best_epoch = -1
    stall = 0
    history: list[tuple[int, float, float]] = []
    t_edges = len(train_edges)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(t_edges)
        losses = []
        for start in range(0, t_edges, cfg.batch_size):
            batch = train_edges[order[start:start + cfg.batch_size]]
            users = batch[:, 0]
            pos = batch[:, 1]
            negs = _sample_negatives(rng, users, keys, m, cfg.negatives)

            emb = propagate(adj, e0, cfg.layers)
            w = 1.0 - cfg.beta * rates[pos]
            loss, gu, gp, gn = debiased_contrastive_loss(
                emb[users], emb[n + pos], emb[(n + negs).ravel()].reshape(len(users), cfg.negatives, cfg.dim),
                w, cfg.temperature,
            )
            if not np.isfinite(loss):
                raise NumericError(f"embedding loss diverged at epoch {epoch} (loss={loss})")
            losses.append(loss)

            grad = np.zeros_like(emb)
            np.add.at(grad, users, gu)
            np.add.at(grad, n + pos, gp)
            np.add.at(grad, (n + negs).ravel(), gn.reshape(-1, cfg.dim))
            # propagation is linear and symmetric, so its transpose is itself
            grad0 = propagate(adj, grad, cfg.layers) + cfg.l2 * e0
            opt.step({"emb": e0}, {"emb": grad0})

        emb = propagate(adj, e0, cfg.layers)
        table = EmbeddingTable(emb[:n].copy(), emb[n:].copy()).normalized()
        recall = _recall_at_10(table, keys, validation)
        history.append((epoch, float(np.mean(losses)), recall))

        if recall > best_recall:
            best_recall = recall
            best_table = table
            best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                break

    assert best_table is not None
    return EmbedResult(table=best_table, history=history, best_epoch=best_epoch, best_recall=best_recall)
