"""Collaborative embeddings over the bipartite interaction graph.

Embeddings are trained by layered neighborhood propagation (no
nonlinearities, no per-layer weights; the final embedding is the mean
over propagation depths) with a popularity-attenuated contrastive loss.
A step draws negatives uniformly from each project's non-items and
takes the loss's gradient over the propagated table's rows back through
the propagation. Finalized tables are unit-norm row-wise, so the score
of a pair is the plain dot product.
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


def debiased_contrastive_loss(emb, users, pos, negs, pos_weight, tau):
    """Popularity-attenuated sampled-softmax loss over rows of the table
    ``emb``, and its gradient with respect to every row (zero for rows no
    sample touches).

    Sample b pairs row ``users[b]`` with the positive row ``pos[b]`` and
    the negative rows ``negs[b]``: its positive logit is cos(u, i+) * w /
    tau with w = 1 - beta * rate(i+) given as ``pos_weight``, its negative
    logits cos(u, i-) / tau. Returns the batch-mean loss and the gradient.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    b, k = negs.shape

    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # an all-zero row that no sample touches keeps a zero gradient
    unit = emb / norms
    other = np.concatenate([pos[:, None], negs], axis=1)  # the positive, then the negatives
    cos = np.einsum("bd,bkd->bk", unit[users], unit[other])

    logits = cos / tau
    logits[:, 0] = pos_weight * cos[:, 0] / tau
    mx = logits.max(axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    loss = float(np.mean(lse - logits[:, 0]))

    # d loss / d cos for every (user, other) pair
    soft = np.exp(logits - lse[:, None])
    dcos = soft / (b * tau)
    dcos[:, 0] = (soft[:, 0] - 1.0) * pos_weight / (b * tau)

    # d cos(x, y) / d unit(x) = unit(y), so the gradient with respect to the unit
    # rows is S @ unit for the symmetric matrix S of pair weights (duplicates summed)
    mine, other = np.repeat(users, k + 1), other.ravel()
    s = sp.csr_matrix((np.tile(dcos.ravel(), 2), (np.r_[mine, other], np.r_[other, mine])),
                      shape=(len(emb), len(emb)))
    g = s @ unit
    # back through unit(x) = x / |x|: drop the radial part, divide by the norm
    return loss, (g - np.einsum("nd,nd->n", g, unit)[:, None] * unit) / norms


def _negative_sampler(codes: np.ndarray, n: int, m: int):
    """``sample(rng, users, k)``: k libraries per user, uniform over those
    the user does not have, from the sorted u * m + i codes of the training
    pairs. The key u * (m + 1) + i - rank_u(i) of an item counts the
    non-items of u below it, so the r-th non-item, r uniform in
    [0, m - deg(u)), is r plus the number of u's keys at most u * (m + 1) + r."""
    u = codes // m
    degree = np.bincount(u, minlength=n)
    first = np.cumsum(degree) - degree
    keys = codes + u - (np.arange(len(codes)) - first[u])

    def sample(rng, users, k):
        r = rng.integers(0, m - degree[users][:, None], size=(len(users), k))
        return r + np.searchsorted(keys, users[:, None] * (m + 1) + r, "right") - first[users][:, None]

    return sample


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
    n, m = train.n_projects, train.n_libraries
    full = np.flatnonzero(np.bincount(train.interactions[:, 0], minlength=n) == m)
    if len(full):
        raise DataError(f"project {train.projects[full[0]]} uses all {m} libraries, so it has no negatives to sample")
    rng = np.random.default_rng(cfg.seed)

    if validation is None:
        train_edges, validation = _holdout_validation(rng, train, cfg.val_fraction)
    else:
        train_edges = train.interactions
        validation = {int(u): list(v) for u, v in validation.items()}

    adj = _adjacency_from_edges(n, m, train_edges)
    rates = np.bincount(train_edges[:, 1], minlength=m) / float(n)
    keys = np.sort(train_edges[:, 0] * m + train_edges[:, 1])
    sample_negatives = _negative_sampler(keys, n, m)

    e0 = rng.normal(0.0, cfg.init_scale, size=(n + m, cfg.dim))
    opt = Adam(cfg.learning_rate)

    best_recall = -1.0
    best_table: EmbeddingTable | None = None
    best_epoch = -1
    history: list[tuple[int, float, float]] = []
    t_edges = len(train_edges)

    for epoch in range(cfg.max_epochs):
        order = rng.permutation(t_edges)
        losses = []
        for start in range(0, t_edges, cfg.batch_size):
            users, pos = train_edges[order[start:start + cfg.batch_size]].T
            negs = sample_negatives(rng, users, cfg.negatives)

            emb = propagate(adj, e0, cfg.layers)
            w = 1.0 - cfg.beta * rates[pos]
            loss, grad = debiased_contrastive_loss(emb, users, n + pos, n + negs, w, cfg.temperature)
            if not np.isfinite(loss):
                raise NumericError(f"embedding loss diverged at epoch {epoch} (loss={loss})")
            losses.append(loss)

            # propagation is linear and symmetric, so its transpose is itself
            grad0 = propagate(adj, grad, cfg.layers) + cfg.l2 * e0
            opt.step({"emb": e0}, {"emb": grad0})

        emb = propagate(adj, e0, cfg.layers)
        table = EmbeddingTable(emb[:n].copy(), emb[n:].copy()).normalized()
        recall = _recall_at_10(table, keys, validation)
        history.append((epoch, float(np.mean(losses)), recall))

        if recall > best_recall:
            best_recall, best_table, best_epoch = recall, table, epoch
        elif epoch - best_epoch >= cfg.patience:
            break

    assert best_table is not None
    return EmbedResult(table=best_table, history=history, best_epoch=best_epoch, best_recall=best_recall)
