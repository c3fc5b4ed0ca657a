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

from .artifact import Artifact, read_artifact, write_csv
from .config import EmbedConfig
from .data import InteractionDataset, group_ranks, popularity
from .errors import DataError, NumericError
from .optim import Adam

_MAGIC_EMB = b"TPLE"
# Share of the training interactions held out for early stopping, and the
# standard deviation of the initial embeddings.
VAL_FRACTION = 0.1
INIT_SCALE = 0.1


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

    def artifact(self) -> Artifact:
        """Artifact TPLE with dims (N, M, d): the N*d project values, then
        the M*d library values, as float32."""
        return Artifact.of(_MAGIC_EMB, _table_layout, (len(self.projects), len(self.libraries), self.dim),
                           [self.projects, self.libraries])

    def save(self, path) -> None:
        """Write the artifact stamped with its own id."""
        self.artifact().write(path)

    @classmethod
    def load(cls, path) -> "EmbeddingTable":
        """The table of an artifact, holding the file's float32 arrays."""
        return cls(*read_artifact(path, _MAGIC_EMB, _table_layout))


def _table_layout(n: int, m: int, d: int):
    return [((n, d), "<f4"), ((m, d), "<f4")]


def build_adjacency(ds: InteractionDataset):
    """Symmetrically normalized CSR adjacency over projects followed by libraries.

    Entry for edge {u, i} is 1/sqrt(deg(u) * deg(i)); libraries with no
    interactions yield empty rows.
    """
    import scipy.sparse as sp  # training code: a query imports no SciPy

    if ds.n_interactions == 0:
        raise DataError("cannot build adjacency for empty dataset")
    n, m = ds.n_projects, ds.n_libraries
    u = ds.interactions[:, 0]
    i = ds.interactions[:, 1] + n
    deg = np.bincount(np.concatenate([u, i]), minlength=n + m).astype(np.float64)
    vals = 1.0 / np.sqrt(deg[u] * deg[i])
    rows = np.concatenate([u, i])
    cols = np.concatenate([i, u])
    data = np.concatenate([vals, vals])
    return sp.csr_matrix((data, (rows, cols)), shape=(n + m, n + m))


def propagate(adj, emb: np.ndarray, layers: int) -> np.ndarray:
    """Mean over 0..layers of the k-step propagated embeddings."""
    acc = emb.copy()
    x = emb
    for _ in range(layers):
        x = adj @ x
        acc += x
    acc /= layers + 1
    return acc


# Batch rows per chunk of the loss: no (B, k + 1, d) array of unit vectors
# is built, only one chunk's gather, which its cosines and gradient share.
_LOSS_CHUNK = 256


def debiased_contrastive_loss(emb, users, pos, negs, pos_weight, tau):
    """Popularity-attenuated sampled-softmax loss over rows of the table
    ``emb``, and its gradient with respect to every row (zero for rows no
    sample touches).

    Sample b pairs row ``users[b]`` with the positive row ``pos[b]`` and
    the negative rows ``negs[b]``: its positive logit is cos(u, i+) * w /
    tau with w = 1 - beta * rate(i+) given as ``pos_weight``, its negative
    logits cos(u, i-) / tau. Returns the batch-mean loss and the gradient,
    the latter in the table's dtype.
    """
    import scipy.sparse as sp  # training code: a query imports no SciPy

    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    b, k = negs.shape

    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0  # an all-zero row that no sample touches keeps a zero gradient
    unit = emb / norms
    other = np.concatenate([pos[:, None], negs], axis=1)  # the positive, then the negatives
    if min(users.min(), other.min()) < 0:  # the sparse product below does not bounds-check
        raise ValueError("row indices must be nonnegative")

    # d cos(x, y) / d unit(x) = unit(y), so pair (b, j) adds dcos[b, j] * unit[users[b]]
    # to row other[b, j], and sample b adds sum_j dcos[b, j] * unit[other[b, j]] to row
    # users[b]: the first B rows of `addends` are unit[users], the last B those sums
    addends = np.empty((2 * b, emb.shape[1]), dtype=unit.dtype)
    mine, sums = addends[:b], addends[b:]
    mine[:] = unit[users]
    dcos = np.empty((b, k + 1), unit.dtype)  # d loss / d cos for every (user, other) pair
    gap = np.empty(b)  # each sample's loss
    for start in range(0, b, _LOSS_CHUNK):
        rows = slice(start, start + _LOSS_CHUNK)
        pairs, w = unit[other[rows]], pos_weight[rows]
        cos = np.einsum("bd,bkd->bk", mine[rows], pairs)
        logits = cos / tau
        logits[:, 0] = w * cos[:, 0] / tau
        mx = logits.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
        gap[rows] = lse - logits[:, 0]
        soft = np.exp(logits - lse[:, None])
        dcos[rows] = soft / (b * tau)
        dcos[rows, 0] = (soft[:, 0] - 1.0) * w / (b * tau)
        np.einsum("bk,bkd->bd", dcos[rows], pairs, out=sums[rows])
        del pairs  # before the next chunk's gather is made
    loss = float(np.mean(gap))

    # the gradient with respect to the unit rows, scattered by one column-compressed
    # N x 2B product: k + 1 entries per column for the pairs, then one per sample
    n_pairs = b * (k + 1)
    scatter = sp.csc_matrix((np.r_[dcos.ravel(), np.ones(b, unit.dtype)], np.r_[other.ravel(), users],
                             np.r_[np.arange(0, n_pairs, k + 1), np.arange(n_pairs, n_pairs + b + 1)]),
                            shape=(len(emb), 2 * b))
    g = scatter @ addends
    # back through unit(x) = x / |x|: drop the radial part, divide by the norm
    g -= np.einsum("nd,nd->n", g, unit)[:, None] * unit
    g /= norms
    return loss, g


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
    random order, the first edges that are not their project's last.
    Returns the training and the validation edges."""
    edges = ds.interactions
    order = rng.permutation(len(edges))
    target = max(1, int(round(fraction * len(edges))))
    users = edges[order, 0]
    degree = np.bincount(users, minlength=ds.n_projects)
    rank = group_ranks(users, np.arange(len(edges)))
    val_mask = np.zeros(len(edges), dtype=bool)
    val_mask[order[rank < degree[users] - 1][:target]] = True
    return edges[~val_mask], edges[val_mask]


# Rows per block of the validation probe's scores. With OpenBLAS, blocks of
# a multiple of 256 rows gave the full product's scores bit for bit at the
# benchmark's catalog shape; elsewhere they may differ in the last bit.
_SCORE_BLOCK = 256


def _recall_at_10(table: EmbeddingTable, keys: np.ndarray, val: np.ndarray) -> float:
    """Mean Recall@10 over the projects of the validation edges `val`,
    summed in their order of first appearance and scored a block of
    projects at a time; training items (the sorted u * M + i codes `keys`)
    are never ranked."""
    if not len(val):
        return 0.0
    m = table.libraries.shape[0]
    k = min(10, m)
    codes = val[:, 0] * m + val[:, 1]
    users, first, which, size = np.unique(val[:, 0], return_index=True, return_inverse=True, return_counts=True)
    hit = np.zeros(len(val), dtype=bool)
    for start in range(0, table.projects.shape[0], _SCORE_BLOCK):
        stop = start + _SCORE_BLOCK
        lo, hi = np.searchsorted(users, (start, stop))
        if lo == hi:
            continue
        # negated in place and partitioned whole, so no copy of the block's rows is made
        scores = table.projects[start:stop] @ table.libraries.T
        np.negative(scores, out=scores)
        a, b = np.searchsorted(keys, (start * m, stop * m))
        scores[keys[a:b] // m - start, keys[a:b] % m] = np.inf
        top = np.argpartition(scores, k - 1, axis=1)[users[lo:hi] - start, :k]
        hit |= np.isin(codes, users[lo:hi, None] * m + top)
    recall = (np.bincount(which[hit], minlength=len(users)) / size)[np.argsort(first)]
    return float(np.cumsum(recall)[-1]) / len(users)


@dataclass(eq=False)
class EmbedResult:
    table: EmbeddingTable
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_recall: float = 0.0

    def write_curve(self, path) -> bytes:
        """Write the history as CSV, then a `best_epoch` row, and return the bytes written."""
        return write_csv(path, [["epoch", "loss", "val_recall"]] + [
            [epoch, f"{loss:.6f}", f"{recall:.6f}"] for epoch, loss, recall in self.history
        ] + [["best_epoch", self.best_epoch]])


def train_embeddings(train: InteractionDataset, cfg: EmbedConfig) -> EmbedResult:
    """Mini-batch training with early stopping on validation Recall@10.

    Validation is a seeded ``VAL_FRACTION`` interaction holdout
    carved from the training data. Returns the best-validation snapshot
    with rows renormalized to unit norm, plus a per-epoch history of
    (epoch, mean loss, validation recall).
    """
    n, m = train.n_projects, train.n_libraries
    full = np.flatnonzero(np.bincount(train.interactions[:, 0], minlength=n) == m)
    if len(full):
        raise DataError(f"project {train.projects[full[0]]} uses all {m} libraries, so it has no negatives to sample")
    rng = np.random.default_rng(cfg.seed)

    train_edges, validation = _holdout_validation(rng, train, VAL_FRACTION)
    fit = InteractionDataset(train.projects, train.libraries, train_edges)

    adj = build_adjacency(fit)
    rates = popularity(fit).rates
    keys = np.sort(train_edges[:, 0] * m + train_edges[:, 1])
    sample_negatives = _negative_sampler(keys, n, m)

    e0 = rng.normal(0.0, INIT_SCALE, size=(n + m, cfg.dim))
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
        table = EmbeddingTable(emb[:n], emb[n:]).normalized()
        recall = _recall_at_10(table, keys, validation)
        history.append((epoch, float(np.mean(losses)), recall))

        if recall > best_recall:
            best_recall, best_table, best_epoch = recall, table, epoch
        elif epoch - best_epoch >= cfg.patience:
            break

    assert best_table is not None
    return EmbedResult(table=best_table, history=history, best_epoch=best_epoch, best_recall=best_recall)
