"""Library representative embeddings and the cold-start aggregation operator.

A library's representative blends the similarity-weighted mean of its
users' embeddings with its own embedding; a new project with a short
interaction list is encoded as the mean of the representatives of the
libraries it uses. That vector doubles as the RL state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import read_artifact, write_artifact
from .data import InteractionDataset
from .embed import EmbeddingTable
from .errors import DataError

_MAGIC_REP = b"TPLR"


@dataclass(eq=False)
class RepresentativeTable:
    """Per-library representative vectors (M x d) with blend weight."""

    vectors: np.ndarray
    blend: float
    has_rep: np.ndarray  # bool mask: libraries with >= 1 training interaction

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        """Artifact TPLR with dims (0, M, d): the embedding-table layout with
        no project rows, then the blend weight as float32 and the
        availability mask as one byte per library."""
        m, d = self.vectors.shape
        write_artifact(path, _MAGIC_REP, (0, m, d),
                       [(self.vectors, "<f4"), ([self.blend], "<f4"), (self.has_rep, np.uint8)])

    @classmethod
    def load(cls, path) -> "RepresentativeTable":
        _, vectors, blend, mask = read_artifact(path, _MAGIC_REP, lambda n, m, d: [
            ((n, d), "<f4"), ((m, d), "<f4"), ((1,), "<f4"), ((m,), np.uint8),
        ])
        return cls(vectors=vectors.astype(np.float64), blend=float(blend[0]), has_rep=mask.astype(bool))


def representative(i: int, table: EmbeddingTable, train: InteractionDataset, blend: float) -> np.ndarray:
    """Representative of library i: blend * weighted mean of its users'
    embeddings + (1 - blend) * its own embedding.

    Weights are the cosine scores y(u, i) clamped at zero; if all clamp
    to zero the unweighted mean of the user embeddings is used, keeping
    the user term a convex combination.
    """
    users = train.by_library[i]
    if not users:
        raise DataError(f"library {i} has no training interactions")
    e_i = table.libraries[i]
    e_users = table.projects[list(users)]
    weights = np.maximum(e_users @ e_i, 0.0)
    total = weights.sum()
    if total > 0.0:
        user_term = (weights[:, None] * e_users).sum(axis=0) / total
    else:
        user_term = e_users.mean(axis=0)
    return blend * user_term + (1.0 - blend) * e_i


def build_representatives(table: EmbeddingTable, train: InteractionDataset, blend: float) -> RepresentativeTable:
    """Precompute representatives for every library with training interactions."""
    if not 0.0 <= blend <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {blend}")
    m = train.n_libraries
    vectors = np.zeros((m, table.dim))
    has_rep = np.zeros(m, dtype=bool)
    for i in range(m):
        if train.by_library[i]:
            vectors[i] = representative(i, table, train, blend)
            has_rep[i] = True
    return RepresentativeTable(vectors=vectors, blend=blend, has_rep=has_rep)


def aggregate(libraries, rep: RepresentativeTable) -> np.ndarray:
    """Mean of the representatives of the given nonempty library set."""
    idx = [int(i) for i in libraries]
    if not idx:
        raise DataError("cannot aggregate an empty library set")
    missing = [i for i in idx if not rep.has_rep[i]]
    if missing:
        raise DataError(f"libraries without representatives: {missing[:5]}")
    return rep.vectors[idx].mean(axis=0)
