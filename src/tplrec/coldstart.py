"""Library representative embeddings and the cold-start aggregation operator.

A library's representative blends the similarity-weighted mean of its
users' embeddings with its own embedding; a new project with a short
interaction list is encoded as the mean of the representatives of the
libraries it uses. That vector doubles as the RL state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifact import Artifact, read_artifact
from .data import InteractionDataset, popularity
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

    def artifact(self) -> Artifact:
        """Artifact TPLR with dims (0, M, d): the embedding-table layout with
        no project rows, then the blend weight as float32 and the
        availability mask as one byte per library."""
        m, d = self.vectors.shape
        return Artifact.of(_MAGIC_REP, _rep_layout, (0, m, d),
                           [np.empty((0, d)), self.vectors, [self.blend], self.has_rep])

    def save(self, path) -> None:
        """Write the artifact stamped with its own id."""
        self.artifact().write(path)

    @classmethod
    def load(cls, path) -> "RepresentativeTable":
        """The table of an artifact, its vectors the file's float32 values;
        states summed from them are float64, as from a float64 table."""
        _, vectors, blend, mask = read_artifact(path, _MAGIC_REP, _rep_layout)
        if (mask > 1).any():
            raise DataError(f"{path}: availability mask byte {int(mask.max())} is neither 0 nor 1")
        return cls(vectors=vectors, blend=float(blend[0]), has_rep=mask == 1)


def _rep_layout(n: int, m: int, d: int):
    return [((n, d), "<f4"), ((m, d), "<f4"), ((1,), "<f4"), ((m,), np.uint8)]


def build_representatives(table: EmbeddingTable, train: InteractionDataset, blend: float) -> RepresentativeTable:
    """Representatives of every library with training interactions.

    Library i's representative is blend * the weighted mean of its users'
    embeddings + (1 - blend) * its own embedding. Weights are the cosine
    scores y(u, i) clamped at zero, normalized per library before the
    sum; if all clamp to zero the users weigh equally, keeping the user
    term a convex combination. Libraries without users get zero vectors.
    """
    import scipy.sparse as sp  # training code: a query imports no SciPy

    if not 0.0 <= blend <= 1.0:
        raise DataError(f"blend weight must be in [0, 1], got {blend}")
    n, m = train.n_projects, train.n_libraries
    users, libs = train.interactions.T
    weights = np.maximum(np.einsum("ed,ed->e", table.projects[users], table.libraries[libs]), 0.0)
    total = np.bincount(libs, weights=weights, minlength=m)[libs]
    degree = popularity(train).counts
    share = np.where(total > 0.0, weights / np.where(total > 0.0, total, 1.0), 1.0 / degree[libs])
    user_term = sp.csr_matrix((share, (libs, users)), shape=(m, n)) @ table.projects
    has_rep = degree > 0
    vectors = np.where(has_rep[:, None], blend * user_term + (1.0 - blend) * table.libraries, 0.0)
    return RepresentativeTable(vectors=vectors, blend=blend, has_rep=has_rep)


def aggregate(libraries, rep: RepresentativeTable) -> np.ndarray:
    """Mean of the representatives of the given nonempty library set: one
    row of `segment_sums` over its count."""
    idx = np.array([int(i) for i in libraries], dtype=np.int64)
    if not len(idx):
        raise DataError("cannot aggregate an empty library set")
    return segment_sums(np.zeros(len(idx), dtype=np.int64), idx, 1, rep)[0] / len(idx)


def segment_sums(rows: np.ndarray, libraries: np.ndarray, n_rows: int, rep: RepresentativeTable) -> np.ndarray:
    """(n_rows, d) float64 sums of the representatives of `libraries`, each
    added to its entry of `rows` in order. Raises DataError if a library
    has no representative."""
    missing = ~rep.has_rep[libraries]
    if missing.any():
        raise DataError(f"libraries without representatives: {np.unique(libraries[missing])[:5].tolist()}")
    total = np.zeros((n_rows, rep.dim))
    np.add.at(total, rows, rep.vectors[libraries])
    return total
