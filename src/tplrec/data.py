"""Interaction data: ingestion, popularity statistics, and split protocols."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError

RARE_THRESHOLD = 0.1
POPULAR_THRESHOLD = 0.9


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """Bipartite project-library interaction records with dense indices.

    ``interactions`` is the graph, stored once: a read-only (E, 2) int64
    array of (project-index, library-index) pairs in ingest order. The
    constructor accepts any integer pairs. Every project must occur in
    at least one pair; libraries may be isolated (they can still appear
    in a catalog without recorded usage). ``by_project`` and
    ``by_library`` are CSR views of it: one sorted index array per row.
    """

    projects: tuple[str, ...]
    libraries: tuple[str, ...]
    interactions: np.ndarray

    def __post_init__(self):
        n, m = len(self.projects), len(self.libraries)
        edges = np.array(self.interactions, dtype=np.int64).reshape(len(self.interactions), 2)
        u, i = edges.T
        bad = (u < 0) | (u >= n) | (i < 0) | (i >= m)
        if bad.any():
            j = np.argmax(bad)
            raise DataError(f"interaction ({u[j]}, {i[j]}) out of range for {n} projects, {m} libraries")
        _, first = np.unique(u * m + i, return_index=True)
        if len(first) < len(edges):
            j = np.setdiff1d(np.arange(len(edges)), first)[0]
            raise DataError(f"duplicate interaction ({u[j]}, {i[j]})")
        missing = np.flatnonzero(np.bincount(u, minlength=n) == 0)
        if len(missing):
            raise DataError(f"projects without interactions: {missing[:5].tolist()}")
        edges.flags.writeable = False
        object.__setattr__(self, "interactions", edges)

    @property
    def n_projects(self) -> int:
        return len(self.projects)

    @property
    def n_libraries(self) -> int:
        return len(self.libraries)

    @property
    def n_interactions(self) -> int:
        return len(self.interactions)

    @cached_property
    def by_project(self) -> tuple[np.ndarray, ...]:
        return _rows(self.interactions[:, 0], self.interactions[:, 1], self.n_projects)

    @cached_property
    def by_library(self) -> tuple[np.ndarray, ...]:
        return _rows(self.interactions[:, 1], self.interactions[:, 0], self.n_libraries)


def _rows(keys: np.ndarray, values: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """`values` grouped by `keys` in 0..count-1: one sorted read-only array per key."""
    indices = values[np.lexsort((values, keys))]
    indices.flags.writeable = False
    return tuple(np.split(indices, np.cumsum(np.bincount(keys, minlength=count))[:-1]))


def ingest(source) -> InteractionDataset:
    """Parse `<project><TAB><library>` lines into an interned dataset.

    Accepts a path or an iterable of lines. Blank lines and lines
    starting with ``#`` are skipped; duplicate pairs are collapsed.
    Identifiers are interned in first-appearance order.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.is_file():
            raise DataError(f"no such file: {path}")
        lines: Iterable[str] = path.read_text(encoding="utf-8").splitlines()
    else:
        lines = [str(l).rstrip("\n") for l in source]

    projects: dict[str, int] = {}
    libraries: dict[str, int] = {}
    pairs: list[int] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"line {lineno}: expected '<project><TAB><library>', got {raw!r}")
        pairs.append(projects.setdefault(parts[0], len(projects)))
        pairs.append(libraries.setdefault(parts[1], len(libraries)))
    if not pairs:
        raise DataError("empty dataset: no interactions found")
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    _, first = np.unique(edges[:, 0] * len(libraries) + edges[:, 1], return_index=True)
    return InteractionDataset(tuple(projects), tuple(libraries), edges[np.sort(first)])


@dataclass(frozen=True, eq=False)
class PopularityTable:
    """Per-library interaction counts and popularity rates over a training split."""

    counts: np.ndarray
    rates: np.ndarray

    def is_rare(self, i: int) -> bool:
        return self.rates[i] < RARE_THRESHOLD

    def is_popular(self, i: int) -> bool:
        return self.rates[i] > POPULAR_THRESHOLD


def popularity(train: InteractionDataset) -> PopularityTable:
    """rate(i) = |projects that used i| / N over the training split."""
    counts = np.bincount(train.interactions[:, 1], minlength=train.n_libraries).astype(np.int64)
    rates = counts / float(train.n_projects)
    return PopularityTable(counts=counts, rates=rates)


@dataclass(frozen=True, eq=False)
class UserFold:
    train_projects: np.ndarray
    test_projects: np.ndarray


def split_users(ds: InteractionDataset, fold_count: int, seed: int = 0) -> list[UserFold]:
    """Partition projects into disjoint k-fold train/test sets."""
    n = ds.n_projects
    if not 2 <= fold_count <= n:
        raise DataError(f"fold_count must be in [2, {n}] for {n} projects, got {fold_count}")
    perm = np.random.default_rng(seed).permutation(n)
    groups = np.array_split(perm, fold_count)
    folds = []
    for f in range(fold_count):
        test = np.sort(groups[f])
        train = np.sort(np.concatenate([groups[g] for g in range(fold_count) if g != f]))
        folds.append(UserFold(train_projects=train, test_projects=test))
    return folds


def seen_libraries(ds: InteractionDataset, train_projects) -> np.ndarray:
    """Boolean mask over the catalog: libraries that occur in the training
    projects' interactions."""
    used = ds.interactions[np.isin(ds.interactions[:, 0], train_projects), 1]
    return np.bincount(used, minlength=ds.n_libraries) > 0


def restrict(ds: InteractionDataset, project_indices) -> InteractionDataset:
    """Sub-dataset over the given projects; the library catalog is kept whole."""
    idx = np.unique(np.asarray(project_indices, dtype=np.int64))
    edges = ds.interactions[np.isin(ds.interactions[:, 0], idx)]
    return InteractionDataset(
        projects=tuple(ds.projects[u] for u in idx),
        libraries=ds.libraries,
        interactions=np.column_stack([np.searchsorted(idx, edges[:, 0]), edges[:, 1]]),
    )


def split_query_test(items: Sequence[int], fraction: float, seed_or_rng=0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split one test project's interactions into a query set and a test set.

    |query| = max(1, round-half-up(fraction * n)), clamped so the test
    side is never empty.
    """
    items = np.asarray(items, dtype=np.int64)
    if not 0.0 < fraction < 1.0:
        raise DataError(f"query fraction must be in (0, 1), got {fraction}")
    n = len(items)
    if n < 2:
        raise DataError("project needs >= 2 interactions to form query and test sets")
    q = min(n - 1, max(1, _round_half_up(fraction * n)))
    rng = _as_rng(seed_or_rng)
    perm = rng.permutation(n)
    return tuple(np.sort(items[perm[:q]]).tolist()), tuple(np.sort(items[perm[q:]]).tolist())


def split_interactions(ds: InteractionDataset, train_fraction: float, seed: int = 0):
    """Per-project disjoint train/test interaction lists.

    A project with a single interaction keeps it in training and gets an
    empty test list. Returns (train_lists, test_lists), one tuple per
    project.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_lists: list[tuple[int, ...]] = []
    test_lists: list[tuple[int, ...]] = []
    for u in range(ds.n_projects):
        items = ds.by_project[u]
        n = len(items)
        if n == 1:
            train_lists.append(tuple(items.tolist()))
            test_lists.append(())
            continue
        t = min(n - 1, max(1, _round_half_up(train_fraction * n)))
        perm = rng.permutation(n)
        train_lists.append(tuple(np.sort(items[perm[:t]]).tolist()))
        test_lists.append(tuple(np.sort(items[perm[t:]]).tolist()))
    return train_lists, test_lists
