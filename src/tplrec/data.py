"""Interaction data: ingestion, popularity statistics, and split protocols."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError

RARE_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class InteractionDataset:
    """Bipartite project-library interaction records with dense indices.

    ``interactions`` is the graph, stored once: a read-only (E, 2) int64
    array of (project-index, library-index) pairs in ingest order. The
    constructor accepts any integer pairs. Every project must occur in
    at least one pair; libraries may be isolated (they can still appear
    in a catalog without recorded usage). ``by_project`` is a CSR view of
    it: one sorted index array per project.
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
        return rows(self.interactions[:, 0], self.interactions[:, 1], self.n_projects)


def rows(keys: np.ndarray, values: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """`values` grouped by `keys` in 0..count-1: one sorted read-only array per key."""
    indices = values[np.lexsort((values, keys))]
    indices.flags.writeable = False
    return tuple(np.split(indices, np.cumsum(np.bincount(keys, minlength=count))[:-1]))


def read_lines(path: Path) -> list[str]:
    r"""The lines of a UTF-8 text file, ended by `\n` or `\r\n` alone; a
    DataError naming the file and the byte offset of the first bad byte
    if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8").replace("\r\n", "\n").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: bad byte at offset {exc.start}") from None


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
        lines: Iterable[str] = read_lines(path)
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
    tests = [np.sort(g) for g in np.array_split(perm, fold_count)]
    return [UserFold(train_projects=np.setdiff1d(np.arange(n), t), test_projects=t) for t in tests]


def restrict(ds: InteractionDataset, project_indices) -> InteractionDataset:
    """Sub-dataset over the given projects; the library catalog is kept whole."""
    idx = np.unique(np.asarray(project_indices, dtype=np.int64))
    edges = ds.interactions[np.isin(ds.interactions[:, 0], idx)]
    return InteractionDataset(
        projects=tuple(ds.projects[u] for u in idx),
        libraries=ds.libraries,
        interactions=np.column_stack([np.searchsorted(idx, edges[:, 0]), edges[:, 1]]),
    )


def group_ranks(groups: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each entry's place among the entries of its group, ordered by `keys`
    (ties by position)."""
    order = np.lexsort((keys, groups))
    ordered = groups[order]
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    return ranks


def split_groups(groups: np.ndarray, fraction: float, rng) -> np.ndarray:
    """A mask of a uniform random part of each group of entries, labelled by
    non-negative integers: of a group of n, round-half-up(fraction * n)
    entries clamped to [1, n - 1], so both parts are nonempty; a group of
    one keeps its entry. One uniform draw per entry."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    n = np.bincount(groups)[groups]
    size = np.maximum(1, np.minimum(n - 1, np.floor(fraction * n + 0.5)))
    return group_ranks(groups, rng.random(len(groups))) < size


def split_query_test(items: Sequence[int], fraction: float, seed_or_rng=0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split one test project's interactions into a query set and a test
    set, both sorted: `split_groups` over a single group."""
    items = np.asarray(items, dtype=np.int64)
    if len(items) < 2:
        raise DataError("project needs >= 2 interactions to form query and test sets")
    query = split_groups(np.zeros(len(items), dtype=np.int64), fraction, np.random.default_rng(seed_or_rng))
    return tuple(np.sort(items[query]).tolist()), tuple(np.sort(items[~query]).tolist())


def split_interactions(ds: InteractionDataset, train_fraction: float, seed: int = 0) -> np.ndarray:
    """A mask over ``ds.interactions``: True for the training part of each
    project's interactions, by `split_groups`; a project with a single
    interaction keeps it in training."""
    return split_groups(ds.interactions[:, 0], train_fraction, np.random.default_rng(seed))
