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

    ``interactions`` holds (project-index, library-index) pairs. Every
    project must occur in at least one pair; libraries may be isolated
    (they can still appear in a catalog without recorded usage).
    """

    projects: tuple[str, ...]
    libraries: tuple[str, ...]
    interactions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, m = len(self.projects), len(self.libraries)
        seen: set[tuple[int, int]] = set()
        used: set[int] = set()
        for u, i in self.interactions:
            if not (0 <= u < n) or not (0 <= i < m):
                raise DataError(f"interaction ({u}, {i}) out of range for {n} projects, {m} libraries")
            if (u, i) in seen:
                raise DataError(f"duplicate interaction ({u}, {i})")
            seen.add((u, i))
            used.add(u)
        if len(used) != n:
            missing = sorted(set(range(n)) - used)
            raise DataError(f"projects without interactions: {missing[:5]}")

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
    def by_project(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n_projects)]
        for u, i in self.interactions:
            lists[u].append(i)
        return tuple(tuple(sorted(l)) for l in lists)

    @cached_property
    def by_library(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n_libraries)]
        for u, i in self.interactions:
            lists[i].append(u)
        return tuple(tuple(sorted(l)) for l in lists)

    @cached_property
    def edge_array(self) -> np.ndarray:
        return np.array(self.interactions, dtype=np.int64).reshape(-1, 2)


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
    pairs: list[tuple[int, int]] = []
    pairset: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"line {lineno}: expected '<project><TAB><library>', got {raw!r}")
        u = projects.setdefault(parts[0], len(projects))
        i = libraries.setdefault(parts[1], len(libraries))
        if (u, i) not in pairset:
            pairset.add((u, i))
            pairs.append((u, i))
    if not pairs:
        raise DataError("empty dataset: no interactions found")
    return InteractionDataset(tuple(projects), tuple(libraries), tuple(pairs))


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
    libs = [i for _, i in train.interactions]
    counts = np.bincount(libs, minlength=train.n_libraries).astype(np.int64)
    rates = counts / float(train.n_projects)
    return PopularityTable(counts=counts, rates=rates)


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "user-split"
    query_fraction: float = 0.5
    fold_count: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("user-split", "interaction-split"):
            raise DataError(f"unknown split mode: {self.mode}")
        if not 0.0 < self.query_fraction < 1.0:
            raise DataError(f"query_fraction must be in (0, 1), got {self.query_fraction}")
        if self.fold_count < 2:
            raise DataError(f"fold_count must be >= 2, got {self.fold_count}")


@dataclass(frozen=True, eq=False)
class UserFold:
    train_projects: np.ndarray
    test_projects: np.ndarray


def split_users(ds: InteractionDataset, spec: SplitSpec) -> list[UserFold]:
    """Partition projects into disjoint k-fold train/test sets."""
    if spec.mode != "user-split":
        raise DataError(f"split_users requires user-split mode, got {spec.mode}")
    n = ds.n_projects
    if spec.fold_count > n:
        raise DataError(f"fold_count {spec.fold_count} exceeds project count {n}")
    perm = np.random.default_rng(spec.seed).permutation(n)
    groups = np.array_split(perm, spec.fold_count)
    folds = []
    for f in range(spec.fold_count):
        test = np.sort(groups[f])
        train = np.sort(np.concatenate([groups[g] for g in range(spec.fold_count) if g != f]))
        folds.append(UserFold(train_projects=train, test_projects=test))
    return folds


def seen_libraries(ds: InteractionDataset, train_projects: Sequence[int]) -> set[int]:
    """Libraries that occur in the training projects' interactions."""
    train = set(int(u) for u in train_projects)
    return {i for u, i in ds.interactions if u in train}


def restrict(ds: InteractionDataset, project_indices) -> InteractionDataset:
    """Sub-dataset over the given projects; the library catalog is kept whole."""
    idx = sorted(int(u) for u in project_indices)
    remap = {u: k for k, u in enumerate(idx)}
    pairs = tuple((remap[u], i) for u, i in ds.interactions if u in remap)
    return InteractionDataset(
        projects=tuple(ds.projects[u] for u in idx),
        libraries=ds.libraries,
        interactions=pairs,
    )


def split_query_test(items: Sequence[int], fraction: float, seed_or_rng=0) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split one test project's interactions into a query set and a test set.

    |query| = max(1, round-half-up(fraction * n)), clamped so the test
    side is never empty.
    """
    items = tuple(items)
    if not 0.0 < fraction < 1.0:
        raise DataError(f"query fraction must be in (0, 1), got {fraction}")
    n = len(items)
    if n < 2:
        raise DataError("project needs >= 2 interactions to form query and test sets")
    q = min(n - 1, max(1, _round_half_up(fraction * n)))
    rng = _as_rng(seed_or_rng)
    perm = rng.permutation(n)
    query = tuple(sorted(items[j] for j in perm[:q]))
    test = tuple(sorted(items[j] for j in perm[q:]))
    return query, test


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
            train_lists.append(items)
            test_lists.append(())
            continue
        t = min(n - 1, max(1, _round_half_up(train_fraction * n)))
        perm = rng.permutation(n)
        train_lists.append(tuple(sorted(items[j] for j in perm[:t])))
        test_lists.append(tuple(sorted(items[j] for j in perm[t:])))
    return train_lists, test_lists
