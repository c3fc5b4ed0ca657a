"""Seeded input generators owned by the benchmark.

The program under test only ever receives the `project<TAB>library`
lines made here (through `ingest` or a dataset file), so a change to the
program's own random draws never changes a workload's inputs.
"""
from __future__ import annotations

import numpy as np

# 1000 projects keep one run_protocol call near 6 s, so a run holds
# several; the 5000 libraries keep the Q-network's action space full size.
CATALOG_PROJECTS = 1000
CATALOG_LIBRARIES = 5000
CATALOG_COMMUNITIES = 50
CATALOG_ZIPF = 1.0
CATALOG_MEAN_DEGREE = 10.5  # ~10.7k edges over 1000 projects
CATALOG_MAX_DEGREE = 80
CATALOG_NOISE = 0.1  # share of a project's picks drawn from the whole catalog


def catalog_edges(seed: int, n_projects: int = CATALOG_PROJECTS) -> list[tuple[int, int]]:
    """Long-tail community catalog as sorted, distinct (project, library) pairs.

    Libraries are split round-robin into communities; within a community
    library popularity is Zipf-shaped, so each community has a few
    staples and a long tail. Per-project degree is geometric with a
    minimum of 2; a `CATALOG_NOISE` share of picks ignores communities.
    """
    rng = np.random.default_rng(seed)
    n, m, c = n_projects, CATALOG_LIBRARIES, CATALOG_COMMUNITIES
    pools = [np.arange(k, m, c) for k in range(c)]
    weights = [1.0 / np.arange(1, len(p) + 1) ** CATALOG_ZIPF for p in pools]
    weights = [w / w.sum() for w in weights]
    degree = np.minimum(1 + rng.geometric(1.0 / (CATALOG_MEAN_DEGREE - 1.0), size=n),
                        CATALOG_MAX_DEGREE)
    community = rng.integers(0, c, size=n)
    edges: set[tuple[int, int]] = set()
    for u in range(n):
        d = int(degree[u])
        n_noise = int(rng.binomial(d, CATALOG_NOISE))
        pool, w = pools[community[u]], weights[community[u]]
        own = rng.choice(pool, size=min(d - n_noise, len(pool)), replace=False, p=w)
        noise = rng.integers(0, m, size=n_noise)
        for i in np.concatenate([own, noise]):
            edges.add((u, int(i)))
    return sorted(edges)


def library_name(i: int) -> str:
    return f"lib{i:05d}"


def edge_lines(edges) -> list[str]:
    return [f"proj{u:05d}\t{library_name(i)}" for u, i in edges]


def catalog_lines(seed: int) -> list[str]:
    return edge_lines(catalog_edges(seed))


def query_stream(edges: list[tuple[int, int]], seed: int, fraction: float = 0.3):
    """Endless seeded stream of (query, held_out) library-name splits.

    Each query is a `fraction` subset (at least one library, never all)
    of a uniformly drawn project's libraries; the rest is held out as
    the ground truth for the answer's quality.
    """
    rng = np.random.default_rng(seed)
    by_project: dict[int, list[int]] = {}
    for u, i in edges:
        by_project.setdefault(u, []).append(i)
    projects = sorted(u for u, libs in by_project.items() if len(libs) >= 2)
    while True:
        libs = by_project[projects[int(rng.integers(len(projects)))]]
        q = min(len(libs) - 1, max(1, int(round(fraction * len(libs)))))
        perm = rng.permutation(len(libs))
        yield ([library_name(libs[j]) for j in perm[:q]],
               [library_name(libs[j]) for j in perm[q:]])
