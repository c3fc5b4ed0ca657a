"""Ranking and popularity-bias metrics plus the experiment protocols."""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .agent import recommend, train_agent
from .coldstart import build_representatives
from .config import ProtocolConfig
# `split_query_test` is not called here; perfbench/layers.py wraps it under this module's name.
from .data import (  # noqa: F401
    InteractionDataset,
    PopularityTable,
    popularity,
    restrict,
    rows,
    split_groups,
    split_interactions,
    split_query_test,
    split_users,
)
from .embed import train_embeddings
from .errors import DataError, NumericError


def _hits(picks, truths, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first k columns of a (P, w) pick array, -1 for no pick; which of
    those are in their row's truth; and each row's count of distinct truth
    items. A hit is found by its u * M + i code, as in `embed._recall_at_10`."""
    picks = np.array(picks, dtype=np.int64, ndmin=2)[:, :k]
    lengths = [len(t) for t in truths]
    flat = np.fromiter(chain.from_iterable(truths), dtype=np.int64, count=sum(lengths))
    m = 1 + max(picks.max(initial=0), flat.max(initial=0))
    codes = np.unique(np.repeat(np.arange(len(truths)), lengths) * m + flat)
    hit = (picks >= 0) & np.isin(np.arange(len(picks))[:, None] * m + picks, codes)
    return picks, hit, np.bincount(codes // m, minlength=len(truths))


def precision_recall_at_k(picks, truths, k: int) -> tuple[float, float]:
    """Mean percent precision (hits / k) and recall (hits / |truth|) of a
    batch: row p of `picks` holds project p's distinct picks in rank order,
    -1 padded, and `truths[p]` the libraries it is scored against."""
    _, hit, sizes = _hits(picks, truths, k)
    if not sizes.all():
        raise DataError("ground truth is empty")
    hits = hit.sum(axis=1)
    return float(np.mean(100.0 * hits / k)), float(np.mean(100.0 * hits / sizes))


def epc_at_k(picks, truths, pop: PopularityTable, k: int) -> float:
    """Expected popularity complement of the relevant recommended items:
    the mean of (1 - popularity rate) over all hits, in percent; 0 when
    there are no hits. The complements are summed in row-major order.
    """
    picks, hit, _ = _hits(picks, truths, k)
    complements = 1.0 - pop.rates[picks[hit]]
    return 100.0 * float(np.cumsum(complements)[-1]) / len(complements) if len(complements) else 0.0


def coverage_at_k(picks, catalog_size: int, k: int) -> float:
    """Percent of the library catalog recommended to at least one project."""
    picks = np.array(picks, dtype=np.int64, ndmin=2)[:, :k]
    return 100.0 * len(np.unique(picks[picks >= 0])) / catalog_size


@dataclass(eq=False)
class MetricsReport:
    protocol: str
    k: int
    seed: int
    fold_metrics: list[dict[str, float]] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    incomplete: list[int] = field(default_factory=list)
    elapsed: float = 0.0

    METRIC_NAMES = ("precision", "recall", "epc", "coverage")

    @property
    def averages(self) -> dict[str, float]:
        done = [m for j, m in enumerate(self.fold_metrics) if j not in self.incomplete]
        if not done:
            return {name: float("nan") for name in self.METRIC_NAMES}
        return {name: float(np.mean([m[name] for m in done])) for name in self.METRIC_NAMES}

    def to_table(self) -> str:
        lines = [
            f"protocol: {self.protocol}",
            f"K: {self.k}",
            f"seed: {self.seed}",
            f"folds: {len(self.fold_metrics)}",
            "",
            f"{'fold':>6} {'Precision@K':>12} {'Recall@K':>10} {'EPC@K':>8} {'Coverage@K':>11} {'skipped':>8}",
        ]
        row = "{:>6} {precision:>12.2f} {recall:>10.2f} {epc:>8.2f} {coverage:>11.2f}".format
        for j, m in enumerate(self.fold_metrics):
            mark = " (incomplete)" if j in self.incomplete else ""
            lines.append(row(j, **m) + f" {self.skipped[j]:>8}{mark}")
        lines += [row("avg", **self.averages), "", f"# elapsed {self.elapsed:.1f}s"]
        return "\n".join(lines) + "\n"

    def machine_lines(self) -> list[str]:
        lines = [f"# protocol {self.protocol} seed {self.seed}"]
        for j, m in [*enumerate(self.fold_metrics), ("avg", self.averages)]:
            lines += [f"{j},{name},{self.k},{m[name]:.6f}" for name in self.METRIC_NAMES]
        return lines


def _recommender(train_ds: InteractionDataset, seen: np.ndarray, pop: PopularityTable,
                 cfg: ProtocolConfig, fold: int):
    """The fold's policy, trained on `train_ds`, as a function from a list of
    queries to their top-k lists; the agent answers them in lockstep. The
    baselines rank the `seen` libraries once and pick outside each query."""
    if cfg.policy == "agent":
        emb = train_embeddings(train_ds, replace(cfg.embed, seed=cfg.embed.seed + fold))
        rep = build_representatives(emb.table, train_ds, cfg.blend)
        net, _ = train_agent(train_ds, emb.table, rep, replace(cfg.agent, seed=cfg.agent.seed + fold))
        return lambda queries: recommend(queries, cfg.k, net, rep, mode=cfg.mode)
    rng = np.random.default_rng(cfg.seed * 104729 + fold)
    ranked = np.flatnonzero(seen)
    if cfg.policy == "popularity":
        ranked = ranked[np.argsort(-pop.counts[ranked], kind="stable")]

    def answer(query) -> list[int]:
        pool = ranked[~np.isin(ranked, query)]
        if cfg.policy == "random":
            pool = rng.choice(pool, size=min(cfg.k, len(pool)), replace=False)
        return pool[:cfg.k].tolist()

    return lambda queries: [answer(q) for q in queries]


def _coldstart_folds(ds: InteractionDataset, cfg: ProtocolConfig):
    """User-split k-fold: each test project reveals a query fraction of
    its libraries and is scored on the rest."""
    qf = 0.3 if cfg.protocol == "coldstart-30" else cfg.query_fraction
    for f, fold in enumerate(split_users(ds, cfg.folds, cfg.seed)):
        edges = ds.interactions[np.isin(ds.interactions[:, 0], fold.test_projects)]
        query = split_groups(edges[:, 0], qf, np.random.default_rng(cfg.seed * 7919 + f))
        yield restrict(ds, fold.train_projects), fold.test_projects, edges[query], edges[~query]


def _interaction_folds(ds: InteractionDataset, cfg: ProtocolConfig):
    """One fold: every project trains on its retained interactions, which
    are its query, and is scored on its held-out ones."""
    train = split_interactions(ds, cfg.train_fraction, cfg.seed)
    edges = ds.interactions
    yield (InteractionDataset(ds.projects, ds.libraries, edges[train]), np.arange(ds.n_projects),
           edges[train], edges[~train])


def run_protocol(ds: InteractionDataset, cfg: ProtocolConfig) -> MetricsReport:
    """Run one evaluation protocol end to end and report per-fold metrics.

    Each fold yields a training set, its test projects and their query and
    truth edges. Libraries the training set never uses are dropped from
    both, and a test project whose query or truth is then empty is
    skipped. A fold whose training fails or that has no project left is
    reported incomplete, and each training failure is warned of. If no
    fold completes, the last training error is raised instead, or
    DataError when no fold had a project to evaluate.
    """
    start = time.monotonic()
    folds = _interaction_folds if cfg.protocol == "interaction-split" else _coldstart_folds
    report = MetricsReport(protocol=cfg.protocol, k=cfg.k, seed=cfg.seed)
    failed: list[tuple[int, Exception]] = []
    for f, (train_ds, test, query, truth) in enumerate(folds(ds, cfg)):
        pop = popularity(train_ds)
        seen = pop.counts > 0
        query, truth = query[seen[query[:, 1]]], truth[seen[truth[:, 1]]]
        # one case per test project: its query and truth libraries, sorted
        query, truth = (rows(np.searchsorted(test, e[:, 0]), e[:, 1], len(test)) for e in (query, truth))
        evaluated = [(q, t) for q, t in zip(query, truth) if len(q) and len(t)]
        skipped = len(test) - len(evaluated)
        if evaluated:
            try:
                policy = _recommender(train_ds, seen, pop, cfg, f)
            except (DataError, NumericError) as exc:
                failed.append((f, exc))
                evaluated, skipped = [], 0
        if not evaluated:
            report.fold_metrics.append({n: 0.0 for n in MetricsReport.METRIC_NAMES})
            report.skipped.append(skipped)
            report.incomplete.append(f)
            continue
        answers = policy([q for q, _ in evaluated])
        truths = [t for _, t in evaluated]
        # one row of picks per project, -1 after a shorter answer: as wide as the longest (<= k)
        lengths = np.array([len(a) for a in answers])
        filled = np.arange(lengths.max()) < lengths[:, None]
        picks = np.full(filled.shape, -1, dtype=np.int64)
        picks[filled] = np.fromiter(chain.from_iterable(answers), np.int64, lengths.sum())
        precision, recall = precision_recall_at_k(picks, truths, cfg.k)
        report.fold_metrics.append({
            "precision": precision,
            "recall": recall,
            "epc": epc_at_k(picks, truths, pop, cfg.k),
            "coverage": coverage_at_k(picks, ds.n_libraries, cfg.k),
        })
        report.skipped.append(skipped)
    if len(report.incomplete) == len(report.fold_metrics):
        raise failed[-1][1] if failed else DataError(f"{cfg.protocol} evaluation produced no test projects")
    for f, exc in failed:
        warnings.warn(f"fold {f} failed: {exc}")
    report.elapsed = time.monotonic() - start
    return report
