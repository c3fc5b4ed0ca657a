"""Ranking and popularity-bias metrics plus the experiment protocols."""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import MODES, AgentConfig, recommend, train_agent
from .coldstart import build_representatives
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
from .embed import EmbedConfig, train_embeddings
from .errors import DataError, NumericError

PROTOCOLS = ("coldstart-100", "coldstart-30", "interaction-split")
POLICIES = ("agent", "random", "popularity")


def precision_recall_at_k(recommended, truth, k: int) -> tuple[float, float]:
    """Percent precision (hits / k) and recall (hits / |truth|)."""
    truth = set(int(i) for i in truth)
    if not truth:
        raise DataError("ground truth is empty")
    rec = [int(i) for i in recommended][:k]
    hits = len(set(rec) & truth)
    return 100.0 * hits / k, 100.0 * hits / len(truth)


def epc_at_k(recommended_lists, truths, pop: PopularityTable, k: int) -> float:
    """Expected popularity complement of the relevant recommended items:
    the mean of (1 - popularity rate) over all hits, in percent; 0 when
    there are no hits.
    """
    num = 0.0
    den = 0.0
    for rec, truth in zip(recommended_lists, truths):
        tset = set(int(i) for i in truth)
        for i in [int(x) for x in rec][:k]:
            if i in tset:
                num += 1.0 - pop.rates[i]
                den += 1.0
    return 100.0 * num / den if den > 0 else 0.0


def coverage_at_k(recommended_lists, catalog_size: int, k: int) -> float:
    """Percent of the library catalog recommended to at least one project."""
    distinct = set()
    for rec in recommended_lists:
        distinct.update(int(i) for i in rec[:k])
    return 100.0 * len(distinct) / catalog_size


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
        for j, m in enumerate(self.fold_metrics):
            mark = " (incomplete)" if j in self.incomplete else ""
            lines.append(
                f"{j:>6} {m['precision']:>12.2f} {m['recall']:>10.2f} "
                f"{m['epc']:>8.2f} {m['coverage']:>11.2f} {self.skipped[j]:>8}{mark}"
            )
        avg = self.averages
        lines.append(
            f"{'avg':>6} {avg['precision']:>12.2f} {avg['recall']:>10.2f} "
            f"{avg['epc']:>8.2f} {avg['coverage']:>11.2f}"
        )
        lines.append("")
        lines.append(f"# elapsed {self.elapsed:.1f}s")
        return "\n".join(lines) + "\n"

    def machine_lines(self) -> list[str]:
        lines = [f"# protocol {self.protocol} seed {self.seed}"]
        for j, m in enumerate(self.fold_metrics):
            for name in self.METRIC_NAMES:
                lines.append(f"{j},{name},{self.k},{m[name]:.6f}")
        for name, value in self.averages.items():
            lines.append(f"avg,{name},{self.k},{value:.6f}")
        return lines


@dataclass
class ProtocolConfig:
    protocol: str = "coldstart-100"
    folds: int = 10
    k: int = 10
    query_fraction: float = 0.5
    train_fraction: float = 0.7
    blend: float = 0.5
    mode: str = "sequential"
    policy: str = "agent"
    seed: int = 0
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise DataError(f"unknown protocol {self.protocol}; expected one of {PROTOCOLS}")
        if self.policy not in POLICIES:
            raise DataError(f"unknown policy {self.policy}; expected one of {POLICIES}")
        if self.mode not in MODES:
            raise DataError(f"unknown mode {self.mode}; expected one of {MODES}")
        if self.k < 1:
            raise DataError(f"k must be >= 1, got {self.k}")
        if self.folds < 2:
            raise DataError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        for name in ("query_fraction", "train_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise DataError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if not 0.0 <= self.blend <= 1.0:
            raise DataError(f"blend must be in [0, 1], got {self.blend}")


def _fold_metrics(rec_lists, truths, pop, m, k) -> dict[str, float]:
    pr = [precision_recall_at_k(rec, truth, k) for rec, truth in zip(rec_lists, truths)]
    return {
        "precision": float(np.mean([p for p, _ in pr])),
        "recall": float(np.mean([r for _, r in pr])),
        "epc": epc_at_k(rec_lists, truths, pop, k),
        "coverage": coverage_at_k(rec_lists, m, k),
    }


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
        rec_lists = policy([q for q, _ in evaluated])
        truths = [t for _, t in evaluated]
        report.fold_metrics.append(_fold_metrics(rec_lists, truths, pop, ds.n_libraries, cfg.k))
        report.skipped.append(skipped)
    if len(report.incomplete) == len(report.fold_metrics):
        raise failed[-1][1] if failed else DataError(f"{cfg.protocol} evaluation produced no test projects")
    for f, exc in failed:
        warnings.warn(f"fold {f} failed: {exc}")
    report.elapsed = time.monotonic() - start
    return report
