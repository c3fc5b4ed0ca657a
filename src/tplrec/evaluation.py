"""Ranking and popularity-bias metrics plus the experiment protocols."""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .agent import MODES, AgentConfig, recommend, train_agent
from .coldstart import build_representatives
from .data import (
    InteractionDataset,
    PopularityTable,
    SplitSpec,
    popularity,
    restrict,
    seen_libraries,
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


def epc_at_k(recommended_lists, truths, pop: PopularityTable, k: int,
             rank_discounted: bool = False) -> float:
    """Expected popularity complement of the relevant recommended items.

    Rank-unweighted by default: the mean of (1 - popularity rate) over
    all hits, in percent; 0 when there are no hits. The discounted
    variant weighs rank r by 1/log2(r + 1).
    """
    num = 0.0
    den = 0.0
    for rec, truth in zip(recommended_lists, truths):
        tset = set(int(i) for i in truth)
        for r, i in enumerate([int(x) for x in rec][:k], start=1):
            if i in tset:
                w = 1.0 / np.log2(r + 1) if rank_discounted else 1.0
                num += w * (1.0 - pop.rates[i])
                den += w
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
    rank_discounted_epc: bool = False
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
        for name in ("query_fraction", "train_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise DataError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if not 0.0 <= self.blend <= 1.0:
            raise DataError(f"blend must be in [0, 1], got {self.blend}")


def _baseline_recommend(policy: str, query, allowed: np.ndarray, k: int,
                        pop: PopularityTable, rng) -> list[int]:
    mask = allowed.copy()
    mask[[int(i) for i in query]] = False
    idx = np.flatnonzero(mask)
    k = min(k, len(idx))
    if policy == "random":
        return [int(a) for a in rng.choice(idx, size=k, replace=False)]
    order = idx[np.lexsort((idx, -pop.counts[idx]))]
    return [int(a) for a in order[:k]]


def _fold_metrics(rec_lists, truths, pop, m, k, rank_discounted) -> dict[str, float]:
    pr = [precision_recall_at_k(rec, truth, k) for rec, truth in zip(rec_lists, truths)]
    return {
        "precision": float(np.mean([p for p, _ in pr])),
        "recall": float(np.mean([r for _, r in pr])),
        "epc": epc_at_k(rec_lists, truths, pop, k, rank_discounted),
        "coverage": coverage_at_k(rec_lists, m, k),
    }


def _recommender(train_ds: InteractionDataset, seen: set[int], pop: PopularityTable,
                 cfg: ProtocolConfig, fold: int):
    """The fold's policy, trained on `train_ds`, as a function from a query to its top-k list."""
    if cfg.policy == "agent":
        emb = train_embeddings(train_ds, replace(cfg.embed, seed=cfg.embed.seed + fold))
        rep = build_representatives(emb.table, train_ds, cfg.blend)
        net, _ = train_agent(train_ds, emb.table, rep, replace(cfg.agent, seed=cfg.agent.seed + fold))
        return lambda query: recommend(query, cfg.k, net, rep, mode=cfg.mode)
    allowed = np.zeros(train_ds.n_libraries, dtype=bool)
    allowed[sorted(seen)] = True
    rng = np.random.default_rng(cfg.seed * 104729 + fold)
    return lambda query: _baseline_recommend(cfg.policy, query, allowed, cfg.k, pop, rng)


def _coldstart_folds(ds: InteractionDataset, cfg: ProtocolConfig):
    """User-split k-fold: each test project reveals a query fraction of
    its libraries and is scored on the rest."""
    qf = 0.3 if cfg.protocol == "coldstart-30" else cfg.query_fraction
    spec = SplitSpec(mode="user-split", query_fraction=qf, fold_count=cfg.folds, seed=cfg.seed)
    for f, fold in enumerate(split_users(ds, spec)):
        seen = seen_libraries(ds, fold.train_projects)
        split_rng = np.random.default_rng(cfg.seed * 7919 + f)
        cases = []
        for u in fold.test_projects:
            items = ds.by_project[int(u)]
            if len(items) < 2:
                cases.append(((), ()))
                continue
            query, test = split_query_test(items, qf, split_rng)
            cases.append((tuple(i for i in query if i in seen), tuple(i for i in test if i in seen)))
        yield restrict(ds, fold.train_projects), seen, cases


def _interaction_folds(ds: InteractionDataset, cfg: ProtocolConfig):
    """One fold: every project trains on its retained interactions and is
    scored on its held-out ones."""
    train_lists, test_lists = split_interactions(ds, cfg.train_fraction, cfg.seed)
    edges = tuple((u, i) for u in range(ds.n_projects) for i in train_lists[u])
    seen = {i for _, i in edges}
    cases = [(train_lists[u], tuple(i for i in test_lists[u] if i in seen)) for u in range(ds.n_projects)]
    yield InteractionDataset(ds.projects, ds.libraries, edges), seen, cases


def run_protocol(ds: InteractionDataset, cfg: ProtocolConfig) -> MetricsReport:
    """Run one evaluation protocol end to end and report per-fold metrics.

    Each fold yields a training set and one (query, truth) case per test
    project; a case with an empty query or truth is skipped. A fold whose
    training fails or that has no case left is reported incomplete. If
    no fold completes, the last training error is raised, or DataError
    when no fold had a project to evaluate.
    """
    start = time.monotonic()
    folds = _interaction_folds if cfg.protocol == "interaction-split" else _coldstart_folds
    report = MetricsReport(protocol=cfg.protocol, k=cfg.k, seed=cfg.seed)
    failure: Exception | None = None
    for f, (train_ds, seen, cases) in enumerate(folds(ds, cfg)):
        pop = popularity(train_ds)
        evaluated = [(query, truth) for query, truth in cases if query and truth]
        skipped = len(cases) - len(evaluated)
        if not evaluated:
            warnings.warn(f"fold {f} has no project to evaluate")
        else:
            try:
                policy = _recommender(train_ds, seen, pop, cfg, f)
            except (DataError, NumericError) as exc:
                warnings.warn(f"fold {f} failed: {exc}")
                failure, evaluated, skipped = exc, [], 0
        if not evaluated:
            report.fold_metrics.append({n: 0.0 for n in MetricsReport.METRIC_NAMES})
            report.skipped.append(skipped)
            report.incomplete.append(f)
            continue
        rec_lists = [policy(query) for query, _ in evaluated]
        truths = [truth for _, truth in evaluated]
        report.fold_metrics.append(
            _fold_metrics(rec_lists, truths, pop, ds.n_libraries, cfg.k, cfg.rank_discounted_epc)
        )
        report.skipped.append(skipped)
    if len(report.incomplete) == len(report.fold_metrics):
        raise failure or DataError(f"{cfg.protocol} evaluation produced no test projects")
    report.elapsed = time.monotonic() - start
    return report
