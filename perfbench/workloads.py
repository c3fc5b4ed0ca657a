"""The benchmark's workloads and the checks on their outputs.

A workload has a set-up (timed `setup_repeats` times), a unit of work
that the runner repeats while another call fits into the run's
seconds, and checks. `unit` returns the number
of recommendations it answered. Every unit counts its operations (folds
or queries) as attempted, and an operation whose output fails a check
as failed; `errors` collects one line per failed check.
"""
from __future__ import annotations

import contextlib
import io
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np

import gen

K = 10
QUALITY = ("precision", "recall", "epc", "coverage")


class Workload:
    # A fixed count, not a time budget, so the work a run does before its
    # units does not depend on machine speed.
    setup_repeats = 5
    min_units = 1

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies_ms: list[float] = []  # per query, where queries are timed one by one
        self.quality: dict[str, float] | None = None

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)

    def after_setup(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def check_quality(self, values: dict[str, float], what: str) -> bool:
        bad = {k: v for k, v in values.items() if not (math.isfinite(v) and 0.0 <= v <= 100.0)}
        if bad:
            self.errors.append(f"{what}: quality outside [0, 100]: {bad}")
        return not bad


class ProtocolWorkload(Workload):
    """`ingest` as set-up, one `run_protocol` call per unit.

    Units cycle through `SPLITS` split seeds drawn from the run's seed,
    and quality is the mean over the first `SPLITS` units, so it rests
    on several splits of the data rather than one. After the run, the
    `random` policy is evaluated on the same splits (it trains nothing)
    and the agent's mean recall must beat it.
    """

    setup_repeats = 40
    SPLITS = 3
    min_units = SPLITS

    def __init__(self, tp, lines, cfg):
        super().__init__()
        self.tp = tp
        self.lines = lines
        states = np.random.SeedSequence(cfg.seed).generate_state(self.SPLITS)
        self.cfgs = [replace(cfg, seed=int(s)) for s in states]
        self.ds = None
        self.units = 0
        self.reports = []  # the first SPLITS units' reports, which quality and the random check use
        self.reports_failed = 0

    def setup(self) -> None:
        self.ds = self.tp.data.ingest(self.lines)

    def unit(self) -> int:
        cfg = self.cfgs[self.units % self.SPLITS]
        self.units += 1
        report = self.tp.evaluation.run_protocol(self.ds, cfg)
        folds = len(report.fold_metrics)
        self.attempted += folds
        bad = set(report.incomplete)
        if bad:
            self.errors.append(f"incomplete folds {sorted(bad)}")
        bad |= {j for j, fold in enumerate(report.fold_metrics)
                if j not in bad and not self.check_quality(fold, f"fold {j}")}
        self.failed += len(bad)
        if len(self.reports) < self.SPLITS:
            self.reports.append(report)
            self.reports_failed += len(bad)
            self.quality = {name: sum(r.averages[name] for r in self.reports) / len(self.reports)
                            for name in QUALITY}
        # both protocols evaluate every project once unless they skip it
        return self.ds.n_projects - sum(report.skipped)

    def finish(self) -> None:
        agent_recall = self.quality["recall"]
        baselines = [self.tp.evaluation.run_protocol(self.ds, replace(cfg, policy="random"))
                     for cfg in self.cfgs[:len(self.reports)]]
        random_recall = sum(b.averages["recall"] for b in baselines) / len(baselines)
        if not agent_recall > random_recall:
            folds = sum(len(r.fold_metrics) for r in self.reports)
            self.fail(f"agent recall {agent_recall:.3f} does not beat random {random_recall:.3f}",
                      folds - self.reports_failed)


def catalog_scale(tp, seed: int, workdir) -> ProtocolWorkload:
    """Long-tail catalog, interaction-split, light fixed training."""
    embed = tp.EmbedConfig(batch_size=4096, negatives=16, learning_rate=1e-2, patience=2,
                           max_epochs=2, seed=0)
    agent = tp.AgentConfig(epochs=1, grad_steps_per_epoch=20, learning_rate=3e-2, seed=0)
    cfg = tp.ProtocolConfig(protocol="interaction-split", k=K, seed=seed, mode="sequential",
                            policy="agent", embed=embed, agent=agent)
    return ProtocolWorkload(tp, gen.catalog_lines(seed), cfg)


class QueryServe(Workload):
    """`tplrec train` through the CLI as set-up, then single CLI
    `recommend` calls from one closed-loop client, `QUERY_BATCH` per
    unit. Quality is scored on the first `QUALITY_QUERIES` answers
    against each query's held-out libraries, so an untraced run answers
    at least that many queries."""

    QUERY_BATCH = 50
    QUALITY_QUERIES = 1500
    min_units = QUALITY_QUERIES // QUERY_BATCH
    # The lightest training the CLI allows on this catalog; the raised learning
    # rates give answers with enough hits for steady quality figures.
    TRAIN = ["--seed", "0", "--embed_epochs", "1", "--patience", "1", "--embed_batch", "4096",
             "--negatives", "16", "--embed_lr", "1e-2", "--agent_epochs", "1",
             "--transitions_per_project", "1", "--agent_batch", "512", "--agent_lr", "1e-2"]

    def __init__(self, tp, seed: int, workdir):
        super().__init__()
        self.tp = tp
        edges = gen.catalog_edges(seed)
        self.dataset = workdir / "catalog.tsv"
        self.dataset.write_text("\n".join(gen.edge_lines(edges)) + "\n", encoding="utf-8")
        self.model_dir = workdir / "model"
        self.stream = gen.query_stream(edges, seed)
        self.probe = next(self.stream)[0]
        n_projects = len({u for u, _ in edges})
        counts = Counter(gen.library_name(i) for _, i in edges)
        self.rate = {name: c / n_projects for name, c in counts.items()}
        self.answers = []

    def cli(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def setup(self) -> None:
        code, _, err = self.cli(["train", "--dataset", str(self.dataset),
                                 "--output", str(self.model_dir), *self.TRAIN])
        if code != 0:
            raise RuntimeError(f"tplrec train exited {code}: {err.strip()}")

    def recommend_argv(self, query) -> list[str]:
        return ["recommend", "--model-dir", str(self.model_dir), "--query", ",".join(query),
                "--k", str(K)]

    def after_setup(self) -> None:
        """A fixed probe query: CLI output must equal in-process `recommend`
        on the artifacts the CLI loads."""
        query = self.probe
        code, out, _ = self.cli(self.recommend_argv(query))
        tp = self.tp
        libraries = [line.partition("\t")[2] for line in
                     (self.model_dir / "vocab.tsv").read_text(encoding="utf-8").splitlines()
                     if line.startswith("library\t")]
        index = {name: j for j, name in enumerate(libraries)}
        net = tp.agent.load_qnetwork(self.model_dir / "qnet.tplq")
        rep = tp.coldstart.RepresentativeTable.load(self.model_dir / "representatives.tplr")
        picks = tp.agent.recommend([index[q] for q in query], K, net, rep, with_scores=True)
        expected = "".join(f"{r}\t{libraries[a]}\t{v:.6f}\n" for r, (a, v) in enumerate(picks, 1))
        self.attempted += 1
        if code != 0 or out != expected:
            self.fail(f"probe query {query}: CLI output differs from in-process recommend")

    def answer_error(self, code: int, out: str, err: str, query) -> str | None:
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        rows = [line.split("\t") for line in out.splitlines()]
        names = [r[1] for r in rows if len(r) == 3]
        if len(rows) != K or len(names) != K or [r[0] for r in rows] != [str(j) for j in range(1, K + 1)]:
            return f"expected {K} ranked rows, got {out!r:.200}"
        if len(set(names)) != K or not set(names) <= self.rate.keys() or set(names) & set(query):
            return f"answer not {K} distinct known libraries outside the query: {names}"
        return None

    def unit(self) -> int:
        for _ in range(self.QUERY_BATCH):
            query, held_out = next(self.stream)
            argv = self.recommend_argv(query)
            start = time.perf_counter_ns()
            code, out, err = self.cli(argv)
            self.latencies_ms.append((time.perf_counter_ns() - start) / 1e6)
            self.attempted += 1
            problem = self.answer_error(code, out, err, query)
            if problem:
                self.fail(f"query {query[:3]}...: {problem}")
            elif len(self.answers) < self.QUALITY_QUERIES:
                self.answers.append(([line.split("\t")[1] for line in out.splitlines()], held_out))
        return self.QUERY_BATCH

    def finish(self) -> None:
        self.quality = self.score(self.answers)
        self.check_quality(self.quality, "query answers")

    def score(self, answers) -> dict[str, float]:
        """Precision/Recall/EPC/Coverage@K of CLI answers, computed here
        rather than with the program's own metric functions."""
        if not answers:
            return {name: float("nan") for name in QUALITY}
        precision = recall = 0.0
        novelty, hits_total, shown = 0.0, 0, set()
        for recs, truth in answers:
            hits = set(recs) & set(truth)
            precision += len(hits) / K
            recall += len(hits) / len(truth)
            novelty += sum(1.0 - self.rate[h] for h in hits)
            hits_total += len(hits)
            shown.update(recs)
        n = len(answers)
        return {
            "precision": 100.0 * precision / n,
            "recall": 100.0 * recall / n,
            "epc": 100.0 * novelty / hits_total if hits_total else 0.0,
            "coverage": 100.0 * len(shown) / len(self.rate),
        }


FACTORIES = {
    "catalog-scale": catalog_scale,
    "query-serve": QueryServe,
}
