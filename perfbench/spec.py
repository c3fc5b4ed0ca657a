"""The benchmark's workloads and metrics: the one place `BENCHMARK.json` is made from.

`python3 perfbench/run.py --write-manifest` rewrites `BENCHMARK.json`
from these tables; the self-tests check that the committed file agrees.
"""
from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

# Two workloads, so each run can measure for 50 s: on two shared cores the
# machine's speed drifts over minutes, and a training-bound third workload
# (the test_debias_signal set-up) spread by a fifth between 35 s runs.
WORKLOADS = {
    "catalog-scale": (
        "inference-bound with fixed light training: 1k x 5k x 10.7k long-tail catalog, "
        "one sequential recommend per project over a 5k-action Q-network"
    ),
    "query-serve": (
        "CLI train on the catalog-scale catalog as set-up, then one closed-loop client of single "
        "CLI recommend calls against artifacts on disk; per-call latency, not batch speed"
    ),
}

# name, unit, better, bound, definition. query-serve's per-query latency
# (median, and the highest percentile with at least 10 samples beyond it)
# is printed beside queries_per_s but not bounded, and catalog-scale's
# per-call recommend latency is a per-layer metric: on two shared cores its
# latency tail spread by half between runs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median set-up: ingest of the workload's lines, or the CLI train run for query-serve"),
    ("work_s", "s", "lower", 0.25,
     "median wall time of one measured unit: a run_protocol call, or a batch of 50 CLI queries"),
    ("queries_per_s", "1/s", "higher", 0.25,
     "median over measured units of recommendations answered per second: projects evaluated "
     "by run_protocol, or CLI queries from one closed-loop client"),
    ("precision", "%", "higher", 0.25, "Precision@10 averaged over three splits, or over queries"),
    ("recall", "%", "higher", 0.25, "Recall@10 averaged over three splits, or over queries"),
    ("epc", "%", "higher", 0.25, "EPC@10: mean popularity complement of the hits"),
    ("coverage", "%", "higher", 0.25, "Coverage@10: share of the catalog recommended at least once"),
    # Heap fragmentation moves peak RSS by about a tenth between runs, even
    # of one seed (it follows Python's per-process hash seed).
    ("peak_rss_mb", "MB", "lower", 0.25, "max resident set size of the workload's process"),
]

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = [
    ("data.ingest_s", "s", "lower", "setup_s, mostly catalog-scale"),
    ("data.interactions", "count", "higher", "setup_s, mostly catalog-scale"),
    ("data.split_s", "s", "lower", "work_s on catalog-scale"),
    ("embed.train_s", "s", "lower", "work_s on catalog-scale"),
    ("embed.epochs", "count", "lower", "work_s on catalog-scale (fixed at 2 there)"),
    ("embed.epoch_ms", "ms", "lower", "work_s on catalog-scale"),
    ("embed.edges_per_s", "1/s", "higher", "work_s on catalog-scale"),
    ("embed.best_epoch", "count", "lower", "work_s on catalog-scale (quality, not speed)"),
    ("embed.propagate_calls", "count", "lower", "work_s on catalog-scale"),
    ("embed.propagate_ms", "ms", "lower", "work_s on catalog-scale"),
    ("embed.loss_calls", "count", "lower", "work_s on catalog-scale"),
    ("embed.loss_ms", "ms", "lower", "work_s on catalog-scale"),
    ("embed.self_s", "s", "lower",
     "work_s on catalog-scale (negative sampling, gradient scatter, recall probe)"),
    ("optim.embed_adam_s", "s", "lower", "work_s on catalog-scale"),
    ("optim.agent_adam_s", "s", "lower", "work_s on catalog-scale"),
    ("optim.adam_steps", "count", "lower", "work_s on catalog-scale"),
    ("coldstart.build_s", "s", "lower", "work_s on catalog-scale"),
    ("coldstart.aggregate_calls", "count", "lower", "work_s on catalog-scale"),
    ("coldstart.aggregate_us", "us", "lower", "work_s on catalog-scale"),
    ("coldstart.rep_load_ms", "ms", "lower", "work_s on query-serve"),
    ("agent.train_s", "s", "lower", "work_s on catalog-scale"),
    ("agent.transitions", "count", "lower", "work_s on catalog-scale"),
    ("agent.gen_transition_us", "us", "lower", "work_s on catalog-scale"),
    ("agent.replay_insert_us", "us", "lower", "work_s on catalog-scale"),
    ("agent.replay_sample_ms", "ms", "lower", "work_s on catalog-scale"),
    ("agent.grad_steps", "count", "lower", "work_s on catalog-scale"),
    ("agent.cql_ms", "ms", "lower", "work_s on catalog-scale"),
    ("agent.self_s", "s", "lower", "work_s on catalog-scale"),
    ("agent.quota_moved_share", "ratio", "lower",
     "work_s on catalog-scale (replay useful/attempted)"),
    ("agent.recommend_calls", "count", "lower", "work_s on catalog-scale"),
    ("agent.recommend_p50_ms", "ms", "lower", "work_s on catalog-scale"),
    ("agent.recommend_tail_ms", "ms", "lower", "the printed query latency tail on catalog-scale"),
    ("agent.forward_calls", "count", "lower", "work_s on catalog-scale"),
    ("agent.load_qnetwork_ms", "ms", "lower", "work_s and queries_per_s on query-serve"),
    ("evaluation.test_projects", "count", "higher", "work_s"),
    ("evaluation.evaluated_share", "ratio", "higher", "work_s"),
    ("evaluation.metrics_s", "s", "lower", "work_s"),
    ("evaluation.self_s", "s", "lower", "work_s"),
    ("cli.train_s", "s", "lower", "setup_s on query-serve"),
    ("cli.save_s", "s", "lower", "setup_s on query-serve"),
    ("cli.recommend_self_ms", "ms", "lower",
     "work_s on query-serve (argparse, vocab read, printing)"),
    ("trace.overhead_pct", "%", "lower", "none: traced against untraced work_s"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
