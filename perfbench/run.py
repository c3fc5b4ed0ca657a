"""Benchmark for tplrec: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload catalog-scale --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --write-manifest        # regenerate BENCHMARK.json

Run from the repository root; the program is imported from `src/`.
Each run times units of work while another fits into `--seconds`,
and reports medians. With `--trace 0` the end-to-end metrics are
printed; with `--trace 1` the measured time is split into an untraced
half and a half with every public function of the program's modules
wrapped (see `layers.py`), and the per-layer metrics are printed. The
last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The exit code is 0 only when every
output check passed. Results, the environment record and (traced) spans
go to `.perfbench_out/` under the repository root.

Load is one process with one closed-loop client. BLAS is pinned to one
thread before NumPy loads.
"""
from __future__ import annotations

import os
import sys

# One BLAS thread: on two shared cores a second thread made the recommend
# latency tail swing by half its value from run to run.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

OUT = ROOT / ".perfbench_out"


def load_program():
    """Import tplrec from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tplrec" / "__init__.py").is_file():
        raise SystemExit(f"error: no tplrec sources under {src}")
    sys.path.insert(0, str(src))
    import tplrec
    from tplrec import agent, cli, coldstart, data, embed, evaluation, optim, synth  # noqa: F401

    if Path(tplrec.__file__).resolve().parent != (src / "tplrec").resolve():
        raise SystemExit(f"error: tplrec imported from {tplrec.__file__}, not {src}")
    return tplrec


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
        "commit": git_commit(),
    }


def timed(fn) -> float:
    """Wall time of one call, with the garbage of earlier calls collected first."""
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure_units(unit, seconds: float, at_least: int = 1) -> list[tuple[float, int]]:
    """Time calls of `unit`, which returns the recommendations it answered:
    at least `at_least` calls, and more while a call of the median length
    so far still ends within `seconds`. Returns (wall seconds, answered)
    per call."""
    times, answered = [], []
    start = time.perf_counter()
    while (len(times) < max(1, at_least)
           or time.perf_counter() - start + spans.median(times) <= seconds):
        times.append(timed(lambda: answered.append(unit())))
    return list(zip(times, answered))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    tp = load_program()
    import layers
    import spec
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        w = workloads.FACTORIES[name](tp, seed, workdir)
        tracer = spans.Tracer() if trace else None
        if trace:
            tracer.install(layers.sites(tp))
            try:
                w.setup()
            finally:
                tracer.uninstall()
            setup_times = []
        else:
            setup_times = [timed(w.setup) for _ in range(w.setup_repeats)]
        w.after_setup()
        if trace:
            plain = measure_units(w.unit, seconds / 2)
            tracer.phase = layers.MEASURED
            tracer.install(layers.sites(tp))
            try:
                traced = measure_units(w.unit, seconds / 2)
            finally:
                tracer.uninstall()
        else:
            plain = measure_units(w.unit, seconds, w.min_units)
        w.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = {}
    if trace:
        metrics = layers.derive(tracer, len(traced))
        metrics["trace.overhead_pct"] = 100.0 * (spans.median(t for t, _ in traced)
                                                 / spans.median(t for t, _ in plain) - 1.0)
        tracer.write(OUT / f"spans-{name}-seed{seed}.csv")
        units = {n: u for n, u, *_ in spec.PER_LAYER}
        meaning = {n: "moves " + m for n, _, _, m in spec.PER_LAYER}
    else:
        metrics = {
            "setup_s": spans.median(setup_times),
            "work_s": spans.median(t for t, _ in plain),
            "queries_per_s": spans.median(n / t for t, n in plain),
            **w.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"work_s": f"median of {len(plain)} units",
                 "setup_s": f"median of {len(setup_times)} set-ups"}
        if w.latencies_ms:
            tail_p, tail_v, beyond = spans.tail(w.latencies_ms)
            notes["queries_per_s"] = (f"per query of {len(w.latencies_ms)}: "
                                      f"p50 {spans.median(w.latencies_ms):.4g} ms, "
                                      f"p{tail_p:g} {tail_v:.4g} ms with {beyond} beyond it")
        units = {n: u for n, u, *_ in spec.END_TO_END}
        meaning = {n: d for n, _, _, _, d in spec.END_TO_END}

    env = environment(seed)
    correct = not w.errors and w.failed == 0
    result = {
        "correct": correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "env": env, "errors": w.errors, "notes": notes,
                    "unit_s": [t for t, _ in plain], "setup_s": setup_times, **result},
                   indent=1), encoding="utf-8")

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for k, v in metrics.items():
        extra = f" ({notes[k]})" if k in notes else ""
        print(f"  {k:28s} {v:14.6g} {units[k]:6s} {meaning[k]}{extra}")
    for message in w.errors:
        print(f"  CHECK FAILED: {message}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            print(f"workload {name} exited {proc.returncode}")
            continue
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text(), encoding="utf-8")
        return 0
    if args.workload == "all":
        return run_all(args, list(spec.WORKLOADS))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
