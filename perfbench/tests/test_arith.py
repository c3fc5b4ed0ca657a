"""Self-tests for the benchmark's own arithmetic and manifest.

    python3 -m pytest -q perfbench/tests
"""
import json
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import layers  # noqa: E402
import spec  # noqa: E402
from spans import Tracer, quota_moved, self_times, tail  # noqa: E402


def span(sid, start, end, parent=-1, name="x", phase="setup"):
    return (sid, name, start, end, parent, phase)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, 0, 100),
        span(1, 10, 30, parent=0),
        span(2, 15, 25, parent=1),  # grandchild: inside child 1, not subtracted from 0 again
        span(3, 50, 60, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 100 - 20 - 10, 1: 20 - 10, 2: 10, 3: 10}


def test_self_time_merges_overlapping_and_clips_children():
    spans = [span(0, 0, 100), span(1, 10, 40, parent=0), span(2, 30, 50, parent=0),
             span(3, 90, 120, parent=0)]
    assert self_times(spans)[0] == 100 - 40 - 10


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tail(range(1, 21)) == (50.0, 10, 10)
    assert tail(range(1, 201)) == (95.0, 190, 10)
    assert tail(range(1, 1001)) == (99.0, 990, 10)
    assert tail(range(1, 1000))[0] == 95.0  # 999 samples leave only 9 beyond p99
    assert tail([5.0, 1.0, 3.0]) == (100.0, 5.0, 0)


def test_quota_moved_counts_rows_outside_nominal_quota():
    mu = (0.2, 0.5, 0.3)
    assert quota_moved(["rare"] * 2 + ["rand"] * 5 + ["seq"] * 3, mu, 10) == 0
    assert quota_moved(["rand"] * 7 + ["seq"] * 3, mu, 10) == 2  # empty rare hands 2 to rand
    assert quota_moved(["seq"] * 10, mu, 10) == 7
    assert quota_moved(["rare"] * 26 + ["rand"] * 64 + ["seq"] * 38, mu, 128) == 0


def test_tracer_records_parents_and_restores_originals():
    mod = types.SimpleNamespace()

    class Box:
        def step(self, x):
            return mod.leaf(x) + 1

        @classmethod
        def make(cls):
            return cls()

    mod.leaf = lambda x: 2 * x
    originals = (mod.leaf, Box.__dict__["step"], Box.__dict__["make"])
    tracer = Tracer()
    tracer.install([(mod, "leaf", "m.leaf", lambda a, k, r: r),
                    (Box, "step", "m.Box.step", None),
                    (Box, "make", "m.Box.make", None)])
    assert Box.make().step(3) == 7
    tracer.uninstall()
    assert (mod.leaf, Box.__dict__["step"], Box.__dict__["make"]) == originals
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["m.leaf"][4] == by_name["m.Box.step"][0]
    assert by_name["m.Box.step"][4] == -1 and by_name["m.Box.make"][4] == -1
    assert tracer.notes[by_name["m.leaf"][0]] == 6


def test_derive_attributes_adam_and_scales_measured_spans():
    tracer = Tracer()
    ms = 1_000_000
    tracer.spans = [
        span(0, 0, 1000 * ms, name="evaluation.run_protocol", phase="measured"),
        span(1, 0, 600 * ms, 0, "embed.train_embeddings", "measured"),
        span(2, 100 * ms, 200 * ms, 1, "optim.Adam.step", "measured"),
        span(3, 600 * ms, 900 * ms, 0, "agent.train_agent", "measured"),
        span(4, 700 * ms, 750 * ms, 3, "optim.Adam.step", "measured"),
    ]
    tracer.notes = {0: 0, 1: (500, 10, 7)}
    got = layers.derive(tracer, units=2)
    assert abs(got["optim.embed_adam_s"] - 0.05) < 1e-12
    assert abs(got["optim.agent_adam_s"] - 0.025) < 1e-12
    assert got["optim.adam_steps"] == 1.0
    assert abs(got["embed.self_s"] - 0.25) < 1e-12
    assert abs(got["evaluation.self_s"] - 0.05) < 1e-12
    assert got["embed.epochs"] == 10 and got["embed.best_epoch"] == 7
    assert set(got) | {"trace.overhead_pct"} == {n for n, *_ in spec.PER_LAYER}


def test_manifest_matches_spec_and_format_limits():
    committed = (HERE.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    assert committed == spec.manifest_text()
    m = json.loads(committed)
    names = [w["name"] for w in m["workloads"]] + [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", x["unit"]) for x in m["end_to_end"] + m["per_layer"])
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert 2 <= len(m["workloads"]) <= 8 and all(len(w["why"]) <= 200 for w in m["workloads"])
