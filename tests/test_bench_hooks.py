"""The benchmark's traced run wraps program functions by name from outside
(`perfbench/layers.py`) and reads their arguments and results; a rename that
breaks one of its sites, or a type change that breaks a metric, fails here."""
import math
import sys
from collections import Counter
from pathlib import Path

import tplrec
import tplrec.cli  # noqa: F401 - layers.sites reaches every module through the package

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_over_every_site_and_uninstalls():
    sites = layers.sites(tplrec)
    before = [lookup(owner, attr) for owner, attr, _, _ in sites]
    tracer = spans.Tracer()
    tracer.install(sites)
    try:
        assert all(lookup(owner, attr) is not raw for (owner, attr, _, _), raw in zip(sites, before))
        tplrec.data.ingest(["p\tl"])
        assert [s[1] for s in tracer.spans] == ["data.ingest"]
    finally:
        tracer.uninstall()
    assert all(lookup(owner, attr) is raw for (owner, attr, _, _), raw in zip(sites, before))


def test_traced_run_derives_every_per_layer_metric(tmp_path, capsys):
    ds = tplrec.planted_communities(n_projects=30, n_libraries=24, n_communities=2,
                                    interactions_per_project=5, noise=0.1, seed=7)
    data = tmp_path / "data.tsv"
    data.write_text("".join(f"{ds.projects[u]}\t{ds.libraries[i]}\n" for u, i in ds.interactions))
    fast = ["--dim", "8", "--embed-batch", "128", "--negatives", "16", "--patience", "2",
            "--embed-epochs", "3", "--agent-epochs", "2", "--agent-batch", "32", "--hidden", "16",
            "--target-sync", "10", "--transitions-per-project", "2"]
    cfg = tplrec.ProtocolConfig(
        protocol="interaction-split", seed=0,
        embed=tplrec.EmbedConfig(dim=8, batch_size=128, negatives=16, patience=2, max_epochs=3),
        agent=tplrec.AgentConfig(epochs=2, batch_size=32, hidden=16, target_sync=10, transitions_per_project=2),
    )
    tracer = spans.Tracer()
    tracer.install(layers.sites(tplrec))
    try:
        train = tplrec.data.ingest(str(data))
        assert tplrec.cli.main(["train", "--dataset", str(data), "--output", str(tmp_path / "model"), *fast]) == 0
        tracer.phase = layers.MEASURED
        tplrec.evaluation.run_protocol(train, cfg)
        query = ",".join(ds.libraries[i] for i in ds.by_project[0][:2])
        assert tplrec.cli.main(["recommend", "--model-dir", str(tmp_path / "model"), "--query", query]) == 0
    finally:
        tracer.uninstall()
    # each agent training (2 epochs): one generation pass per epoch, one
    # replay sample per gradient step
    calls = Counter((s[4], s[1]) for s in tracer.spans)
    trained = [s[0] for s in tracer.spans if s[1] == "agent.train_agent"]
    assert len(trained) > 1
    for run in trained:
        assert calls[run, "agent.gen_transition"] == 2
        assert calls[run, "agent.ReplayBuffer.sample"] == calls[run, "optim.Adam.step"] > 0
    metrics = layers.derive(tracer, 1)
    assert set(metrics) == {name for name, *_ in spec.PER_LAYER} - {"trace.overhead_pct"}
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    for name in ("data.interactions", "embed.edges_per_s", "coldstart.build_s", "agent.transitions",
                 "agent.recommend_calls", "evaluation.test_projects", "evaluation.metrics_s",
                 "cli.recommend_self_ms"):
        assert metrics[name] > 0, name
    # the share counts `recommend` calls under `run_protocol`: above 0 only if the
    # protocol still reaches the wrapped `evaluation.recommend` site
    assert metrics["evaluation.evaluated_share"] > 0
