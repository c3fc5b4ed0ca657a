"""Where the traced run wraps the program, and the per-layer metrics it derives.

Each function is wrapped under the name its caller looks it up by
(`tplrec.evaluation.train_embeddings` is what `run_protocol` calls,
`tplrec.cli.train_embeddings` what `tplrec train` calls), and its span
is named `<layer>.<function>` after the module that defines it. Only
public names are wrapped, so private helpers (negative sampling, the
gradient scatter, the validation recall probe, the vocabulary reader)
stay inside their caller's self time.
"""
from __future__ import annotations

from spans import median, quota_moved, self_times, tail

MEASURED = "measured"


def _note_ingest(args, kwargs, ds):
    return ds.n_interactions


def _note_train_embeddings(args, kwargs, result):
    return args[0].n_interactions, len(result.history), result.best_epoch


def _note_sample(args, kwargs, result):
    buf, batch_size = args[0], args[1]
    return quota_moved(result[1], buf.mu, batch_size), len(result[1])


def _note_run_protocol(args, kwargs, report):
    return sum(report.skipped)


def _cli_span_name(args):
    argv = args[0] if args else None
    return f"cli.main.{argv[0]}" if argv else "cli.main"


def sites(tp) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name, note) for every wrapped lookup site."""
    ev, cli, embed, agent, coldstart, data = tp.evaluation, tp.cli, tp.embed, tp.agent, tp.coldstart, tp.data
    return [
        (data, "ingest", "data.ingest", _note_ingest),
        (cli, "ingest", "data.ingest", _note_ingest),
        (ev, "split_users", "data.split", None),
        (ev, "split_query_test", "data.split", None),
        (ev, "split_interactions", "data.split", None),
        (ev, "train_embeddings", "embed.train_embeddings", _note_train_embeddings),
        (cli, "train_embeddings", "embed.train_embeddings", _note_train_embeddings),
        (embed, "propagate", "embed.propagate", None),
        (embed, "debiased_contrastive_loss", "embed.loss", None),
        (embed.EmbeddingTable, "save", "embed.EmbeddingTable.save", None),
        (tp.optim.Adam, "step", "optim.Adam.step", None),
        (ev, "build_representatives", "coldstart.build_representatives", None),
        (cli, "build_representatives", "coldstart.build_representatives", None),
        (agent, "aggregate", "coldstart.aggregate", None),
        (coldstart.RepresentativeTable, "load", "coldstart.RepresentativeTable.load", None),
        (coldstart.RepresentativeTable, "save", "coldstart.RepresentativeTable.save", None),
        (ev, "train_agent", "agent.train_agent", None),
        (cli, "train_agent", "agent.train_agent", None),
        (agent, "gen_transition", "agent.gen_transition", None),
        (agent, "cql_loss", "agent.cql_loss", None),
        (agent.ReplayBuffer, "insert", "agent.ReplayBuffer.insert", None),
        (agent.ReplayBuffer, "sample", "agent.ReplayBuffer.sample", _note_sample),
        (agent.QNetwork, "forward", "agent.QNetwork.forward", None),
        (agent.AgentStats, "write_curve", "agent.AgentStats.write_curve", None),
        (ev, "recommend", "agent.recommend", None),
        (cli, "recommend", "agent.recommend", None),
        (cli, "load_qnetwork", "agent.load_qnetwork", None),
        (cli, "save_qnetwork", "agent.save_qnetwork", None),
        (ev, "run_protocol", "evaluation.run_protocol", _note_run_protocol),
        (ev, "precision_recall_at_k", "evaluation.metrics", None),
        (ev, "epc_at_k", "evaluation.metrics", None),
        (ev, "coverage_at_k", "evaluation.metrics", None),
        (cli, "main", _cli_span_name, None),
    ]


SAVES = ("embed.EmbeddingTable.save", "coldstart.RepresentativeTable.save",
         "agent.save_qnetwork", "agent.AgentStats.write_curve")


def derive(tracer, units: int) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    Totals (`*_s`) and counts are per set-up plus per measured unit:
    spans of the set-up phase count once, spans of the measured phase
    are divided by the number of traced units. `*_ms`/`*_us` figures are
    means per call unless named p50 or tail. Layers a workload does not
    reach read 0.
    """
    spans = tracer.spans
    notes = tracer.notes
    by_id = {s[0]: s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    own = self_times(spans)
    weight = {"setup": 1.0, MEASURED: 1.0 / max(1, units)}

    def of(*names):
        return [s for name in names for s in by_name.get(name, ())]

    def dur(s):
        return (s[3] - s[2]) / 1e9

    def total(items, key=dur):
        return sum(weight[s[5]] * key(s) for s in items)

    def count(items):
        return total(items, key=lambda s: 1.0)

    def mean(items, scale):
        return scale * sum(dur(s) for s in items) / len(items) if items else 0.0

    def under(s, name):
        parent = s[4]
        while parent >= 0:
            p = by_id[parent]
            if p[1] == name:
                return True
            parent = p[4]
        return False

    def self_total(items):
        return total(items, key=lambda s: own[s[0]] / 1e9)

    emb = of("embed.train_embeddings")
    emb_notes = [notes[s[0]] for s in emb]
    emb_epochs = sum(e for _, e, _ in emb_notes)
    emb_time = sum(dur(s) for s in emb)
    adam = of("optim.Adam.step")
    cql = of("agent.cql_loss")
    samples = [notes[s[0]] for s in of("agent.ReplayBuffer.sample")]
    recs = of("agent.recommend")
    rec_ms = [dur(s) * 1e3 for s in recs]
    protocols = of("evaluation.run_protocol")
    evaluated = count([s for s in recs if under(s, "evaluation.run_protocol")])
    test_projects = evaluated + total(protocols, key=lambda s: notes[s[0]])
    cli_recs = of("cli.main.recommend")
    ingests = of("data.ingest")

    return {
        "data.ingest_s": total(ingests),
        "data.interactions": float(notes[ingests[-1][0]]) if ingests else 0.0,
        "data.split_s": total(of("data.split")),
        "embed.train_s": total(emb),
        "embed.epochs": emb_epochs / len(emb) if emb else 0.0,
        "embed.epoch_ms": 1e3 * emb_time / emb_epochs if emb_epochs else 0.0,
        "embed.edges_per_s": sum(n * e for n, e, _ in emb_notes) / emb_time if emb_time else 0.0,
        "embed.best_epoch": sum(b for _, _, b in emb_notes) / len(emb) if emb else 0.0,
        "embed.propagate_calls": count(of("embed.propagate")),
        "embed.propagate_ms": mean(of("embed.propagate"), 1e3),
        "embed.loss_calls": count(of("embed.loss")),
        "embed.loss_ms": mean(of("embed.loss"), 1e3),
        "embed.self_s": self_total(emb),
        "optim.embed_adam_s": total([s for s in adam if under(s, "embed.train_embeddings")]),
        "optim.agent_adam_s": total([s for s in adam if under(s, "agent.train_agent")]),
        "optim.adam_steps": count(adam),
        "coldstart.build_s": total(of("coldstart.build_representatives")),
        "coldstart.aggregate_calls": count(of("coldstart.aggregate")),
        "coldstart.aggregate_us": mean(of("coldstart.aggregate"), 1e6),
        "coldstart.rep_load_ms": mean(of("coldstart.RepresentativeTable.load"), 1e3),
        "agent.train_s": total(of("agent.train_agent")),
        "agent.transitions": count(of("agent.gen_transition")),
        "agent.gen_transition_us": mean(of("agent.gen_transition"), 1e6),
        "agent.replay_insert_us": mean(of("agent.ReplayBuffer.insert"), 1e6),
        "agent.replay_sample_ms": mean(of("agent.ReplayBuffer.sample"), 1e3),
        "agent.grad_steps": count([s for s in cql if under(s, "agent.train_agent")]),
        "agent.cql_ms": mean(cql, 1e3),
        "agent.self_s": self_total(of("agent.train_agent")),
        "agent.quota_moved_share": (sum(m for m, _ in samples) / sum(r for _, r in samples)
                                    if samples else 0.0),
        "agent.recommend_calls": count(recs),
        "agent.recommend_p50_ms": median(rec_ms) if rec_ms else 0.0,
        "agent.recommend_tail_ms": tail(rec_ms)[1] if rec_ms else 0.0,
        "agent.forward_calls": count(of("agent.QNetwork.forward")),
        "agent.load_qnetwork_ms": mean(of("agent.load_qnetwork"), 1e3),
        "evaluation.test_projects": test_projects,
        "evaluation.evaluated_share": evaluated / test_projects if test_projects else 0.0,
        "evaluation.metrics_s": total(of("evaluation.metrics")),
        "evaluation.self_s": self_total(protocols),
        "cli.train_s": total(of("cli.main.train")),
        "cli.save_s": total([s for s in of(*SAVES) if under(s, "cli.main.train")]),
        "cli.recommend_self_ms": median([own[s[0]] / 1e6 for s in cli_recs]) if cli_recs else 0.0,
    }
