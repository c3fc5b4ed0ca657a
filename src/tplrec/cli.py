"""Command-line driver: ingest, train, recommend, evaluate.

Runs are driven by a flat key-value config file with ``--key value``
command-line overrides. Exit codes: 0 success, 1 usage, 2 data error,
3 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import field, fields, make_dataclass
from pathlib import Path

import numpy as np

from .agent import MODES, AgentConfig, load_qnetwork, recommend, save_qnetwork, train_agent
from .coldstart import RepresentativeTable, build_representatives
from .data import InteractionDataset, ingest, popularity
from .embed import EmbedConfig, EmbeddingTable, train_embeddings
from .errors import DataError, NumericError
from .evaluation import ProtocolConfig, run_protocol

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


# Config keys come from the fields of the config dataclasses. Listed here
# are only the fields whose key differs: a renamed key, a tuple of keys
# (one per element of a tuple field), or None for a field the command
# line does not set. `seed` seeds all three configs.
RENAMED = {
    ProtocolConfig: {"embed": None, "agent": None, "policy": None, "rank_discounted_epc": None},
    EmbedConfig: {"batch_size": "embed_batch", "learning_rate": "embed_lr", "max_epochs": "embed_epochs",
                  "val_fraction": None, "init_scale": None},
    AgentConfig: {"learning_rate": "agent_lr", "epochs": "agent_epochs", "batch_size": "agent_batch",
                  "mu": ("mu_rare", "mu_rand", "mu_seq"), "grad_steps_per_epoch": None},
}
KEYS = {cls: {f.name: key for f in fields(cls) if (key := renamed.get(f.name, f.name))}
        for cls, renamed in RENAMED.items()}


def _defaults() -> dict:
    out = {"dataset": "", "output": "tplrec-out"}
    for cls, keys in KEYS.items():
        default = cls()
        for name, key in keys.items():
            value = getattr(default, name)
            out.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    return out


DEFAULTS = _defaults()
RunConfig = make_dataclass("RunConfig", [(k, type(v), field(default=v)) for k, v in DEFAULTS.items()])
RunConfig.__doc__ = "Flat run configuration: the dataset, the output directory and every config key."


def protocol_config(cfg) -> ProtocolConfig:
    """The ProtocolConfig, with its EmbedConfig and AgentConfig, that a run config sets."""
    def make(cls, **nested):
        return cls(**{name: tuple(getattr(cfg, k) for k in key) if isinstance(key, tuple) else getattr(cfg, key)
                      for name, key in KEYS[cls].items()}, **nested)

    return make(ProtocolConfig, embed=make(EmbedConfig), agent=make(AgentConfig))


def _config_lines(cfg) -> list[str]:
    return [f"{f.name} {getattr(cfg, f.name)}" for f in fields(cfg)]


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Build a RunConfig from an optional key-value file plus --key value
    overrides; unknown keys are rejected."""
    values: dict = {}

    def set_kv(key: str, raw: str, where: str):
        if key not in DEFAULTS:
            raise UsageError(f"unknown configuration key {key!r} ({where})")
        try:
            values[key] = type(DEFAULTS[key])(raw)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {raw!r}") from exc

    if path:
        p = Path(path)
        if not p.is_file():
            raise DataError(f"no such config file: {p}")
        for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [t for t in line.replace("=", " ").split() if t]
            if len(parts) != 2:
                raise UsageError(f"{p}:{lineno}: expected 'key value', got {line!r}")
            set_kv(parts[0], parts[1], f"{p}:{lineno}")

    it = iter(overrides)
    for tok in it:
        if not tok.startswith("--"):
            raise UsageError(f"expected --key value override, got {tok!r}")
        key = tok[2:].replace("-", "_")
        try:
            raw = next(it)
        except StopIteration:
            raise UsageError(f"override {tok} is missing a value") from None
        set_kv(key, raw, "command line")
    cfg = RunConfig(**values)
    try:
        protocol_config(cfg)
    except (ValueError, DataError) as exc:
        raise UsageError(f"bad configuration: {exc}") from exc
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_vocab(path: Path, ds: InteractionDataset) -> None:
    lines = [f"project\t{name}" for name in ds.projects]
    lines += [f"library\t{name}" for name in ds.libraries]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_vocab(path: Path) -> tuple[list[str], list[str]]:
    projects, libraries = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        kind, _, name = line.partition("\t")
        (projects if kind == "project" else libraries).append(name)
    return projects, libraries


def cmd_ingest(args) -> int:
    ds = ingest(args.dataset)
    pop = popularity(ds)
    print(f"projects: {ds.n_projects}")
    print(f"libraries: {ds.n_libraries}")
    print(f"interactions: {ds.n_interactions}")
    counts = pop.counts
    print(f"libraries with a single occurrence: {int((counts == 1).sum())}")
    print("long-tail histogram (occurrences: libraries):")
    edges = [1, 2, 10, 50, 200]
    labels = ["1", "2-9", "10-49", "50-199", ">=200"]
    lows = edges
    highs = [2, 10, 50, 200, np.inf]
    for label, lo, hi in zip(labels, lows, highs):
        n = int(((counts >= lo) & (counts < hi)).sum())
        print(f"  {label:>7}: {n}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if not cfg.dataset:
        raise UsageError("train requires a dataset (config key 'dataset' or --dataset)")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)

    ds = ingest(cfg.dataset)
    run = protocol_config(cfg)
    emb = train_embeddings(ds, run.embed)
    rep = build_representatives(emb.table, ds, run.blend)
    net, stats = train_agent(ds, emb.table, rep, run.agent)

    emb.table.save(out / "embeddings.tple")
    rep.save(out / "representatives.tplr")
    save_qnetwork(out / "qnet.tplq", net)
    stats.write_curve(out / "curve.csv")
    _write_vocab(out / "vocab.tsv", ds)

    manifest = _config_lines(cfg)
    for name in ("embeddings.tple", "representatives.tplr", "qnet.tplq", "curve.csv", "vocab.tsv"):
        manifest.append(f"sha256:{name} {_sha256(out / name)}")
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    model_dir = Path(args.model_dir)
    for name in ("qnet.tplq", "representatives.tplr", "vocab.tsv"):
        if not (model_dir / name).is_file():
            raise DataError(f"missing model artifact: {model_dir / name}")
    _, libraries = _read_vocab(model_dir / "vocab.tsv")
    index = {name: j for j, name in enumerate(libraries)}

    query_ids = [q for q in args.query.split(",") if q]
    unknown = [q for q in query_ids if q not in index]
    if unknown:
        raise DataError(f"unknown library ids: {', '.join(unknown)}")
    query = [index[q] for q in query_ids]

    net = load_qnetwork(model_dir / "qnet.tplq")
    rep = RepresentativeTable.load(model_dir / "representatives.tplr")
    picks = recommend(query, args.k, net, rep, mode=args.mode, with_scores=True)
    for rank, (a, qval) in enumerate(picks, 1):
        print(f"{rank}\t{libraries[a]}\t{qval:.6f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if not cfg.dataset:
        raise UsageError("evaluate requires a dataset (config key 'dataset' or --dataset)")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)

    ds = ingest(cfg.dataset)
    report = run_protocol(ds, protocol_config(cfg))
    (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
    (out / "report.csv").write_text("\n".join(report.machine_lines()) + "\n", encoding="utf-8")
    (out / "manifest.txt").write_text("\n".join(_config_lines(cfg)) + "\n", encoding="utf-8")
    print(report.to_table())
    print(f"reports written to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tplrec", description="Third-party library recommendation engine")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("ingest", help="parse a dataset and print summary statistics")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train embeddings, representatives, and the agent")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="rank libraries for a query set")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--query", required=True, help="comma-separated library ids")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--mode", choices=MODES, default="sequential")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="run an evaluation protocol and write reports")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.func in (cmd_train, cmd_evaluate):
            args.overrides = extra
        elif extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
