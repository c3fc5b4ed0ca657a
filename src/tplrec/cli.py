"""Command-line driver: ingest, train, recommend, evaluate.

Runs are driven by a flat key-value config file with ``--key value``
command-line overrides. Exit codes: 0 success, 1 usage, 2 data error
(including a refused allocation), 3 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import re
import sys
import warnings
from dataclasses import field, fields, make_dataclass
from pathlib import Path

import numpy as np

from .agent import MODES, AgentConfig, QNetwork, load_qnetwork, qnetwork_artifact, recommend, train_agent
# `save_qnetwork` is not called here; perfbench/layers.py wraps it under this module's name.
from .agent import save_qnetwork  # noqa: F401
from .artifact import model_id_in, model_id_of, write_atomic
from .coldstart import RepresentativeTable, build_representatives
from .data import InteractionDataset, ingest, popularity, read_lines
from .embed import EmbedConfig, train_embeddings
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
    ProtocolConfig: {"embed": None, "agent": None, "policy": None},
    EmbedConfig: {"batch_size": "embed_batch", "learning_rate": "embed_lr", "max_epochs": "embed_epochs"},
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
        for lineno, line in enumerate(read_lines(p), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # split once, at the first `=` or run of whitespace: a value may hold `=`
            key, value = (re.split(r"\s*=\s*|\s+", line, maxsplit=1) + [""])[:2]
            if not key or value.split() != [value]:
                raise UsageError(f"{p}:{lineno}: expected 'key value', got {line!r}")
            set_kv(key, value, f"{p}:{lineno}")

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


def _write_vocab(path: Path, ds: InteractionDataset, model_id: str) -> bytes:
    """The model id line, then one line per project and one per library, in
    index order; returns the bytes written."""
    lines = [f"model\t{model_id}"]
    lines += [f"project\t{name}" for name in ds.projects]
    lines += [f"library\t{name}" for name in ds.libraries]
    return write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


class _Libraries:
    """The model id and the library lines of a vocabulary file, looked up in
    its bytes: a query needs a few names, not a string per library. The
    file is decoded once, to refuse one that is not UTF-8."""

    def __init__(self, path: Path):
        raw = path.read_bytes()
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text (byte {exc.start})") from None
        raw = b"\n" + raw  # every line, the first too, follows a newline
        self.raw = raw = raw if raw.endswith(b"\n") else raw + b"\n"
        self.model_id = raw[7:raw.find(b"\n", 1)].decode() if raw.startswith(b"\nmodel\t") else None
        first = raw.find(b"\nlibrary\t")
        self.start = len(raw) if first < 0 else first + 1
        self.ends = self.start + np.flatnonzero(np.frombuffer(raw, np.uint8)[self.start:] == 10)

    def __len__(self) -> int:
        return len(self.ends)

    def index(self, name: str) -> int | None:
        """The library index of `name`, or None if no library line holds it."""
        if "\n" in name:
            return None
        at = self.raw.find(b"\nlibrary\t" + name.encode() + b"\n", self.start - 1)
        return None if at < 0 else int(np.searchsorted(self.ends, at, "right"))

    def __getitem__(self, j: int) -> str:
        begin = self.start if j == 0 else self.ends[j - 1] + 1
        return self.raw[begin + 8:self.ends[j]].decode()


def cmd_ingest(args) -> int:
    ds = ingest(args.dataset)
    pop = popularity(ds)
    print(f"projects: {ds.n_projects}")
    print(f"libraries: {ds.n_libraries}")
    print(f"interactions: {ds.n_interactions}")
    counts = pop.counts
    print(f"libraries with a single occurrence: {int((counts == 1).sum())}")
    print("long-tail histogram (occurrences: libraries):")
    for label, lo, hi in [("1", 1, 2), ("2-9", 2, 10), ("10-49", 10, 50), ("50-199", 50, 200), (">=200", 200, np.inf)]:
        n = int(((counts >= lo) & (counts < hi)).sum())
        print(f"  {label:>7}: {n}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if not cfg.dataset:
        raise UsageError("train requires a dataset (config key 'dataset' or --dataset)")
    ds = ingest(cfg.dataset)  # before the output directory, which a bad dataset leaves unmade
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    run = protocol_config(cfg)
    emb = train_embeddings(ds, run.embed)
    rep = build_representatives(emb.table, ds, run.blend)
    net, stats = train_agent(ds, emb.table, rep, run.agent)

    artifacts = {"embeddings.tple": emb.table.artifact(), "representatives.tplr": rep.artifact(),
                 "qnet.tplq": qnetwork_artifact(net)}
    model_id = model_id_of(*artifacts.values())
    written = {name: art.write(out / name, model_id) for name, art in artifacts.items()}
    written["curve.csv"] = stats.write_curve(out / "curve.csv")
    written["embed_curve.csv"] = emb.write_curve(out / "embed_curve.csv")
    written["vocab.tsv"] = _write_vocab(out / "vocab.tsv", ds, model_id)

    manifest = _config_lines(cfg)
    manifest += [f"sha256:{name} {hashlib.sha256(data).hexdigest()}" for name, data in written.items()]
    write_atomic(out / "manifest.txt", ("\n".join(manifest) + "\n").encode("utf-8"))
    print(f"artifacts written to {out}")
    return EXIT_OK


def _load_model(model_dir: Path) -> tuple[_Libraries, QNetwork, RepresentativeTable]:
    """The vocabulary, Q-network and representative table of a model directory, each checked:
    the one place that compares model ids. Raises DataError naming each file whose id no other holds."""
    vocab, qnet, reps = (model_dir / name for name in ("vocab.tsv", "qnet.tplq", "representatives.tplr"))
    libraries, net, rep = _Libraries(vocab), load_qnetwork(qnet), RepresentativeTable.load(reps)
    ids = {vocab: libraries.model_id, qnet: model_id_in(qnet), reps: model_id_in(reps)}
    stray = [f"{path} has model id {i or 'none'}" for path, i in ids.items() if [*ids.values()].count(i) == 1]
    if stray:
        raise DataError(", ".join(stray) + ": the files come from different trainings")
    if len(libraries) != net.n_actions:
        raise DataError(f"{vocab} lists {len(libraries)} libraries where the model has {net.n_actions}")
    return libraries, net, rep


def cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    query_ids = [q for q in args.query.split(",") if q]
    if not query_ids:
        raise UsageError("--query must name at least one library")
    libraries, net, rep = _load_model(Path(args.model_dir))
    query = [libraries.index(q) for q in query_ids]
    if None in query:
        raise DataError(f"unknown library ids: {', '.join(repr(q) for q, j in zip(query_ids, query) if j is None)}")
    picks = recommend(query, args.k, net, rep, mode=args.mode, with_scores=True)
    for rank, (a, qval) in enumerate(picks, 1):
        print(f"{rank}\t{libraries[a]}\t{qval:.6f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    if not cfg.dataset:
        raise UsageError("evaluate requires a dataset (config key 'dataset' or --dataset)")
    ds = ingest(cfg.dataset)
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    report = run_protocol(ds, protocol_config(cfg))
    write_atomic(out / "report.txt", report.to_table().encode("utf-8"))
    write_atomic(out / "report.csv", ("\n".join(report.machine_lines()) + "\n").encode("utf-8"))
    write_atomic(out / "manifest.txt", ("\n".join(_config_lines(cfg)) + "\n").encode("utf-8"))
    print(report.to_table())
    print(f"reports written to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Each command's help line, handler and arguments, as (flags, options) pairs.
COMMANDS = {
    "ingest": ("parse a dataset and print summary statistics", cmd_ingest, [(("dataset",), {})]),
    "train": ("train embeddings, representatives, and the agent", cmd_train,
              [(("--config",), {"default": None})]),
    "recommend": ("rank libraries for a query set", cmd_recommend, [
        (("--model-dir",), {"required": True}),
        (("--query",), {"required": True, "help": "comma-separated library ids"}),
        (("--k",), {"type": int, "default": ProtocolConfig.k}),
        (("--mode",), {"choices": MODES, "default": ProtocolConfig.mode}),
    ]),
    "evaluate": ("run an evaluation protocol and write reports", cmd_evaluate,
                 [(("--config",), {"default": None})]),
}


def _add_command(parser: _Parser, name: str) -> _Parser:
    _, func, arguments = COMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.set_defaults(command=name, func=func)
    return parser


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command; given a command, that command's parser
    alone, which parses its arguments (without the command name) alike."""
    if command is not None:
        return _add_command(_Parser(prog=f"tplrec {command}"), command)
    parser = _Parser(prog="tplrec", description="Third-party library recommendation engine")
    sub = parser.add_subparsers(dest="command")
    for name, (help_line, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A run of a named command builds only that command's parser.
    command = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser(command)
    try:
        for arg in argv:  # argument bytes that are not UTF-8 reach Python as lone surrogates
            try:
                arg.encode()
            except UnicodeEncodeError:
                raise UsageError(f"argument {arg!r} is not UTF-8") from None
        args, extra = parser.parse_known_args(argv[1:] if command else argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        if args.func in (cmd_train, cmd_evaluate):
            args.overrides = extra
        elif extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        # The non-finite checks report divergence, so NumPy's floating-point
        # warnings would only repeat it; a library warning prints as one line.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda message, *_, **__: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
