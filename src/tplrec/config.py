"""The configuration of a run. Each config field is declared once, with its
bound, one help line and, where it differs from the field's name, its
command-line key (a tuple for a tuple field, None for a library-only one)."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

MODES = ("sequential", "one-shot")
PROTOCOLS = ("coldstart-100", "coldstart-30", "interaction-split")
POLICIES = ("agent", "random", "popularity")


def bad_ratios(mu) -> bool:
    """Partition ratios that are not each in [0, 1] with sum 1."""
    return not (all(0.0 <= x <= 1.0 for x in mu) and abs(sum(mu) - 1.0) <= 1e-9)


# Each kind of bound but a choice: its test and how it reads. NaN fails every test.
BOUNDS = {
    "> 0": (lambda x: 0 < x < math.inf, "finite and positive"),
    ">= 0": (lambda x: 0 <= x < math.inf, "finite and >= 0"),
    "[0, 1]": (lambda x: 0 <= x <= 1, "in [0, 1]"),
    "[0, 1)": (lambda x: 0 <= x < 1, "in [0, 1)"),
    "(0, 1)": (lambda x: 0 < x < 1, "in (0, 1)"),
    ">= 1": (lambda x: x >= 1, ">= 1"),
    ">= 2": (lambda x: x >= 2, ">= 2"),
    # above this bound NumPy raises ValueError or OverflowError, not MemoryError
    "size": (lambda x: 1 <= x <= 2**31 - 1, "an array size in [1, 2**31 - 1]"),
    "ratios": (lambda mu: not bad_ratios(mu), "partition ratios in [0, 1] that sum to 1"),
}


def knob(default, bound, text, **key):
    """A config field with its bound (a `BOUNDS` kind or a tuple of choices), help line and `key=`."""
    bound = BOUNDS[bound] if isinstance(bound, str) else (bound.__contains__, "one of " + ", ".join(bound))
    return field(default=default, metadata={"bound": bound, "help": text, **key})


def cli_fields(cls) -> list:
    """The command-line fields of a config class, each with its key, or tuple of keys."""
    return [(f, key) for f in fields(cls) if (key := f.metadata.get("key", f.name))]


def check(config) -> None:
    """Raise ConfigError for the first field of `config` outside its bound; each config's
    `__post_init__`. A field whose default is None may be None."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "bound" in f.metadata and not (value is None and f.default is None):
            test, text = f.metadata["bound"]
            if not test(value):
                raise ConfigError(f"{f.name} must be {text}, got {value}")


@dataclass
class EmbedConfig:
    layers: int = knob(2, ">= 0", "graph-convolution layers the embeddings propagate through")
    dim: int = knob(64, "size", "embedding width")
    batch_size: int = knob(1024, "> 0", "training pairs per embedding step", key="embed_batch")
    learning_rate: float = knob(1e-4, "> 0", "Adam learning rate of the embeddings", key="embed_lr")
    l2: float = knob(1e-5, ">= 0", "L2 penalty on the embedding rows of a step")
    negatives: int = knob(128, "size", "negative libraries drawn per training pair")
    temperature: float = knob(0.1, "> 0", "contrastive temperature tau")
    beta: float = knob(0.5, "[0, 1)", "popularity debias weight: a positive pair weighs 1 - beta * rate")
    patience: int = knob(20, ">= 1", "epochs without a better validation recall@10 before stopping")
    max_epochs: int = knob(400, "> 0", "most embedding epochs", key="embed_epochs")
    seed: int = knob(0, ">= 0", "seeds the embeddings")

    __post_init__ = check


@dataclass
class AgentConfig:
    gamma: float = knob(0.9, "[0, 1]", "discount factor")
    alpha: float = knob(5.5, ">= 0", "weight of the conservative Q-learning penalty")
    learning_rate: float = knob(1e-3, "> 0", "peak Adam learning rate of the Q-network", key="agent_lr")
    epochs: int = knob(20, ">= 1", "agent epochs, each on fresh transitions", key="agent_epochs")
    batch_size: int = knob(128, "size", "transitions per gradient step", key="agent_batch")
    hidden: int = knob(256, "size", "hidden width of the Q-network")
    target_sync: int = knob(500, ">= 1", "gradient steps between target-network syncs")
    capacity: int = knob(100_000, ">= 1", "replay buffer capacity in transitions")
    mu: tuple[float, float, float] = knob((0.2, 0.5, 0.3), "ratios", "share of a replay batch from the rare, random or "
                                          "sequential partition", key=("mu_rare", "mu_rand", "mu_seq"))
    transitions_per_project: int = knob(4, "size", "transitions drawn per training project per epoch")
    grad_steps_per_epoch: int | None = knob(None, ">= 1", "gradient steps per epoch; None derives them", key=None)
    seed: int = knob(0, ">= 0", "seeds the agent")

    __post_init__ = check


@dataclass
class ProtocolConfig:
    protocol: str = knob("coldstart-100", PROTOCOLS, "evaluation protocol")
    folds: int = knob(10, ">= 2", "folds of the cold-start protocols")
    k: int = knob(10, ">= 1", "length of each recommendation list")
    query_fraction: float = knob(0.5, "(0, 1)", "share of a test project's libraries revealed as the query (coldstart-100)")
    train_fraction: float = knob(0.7, "(0, 1)", "share of each project's libraries trained on (interaction-split)")
    blend: float = knob(0.5, "[0, 1]", "weight of a library's users' mean embedding in its representative")
    mode: str = knob("sequential", MODES, "re-encode the query after each pick, or rank once")
    policy: str = knob("agent", POLICIES, "the trained agent or a baseline", key=None)
    seed: int = knob(0, ">= 0", "seeds the splits (the `seed` key: the embeddings and the agent too)")
    embed: EmbedConfig = field(default_factory=EmbedConfig, metadata={"key": None})
    agent: AgentConfig = field(default_factory=AgentConfig, metadata={"key": None})

    __post_init__ = check
