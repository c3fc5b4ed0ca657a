"""Offline RL recommender: transitions, dueling Q-network, conservative
Q-learning objective, and the popularity-aware partitioned replay buffer.
"""
from __future__ import annotations

import csv
import numbers
import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.special import logsumexp, softmax

from .artifact import read_artifact, write_artifact
from .coldstart import RepresentativeTable, aggregate
from .data import RARE_THRESHOLD, InteractionDataset, PopularityTable, popularity
from .embed import EmbeddingTable
from .errors import DataError, NumericError
from .optim import Adam, cosine_annealed_lr

_MAGIC_Q = b"TPLQ"
_QNET_PARAMS = ("w1", "b1", "wv", "bv", "wa", "ba")

PARTITIONS = ("rare", "rand", "seq")
MODES = ("sequential", "one-shot")
# Queries per batched forward in `recommend`: bounds its B x M score and mask arrays.
_BLOCK = 128


@dataclass(eq=False)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


@dataclass
class AgentConfig:
    gamma: float = 0.9
    alpha: float = 5.5
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 128
    hidden: int = 256
    target_sync: int = 500
    capacity: int = 100_000
    mu: tuple[float, float, float] = (0.2, 0.5, 0.3)
    transitions_per_project: int = 4
    grad_steps_per_epoch: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if abs(sum(self.mu) - 1.0) > 1e-9:
            raise ValueError(f"partition ratios must sum to 1, got {self.mu}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("batch_size", "hidden", "target_sync", "capacity", "transitions_per_project"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


class QNetwork:
    """One hidden ReLU layer with dueling value/advantage heads.

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'), computed over the full
    action catalog.
    """

    def __init__(self, state_dim: int, n_actions: int, hidden: int = 256, rng=None):
        rng = np.random.default_rng(rng)
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.hidden = hidden
        s1 = np.sqrt(2.0 / state_dim)
        s2 = np.sqrt(2.0 / hidden)
        self.params: dict[str, np.ndarray] = {
            "w1": rng.normal(0.0, s1, size=(hidden, state_dim)),
            "b1": np.zeros(hidden),
            "wv": rng.normal(0.0, s2, size=hidden),
            "bv": np.zeros(1),
            "wa": rng.normal(0.0, s2, size=(n_actions, hidden)),
            "ba": np.zeros(n_actions),
        }

    def streams(self, states: np.ndarray):
        """Value and advantage heads for a batch of states."""
        states = np.atleast_2d(states)
        z = states @ self.params["w1"].T + self.params["b1"]
        h = np.maximum(z, 0.0)
        v = h @ self.params["wv"] + self.params["bv"][0]
        a = h @ self.params["wa"].T + self.params["ba"]
        return v, a, (states, z, h)

    def forward(self, states: np.ndarray) -> np.ndarray:
        q, _ = self.forward_cached(states)
        return q

    def forward_cached(self, states: np.ndarray):
        v, a, cache = self.streams(states)
        q = v[:, None] + a - a.mean(axis=1, keepdims=True)
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d loss / d Q."""
        states, z, h = cache
        dv = dq.sum(axis=1)
        da = dq - dq.mean(axis=1, keepdims=True)
        grads = {
            "wv": h.T @ dv,
            "bv": np.array([dv.sum()]),
            "wa": da.T @ h,
            "ba": da.sum(axis=0),
        }
        dh = np.outer(dv, self.params["wv"]) + da @ self.params["wa"]
        dz = dh * (z > 0.0)
        grads["w1"] = dz.T @ states
        grads["b1"] = dz.sum(axis=0)
        return grads

    @classmethod
    def from_params(cls, params: dict[str, np.ndarray]) -> "QNetwork":
        """A network holding the given arrays, without drawing an initialization."""
        net = cls.__new__(cls)
        net.hidden, net.state_dim = params["w1"].shape
        net.n_actions = params["wa"].shape[0]
        net.params = params
        return net

    def clone(self) -> "QNetwork":
        return QNetwork.from_params({k: v.copy() for k, v in self.params.items()})

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        for k in self.params:
            self.params[k][...] = params[k]


def _qnet_layout(d: int, h: int, m: int):
    return [((h, d), "<f4"), ((h,), "<f4"), ((h,), "<f4"), ((1,), "<f4"), ((m, h), "<f4"), ((m,), "<f4")]


def save_qnetwork(path, net: QNetwork) -> None:
    """Artifact TPLQ with dims (state, hidden, actions): the parameter
    arrays w1, b1, wv, bv, wa, ba in that order as float32."""
    write_artifact(path, _MAGIC_Q, (net.state_dim, net.hidden, net.n_actions),
                   [(net.params[name], "<f4") for name in _QNET_PARAMS])


def load_qnetwork(path) -> QNetwork:
    arrays = read_artifact(path, _MAGIC_Q, _qnet_layout)
    return QNetwork.from_params({name: a.astype(np.float64) for name, a in zip(_QNET_PARAMS, arrays)})


def reward(state: np.ndarray, action: int, lib_table: np.ndarray) -> float:
    """r = 1 + e_action . state; in [0, 2] for unit-norm source tables."""
    return 1.0 + float(lib_table[action] @ state)


def gen_transition(items, rep: RepresentativeTable, lib_table: np.ndarray, rng) -> Transition | None:
    """Sample one transition from a project's historical library usage.

    A nonempty proper subset forms the current state; the action is a
    uniform pick from the remainder. Returns None when the project has
    fewer than two interactions.
    """
    items = [int(i) for i in items]
    n = len(items)
    if n < 2:
        return None
    k = int(rng.integers(1, n))
    subset_idx = rng.choice(n, size=k, replace=False)
    known = [items[j] for j in subset_idx]
    known_set = set(known)
    rest = [i for i in items if i not in known_set]
    action = int(rest[int(rng.integers(len(rest)))])
    state = aggregate(known, rep)
    next_state = aggregate(known + [action], rep)
    return Transition(
        state=state,
        action=action,
        reward=reward(state, action, lib_table),
        next_state=next_state,
        terminal=(k + 1 == n),
    )


def _q_targets(batch: list[Transition], online: QNetwork, target: QNetwork, gamma: float) -> np.ndarray:
    rewards = np.array([t.reward for t in batch])
    terminal = np.array([t.terminal for t in batch])
    if terminal.all() or gamma == 0.0:
        return rewards
    nxt = np.stack([t.next_state for t in batch])
    a_star = np.argmax(online.forward(nxt), axis=1)
    q_next = target.forward(nxt)[np.arange(len(batch)), a_star]
    return rewards + gamma * q_next * (~terminal)


def cql_loss(batch, online: QNetwork, target: QNetwork, alpha: float, gamma: float,
             weights: np.ndarray | None = None):
    """Conservative Q-learning loss with analytic gradients.

    loss = alpha * E[logsumexp_a Q(s,a)] - alpha * E[Q(s,a_t)]
         + 0.5 * E[(y - Q(s,a_t))^2]

    ``weights`` are per-sample weights summing to 1 (uniform when None);
    they realize the partition-weighted objective. Returns
    (loss, grads, regularizer per sample).
    """
    if not batch:
        raise DataError("cql_loss requires a nonempty batch")
    b = len(batch)
    w = np.full(b, 1.0 / b) if weights is None else np.asarray(weights, dtype=np.float64)
    y = _q_targets(batch, online, target, gamma)
    states = np.stack([t.state for t in batch])
    actions = np.array([t.action for t in batch])

    q, cache = online.forward_cached(states)
    q_a = q[np.arange(b), actions]
    reg = logsumexp(q, axis=1) - q_a
    bellman = (y - q_a) ** 2
    loss = float(w @ (alpha * reg + 0.5 * bellman))
    if not np.isfinite(loss):
        raise NumericError("CQL loss is non-finite")

    dq = alpha * w[:, None] * softmax(q, axis=1)
    one_hot_scale = w * (alpha + (y - q_a))
    dq[np.arange(b), actions] -= one_hot_scale
    grads = online.backward(cache, dq)
    return loss, grads, reg


class ReplayBuffer:
    """Three-partition transition store with popularity-aware admission.

    The rare partition admits only transitions whose action popularity
    rate is below the rare threshold (FIFO eviction). Every transition
    is eligible for the random partition, kept as a uniform reservoir
    sample. Fresh transitions also enter the sequential partition in
    project arrival order, sampled with a Round-Robin cursor over
    projects, freshest first.
    """

    def __init__(self, capacity: int, mu: tuple[float, float, float],
                 pop: PopularityTable, rng=None):
        if abs(sum(mu) - 1.0) > 1e-9:
            raise DataError(f"partition ratios must sum to 1, got {mu}")
        self.capacity = capacity
        self.mu = tuple(mu)
        self.pop = pop
        self.rng = np.random.default_rng(rng)
        self._cap = {
            "rare": max(1, int(mu[0] * capacity)) if mu[0] > 0 else 0,
            "rand": max(1, int(mu[1] * capacity)) if mu[1] > 0 else 0,
            "seq": max(1, int(mu[2] * capacity)) if mu[2] > 0 else 0,
        }
        self.rare: deque[Transition] = deque(maxlen=self._cap["rare"] or 1)
        self.rand: list[Transition] = []
        self._rand_seen = 0
        self.seq: deque[tuple[int, Transition]] = deque(maxlen=self._cap["seq"] or 1)
        self._seq_cursor = 0

    def __len__(self) -> int:
        return len(self.rare) + len(self.rand) + len(self.seq)

    def insert(self, t: Transition, project: int = 0) -> None:
        if self._cap["rare"] and self.pop.rates[t.action] < RARE_THRESHOLD:
            self.rare.append(t)  # deque maxlen gives FIFO eviction
        if self._cap["rand"]:
            self._rand_seen += 1
            if len(self.rand) < self._cap["rand"]:
                self.rand.append(t)
            else:
                j = int(self.rng.integers(self._rand_seen))
                if j < self._cap["rand"]:
                    self.rand[j] = t
        if self._cap["seq"]:
            self.seq.append((int(project), t))

    def _quotas(self, batch_size: int) -> dict[str, int]:
        q = {
            "rare": int(np.floor(self.mu[0] * batch_size + 0.5)),
            "seq": int(np.floor(self.mu[2] * batch_size + 0.5)),
        }
        q["rand"] = batch_size - q["rare"] - q["seq"]
        # empty partitions hand their quota to the random partition
        sizes = {"rare": len(self.rare), "rand": len(self.rand), "seq": len(self.seq)}
        if all(s == 0 for s in sizes.values()):
            raise DataError("cannot sample: all replay partitions are empty")
        for name in ("rare", "seq"):
            if sizes[name] == 0 and q[name] > 0:
                q["rand"] += q[name]
                q[name] = 0
        if sizes["rand"] == 0 and q["rand"] > 0:
            fallback = "seq" if sizes["seq"] > 0 else "rare"
            q[fallback] += q["rand"]
            q["rand"] = 0
        return q

    def _sample_uniform(self, pool: list[Transition], k: int) -> list[Transition]:
        replace = len(pool) < k
        idx = self.rng.choice(len(pool), size=k, replace=replace)
        return [pool[int(j)] for j in idx]

    def _sample_seq(self, k: int) -> list[Transition]:
        per: dict[int, list[Transition]] = {}
        order: list[int] = []
        for project, t in reversed(self.seq):  # newest first
            if project not in per:
                per[project] = []
                order.append(project)
            per[project].append(t)
        start = self._seq_cursor % len(order)
        rotation = order[start:] + order[:start]
        picks: list[Transition] = []
        depth = 0
        while len(picks) < k:
            advanced = False
            for p in rotation:
                if depth < len(per[p]):
                    picks.append(per[p][depth])
                    advanced = True
                    if len(picks) == k:
                        break
            if not advanced:  # fewer stored than requested: cycle again
                depth = -1
            depth += 1
        self._seq_cursor = (self._seq_cursor + k) % len(order)
        return picks

    def sample(self, batch_size: int) -> tuple[list[Transition], list[str]]:
        """Partition-tagged batch honoring the ratio quotas."""
        quotas = self._quotas(batch_size)
        batch: list[Transition] = []
        tags: list[str] = []
        if quotas["rare"]:
            batch.extend(self._sample_uniform(list(self.rare), quotas["rare"]))
            tags.extend(["rare"] * quotas["rare"])
        if quotas["rand"]:
            batch.extend(self._sample_uniform(self.rand, quotas["rand"]))
            tags.extend(["rand"] * quotas["rand"])
        if quotas["seq"]:
            batch.extend(self._sample_seq(quotas["seq"]))
            tags.extend(["seq"] * quotas["seq"])
        return batch, tags


def partition_weights(tags: list[str], mu: tuple[float, float, float]) -> np.ndarray:
    """Per-sample weights realizing sum_x mu_x * mean over sub-batch x,
    renormalized over the partitions actually present."""
    mu_map = dict(zip(PARTITIONS, mu))
    counts: dict[str, int] = {}
    for tag in tags:
        counts[tag] = counts.get(tag, 0) + 1
    present_mu = sum(mu_map[t] for t in counts)
    w = np.array([mu_map[t] / (counts[t] * present_mu) for t in tags])
    return w


@dataclass(eq=False)
class AgentStats:
    log: list = field(default_factory=list)  # rows: (epoch, step, loss, lr, mean_q)
    min_regularizer: float = np.inf

    def write_curve(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "step", "loss", "lr", "mean_q"])
            for row in self.log:
                writer.writerow([row[0], row[1], f"{row[2]:.6f}", f"{row[3]:.8f}", f"{row[4]:.6f}"])


def train_agent(train: InteractionDataset, table: EmbeddingTable, rep: RepresentativeTable,
                cfg: AgentConfig) -> tuple[QNetwork, AgentStats]:
    """Offline CQL training over transitions generated from historical usage.

    Each epoch makes a full pass over the training projects, generating
    fresh transitions, then runs gradient steps on partition-weighted
    replay batches with a cosine-annealed learning rate.
    """
    rng = np.random.default_rng(cfg.seed)
    pop = popularity(train)
    buf = ReplayBuffer(cfg.capacity, cfg.mu, pop, rng)
    net = QNetwork(table.dim, train.n_libraries, hidden=cfg.hidden, rng=rng)
    target = net.clone()
    opt = Adam(cfg.learning_rate)
    stats = AgentStats()

    eligible = np.flatnonzero(np.bincount(train.interactions[:, 0], minlength=train.n_projects) >= 2)
    if not len(eligible):
        raise DataError("no training project has >= 2 interactions")
    per_epoch_new = len(eligible) * cfg.transitions_per_project
    steps_per_epoch = cfg.grad_steps_per_epoch or max(1, 2 * int(np.ceil(per_epoch_new / cfg.batch_size)))
    total_steps = cfg.epochs * steps_per_epoch

    step = 0
    for epoch in range(cfg.epochs):
        for u in eligible:
            for _ in range(cfg.transitions_per_project):
                t = gen_transition(train.by_project[u], rep, table.libraries, rng)
                if t is not None:
                    buf.insert(t, project=u)
        for _ in range(steps_per_epoch):
            batch, tags = buf.sample(cfg.batch_size)
            w = partition_weights(tags, cfg.mu)
            loss, grads, reg = cql_loss(batch, net, target, cfg.alpha, cfg.gamma, w)
            stats.min_regularizer = min(stats.min_regularizer, float(reg.min()))
            if reg.min() < -1e-9:
                raise NumericError(f"CQL regularizer went negative: {reg.min()}")
            opt.lr = cosine_annealed_lr(cfg.learning_rate, step, total_steps)
            opt.step(net.params, grads)
            step += 1
            if step % cfg.target_sync == 0:
                target.load_params(net.params)
            if step % 10 == 0 or step == 1:
                mean_q = float(net.forward(np.stack([t.state for t in batch[:16]])).mean())
                stats.log.append((epoch, step, loss, opt.lr, mean_q))
    return net, stats


def recommend(query, k: int, net: QNetwork, rep: RepresentativeTable,
              mode: str = "sequential", with_scores: bool = False):
    """Top-k library recommendations for a query set of known libraries,
    or, given a list of such queries, one answer per query.

    A query is a set: a repeated library counts once. Sequential mode
    re-aggregates the known set after every pick; one-shot mode ranks all
    masked actions once. Query items and libraries without
    representatives are never recommended. With ``with_scores`` the
    result pairs each action with the Q-value it was picked at. A list of
    queries is answered in lockstep, one batched forward per step for
    each block of queries; the single query is the block of one.
    """
    items = list(query)
    single = not items or isinstance(items[0], numbers.Integral)
    queries = [list(dict.fromkeys(int(i) for i in q)) for q in ([items] if single else items)]
    if not queries or not all(queries):
        raise DataError("query set must be nonempty")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if mode not in MODES:
        raise DataError(f"unknown recommendation mode: {mode}")
    answers = []
    for start in range(0, len(queries), _BLOCK):
        answers.extend(_answer_block(queries[start:start + _BLOCK], k, net, rep, mode))
    if not with_scores:
        answers = [[a for a, _ in picks] for picks in answers]
    return answers[0] if single else answers


def _answer_block(queries: list[list[int]], k: int, net: QNetwork, rep: RepresentativeTable,
                  mode: str) -> list[list[tuple[int, float]]]:
    """(action, Q-value) picks for each of a block of distinct-item queries."""
    b = len(queries)
    count = np.array([len(q) for q in queries])
    rows = np.repeat(np.arange(b), count)
    cols = np.fromiter(chain.from_iterable(queries), dtype=np.int64, count=len(rows))
    missing = ~rep.has_rep[cols]
    if missing.any():
        query = queries[rows[np.argmax(missing)]]
        raise DataError(f"libraries without representatives: {[i for i in query if not rep.has_rep[i]][:5]}")
    allowed = np.repeat(rep.has_rep[None, :], b, axis=0)
    allowed[rows, cols] = False
    available = allowed.sum(axis=1)
    for n in available[available < k].tolist():
        warnings.warn(f"only {n} recommendable libraries for k={k}; truncating")
    take = np.minimum(available, k)
    # The state is total / count: `aggregate` divides this same row sum, and
    # NumPy sums axis 0 row by row (for d >= 2; one column is summed
    # pairwise), so adding each pick's row keeps every state bitwise equal
    # to aggregate(known).
    total = np.stack([rep.vectors[q].sum(axis=0) for q in queries])

    picks: list[list[tuple[int, float]]] = [[] for _ in range(b)]
    if mode == "one-shot":
        q = net.forward(total / count[:, None])
        for r in range(b):
            idx = np.flatnonzero(allowed[r])
            order = idx[np.lexsort((idx, -q[r, idx]))][:take[r]]
            picks[r] = list(zip(order.tolist(), q[r, order].tolist()))
        return picks
    live = np.arange(b)  # block rows still picking; the arrays below hold only theirs
    step = 0
    while True:
        keep = take[live] > step
        if not keep.all():
            live, total, count, allowed = live[keep], total[keep], count[keep], allowed[keep]
        if not live.size:
            return picks
        q = net.forward(total / count[:, None])
        actions = np.where(allowed, q, -np.inf).argmax(axis=1)  # first maximum: lowest index
        at = np.arange(len(live))
        for r, a, v in zip(live.tolist(), actions.tolist(), q[at, actions].tolist()):
            picks[r].append((a, v))
        allowed[at, actions] = False
        total += rep.vectors[actions]
        count += 1
        step += 1
