"""Offline RL recommender: transitions, dueling Q-network, conservative
Q-learning objective, and the popularity-aware partitioned replay buffer.
"""
from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import numpy as np

from .artifact import Artifact, read_artifact, write_csv
# `aggregate` is not called here; perfbench/layers.py wraps it under this module's name.
from .coldstart import RepresentativeTable, aggregate, segment_sums  # noqa: F401
from .data import RARE_THRESHOLD, InteractionDataset, PopularityTable, group_ranks, popularity
from .embed import EmbeddingTable
from .errors import DataError, NumericError
from .optim import Adam, both, cosine_annealed_lr

_MAGIC_Q = b"TPLQ"
_QNET_PARAMS = ("w1", "b1", "wv", "bv", "wa", "ba")

PARTITIONS = ("rare", "rand", "seq")
MODES = ("sequential", "one-shot")
# Queries per batched forward in `recommend`: bounds its B x M score and mask arrays.
_BLOCK = 128
# Rows per pass of `_exp_logsumexp`: bounds its mask of the row maxima.
_LSE_ROWS = 64


@dataclass(eq=False)
class Transition:
    """A batch of transitions as row-aligned arrays: (B, d) states and next
    states, B actions, B rewards and B terminal flags."""

    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    terminal: np.ndarray

    def arrays(self) -> tuple[np.ndarray, ...]:
        return self.state, self.action, self.reward, self.next_state, self.terminal

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, rows) -> "Transition":
        return Transition(*(a[rows] for a in self.arrays()))


# A partition before its first rows; never written in place, and never sampled.
_NO_ROWS = Transition(np.zeros((0, 0)), np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((0, 0)),
                      np.zeros(0, dtype=bool))


def _bad_ratios(mu) -> bool:
    """Partition ratios that are not each in [0, 1] with sum 1."""
    return not (all(0.0 <= x <= 1.0 for x in mu) and abs(sum(mu) - 1.0) <= 1e-9)


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
        # NaN fails every range check: a comparison with it is False
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if _bad_ratios(self.mu):
            raise ValueError(f"partition ratios must be in [0, 1] and sum to 1, got {self.mu}")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("epochs", "batch_size", "hidden", "target_sync", "capacity", "transitions_per_project"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("batch_size", "hidden", "transitions_per_project"):  # array sizes, bound as in EmbedConfig
            if getattr(self, name) > 2**31 - 1:
                raise ValueError(f"{name} must be at most 2**31 - 1, got {getattr(self, name)}")
        if self.grad_steps_per_epoch is not None and self.grad_steps_per_epoch < 1:  # None: derived
            raise ValueError(f"grad_steps_per_epoch must be >= 1, got {self.grad_steps_per_epoch}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class QNetwork:
    """One hidden ReLU layer with dueling value/advantage heads.

    Q(s, a) = V(s) + A(s, a) - mean_a' A(s, a'), computed over the full
    action catalog.
    """

    def __init__(self, state_dim: int, n_actions: int, hidden: int, rng=None):
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

    def _hidden(self, states: np.ndarray):
        """The (states, z, h) of a batch of states: pre-activations z and ReLU h.
        The network computes in its parameters' dtype: float32 when trained
        or loaded from an artifact, float64 as drawn by the constructor."""
        states = np.atleast_2d(states).astype(self.params["w1"].dtype, copy=False)
        z = states @ self.params["w1"].T + self.params["b1"]
        return states, z, np.maximum(z, 0.0)

    def streams(self, states: np.ndarray, out: np.ndarray | None = None):
        """Value and advantage heads for a batch of states; the advantages
        are written to `out` when given (a C-contiguous (B, M) array in
        the network's dtype), the same product as without it."""
        states, z, h = self._hidden(states)
        v = h @ self.params["wv"] + self.params["bv"][0]
        a = np.matmul(h, self.params["wa"].T, out=out)
        a += self.params["ba"]
        return v, a, (states, z, h)

    def q_at(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Q(s, a) for one action per state, from the dueling identity
        V(s) + h . wa[a] + ba[a] - (h . mean(wa) + mean(ba)): a gather of
        one advantage row per state in place of the whole advantage head.
        Equal to `forward(states)[rows, actions]` up to rounding."""
        _, _, h = self._hidden(states)
        wa, ba = self.params["wa"], self.params["ba"]
        v = h @ self.params["wv"] + self.params["bv"][0]
        chosen = np.einsum("bh,bh->b", h, wa[actions]) + ba[actions]
        return v + chosen - (h @ wa.mean(axis=0) + ba.mean())

    def forward(self, states: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        q, _ = _dueling(*self.streams(states, out))
        return q

    def forward_cached(self, states: np.ndarray):
        return _dueling(*self.streams(states))

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given d loss / d Q, which it overwrites.
        The two (B, M) products, `da.T @ h` and `da @ wa`, run side by side
        (`optim.both`)."""
        states, z, h = cache
        dv = dq.sum(axis=1)
        da = dq
        da -= (dv / dq.shape[1])[:, None]  # NumPy's mean is this sum over the count
        d_wa = np.empty(self.params["wa"].shape, np.result_type(da, h))  # filled on the helper
        _, dz = both(lambda: np.matmul(da.T, h, out=d_wa), lambda: da @ self.params["wa"])
        grads = {
            "wv": h.T @ dv,
            "bv": np.array([dv.sum()]),
            "wa": d_wa,
            "ba": da.sum(axis=0),
        }
        dz += np.outer(dv, self.params["wv"])
        dz *= z > 0.0
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


def _dueling(v: np.ndarray, q: np.ndarray, cache):
    """(Q, cache) from the heads, in place over the advantages `q`:
    bitwise equal to v + a - mean(a)."""
    mean = q.mean(axis=1, keepdims=True)
    q += v[:, None]
    q -= mean
    return q, cache


def _qnet_layout(d: int, h: int, m: int):
    return [((h, d), "<f4"), ((h,), "<f4"), ((h,), "<f4"), ((1,), "<f4"), ((m, h), "<f4"), ((m,), "<f4")]


def qnetwork_artifact(net: QNetwork) -> Artifact:
    """Artifact TPLQ with dims (state, hidden, actions): the parameter
    arrays w1, b1, wv, bv, wa, ba in that order as float32."""
    return Artifact.of(_MAGIC_Q, _qnet_layout, (net.state_dim, net.hidden, net.n_actions),
                       [net.params[name] for name in _QNET_PARAMS])


def save_qnetwork(path, net: QNetwork) -> None:
    """Write the artifact stamped with its own id."""
    qnetwork_artifact(net).write(path)


def load_qnetwork(path) -> QNetwork:
    """The network of an artifact, holding its float32 arrays: read-only
    views of the mapped file, so it scores in float32."""
    return QNetwork.from_params(dict(zip(_QNET_PARAMS, read_artifact(path, _MAGIC_Q, _qnet_layout))))


def reward(state: np.ndarray, action, lib_table: np.ndarray):
    """r = 1 + e_action . state, for one state or row by row for a batch;
    in [0, 2] for unit-norm source tables."""
    return 1.0 + (lib_table[action] * state).sum(axis=-1)


def gen_transition(train: InteractionDataset, projects, copies: int, rep: RepresentativeTable,
                   lib_table: np.ndarray, rng) -> tuple[Transition, np.ndarray]:
    """One epoch's transitions from historical library usage: `copies` rows
    for each of `projects` with at least two interactions, in that order,
    and each row's project.

    A row's state aggregates a nonempty proper subset of its project's
    libraries, of a size k uniform in 1..n-1, and its action is a uniform
    pick from the rest: random keys sorted inside the row's segment of
    library indices give a uniform permutation whose first k entries are
    the subset and whose entry k is the action.
    """
    count = np.bincount(train.interactions[:, 0], minlength=train.n_projects)
    projects = np.asarray(projects, dtype=np.int64)
    owner = np.repeat(projects[count[projects] >= 2], copies)
    n = count[owner]
    k = rng.integers(1, n)
    start = np.cumsum(n) - n  # each row's first entry
    row = np.repeat(np.arange(len(owner)), n)
    pos = np.arange(len(row)) - start[row]
    libraries = np.concatenate(train.by_project)[(np.cumsum(count) - count)[owner][row] + pos]
    perm = libraries[np.lexsort((rng.random(len(row)), row))]
    known = pos < k[row]
    action = perm[start + k]
    total = segment_sums(row[known], perm[known], len(owner), rep)
    state = total / k[:, None]
    next_state = (total + rep.vectors[action]) / (k + 1)[:, None]
    return Transition(state, action, reward(state, action, lib_table), next_state, k + 1 == n), owner


def _q_targets(batch: Transition, online: QNetwork, target: QNetwork, gamma: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """Bellman targets; the online network's next-state scores go to `out` when given."""
    if batch.terminal.all() or gamma == 0.0:
        return batch.reward
    # Double DQN: the online network's argmax needs every action, the target's value only a*.
    a_star = np.argmax(online.forward(batch.next_state, out=out), axis=1)
    q_next = target.q_at(batch.next_state, a_star).astype(np.float64, copy=False)
    return batch.reward + gamma * q_next * (~batch.terminal)


def _exp_logsumexp(q: np.ndarray) -> np.ndarray:
    """Each row's logsumexp, bitwise `scipy.special.logsumexp(q, axis=1)`,
    overwriting q with exp(q - row max): one exponential pass.

    SciPy sums the exponentials without the row's m maxima and returns
    log1p(s / m) + log(m) + max, with m counted in q's dtype; here the
    maxima's exp(0) == 1 entries are set to 0 for that sum and back to 1
    after it. Every step is per row, so it runs over `_LSE_ROWS` rows at
    a time, which bounds the mask of the maxima.
    """
    return np.concatenate([_exp_logsumexp_rows(q[r:r + _LSE_ROWS]) for r in range(0, len(q), _LSE_ROWS)])


def _exp_logsumexp_rows(q: np.ndarray) -> np.ndarray:
    top = q.max(axis=1)
    # A row holding inf or NaN gives a non-finite result, which `cql_loss` rejects.
    with np.errstate(divide="ignore", invalid="ignore"):
        q -= top[:, None]
        maxima = q == 0.0
        np.exp(q, out=q)
        np.copyto(q, 0.0, where=maxima)
        s = q.sum(axis=1)
        np.copyto(q, 1.0, where=maxima)
        m = np.count_nonzero(maxima, axis=1).astype(q.dtype)
        return np.log1p(s / m) + np.log(m) + top


def cql_loss(batch: Transition, online: QNetwork, target: QNetwork, alpha: float, gamma: float,
             weights: np.ndarray | None = None):
    """Conservative Q-learning loss with analytic gradients.

    loss = alpha * E[logsumexp_a Q(s,a)] - alpha * E[Q(s,a_t)]
         + 0.5 * E[(y - Q(s,a_t))^2]

    ``weights`` are per-sample weights summing to 1 (uniform when None);
    they realize the partition-weighted objective. Returns
    (loss, grads, regularizer per sample).

    The (B, M) arrays Q and d loss / d Q and the gradients are in the
    network's dtype; the weights, targets, regularizer and loss are
    float64, each cast written out where the two meet.

    The targets (the next-state forward and the target network's value)
    are computed on the helper thread of `optim.both`, beside the
    current-state forward and its logsumexp.
    """
    b = len(batch)
    if not b:
        raise DataError("cql_loss requires a nonempty batch")
    w = np.full(b, 1.0 / b) if weights is None else np.asarray(weights, dtype=np.float64)
    rows = np.arange(b)

    def scores():
        q, cache = online.forward_cached(batch.state)
        q_a = q[rows, batch.action].astype(np.float64, copy=False)
        return q, cache, q_a, _exp_logsumexp(q)  # q holds exp(q - max) from here

    next_q = np.empty((b, online.n_actions), online.params["wa"].dtype)  # filled on the helper
    y, (q, cache, q_a, lse) = both(lambda: _q_targets(batch, online, target, gamma, next_q), scores)
    del next_q  # only its argmax was needed
    reg = lse.astype(np.float64, copy=False) - q_a
    bellman = (y - q_a) ** 2
    loss = float(w @ (alpha * reg + 0.5 * bellman))
    if not np.isfinite(loss):
        raise NumericError("CQL loss is non-finite")

    # d loss / d Q: alpha * w * softmax(q), less the one-hot term. scipy's
    # softmax is exp(q - max) / its sum, so this is bitwise the same.
    dq = q
    dq /= dq.sum(axis=1, keepdims=True)
    dq *= (alpha * w).astype(dq.dtype, copy=False)[:, None]
    one_hot_scale = w * (alpha + (y - q_a))
    dq[rows, batch.action] -= one_hot_scale.astype(dq.dtype, copy=False)
    grads = online.backward(cache, dq)
    return loss, grads, reg


class ReplayBuffer:
    """Three-partition transition store with popularity-aware admission.

    Each partition is a `Transition` batch that grows with its contents.
    The rare partition admits only transitions whose action popularity
    rate is below the rare threshold and keeps the newest. Every
    transition is eligible for the random partition, kept as a uniform
    reservoir sample. Fresh transitions also enter the sequential
    partition, which keeps the newest and their projects, and is sampled
    with a Round-Robin cursor over projects, freshest first.
    """

    def __init__(self, capacity: int, mu: tuple[float, float, float],
                 pop: PopularityTable, rng=None):
        if _bad_ratios(mu):
            raise DataError(f"partition ratios must be in [0, 1] and sum to 1, got {mu}")
        self.mu = tuple(mu)
        self.pop = pop
        self.rng = np.random.default_rng(rng)
        self._cap = {name: max(1, int(x * capacity)) if x > 0 else 0 for name, x in zip(PARTITIONS, mu)}
        self.rare = self.rand = self.seq = _NO_ROWS
        self._rand_seen = 0
        self.seq_projects = np.zeros(0, dtype=np.int64)
        # Per `seq` row: its depth in its project's rows, newest first, and its
        # project's rank among the projects by latest insert; and their count.
        self._seq_index = (self.seq_projects, self.seq_projects, 0)
        self._seq_cursor = 0

    def insert(self, t: Transition, project=0) -> None:
        """Add a batch; `project` is each row's project, or one for every row."""
        if self._cap["rare"]:
            rare = np.flatnonzero(self.pop.rates[t.action] < RARE_THRESHOLD)
            self.rare = _keep_last(self.rare, t, rare, self._cap["rare"])
        cap = self._cap["rand"]
        if cap:
            # Algorithm R over the batch: row j (of s seen) takes a uniform slot
            # below s if that slot is below cap; a later row's write wins.
            fill = min(max(cap - self._rand_seen, 0), len(t))
            self.rand = _keep_last(self.rand, t, np.arange(fill), cap)
            slot = self.rng.integers(self._rand_seen + np.arange(fill + 1, len(t) + 1))
            hit = np.flatnonzero(slot < cap)[::-1]
            slots, latest = np.unique(slot[hit], return_index=True)
            for part, new in zip(self.rand.arrays(), t[fill + hit[latest]].arrays()):
                part[slots] = new
            self._rand_seen += len(t)
        cap = self._cap["seq"]
        if cap:
            self.seq = _keep_last(self.seq, t, np.arange(len(t)), cap)
            self.seq_projects = np.concatenate([self.seq_projects, np.broadcast_to(project, len(t))])[-cap:]
            newest = self.seq_projects[::-1]
            _, first, which = np.unique(newest, return_index=True, return_inverse=True)
            depth = group_ranks(which, np.arange(len(which)))
            self._seq_index = depth[::-1], np.argsort(np.argsort(first))[which][::-1], len(first)

    def _quotas(self, batch_size: int) -> dict[str, int]:
        rare = int(np.floor(self.mu[0] * batch_size + 0.5))
        # rounded apart, the two can exceed the batch (mu (0.5, 0, 0.5), batch 5: 3 + 3)
        seq = min(int(np.floor(self.mu[2] * batch_size + 0.5)), batch_size - rare)
        q = {"rare": rare, "seq": seq, "rand": batch_size - rare - seq}
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

    def _sample_seq(self, k: int) -> np.ndarray:
        """`k` rows of `seq`: Round-Robin over projects, newest project first
        from the cursor, each project's rows newest first, cycled when fewer
        rows are stored than requested."""
        depth, rank, p = self._seq_index
        order = np.argsort(depth * p + (rank - self._seq_cursor) % p)
        self._seq_cursor = (self._seq_cursor + k) % p
        return np.resize(order, k)

    def sample(self, batch_size: int) -> tuple[Transition, list[str]]:
        """Partition-tagged batch honoring the ratio quotas, in new arrays;
        `_quotas` gives an empty partition no rows to draw."""
        quotas = self._quotas(batch_size)
        parts = []
        for name in PARTITIONS:
            k, pool = quotas[name], getattr(self, name)
            if k and name == "seq":
                parts.append(pool[self._sample_seq(k)])
            elif k:
                parts.append(pool[self.rng.choice(len(pool), size=k, replace=len(pool) < k)])
        tags = np.repeat(PARTITIONS, [quotas[name] for name in PARTITIONS]).tolist()
        return Transition(*map(np.concatenate, zip(*(part.arrays() for part in parts)))), tags


def _keep_last(old: Transition, t: Transition, rows: np.ndarray, cap: int) -> Transition:
    """The last `cap` of `old`'s rows followed by `t[rows]`, in new arrays
    that hold each kept row once (`old` itself when `rows` is empty)."""
    if not len(rows):
        return old
    rows = rows[max(len(rows) - cap, 0):]
    kept = min(len(old), cap - len(rows))
    arrays = []
    for part, new in zip(old.arrays(), t.arrays()):
        out = np.empty((kept + len(rows),) + new.shape[1:], np.result_type(part, new) if kept else new.dtype)
        if kept:  # `_NO_ROWS` has no columns to copy
            out[:kept] = part[len(part) - kept:]
        np.take(new, rows, axis=0, out=out[kept:], mode="clip")  # "raise" would buffer `out`
        arrays.append(out)
    return Transition(*arrays)


def partition_weights(tags: list[str], mu: tuple[float, float, float]) -> np.ndarray:
    """Per-sample weights realizing sum_x mu_x * mean over sub-batch x,
    renormalized over the partitions actually present."""
    code = np.argmax(np.asarray(tags)[:, None] == np.array(PARTITIONS), axis=1)
    counts = np.bincount(code, minlength=len(PARTITIONS))
    mu = np.asarray(mu, dtype=np.float64)
    return mu[code] / (counts[code] * mu[counts > 0].sum())


@dataclass(eq=False)
class AgentStats:
    log: list = field(default_factory=list)  # rows: (epoch, step, loss, lr, mean_q)
    min_regularizer: float = np.inf

    def write_curve(self, path) -> bytes:
        """Write the log as CSV and return the bytes written."""
        return write_csv(path, [["epoch", "step", "loss", "lr", "mean_q"]] + [
            [row[0], row[1], f"{row[2]:.6f}", f"{row[3]:.8f}", f"{row[4]:.6f}"] for row in self.log])


def train_agent(train: InteractionDataset, table: EmbeddingTable, rep: RepresentativeTable,
                cfg: AgentConfig) -> tuple[QNetwork, AgentStats]:
    """Offline CQL training over transitions generated from historical usage.

    Each epoch generates fresh transitions for every training project in
    one batch, then runs gradient steps on partition-weighted replay
    batches with a cosine-annealed learning rate. The network, its target
    copy and Adam's moments are float32.
    """
    rng = np.random.default_rng(cfg.seed)
    pop = popularity(train)
    buf = ReplayBuffer(cfg.capacity, cfg.mu, pop, rng)
    net = QNetwork(table.dim, train.n_libraries, hidden=cfg.hidden, rng=rng)
    # Trained in float32, the precision it is stored and served in; the draws stay float64.
    net.params = {name: p.astype(np.float32) for name, p in net.params.items()}
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
        buf.insert(*gen_transition(train, eligible, cfg.transitions_per_project, rep, table.libraries, rng))
        for _ in range(steps_per_epoch):
            batch, tags = buf.sample(cfg.batch_size)
            w = partition_weights(tags, cfg.mu)
            loss, grads, reg = cql_loss(batch, net, target, cfg.alpha, cfg.gamma, w)
            stats.min_regularizer = min(stats.min_regularizer, float(reg.min()))
            if reg.min() < -1e-9:
                raise NumericError(f"CQL regularizer went negative: {reg.min()}")
            opt.lr = cosine_annealed_lr(cfg.learning_rate, step, total_steps)
            opt.step(net.params, grads)
            del grads  # parameter-sized: not held through the next step's forwards
            step += 1
            if step % cfg.target_sync == 0:
                target = net.clone()
            if step % 10 == 0 or step == 1:
                mean_q = float(net.forward(batch.state[:16]).mean())
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
    queries is answered in lockstep, one batched forward per step (in
    one-shot mode, the first step only) for each block of queries; the
    single query is the block of one. When there are several blocks, the
    helper thread of `optim.both` answers the last ones, about half of
    the queries, while the caller answers the rest.
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

    def answer(part, scratch):
        return [picks for start in range(0, len(part), _BLOCK)
                for picks in _answer_block(part[start:start + _BLOCK], k, net, rep, mode, *scratch)]

    def scratch(part):  # made by the caller for either half, so it comes from the caller's heap
        shape = (min(len(part), _BLOCK), len(rep.has_rep))
        return np.empty(shape, net.params["wa"].dtype), np.empty(shape, dtype=bool)

    split = max(1, round(len(queries) / (2 * _BLOCK))) * _BLOCK
    head, tail = queries[:split], queries[split:]
    if tail:
        later, answers = both(partial(answer, tail, scratch(tail)), partial(answer, head, scratch(head)))
        answers += later
    else:
        answers = answer(head, scratch(head))
    for picks in answers:  # here, so that they come from the caller in query order
        if len(picks) < k:
            warnings.warn(f"only {len(picks)} recommendable libraries for k={k}; truncating")
    if not with_scores:
        answers = [[a for a, _ in picks] for picks in answers]
    return answers[0] if single else answers


def _answer_block(queries: list[list[int]], k: int, net: QNetwork, rep: RepresentativeTable,
                  mode: str, scores: np.ndarray, blocked: np.ndarray) -> list[list[tuple[int, float]]]:
    """(action, Q-value) picks for each of a block of distinct-item queries.
    `scores` and `blocked` are (B, M) scratch arrays of at least its rows:
    the forward writes into the first, the second masks what a row may not pick."""
    b = len(queries)
    count = np.array([len(q) for q in queries])
    rows = np.repeat(np.arange(b), count)
    cols = np.fromiter(chain.from_iterable(queries), dtype=np.int64, count=len(rows))
    # The state is total / count, as in `aggregate`; adding each pick's row
    # keeps every state bitwise equal to aggregate(known).
    total = segment_sums(rows, cols, b, rep)
    blocked = blocked[:b]
    np.copyto(blocked, ~rep.has_rep)
    blocked[rows, cols] = True
    available = len(rep.has_rep) - np.count_nonzero(blocked, axis=1)  # below k, the answer truncates
    take = np.minimum(available, min(k, len(rep.has_rep)))  # k may exceed int64

    picks: list[list[tuple[int, float]]] = [[] for _ in range(b)]
    live = at = np.arange(b)  # block rows still picking; the arrays below hold only theirs
    q = scores[:b]  # scored at the first step; one-shot picks from these scores alone
    finish = set(take.tolist())  # the steps at which some rows have all their picks
    for step in range(int(take.max())):
        if step in finish:
            keep = take[live] > step
            live, total, count, blocked, q = live[keep], total[keep], count[keep], blocked[keep], q[keep]
            at = np.arange(len(live))
        if mode == "sequential" or not step:
            q = net.forward(total / count[:, None], out=scores[:len(live)])
            np.copyto(q, -np.inf, where=blocked)  # every pick is allowed, so its Q-value stays
        actions = q.argmax(axis=1)  # first maximum: lowest index
        for r, a, v in zip(live.tolist(), actions.tolist(), q[at, actions].tolist()):
            picks[r].append((a, v))
        if mode == "sequential":  # the next step scores the grown sets afresh
            blocked[at, actions] = True
            total += rep.vectors[actions]
            count += 1
        else:  # one-shot keeps picking from the first step's scores
            q[at, actions] = -np.inf
    return picks
