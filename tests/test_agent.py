import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as spstats
from scipy.special import logsumexp

from tplrec import agent
from tplrec.agent import (
    AgentConfig,
    QNetwork,
    ReplayBuffer,
    Transition,
    cql_loss,
    gen_transition,
    load_qnetwork,
    partition_weights,
    recommend,
    reward,
    save_qnetwork,
    _exp_logsumexp,
    _q_targets,
    train_agent,
)
from tplrec.coldstart import RepresentativeTable, aggregate, build_representatives
from tplrec.data import ingest, popularity
from tplrec.embed import EmbeddingTable
from tplrec.errors import DataError

from oracles import (cql_loss_expr, q_backward, q_forward_cached, recommend_loop, reward_expanded,
                     sample_seq_rebuild)


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_row(rng, d, m, terminal=False):
    """One (state, action, reward, next_state, terminal) row."""
    return rng.normal(size=d), int(rng.integers(m)), float(rng.uniform(0, 2)), rng.normal(size=d), terminal


def stack(rows):
    """The Transition batch of the given rows, in order."""
    return Transition(*map(np.array, zip(*rows)))


class TestQNetwork:
    def test_dueling_mean_equals_value(self):
        # subtracting the advantage mean makes mean_a Q(s, a) == V(s)
        rng = np.random.default_rng(0)
        net = QNetwork(4, 7, hidden=16, rng=1)
        states = rng.normal(size=(5, 4))
        v, _, _ = net.streams(states)
        q = net.forward(states)
        assert np.allclose(q.mean(axis=1), v, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = QNetwork(3, 5, hidden=8, rng=3)
        states = rng.normal(size=(4, 3))
        coef = rng.normal(size=(4, 5))  # loss = sum(coef * Q)

        q, cache = net.forward_cached(states)
        grads = net.backward(cache, coef.copy())  # backward overwrites its d loss / d Q
        eps = 1e-6
        for name, p in net.params.items():
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                p[ix] += eps
                lp = float((coef * net.forward(states)).sum())
                p[ix] -= 2 * eps
                lm = float((coef * net.forward(states)).sum())
                p[ix] += eps
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - grads[name][ix]) / max(1e-6, abs(fd) + abs(grads[name][ix])) < 1e-4

    def test_clone_is_independent(self):
        net = QNetwork(3, 4, hidden=8, rng=0)
        twin = net.clone()
        twin.params["w1"][0, 0] += 1.0
        assert net.params["w1"][0, 0] != twin.params["w1"][0, 0]


class TestInPlaceKernels:
    """The forward, backward and CQL step work in place over their own
    arrays; each must be bitwise the fresh-array expression of
    tests/oracles.py."""

    def make_net(self, rng, d, m, hidden):
        net = QNetwork(d, m, hidden=hidden, rng=rng)
        for name in ("b1", "bv", "ba"):
            net.params[name][...] = rng.normal(size=net.params[name].shape)
        return net

    @given(seed=st.integers(0, 10_000), b=st.integers(1, 6), d=st.integers(1, 5), m=st.integers(1, 9),
           hidden=st.integers(1, 8), scale=st.sampled_from([1.0, 40.0]))
    @settings(max_examples=60, deadline=None)
    def test_forward_backward_equal_oracle(self, seed, b, d, m, hidden, scale):
        rng = np.random.default_rng(seed)
        net = self.make_net(rng, d, m, hidden)
        states = scale * rng.normal(size=(b, d))
        q, cache = net.forward_cached(states)
        q_expected, cache_expected = q_forward_cached(net, states)
        assert np.array_equal(q, q_expected)
        dq = rng.normal(size=(b, m))
        expected = q_backward(net, cache_expected, dq)
        grads = net.backward(cache, dq.copy())
        assert grads.keys() == expected.keys()
        assert all(np.array_equal(grads[k], expected[k]) for k in expected)

    @given(seed=st.integers(0, 10_000), b=st.integers(1, 6), d=st.integers(1, 5), m=st.integers(1, 9),
           hidden=st.integers(1, 8), scale=st.sampled_from([1.0, 40.0]), alpha=st.sampled_from([0.0, 0.5, 5.5]),
           gamma=st.sampled_from([0.0, 0.9]), weighted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_cql_loss_equals_oracle(self, seed, b, d, m, hidden, scale, alpha, gamma, weighted):
        rng = np.random.default_rng(seed)
        net, target = self.make_net(rng, d, m, hidden), self.make_net(rng, d, m, hidden)
        batch = stack([make_row(rng, d, m, terminal=bool(rng.integers(2))) for _ in range(b)])
        batch.state *= scale
        w = rng.random(b) if weighted else None
        if weighted:
            w /= w.sum()
        loss, grads, reg = cql_loss(batch, net, target, alpha, gamma, w)
        loss_expected, expected, reg_expected = cql_loss_expr(batch, net, target, alpha, gamma, w)
        assert loss == loss_expected
        assert np.array_equal(reg, reg_expected)
        assert grads.keys() == expected.keys()
        assert all(np.array_equal(grads[k], expected[k]) for k in expected)

    @given(rows=st.lists(st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, 1.0, -800.0])),
                                  min_size=7, max_size=7), min_size=1, max_size=6),
           m=st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    @example(rows=[[2.0, 2.0, -1.0, 2.0, 0.5, 0.0, 2.0]], m=7)  # tied maxima
    @example(rows=[[0.25] * 7, [-0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0]], m=7)  # all equal
    @example(rows=[[0.0, -800.0, -745.2, -1e3, -800.0, -1e3, -760.0]], m=7)  # the rest underflows to 0
    @example(rows=[[0.0, -90.0, -103.0, -1e3, -88.0, -1e3, -95.0]], m=7)  # float32 underflows here
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_logsumexp_equals_scipy(self, dtype, rows, m):
        q = np.array(rows, dtype=dtype)[:, :m]
        expected = logsumexp(q, axis=1)
        e = q.copy()
        got = _exp_logsumexp(e)
        assert got.tobytes() == expected.tobytes()
        assert e.tobytes() == np.exp(q - q.max(axis=1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [1, agent._LSE_ROWS - 1, agent._LSE_ROWS, agent._LSE_ROWS + 1,
                                   3 * agent._LSE_ROWS + 5])
    def test_logsumexp_in_row_passes_equals_scipy(self, dtype, b):
        # wide rows, so the row sums are pairwise sums over several blocks
        rng = np.random.default_rng(b)
        q = (rng.normal(size=(b, 1000)) * 30.0).astype(dtype)
        q[::3, 7] = q[::3].max(axis=1)  # tied maxima in some rows
        expected = logsumexp(q, axis=1)
        e = q.copy()
        assert _exp_logsumexp(e).tobytes() == expected.tobytes()
        assert e.tobytes() == np.exp(q - q.max(axis=1, keepdims=True)).tobytes()


class TestReward:
    def test_hand_case(self):
        lib = np.array([[0.6, 0.8]])
        assert reward(np.array([0.6, 0.8]), 0, lib) == pytest.approx(2.0)
        assert reward(np.array([-0.6, -0.8]), 0, lib) == pytest.approx(0.0)

    def test_bounded_for_unit_inputs(self):
        rng = np.random.default_rng(4)
        lib = unit_rows(rng, 10, 6)
        for _ in range(2000):
            s = unit_rows(rng, 1, 6)[0]
            r = reward(s, int(rng.integers(10)), lib)
            assert 0.0 <= r <= 2.0

    def test_expanded_form_identity(self):
        rng = np.random.default_rng(5)
        lines = []
        for u in range(8):
            for i in rng.choice(6, size=rng.integers(2, 6), replace=False):
                lines.append(f"p{u}\tl{i}")
        ds = ingest(lines)
        table = EmbeddingTable(unit_rows(rng, ds.n_projects, 4), unit_rows(rng, ds.n_libraries, 4))
        rep = build_representatives(table, ds, 0.5)
        for _ in range(200):
            known = rng.choice(ds.n_libraries, size=rng.integers(1, 4), replace=False).tolist()
            action = int(rng.integers(ds.n_libraries))
            direct = reward(aggregate(known, rep), action, table.libraries)
            expanded = reward_expanded(action, known, table, ds, 0.5)
            assert direct == pytest.approx(expanded, abs=1e-9)


class TestGenTransition:
    def setup_method(self):
        rng = np.random.default_rng(6)
        # p0-p4 use all five libraries, p5 uses l0 and l1, p6 only l3
        lines = [f"p{u}\tl{i}" for u in range(5) for i in range(5)] + ["p5\tl0", "p5\tl1", "p6\tl3"]
        self.ds = ingest(lines)
        self.table = EmbeddingTable(unit_rows(rng, 7, 3), unit_rows(rng, 5, 3))
        self.rep = build_representatives(self.table, self.ds, 0.5)

    def gen(self, projects, copies, rng):
        return gen_transition(self.ds, projects, copies, self.rep, self.table.libraries, rng)

    def test_action_outside_subset(self):
        rng = np.random.default_rng(7)
        items = list(range(5))
        t, _ = self.gen([0], 100, rng)
        assert len(t) == 100
        assert set(t.action.tolist()) <= set(items)
        # next state is the known set plus the action; verify via reward identity
        assert np.all((0.0 <= t.reward) & (t.reward <= 2.0))

    def test_terminal_iff_covers_all(self):
        rng = np.random.default_rng(8)
        t, _ = self.gen([5], 20, rng)
        # with two items the subset has one, the action is the other: always terminal
        assert len(t) == 20 and t.terminal.all()

    def test_too_small_yields_no_rows(self):
        rng = np.random.default_rng(9)
        t, owner = self.gen([6], 3, rng)
        assert len(t) == 0 and len(owner) == 0

    def test_library_without_representative_rejected(self):
        rep = RepresentativeTable(self.rep.vectors, 0.5, np.array([True, True, True, False, True]))
        with pytest.raises(DataError, match=r"without representatives: \[3\]"):
            gen_transition(self.ds, [0], 2, rep, self.table.libraries, np.random.default_rng(0))

    def test_rows_are_aggregates_of_their_subsets(self):
        # every row: a nonempty proper subset S of its project's libraries and
        # an action outside it, with state aggregate(S), next state
        # aggregate(S + action), reward(state, action), terminal iff |S| + 1 = n
        rng = np.random.default_rng(11)
        t, owner = self.gen(np.arange(7)[::-1], 6, rng)
        assert owner.tolist() == [u for u in range(5, -1, -1) for _ in range(6)]
        for r, u in enumerate(owner.tolist()):
            items = self.ds.by_project[u].tolist()
            a = int(t.action[r])
            found = [s for k in range(1, len(items)) for s in combinations(items, k) if a not in s
                     and np.abs(aggregate(s, self.rep) - t.state[r]).max() <= 1e-12
                     and np.abs(aggregate(s + (a,), self.rep) - t.next_state[r]).max() <= 1e-12]
            assert len(found) == 1
            assert bool(t.terminal[r]) == (len(found[0]) + 1 == len(items))
            assert t.reward[r] == reward(t.state[r], a, self.table.libraries)

    def test_all_subset_size_action_pairs_reachable(self):
        rng = np.random.default_rng(10)
        items = list(range(5))
        # identify the sampled subset by matching the state against the
        # aggregate of every proper nonempty subset
        lookup = {}
        for k in range(1, 5):
            for combo in combinations(items, k):
                key = tuple(np.round(aggregate(list(combo), self.rep), 9))
                lookup[key] = k
        combos = set()
        t, _ = self.gen([0], 10_000, rng)
        for state, action in zip(t.state, t.action.tolist()):
            combos.add((lookup[tuple(np.round(state, 9))], action))
        assert combos == {(k, a) for k in range(1, 5) for a in items}


class TestQTarget:
    def test_terminal_is_reward(self):
        net = QNetwork(3, 4, hidden=8, rng=0)
        t = stack([(np.zeros(3), 1, 1.7, np.zeros(3), True)])
        assert _q_targets(t, net, net.clone(), 0.9)[0] == pytest.approx(1.7)

    def test_double_dqn_uses_target_values(self):
        # online picks the argmax action, target supplies its value
        online = QNetwork(2, 3, hidden=4, rng=1)
        target = QNetwork(2, 3, hidden=4, rng=2)
        s_next = np.array([0.3, -0.2])
        t = stack([(np.ones(2), 0, 1.0, s_next, False)])
        a_star = int(np.argmax(online.forward(s_next)[0]))
        want = 1.0 + 0.9 * float(target.forward(s_next)[0, a_star])
        assert _q_targets(t, online, target, 0.9)[0] == pytest.approx(want)

    def test_gamma_zero_is_reward(self):
        online = QNetwork(2, 3, hidden=4, rng=3)
        t = stack([(np.ones(2), 0, 0.8, np.ones(2), False)])
        assert _q_targets(t, online, online.clone(), 0.0)[0] == pytest.approx(0.8)

    def test_gamma_one_hand_value(self):
        # r=1 and the online-argmax action has target value 0.5 -> y = 1.5
        online = QNetwork(2, 3, hidden=4, rng=4)
        target = online.clone()
        s_next = np.array([0.7, -0.4])
        a_star = int(np.argmax(online.forward(s_next)[0]))
        shift = 0.5 - float(target.forward(s_next)[0, a_star])
        target.params["bv"][0] += shift  # move V so Q(s', a*) is exactly 0.5
        t = stack([(np.ones(2), 0, 1.0, s_next, False)])
        assert _q_targets(t, online, target, 1.0)[0] == pytest.approx(1.5)


class TestQAt:
    @given(seed=st.integers(0, 10_000), b=st.integers(1, 6), d=st.integers(1, 5), m=st.integers(1, 9),
           hidden=st.integers(1, 8), scale=st.sampled_from([1.0, 40.0]))
    @settings(max_examples=60, deadline=None)
    @example(seed=0, b=3, d=2, m=5, hidden=1, scale=1.0)
    @example(seed=1, b=3, d=2, m=1, hidden=4, scale=40.0)
    def test_q_at_matches_forward(self, seed, b, d, m, hidden, scale):
        # the dueling identity at one action per row, to 1e-12 of the streams' size
        rng = np.random.default_rng(seed)
        net = QNetwork(d, m, hidden=hidden, rng=rng)
        for name in ("b1", "bv", "ba"):
            net.params[name][...] = rng.normal(size=net.params[name].shape)
        states = scale * rng.normal(size=(b, d))
        actions = rng.integers(m, size=b)
        v, a, _ = net.streams(states)
        size = np.abs(v) + np.abs(a).max(axis=1)
        want = net.forward(states)[np.arange(b), actions]
        assert np.all(np.abs(net.q_at(states, actions) - want) <= 1e-12 * size)


class TestCQLLoss:
    def make_batch(self, rng, b, d, m):
        return stack([make_row(rng, d, m, terminal=bool(rng.integers(2))) for _ in range(b)])

    def test_alpha_zero_is_pure_bellman(self):
        rng = np.random.default_rng(10)
        net = QNetwork(3, 5, hidden=8, rng=11)
        target = net.clone()
        batch = self.make_batch(rng, 6, 3, 5)
        loss, _, reg = cql_loss(batch, net, target, 0.0, 0.9)
        q = net.forward(batch.state)
        q_a = q[np.arange(6), batch.action]
        y = _q_targets(batch, net, target, 0.9)
        assert loss == pytest.approx(float(np.mean(0.5 * (y - q_a) ** 2)))
        assert np.all(reg >= -1e-12)

    def test_constant_q_regularizer_is_log_m(self):
        # when all Q values are equal, logsumexp - Q(a) == ln(n_actions)
        net = QNetwork(3, 7, hidden=8, rng=12)
        for p in net.params.values():
            p[...] = 0.0
        batch = stack([(np.ones(3), 2, 1.0, np.ones(3), True)])
        _, _, reg = cql_loss(batch, net, net.clone(), 5.5, 0.9)
        assert reg[0] == pytest.approx(math.log(7), abs=1e-12)

    def test_regularizer_nonnegative(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            net = QNetwork(4, 6, hidden=8, rng=seed)
            batch = self.make_batch(rng, 8, 4, 6)
            _, _, reg = cql_loss(batch, net, net.clone(), 5.5, 0.9)
            assert np.all(reg >= 0.0)  # logsumexp >= max >= any entry

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        net = QNetwork(3, 5, hidden=16, rng=15)
        target = QNetwork(3, 5, hidden=16, rng=16)
        batch = self.make_batch(rng, 6, 3, 5)
        w = rng.random(6)
        w /= w.sum()
        _, grads, _ = cql_loss(batch, net, target, 5.5, 0.9, w)
        eps = 1e-6
        checked = 0
        for name, p in net.params.items():
            flat = p.reshape(-1)
            for j in rng.choice(flat.size, size=min(35, flat.size), replace=False):
                flat[j] += eps
                lp, *_ = cql_loss(batch, net, target, 5.5, 0.9, w)
                flat[j] -= 2 * eps
                lm, *_ = cql_loss(batch, net, target, 5.5, 0.9, w)
                flat[j] += eps
                fd = (lp - lm) / (2 * eps)
                g = grads[name].reshape(-1)[j]
                assert abs(fd - g) / max(1e-6, abs(fd) + abs(g)) < 1e-4
                checked += 1
        assert checked >= 100

    def float32_pair(self, seed=17, b=32, d=6, m=40):
        """A float64 online/target pair, their float32 copies and a batch."""
        rng = np.random.default_rng(seed)
        nets = QNetwork(d, m, hidden=24, rng=rng), QNetwork(d, m, hidden=24, rng=rng)
        narrow = [QNetwork.from_params({k: v.astype(np.float32) for k, v in n.params.items()}) for n in nets]
        w = rng.random(b)
        return nets, narrow, self.make_batch(rng, b, d, m), w / w.sum()

    def test_float32_network_keeps_its_arrays_float32(self):
        _, (online, target), batch, w = self.float32_pair()
        seen = {}

        def forward_cached(states):
            seen["q"], cache = QNetwork.forward_cached(online, states)
            return seen["q"], cache

        def backward(cache, dq):
            seen["dq"] = dq
            return QNetwork.backward(online, cache, dq)

        online.forward_cached, online.backward = forward_cached, backward
        loss, grads, reg = cql_loss(batch, online, target, 5.5, 0.9, w)
        assert seen["q"].dtype == seen["dq"].dtype == np.float32
        assert seen["dq"].shape == (len(batch), online.n_actions)
        assert all(g.dtype == np.float32 for g in grads.values())
        assert isinstance(loss, float) and reg.dtype == np.float64

    def test_float32_gradients_within_float32_rounding(self):
        (online, target), (online32, target32), batch, w = self.float32_pair()
        loss, want, reg = cql_loss(batch, online, target, 5.5, 0.9, w)
        loss32, got, reg32 = cql_loss(batch, online32, target32, 5.5, 0.9, w)
        assert loss32 == pytest.approx(loss, rel=1e-5)
        assert np.allclose(reg32, reg, rtol=1e-4, atol=0.0)
        for name, g in want.items():
            assert np.abs(got[name] - g).max() <= 1e-4 * np.abs(g).max(), name

    def test_empty_batch_rejected(self):
        net = QNetwork(2, 2, hidden=4, rng=0)
        with pytest.raises(DataError):
            cql_loss(stack([(np.ones(2), 0, 1.0, np.ones(2), True)])[:0], net, net.clone(), 5.5, 0.9)


def pop_with_rates(rates):
    """Popularity table stub with prescribed per-library rates."""
    lines = []
    n = 100
    for i, r in enumerate(rates):
        for u in range(int(round(r * n))):
            lines.append(f"p{u}\tl{i}")
    for u in range(n):
        lines.append(f"p{u}\tanchor")
    return popularity(ingest(lines))


class TestReplayBuffer:
    def make_buffer(self, mu=(0.2, 0.5, 0.3), capacity=100, seed=0):
        pop = pop_with_rates([0.05, 0.5, 0.9])
        return ReplayBuffer(capacity, mu, pop, rng=seed), pop

    def trans(self, action, tag=0.0):
        return stack([(np.array([tag]), action, 1.0, np.array([tag]), True)])

    def stream(self, tags, actions):
        """The batch of one row per tag, its state and next state the tag."""
        return stack([(np.array([float(g)]), int(a), 1.0, np.array([float(g)]), True)
                      for g, a in zip(tags, actions)])

    def test_rare_partition_purity(self):
        buf, pop = self.make_buffer()
        rng = np.random.default_rng(1)
        for _ in range(200):
            buf.insert(self.trans(int(rng.integers(3))))
        assert len(buf.rare) > 0
        assert np.all(pop.rates[buf.rare.action] < 0.1)

    def test_rare_fifo_eviction(self):
        buf, _ = self.make_buffer(capacity=10)  # rare cap = 2
        for tag in range(5):
            buf.insert(self.trans(0, tag=float(tag)))
        kept = buf.rare.state[:, 0].tolist()
        assert kept == [3.0, 4.0]

    def test_quota_two_five_three(self):
        buf, _ = self.make_buffer()
        rng = np.random.default_rng(2)
        for _ in range(60):
            buf.insert(self.trans(int(rng.integers(3))), project=int(rng.integers(4)))
        quotas = buf._quotas(10)
        assert quotas == {"rare": 2, "rand": 5, "seq": 3}
        _, tags = buf.sample(10)
        assert tags.count("rare") == 2 and tags.count("rand") == 5 and tags.count("seq") == 3

    @given(rare=st.integers(0, 20), rand=st.integers(0, 20), batch=st.integers(1, 64))
    @example(rare=10, rand=0, batch=5)  # mu (0.5, 0, 0.5) rounds rare and seq up to 3 each
    @settings(max_examples=60, deadline=None)
    def test_quotas_fill_the_batch(self, rare, rand, batch):
        rand = min(rand, 20 - rare)
        buf, _ = self.make_buffer(mu=(rare / 20, rand / 20, (20 - rare - rand) / 20))
        for j in range(30):
            buf.insert(self.trans(j % 3), project=j % 4)  # action 0 is rare
        quotas = buf._quotas(batch)
        assert min(quotas.values()) >= 0 and sum(quotas.values()) == batch, quotas
        rows, tags = buf.sample(batch)
        assert len(rows) == len(tags) == batch

    def test_empty_rare_quota_reassigned_to_rand(self):
        buf, _ = self.make_buffer()
        for _ in range(20):
            buf.insert(self.trans(1), project=0)  # rate 0.5, never rare
        quotas = buf._quotas(10)
        assert quotas == {"rare": 0, "rand": 7, "seq": 3}

    def test_all_empty_rejected(self):
        buf, _ = self.make_buffer()
        with pytest.raises(DataError):
            buf.sample(4)

    def test_reservoir_is_uniform(self):
        # chi-square over which of 50 streamed items survive in a cap-5 reservoir
        pop = pop_with_rates([0.5])
        counts = np.zeros(50)
        trials = 2000
        for s in range(trials):
            buf = ReplayBuffer(5, (0.0, 1.0, 0.0), pop, rng=s)
            for tag in range(50):
                buf.insert(self.trans(0, tag=float(tag)))
            counts[buf.rand.state[:, 0].astype(int)] += 1
        expected = np.full(50, trials * 5 / 50)
        _, p = spstats.chisquare(counts, expected)
        assert p > 0.01

    def test_reservoir_is_uniform_with_batched_inserts(self):
        # the same chi-square, the 50 items streamed in batches of random sizes
        pop = pop_with_rates([0.5])
        counts = np.zeros(50)
        trials = 2000
        cuts = np.random.default_rng(3)
        for s in range(trials):
            buf = ReplayBuffer(5, (0.0, 1.0, 0.0), pop, rng=s)
            bounds = [0, *np.sort(cuts.choice(np.arange(1, 50), size=int(cuts.integers(1, 8)), replace=False)), 50]
            for lo, hi in zip(bounds, bounds[1:]):
                buf.insert(self.stream(range(lo, hi), [0] * (hi - lo)))
            counts[buf.rand.state[:, 0].astype(int)] += 1
        expected = np.full(50, trials * 5 / 50)
        _, p = spstats.chisquare(counts, expected)
        assert p > 0.01

    @given(seed=st.integers(0, 10_000), capacity=st.integers(1, 40), rows=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_split_inserts_keep_rare_and_seq(self, seed, capacity, rows):
        # one stream inserted whole, or split into batches, leaves the same
        # rare and seq contents, and the same seq picks
        rng = np.random.default_rng(seed)
        batch = self.stream(range(rows), rng.integers(3, size=rows))
        projects = rng.integers(5, size=rows)
        whole, _ = self.make_buffer(capacity=capacity, seed=seed)
        whole.insert(batch, projects)
        split, _ = self.make_buffer(capacity=capacity, seed=seed)
        bounds = [0, *np.sort(rng.choice(np.arange(1, rows + 1), size=int(rng.integers(0, rows + 1)))), rows]
        for lo, hi in zip(bounds, bounds[1:]):
            split.insert(batch[lo:hi], projects[lo:hi])
        for name in ("rare", "seq"):
            a, b = getattr(whole, name), getattr(split, name)
            assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
        assert np.array_equal(whole.seq_projects, split.seq_projects)
        for k in rng.integers(1, 12, size=4).tolist():
            assert np.array_equal(whole._sample_seq(k), split._sample_seq(k))

    def test_seq_samples_freshest_first(self):
        buf, _ = self.make_buffer(mu=(0.0, 0.0, 1.0), capacity=100)
        for tag in range(6):
            buf.insert(self.trans(1, tag=float(tag)), project=tag % 2)
        batch, tags = buf.sample(2)
        assert tags == ["seq", "seq"]
        # one pick per project, newest stored transition of each
        got = sorted(batch.state[:, 0].tolist())
        assert got == [4.0, 5.0]

    def test_seq_round_robin_cursor_advances(self):
        buf, _ = self.make_buffer(mu=(0.0, 0.0, 1.0))
        for tag in range(4):
            buf.insert(self.trans(1, tag=float(tag)), project=tag)
        first, _ = buf.sample(1)
        second, _ = buf.sample(1)
        assert first.state[0, 0] != second.state[0, 0]


class TestSeqReplayIndex:
    """The sequential partition is sampled by one sort key over its rows; its
    picks and cursor must be the per-project rebuild's (tests/oracles.py)."""

    @given(seed=st.integers(0, 10_000), capacity=st.integers(1, 30), projects=st.integers(1, 8),
           steps=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_picks_equal_rebuild(self, seed, capacity, projects, steps):
        rng = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity, (0.0, 0.0, 1.0), pop_with_rates([0.5]), rng=seed)
        inserted = 0
        for _ in range(steps):
            if not len(buf.seq) or rng.random() < 0.6:
                buf.insert(stack([(np.array([float(inserted)]), 0, 1.0, np.zeros(1), True)]),
                           project=int(rng.integers(projects)))
                inserted += 1
                continue
            k = int(rng.integers(1, 2 * projects + 3))
            entries = list(zip(buf.seq_projects.tolist(), buf.seq.state[:, 0].tolist()))
            expected, cursor = sample_seq_rebuild(entries, buf._seq_cursor, k)
            picks = buf.seq.state[buf._sample_seq(k), 0].tolist()
            assert picks == expected
            assert buf._seq_cursor == cursor
        assert len(buf.seq) == min(inserted, capacity)

    def test_eviction_drops_a_project_whose_last_transition_leaves(self):
        buf = ReplayBuffer(2, (0.0, 0.0, 1.0), pop_with_rates([0.5]), rng=0)
        for tag, project in enumerate([7, 8, 8]):
            buf.insert(stack([(np.array([float(tag)]), 0, 1.0, np.zeros(1), True)]), project=project)
        picks = buf.seq.state[buf._sample_seq(3), 0]
        assert picks.tolist() == [2.0, 1.0, 2.0]


class TestPartitionWeights:
    def test_full_batch_sums_to_one(self):
        tags = ["rare"] * 2 + ["rand"] * 5 + ["seq"] * 3
        w = partition_weights(tags, (0.2, 0.5, 0.3))
        assert w.sum() == pytest.approx(1.0)
        # per-partition mass equals its ratio
        assert w[:2].sum() == pytest.approx(0.2)
        assert w[2:7].sum() == pytest.approx(0.5)
        assert w[7:].sum() == pytest.approx(0.3)

    def test_missing_partition_renormalizes(self):
        tags = ["rand"] * 7 + ["seq"] * 3
        w = partition_weights(tags, (0.2, 0.5, 0.3))
        assert w.sum() == pytest.approx(1.0)
        assert w[:7].sum() == pytest.approx(0.5 / 0.8)


class TestRecommend:
    def setup_method(self):
        rng = np.random.default_rng(20)
        lines = [f"p{u}\tl{i}" for u in range(6) for i in rng.choice(8, 4, replace=False)]
        self.ds = ingest(lines)
        self.table = EmbeddingTable(unit_rows(rng, self.ds.n_projects, 4),
                                    unit_rows(rng, self.ds.n_libraries, 4))
        self.rep = build_representatives(self.table, self.ds, 0.5)
        self.net = QNetwork(4, self.ds.n_libraries, hidden=8, rng=21)

    def test_query_never_recommended(self):
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        query = avail[:2]
        recs = recommend(query, 3, self.net, self.rep)
        assert not set(recs) & set(query)
        assert len(recs) == len(set(recs)) == 3

    def test_unrepresented_never_recommended(self):
        missing = [i for i in range(self.ds.n_libraries) if not self.rep.has_rep[i]]
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        recs = recommend(avail[:1], 5, self.net, self.rep)
        assert not set(recs) & set(missing)

    def test_truncation_warns(self):
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        with pytest.warns(UserWarning):
            recs = recommend(avail[:1], 1000, self.net, self.rep)
        assert len(recs) == len(avail) - 1

    def test_one_shot_matches_q_order(self):
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        query = avail[:1]
        pairs = recommend(query, 4, self.net, self.rep, mode="one-shot", with_scores=True)
        scores = [s for _, s in pairs]
        assert scores == sorted(scores, reverse=True)
        q = self.net.forward(aggregate(query, self.rep))[0]
        for a, s in pairs:
            assert s == pytest.approx(float(q[a]))

    def test_sequential_first_pick_matches_one_shot(self):
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        query = avail[:1]
        seq = recommend(query, 3, self.net, self.rep, mode="sequential")
        one = recommend(query, 3, self.net, self.rep, mode="one-shot")
        assert seq[0] == one[0]

    def test_tie_breaks_to_lowest_index(self):
        net = QNetwork(4, self.ds.n_libraries, hidden=8, rng=0)
        for p in net.params.values():
            p[...] = 0.0  # all Q equal
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        recs = recommend([avail[-1]], 3, net, self.rep)
        expected = [i for i in avail if i != avail[-1]][:3]
        assert recs == expected

    def test_empty_query_rejected(self):
        with pytest.raises(DataError):
            recommend([], 3, self.net, self.rep)

    def test_unknown_mode_rejected(self):
        avail = np.flatnonzero(self.rep.has_rep).tolist()
        with pytest.raises(DataError):
            recommend(avail[:1], 2, self.net, self.rep, mode="greedy")


class RecordingNet:
    """A Q-network that keeps a copy of every batch of states it scores."""

    def __init__(self, net):
        self.net = net
        self.params = net.params
        self.states = []

    def forward(self, states, out=None):
        self.states.append(np.array(states))
        return self.net.forward(states, out=out)


def with_warning_count(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, len(caught)


class TestLockstepRecommend:
    """A list of queries is answered in lockstep blocks; each answer must be
    the per-query loop's (tests/oracles.py)."""

    @given(seed=st.integers(0, 10_000), zero=st.booleans(), mode=st.sampled_from(agent.MODES))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_per_query_loop(self, seed, zero, mode):
        rng = np.random.default_rng(seed)
        m, d, k = int(rng.integers(4, 12)), int(rng.integers(2, 6)), int(rng.integers(1, 7))
        has_rep = rng.random(m) < 0.8
        has_rep[:2] = True
        vectors = np.where(has_rep[:, None], rng.normal(size=(m, d)), 0.0)
        rep = RepresentativeTable(vectors=vectors, blend=0.5, has_rep=has_rep)
        net = QNetwork(d, m, hidden=int(rng.integers(1, 9)), rng=rng)
        if zero:  # every Q-value ties
            for p in net.params.values():
                p[...] = 0.0
        avail = np.flatnonzero(has_rep)
        # some queries hold (nearly) every represented library, so their answers truncate
        queries = [avail.tolist(), avail[::-1][1:].tolist()] + [
            rng.choice(avail, size=int(rng.integers(1, len(avail) + 1)), replace=False).tolist()
            for _ in range(agent._BLOCK + int(rng.integers(1, 40)))]

        expected, expected_warnings = with_warning_count(
            lambda: [recommend_loop(q, k, net, rep, mode=mode, with_scores=True) for q in queries])
        recorder = RecordingNet(net)
        got, got_warnings = with_warning_count(
            lambda: recommend(queries, k, recorder, rep, mode=mode, with_scores=True))
        assert got_warnings == expected_warnings == sum(len(e) < k for e in expected)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert [a for a, _ in g] == [a for a, _ in e]
            assert all(abs(gv - ev) <= 1e-12 for (_, gv), (_, ev) in zip(g, e))

        # one forward per step per block, each row's state bitwise aggregate(known);
        # blocks may be answered side by side, so only each block's own calls are ordered
        calls, matched = recorder.states, []
        for start in range(0, len(queries), agent._BLOCK):
            block = range(start, min(start + agent._BLOCK, len(queries)))
            steps = max(len(got[r]) for r in block)
            previous = -1
            for step in range(min(steps, 1) if mode == "one-shot" else steps):
                rows = [r for r in block if len(got[r]) > step]
                known = [queries[r] + [a for a, _ in got[r][:step]] for r in rows]
                want = np.stack([aggregate(kn, rep) for kn in known])
                hits = [j for j, c in enumerate(calls) if c.shape == want.shape and np.array_equal(c, want)]
                assert len(hits) == 1 and hits[0] > previous
                previous = hits[0]
                matched.append(previous)
        assert sorted(matched) == list(range(len(calls)))

        # the single query is the block of one: bit for bit
        singles, _ = with_warning_count(
            lambda: [recommend(q, k, net, rep, mode=mode, with_scores=True) for q in queries])
        assert singles == expected

    def test_repeated_library_counts_once(self):
        rng = np.random.default_rng(5)
        rep = RepresentativeTable(vectors=rng.normal(size=(9, 3)), blend=0.5, has_rep=np.ones(9, dtype=bool))
        net = QNetwork(3, 9, hidden=8, rng=6)
        for mode in agent.MODES:
            once = recommend([4, 1], 3, net, rep, mode=mode, with_scores=True)
            assert recommend([4, 1, 4, 4], 3, net, rep, mode=mode, with_scores=True) == once
            assert recommend([[4, 4, 1], [1]], 3, net, rep, mode=mode)[0] == [a for a, _ in once]

    @pytest.mark.parametrize("queries", [[], [[]], [[1], []], [(2, 3), ()]])
    def test_empty_batch_or_query_rejected(self, queries):
        rep = RepresentativeTable(vectors=np.eye(4), blend=0.5, has_rep=np.ones(4, dtype=bool))
        with pytest.raises(DataError):
            recommend(queries, 2, QNetwork(4, 4, hidden=4, rng=0), rep)

    def test_batch_rejects_unrepresented_query_library(self):
        has_rep = np.array([True, True, False, True])
        rep = RepresentativeTable(vectors=np.eye(4) * has_rep[:, None], blend=0.5, has_rep=has_rep)
        with pytest.raises(DataError, match=r"without representatives: \[2\]"):
            recommend([[0], [1, 2]], 2, QNetwork(4, 4, hidden=4, rng=0), rep)


class TestTrainAgent:
    def make_setup(self, seed=30):
        rng = np.random.default_rng(seed)
        lines = [f"p{u}\tl{i}" for u in range(12) for i in rng.choice(10, 4, replace=False)]
        ds = ingest(lines)
        table = EmbeddingTable(unit_rows(rng, ds.n_projects, 4), unit_rows(rng, ds.n_libraries, 4))
        rep = build_representatives(table, ds, 0.5)
        return ds, table, rep

    def test_smoke_and_regularizer_tracking(self):
        ds, table, rep = self.make_setup()
        cfg = AgentConfig(epochs=2, batch_size=16, target_sync=5, seed=0)
        net, stats = train_agent(ds, table, rep, cfg)
        assert net.n_actions == ds.n_libraries
        assert stats.min_regularizer >= 0.0
        assert len(stats.log) > 0

    def test_determinism(self):
        ds, table, rep = self.make_setup()
        cfg = AgentConfig(epochs=2, batch_size=16, target_sync=5, seed=1)
        a, _ = train_agent(ds, table, rep, cfg)
        b, _ = train_agent(ds, table, rep, cfg)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_conservative_value_gap(self):
        # observed actions should not be valued below random unobserved
        # actions after training with a strong conservatism penalty
        ds, table, rep = self.make_setup(seed=31)
        cfg = AgentConfig(epochs=10, batch_size=64, target_sync=20,
                          transitions_per_project=4, seed=3)
        net, _ = train_agent(ds, table, rep, cfg)
        rng = np.random.default_rng(32)
        gaps = []
        for u in range(ds.n_projects):
            items = sorted(ds.by_project[u])
            state = aggregate(items[:-1], rep)
            q = net.forward(state)[0]
            q_data = q[items[-1]]
            unobserved = [i for i in range(ds.n_libraries) if i not in items]
            probe = rng.choice(unobserved, size=min(100, len(unobserved)), replace=False)
            gaps.append(q_data - q[probe].mean())
        assert np.mean(gaps) >= 0.0

    def test_trained_in_float32(self, monkeypatch):
        optimizers = []

        class RecordingAdam(agent.Adam):
            def __init__(self, lr):
                super().__init__(lr)
                optimizers.append(self)

        monkeypatch.setattr(agent, "Adam", RecordingAdam)
        ds, table, rep = self.make_setup()
        net, _ = train_agent(ds, table, rep, AgentConfig(epochs=2, batch_size=16, target_sync=5, seed=0))
        (opt,) = optimizers
        assert opt.t > 0 and opt._m.keys() == opt._v.keys() == net.params.keys()
        for name, p in net.params.items():
            arrays = [p, opt._m[name], opt._v[name], *opt._scratch[name]]
            assert all(a.dtype == np.float32 for a in arrays), name

    def test_trained_network_is_the_stored_network(self, tmp_path):
        ds, table, rep = self.make_setup()
        net, _ = train_agent(ds, table, rep, AgentConfig(epochs=2, batch_size=16, target_sync=5, seed=0))
        save_qnetwork(tmp_path / "q.tplq", net)
        loaded = load_qnetwork(tmp_path / "q.tplq")
        assert all(p.tobytes() == loaded.params[name].tobytes() for name, p in net.params.items())

    def test_curve_csv(self, tmp_path):
        ds, table, rep = self.make_setup()
        cfg = AgentConfig(epochs=1, batch_size=16, seed=2)
        _, stats = train_agent(ds, table, rep, cfg)
        path = tmp_path / "curve.csv"
        stats.write_curve(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,loss,lr,mean_q"
        assert len(lines) == len(stats.log) + 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            AgentConfig(mu=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            AgentConfig(gamma=1.5)
        with pytest.raises(ValueError):
            AgentConfig(alpha=-1.0)
        for bad in ({"mu": (-0.5, 1.0, 0.5)}, {"mu": (math.nan, 0.5, 0.5)}, {"alpha": math.nan},
                    {"learning_rate": math.inf}, {"epochs": 0}):
            with pytest.raises(ValueError):
                AgentConfig(**bad)


class TestQNetworkPersistence:
    def test_roundtrip(self, tmp_path):
        net = QNetwork(5, 9, hidden=12, rng=40)
        path = tmp_path / "net.tplq"
        save_qnetwork(path, net)
        loaded = load_qnetwork(path)
        assert loaded.state_dim == 5 and loaded.n_actions == 9 and loaded.hidden == 12
        states = np.random.default_rng(41).normal(size=(3, 5))
        assert np.allclose(loaded.forward(states), net.forward(states), atol=1e-5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "net.tplq"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(DataError):
            load_qnetwork(path)


class TestServingPrecision:
    """A loaded model scores in the float32 its artifacts store."""

    def saved_model(self, tmp_path, seed=50, d=16, m=200, hidden=64):
        rng = np.random.default_rng(seed)
        has_rep = rng.random(m) < 0.9
        rep = RepresentativeTable(vectors=np.where(has_rep[:, None], unit_rows(rng, m, d), 0.0), blend=0.5,
                                  has_rep=has_rep)
        net = QNetwork(d, m, hidden=hidden, rng=rng)
        save_qnetwork(tmp_path / "q.tplq", net)
        rep.save(tmp_path / "r.tplr")
        return net, rep, load_qnetwork(tmp_path / "q.tplq"), RepresentativeTable.load(tmp_path / "r.tplr"), rng

    def queries(self, rng, rep, count):
        avail = np.flatnonzero(rep.has_rep)
        return [rng.choice(avail, size=int(rng.integers(1, 6)), replace=False).tolist() for _ in range(count)]

    def test_params_are_read_only_float32(self, tmp_path):
        _, _, loaded, _, _ = self.saved_model(tmp_path)
        for name, p in loaded.params.items():
            assert p.dtype == np.float32 and not p.flags.writeable, name

    def test_forward_within_float32_rounding(self, tmp_path):
        net, _, loaded, _, rng = self.saved_model(tmp_path)
        states = rng.normal(size=(64, net.state_dim))
        want, got = net.forward(states), loaded.forward(states)
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()

    def test_picks_equal_where_the_float64_gap_is_clear(self, tmp_path):
        net, rep, loaded, loaded_rep, rng = self.saved_model(tmp_path)
        queries = self.queries(rng, rep, 200)
        served = recommend(queries, 10, loaded, loaded_rep, with_scores=True)
        compared = 0
        for query, picks in zip(queries, served):
            allowed = rep.has_rep.copy()
            allowed[query] = False
            known = list(query)
            for a, v in picks:
                q = np.where(allowed, net.forward(aggregate(known, rep))[0], -np.inf)
                second, top = np.sort(q)[-2:]
                if top - second <= 1e-5:  # a float32 rounding may swap the two
                    break
                assert a == int(np.argmax(q))
                assert abs(v - top) <= 1e-5 * np.abs(q[allowed]).max()
                compared += 1
                allowed[a] = False
                known.append(a)
        assert compared > 0.9 * 10 * len(queries)

    def test_loaded_table_states_bitwise_its_float64_copy(self, tmp_path):
        _, _, loaded, loaded_rep, rng = self.saved_model(tmp_path)
        assert loaded_rep.vectors.dtype == np.float32
        wide = RepresentativeTable(vectors=loaded_rep.vectors.astype(np.float64), blend=loaded_rep.blend,
                                   has_rep=loaded_rep.has_rep)
        queries = self.queries(rng, loaded_rep, 40)
        states = []
        for rep in (loaded_rep, wide):
            recorder = RecordingNet(loaded)
            recommend(queries, 5, recorder, rep)
            states.append(recorder.states)
        assert len(states[0]) == len(states[1]) == 5
        assert all(a.dtype == np.float64 and a.tobytes() == b.tobytes() for a, b in zip(*states))
        for q in queries:
            assert aggregate(q, loaded_rep).tobytes() == aggregate(q, wide).tobytes()
