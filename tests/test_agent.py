import math

import numpy as np
import pytest
from scipy import stats as spstats

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
    _q_targets,
    train_agent,
)
from tplrec.coldstart import RepresentativeTable, aggregate, build_representatives
from tplrec.data import ingest, popularity
from tplrec.embed import EmbeddingTable
from tplrec.errors import DataError

from oracles import reward_expanded


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def make_transition(rng, d, m, terminal=False):
    return Transition(
        state=rng.normal(size=d),
        action=int(rng.integers(m)),
        reward=float(rng.uniform(0, 2)),
        next_state=rng.normal(size=d),
        terminal=terminal,
    )


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
        grads = net.backward(cache, coef)
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
        lines = [f"p{u}\tl{i}" for u in range(5) for i in range(5)]
        self.ds = ingest(lines)
        self.table = EmbeddingTable(unit_rows(rng, 5, 3), unit_rows(rng, 5, 3))
        self.rep = build_representatives(self.table, self.ds, 0.5)

    def test_action_outside_subset(self):
        rng = np.random.default_rng(7)
        items = list(range(5))
        for _ in range(100):
            t = gen_transition(items, self.rep, self.table.libraries, rng)
            assert t.action in items
            # next state is the known set plus the action; verify via reward identity
            assert 0.0 <= t.reward <= 2.0

    def test_terminal_iff_covers_all(self):
        rng = np.random.default_rng(8)
        items = [0, 1]
        for _ in range(20):
            t = gen_transition(items, self.rep, self.table.libraries, rng)
            # with two items the subset has one, the action is the other: always terminal
            assert t.terminal

    def test_too_small_returns_none(self):
        rng = np.random.default_rng(9)
        assert gen_transition([3], self.rep, self.table.libraries, rng) is None

    def test_all_subset_size_action_pairs_reachable(self):
        from itertools import combinations

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
        for _ in range(10_000):
            t = gen_transition(items, self.rep, self.table.libraries, rng)
            k = lookup[tuple(np.round(t.state, 9))]
            combos.add((k, t.action))
        assert combos == {(k, a) for k in range(1, 5) for a in items}


class TestQTarget:
    def test_terminal_is_reward(self):
        net = QNetwork(3, 4, hidden=8, rng=0)
        t = Transition(np.zeros(3), 1, 1.7, np.zeros(3), True)
        assert _q_targets([t], net, net.clone(), 0.9)[0] == pytest.approx(1.7)

    def test_double_dqn_uses_target_values(self):
        # online picks the argmax action, target supplies its value
        online = QNetwork(2, 3, hidden=4, rng=1)
        target = QNetwork(2, 3, hidden=4, rng=2)
        t = Transition(np.ones(2), 0, 1.0, np.array([0.3, -0.2]), False)
        a_star = int(np.argmax(online.forward(t.next_state)[0]))
        want = 1.0 + 0.9 * float(target.forward(t.next_state)[0, a_star])
        assert _q_targets([t], online, target, 0.9)[0] == pytest.approx(want)

    def test_gamma_zero_is_reward(self):
        online = QNetwork(2, 3, hidden=4, rng=3)
        t = Transition(np.ones(2), 0, 0.8, np.ones(2), False)
        assert _q_targets([t], online, online.clone(), 0.0)[0] == pytest.approx(0.8)

    def test_gamma_one_hand_value(self):
        # r=1 and the online-argmax action has target value 0.5 -> y = 1.5
        online = QNetwork(2, 3, hidden=4, rng=4)
        target = online.clone()
        s_next = np.array([0.7, -0.4])
        a_star = int(np.argmax(online.forward(s_next)[0]))
        shift = 0.5 - float(target.forward(s_next)[0, a_star])
        target.params["bv"][0] += shift  # move V so Q(s', a*) is exactly 0.5
        t = Transition(np.ones(2), 0, 1.0, s_next, False)
        assert _q_targets([t], online, target, 1.0)[0] == pytest.approx(1.5)


class TestCQLLoss:
    def make_batch(self, rng, b, d, m):
        return [make_transition(rng, d, m, terminal=bool(rng.integers(2))) for _ in range(b)]

    def test_alpha_zero_is_pure_bellman(self):
        rng = np.random.default_rng(10)
        net = QNetwork(3, 5, hidden=8, rng=11)
        target = net.clone()
        batch = self.make_batch(rng, 6, 3, 5)
        loss, _, reg = cql_loss(batch, net, target, 0.0, 0.9)
        q = net.forward(np.stack([t.state for t in batch]))
        q_a = q[np.arange(6), [t.action for t in batch]]
        y = _q_targets(batch, net, target, 0.9)
        assert loss == pytest.approx(float(np.mean(0.5 * (y - q_a) ** 2)))
        assert np.all(reg >= -1e-12)

    def test_constant_q_regularizer_is_log_m(self):
        # when all Q values are equal, logsumexp - Q(a) == ln(n_actions)
        net = QNetwork(3, 7, hidden=8, rng=12)
        for p in net.params.values():
            p[...] = 0.0
        batch = [Transition(np.ones(3), 2, 1.0, np.ones(3), True)]
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

    def test_empty_batch_rejected(self):
        net = QNetwork(2, 2, hidden=4, rng=0)
        with pytest.raises(DataError):
            cql_loss([], net, net.clone(), 5.5, 0.9)


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
        return Transition(np.array([tag]), action, 1.0, np.array([tag]), True)

    def test_rare_partition_purity(self):
        buf, pop = self.make_buffer()
        rng = np.random.default_rng(1)
        for _ in range(200):
            buf.insert(self.trans(int(rng.integers(3))))
        assert len(buf.rare) > 0
        for t in buf.rare:
            assert pop.rates[t.action] < 0.1

    def test_rare_fifo_eviction(self):
        buf, _ = self.make_buffer(capacity=10)  # rare cap = 2
        for tag in range(5):
            buf.insert(self.trans(0, tag=float(tag)))
        kept = [t.state[0] for t in buf.rare]
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
            for t in buf.rand:
                counts[int(t.state[0])] += 1
        expected = np.full(50, trials * 5 / 50)
        _, p = spstats.chisquare(counts, expected)
        assert p > 0.01

    def test_seq_samples_freshest_first(self):
        buf, _ = self.make_buffer(mu=(0.0, 0.0, 1.0), capacity=100)
        for tag in range(6):
            buf.insert(self.trans(1, tag=float(tag)), project=tag % 2)
        batch, tags = buf.sample(2)
        assert tags == ["seq", "seq"]
        # one pick per project, newest stored transition of each
        got = sorted(t.state[0] for t in batch)
        assert got == [4.0, 5.0]

    def test_seq_round_robin_cursor_advances(self):
        buf, _ = self.make_buffer(mu=(0.0, 0.0, 1.0))
        for tag in range(4):
            buf.insert(self.trans(1, tag=float(tag)), project=tag)
        first, _ = buf.sample(1)
        second, _ = buf.sample(1)
        assert first[0].state[0] != second[0].state[0]


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
