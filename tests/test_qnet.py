import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridswarm import qnet
from gridswarm.qnet import (
    ConflictGame,
    FreeGame,
    NetworkSpec,
    QNetwork,
    ReplayBuffer,
    TrainerConfig,
    act_epsilon_greedy,
    load_weights,
    save_weights,
    sync_target,
    td_loss,
)


def make(spec, seed=0):
    return QNetwork.initialize(spec, np.random.default_rng(seed))


class TestArchitecture:
    def test_conflict_shapes(self):
        spec = NetworkSpec.conflict()
        net = make(spec)
        assert net.weights[0].shape == (32, 13)
        assert net.weights[1].shape == (32, 33)
        assert net.weights[2].shape == (32, 33)
        # the concat layer consumes layer 3 plus layer 1: 64 inputs
        assert net.weights[3].shape == (32, 65)
        assert net.weights[4].shape == (32, 33)
        assert net.weights[5].shape == (5, 33)

    def test_free_shapes(self):
        net = make(NetworkSpec.free())
        assert [w.shape for w in net.weights] == [(16, 3), (16, 17), (5, 17)]

    def test_concat_layer_is_linear(self):
        spec = NetworkSpec.conflict()
        assert spec.is_linear(4)
        assert not any(spec.is_linear(k) for k in (1, 2, 3, 5))

    def test_output_is_probability_vector(self):
        for spec in (NetworkSpec.conflict(), NetworkSpec.free()):
            net = make(spec)
            s = np.random.default_rng(1).normal(size=(7, spec.input_dim))
            q = net.forward(s)
            assert np.all(q > 0)
            assert np.allclose(q.sum(axis=1), 1.0)

    def test_forward_single_state(self):
        net = make(NetworkSpec.free())
        q = net.forward(np.array([1.0, -1.0]))
        assert q.shape == (5,)

    def test_skip_connection_matters(self):
        """Zeroing layer-1 output must change the concat layer's input path."""
        spec = NetworkSpec.conflict()
        net = make(spec)
        s = np.ones((1, 12))
        q0 = net.forward(s)
        net.weights[3][:, 32:64] = 0.0  # cut the skip half of the concat
        q1 = net.forward(s)
        assert not np.allclose(q0, q1)


class TestGradients:
    @pytest.mark.parametrize("spec", [NetworkSpec.conflict(), NetworkSpec.free()],
                             ids=["conflict", "free"])
    def test_backward_matches_finite_differences(self, spec):
        rng = np.random.default_rng(42)
        net = make(spec, seed=3)
        s = rng.normal(size=(4, spec.input_dim))
        a = rng.integers(0, 5, size=4)
        coeff = rng.normal(size=4)
        q, hs = net.forward_cached(s)
        grads = net.backward(q, hs, a, coeff)

        def scalar():
            qq = net.forward(s)
            return float(np.sum(coeff * qq[np.arange(4), a]))

        eps = 1e-6
        for _ in range(40):
            li = int(rng.integers(len(net.weights)))
            i = int(rng.integers(net.weights[li].shape[0]))
            j = int(rng.integers(net.weights[li].shape[1]))
            w = net.weights[li]
            w[i, j] += eps
            up = scalar()
            w[i, j] -= 2 * eps
            dn = scalar()
            w[i, j] += eps
            num = (up - dn) / (2 * eps)
            ana = grads[li][i, j]
            assert abs(num - ana) <= 1e-4 * max(1.0, abs(num), abs(ana))

    def test_td_loss_decreases_under_sgd(self):
        rng = np.random.default_rng(0)
        net = make(NetworkSpec.free())
        target = net.copy()
        batch = {
            "s": rng.normal(size=(32, 2)),
            "a": rng.integers(0, 5, size=32),
            "r": rng.uniform(-1, 1, size=32),
            "s2": rng.normal(size=(32, 2)),
            "terminal": rng.random(32) < 0.3,
            "avail2": np.ones((32, 5), dtype=bool),
        }
        l0, grads = td_loss(net, target, batch, gamma=0.9)
        for w, g in zip(net.weights, grads):
            w -= 0.01 * g
        l1, _ = td_loss(net, target, batch, gamma=0.9)
        assert l1 < l0

    def test_td_target_terminal_and_mask(self):
        net = make(NetworkSpec.free())
        target = net.copy()
        s = np.zeros((1, 2))
        base = {
            "s": s, "a": np.array([0]), "r": np.array([0.5]), "s2": s,
            "terminal": np.array([True]), "avail2": np.ones((1, 5), dtype=bool),
        }
        q = net.forward(s[0])
        l_term, _ = td_loss(net, target, base, gamma=0.9)
        assert l_term == pytest.approx((0.5 - q[0]) ** 2)
        # only action 3 available at s2: bootstrap uses q2[3], not the max
        batch = dict(base, terminal=np.array([False]),
                     avail2=np.eye(5, dtype=bool)[3][None, :])
        q2 = target.forward(s[0])
        l_masked, _ = td_loss(net, target, batch, gamma=0.9)
        assert l_masked == pytest.approx((0.5 + 0.9 * q2[3] - q[0]) ** 2)


class TestPolicy:
    def test_greedy_respects_mask(self):
        net = make(NetworkSpec.free())
        rng = np.random.default_rng(0)
        avail = np.array([False, True, False, False, True])
        for _ in range(20):
            a = act_epsilon_greedy(net, np.array([1.0, 0.0]), avail, 0.0, rng)
            assert avail[a]

    def test_exploration_respects_mask_and_distribution(self):
        net = make(NetworkSpec.free())
        rng = np.random.default_rng(0)
        avail = np.array([True, False, True, False, True])
        counts = np.zeros(5)
        n = 3000
        for _ in range(n):
            counts[act_epsilon_greedy(net, np.zeros(2), avail, 1.0, rng)] += 1
        assert counts[1] == counts[3] == 0
        # chi-squared against uniform over the three available actions
        expected = n / 3
        chi2 = float(np.sum((counts[avail] - expected) ** 2 / expected))
        assert chi2 < 13.8  # p ~ 0.001 at 2 dof

    def test_no_available_action_raises(self):
        net = make(NetworkSpec.free())
        with pytest.raises(ValueError):
            act_epsilon_greedy(net, np.zeros(2), np.zeros(5, dtype=bool), 0.0,
                               np.random.default_rng(0))


class TestPersistence:
    @pytest.mark.parametrize("spec", [NetworkSpec.conflict(), NetworkSpec.free()],
                             ids=["conflict", "free"])
    def test_roundtrip_bitexact(self, spec, tmp_path):
        net = make(spec, seed=9)
        p = tmp_path / "w.qnet"
        save_weights(net, p)
        loaded = load_weights(p)
        assert loaded.spec == net.spec
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.qnet"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_weights(p)

    @pytest.mark.parametrize("cut", [10, 40, -5, -8])
    def test_truncated_file_rejected(self, tmp_path, cut):
        p = tmp_path / "w.qnet"
        save_weights(make(NetworkSpec.free(), seed=1), p)
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"{re.escape(str(p))}: truncated"):
            load_weights(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "w.qnet"
        save_weights(make(NetworkSpec.free(), seed=1), p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_weights(p)

    def test_matrix_shape_must_match_spec(self, tmp_path):
        net = make(NetworkSpec.free(), seed=1)
        net.weights[0] = net.weights[0][:, :-1]  # drop the bias column
        p = tmp_path / "w.qnet"
        save_weights(net, p)
        with pytest.raises(ValueError, match=r"shape \(16, 2\).*needs \(16, 3\)"):
            load_weights(p)


class TestReplayAndConfig:
    def test_replay_wraps_around(self):
        buf = ReplayBuffer(3)
        for k in range(5):
            buf.push((np.zeros(2), k, 0.0, np.zeros(2), False, np.ones(5, bool)))
        assert len(buf) == 3
        assert sorted(item[1] for item in buf.items) == [2, 3, 4]

    def test_epsilon_schedule(self):
        cfg = TrainerConfig(episodes=1000, eps_start=1.0, eps_end=0.05,
                            eps_decay_fraction=0.5)
        assert cfg.epsilon(0) == pytest.approx(1.0)
        assert cfg.epsilon(250) == pytest.approx(0.525)
        assert cfg.epsilon(500) == pytest.approx(0.05)
        assert cfg.epsilon(999) == pytest.approx(0.05)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(gamma=1.5)
        with pytest.raises(ValueError):
            TrainerConfig(eps_start=2.0)

    def test_sync_target_copies(self):
        net = make(NetworkSpec.free(), seed=1)
        tgt = make(NetworkSpec.free(), seed=2)
        sync_target(net, tgt)
        for a, b in zip(net.weights, tgt.weights):
            assert np.array_equal(a, b)
        net.weights[0][0, 0] += 1.0
        assert not np.array_equal(net.weights[0], tgt.weights[0])


class TestGames:
    def test_conflict_spawns_distinct_in_block(self):
        rng = np.random.default_rng(0)
        game = ConflictGame(3)
        for _ in range(200):
            game.reset(rng)
            assert len(set(game.pos)) == 3
            assert len(set(game.goal)) == 3
            rows = [p[0] for p in game.pos + game.goal]
            cols = [p[1] for p in game.pos + game.goal]
            assert max(rows) - min(rows) <= 1 and max(cols) - min(cols) <= 1

    def test_conflict_swap_is_collision(self):
        game = ConflictGame(2)
        game.reset(np.random.default_rng(0))
        game.pos = [(0, 0), (0, 1)]
        game.goal = [(1, 0), (1, 1)]
        game.done = [False, False]
        out = game.step({0: 2, 1: 0})  # right / left: swap
        assert game.collided
        assert out[0] == (-1.0, True) and out[1] == (-1.0, True)

    def test_conflict_one_step_resolution_scores_09(self):
        game = ConflictGame(2)
        game.reset(np.random.default_rng(0))
        game.pos = [(0, 0), (1, 1)]
        game.goal = [(1, 0), (0, 1)]
        game.done = [False, False]
        game.reward_total = [0.0, 0.0]
        out = game.step({0: 1, 1: 3})  # both move straight to their goals
        assert out[0] == (0.9, True) and out[1] == (0.9, True)
        assert game.finished and not game.collided

    def test_finished_agent_vacates(self):
        game = ConflictGame(2)
        game.reset(np.random.default_rng(0))
        game.pos = [(0, 0), (0, 1)]
        game.goal = [(0, 1), (1, 1)]
        game.done = [False, True]  # agent 1 already resolved at (0,1)
        out = game.step({0: 2})  # move onto the vacated node
        assert not game.collided
        assert out[0][1] is True  # reached the goal

    def test_free_game_reward_bounds(self):
        rng = np.random.default_rng(3)
        game = FreeGame()
        for _ in range(100):
            game.reset(rng)
            while not game.finished:
                avail = np.flatnonzero(game.action_mask())
                game.step(int(avail[rng.integers(len(avail))]))
            assert game.reward_total <= 1.0


def test_free_training_runs_and_updates_weights():
    cfg = TrainerConfig(episodes=400, max_steps=20)
    rng = np.random.default_rng(0)
    init = QNetwork.initialize(NetworkSpec.free(), np.random.default_rng(0))
    net, log = qnet.train_free(cfg, seed=0)
    assert len(log) == 4
    assert all(np.isfinite(m) for _, m in log)
    assert any(not np.array_equal(a, b) for a, b in zip(net.weights, init.weights))


def test_training_is_deterministic_in_seed():
    cfg = TrainerConfig(episodes=200, max_steps=20)
    net1, log1 = qnet.train_free(cfg, seed=7)
    net2, log2 = qnet.train_free(cfg, seed=7)
    assert log1 == log2
    for a, b in zip(net1.weights, net2.weights):
        assert np.array_equal(a, b)
