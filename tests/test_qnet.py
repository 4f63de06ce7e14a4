import itertools
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridswarm import cli, qnet
from gridswarm.qnet import (
    ConflictGame,
    FreeGame,
    NetworkSpec,
    QNetwork,
    ReplayBuffer,
    TrainerConfig,
    act_epsilon_greedy,
    evaluate_conflict_policy,
    load_weights,
    save_weights,
    sync_target,
    td_loss,
)
from gridswarm.scenario import STAY, action_mask_bounds, sign

POLICIES = Path(__file__).resolve().parents[1] / "perfbench" / "policies"


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

    @pytest.mark.parametrize("bad", [5, -1])
    def test_backward_rejects_an_action_outside_the_output(self, bad):
        net = make(NetworkSpec.free())
        q, hs = net.forward_cached(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            net.backward(q, hs, np.array([0, bad, 4]), np.ones(3))

    def test_td_loss_decreases_under_sgd(self):
        rng = np.random.default_rng(0)
        net = make(NetworkSpec.free())
        batch = {
            "s": rng.normal(size=(32, 2)),
            "a": rng.integers(0, 5, size=32),
            "r": rng.uniform(-1, 1, size=32),
            "s2": rng.normal(size=(32, 2)),
            "terminal": rng.random(32) < 0.3,
            "avail2": np.ones((32, 5), dtype=bool),
        }
        l0, grads = td_loss(net, batch, gamma=0.9)
        for w, g in zip(net.weights, grads):
            w -= 0.01 * g
        l1, _ = td_loss(net, batch, gamma=0.9)
        assert l1 < l0

    def test_forward_pair_needs_one_next_state_per_state(self):
        net = make(NetworkSpec.free())
        with pytest.raises(ValueError, match="3 states but 1 next states"):
            net.forward_pair(np.zeros((3, 2)), np.zeros((1, 2)))

    def test_td_target_terminal_and_mask(self):
        net = make(NetworkSpec.free())
        target = net.copy()  # the weights the target row keeps
        net.weights[1][:, -1] += 0.5  # moves the online net off its target row
        s = np.zeros((1, 2))
        base = {
            "s": s, "a": np.array([0]), "r": np.array([0.5]), "s2": s,
            "terminal": np.array([True]), "avail2": np.ones((1, 5), dtype=bool),
        }
        q = net.forward(s[0])
        l_term, _ = td_loss(net, base, gamma=0.9)
        assert l_term == pytest.approx((0.5 - q[0]) ** 2)
        # only action 3 available at s2: bootstrap uses q2[3], not the max
        batch = dict(base, terminal=np.array([False]),
                     avail2=np.eye(5, dtype=bool)[3][None, :])
        q2 = target.forward(s[0])
        l_masked, _ = td_loss(net, batch, gamma=0.9)
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
        """Before any draw, whether the act would explore or not."""
        net = make(NetworkSpec.free())
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="no available action"):
                act_epsilon_greedy(net, np.zeros(2), np.zeros(5, dtype=bool), eps, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    @pytest.mark.parametrize("avail", [[True], [True] * 6, [[True] * 5]],
                             ids=["1-long", "6-long", "2-D"])
    def test_a_mask_of_another_shape_raises_before_any_draw(self, avail, eps):
        """A 1-long mask would broadcast against q, and a 6-long one could
        pick an action that does not exist."""
        net = make(NetworkSpec.free())
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="shape"):
            act_epsilon_greedy(net, np.zeros(2), np.array(avail), eps, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5, 1.0])
    def test_matches_the_plain_form_draw_for_draw(self, eps):
        """Every non-empty mask, on a net with distinct Q-values and on one
        whose Q-values all tie: the same action, and the generator left in
        the same state, as `plain_act`."""
        masks = [np.array(bits) for bits in itertools.product((False, True), repeat=5)
                 if any(bits)]
        assert len(masks) == 31
        tied = make(NetworkSpec.free())
        tied.weights[-1][...] = 0.0  # every Q-value is exactly 1/5
        states = np.random.default_rng(99).normal(size=(4, 2))
        for net in (make(NetworkSpec.free()), tied):
            for seed in range(5):
                rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                for avail in masks:
                    for state in states:
                        got = act_epsilon_greedy(net, state, avail, eps, rng)
                        assert got == plain_act(net, state, avail, eps, plain_rng)
                        assert rng.bit_generator.state == plain_rng.bit_generator.state


def plain_act(net, state, avail, eps, rng) -> int:
    """The plain form of `act_epsilon_greedy` on a 5-long mask: a test for
    any available action, `flatnonzero` to explore, and `np.where` then
    `argmax` to act greedily."""
    avail = np.asarray(avail, dtype=bool)
    if not avail.any():
        raise ValueError("no available action")
    if eps > 0 and rng.random() < eps:
        choices = np.flatnonzero(avail)
        return int(choices[rng.integers(len(choices))])
    q = net.forward(np.asarray(state, dtype=float))
    return int(np.argmax(np.where(avail, q, -np.inf)))


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, tmp_path, value):
        net = make(NetworkSpec.free(), seed=1)
        net.weights[1][3, 4] = value
        p = tmp_path / "w.qnet"
        save_weights(net, p)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: non-finite weight"):
            load_weights(p)

    def test_matrix_shape_must_match_spec(self, tmp_path):
        net = make(NetworkSpec.free(), seed=1)
        # a QNetwork refuses misshapen weights, so a stand-in writes the file
        misshapen = SimpleNamespace(spec=net.spec,
                                    weights=(net.weights[0][:, :-1], *net.weights[1:]))
        p = tmp_path / "w.qnet"
        save_weights(misshapen, p)  # the first matrix lacks its bias column
        with pytest.raises(ValueError, match=r"shape \(16, 2\).*needs \(16, 3\)"):
            load_weights(p)

    @staticmethod
    def save_stand_in(path, input_dim, hidden_widths, outputs):
        """A net whose matrices all agree with its widths, written by a
        stand-in, since a NetworkSpec's output width is fixed."""
        spec = SimpleNamespace(input_dim=input_dim, hidden_widths=hidden_widths,
                               skip_concat=None, output_dim=outputs)
        widths = (*hidden_widths, outputs)
        rng = np.random.default_rng(0)
        weights = [rng.standard_normal((w, n + 1))
                   for w, n in zip(widths, (input_dim, *widths))]
        save_weights(SimpleNamespace(spec=spec, weights=weights), path)

    @pytest.mark.parametrize("width", [0, 3])
    def test_output_width_must_be_one_per_action(self, tmp_path, width):
        p = tmp_path / "w.qnet"
        self.save_stand_in(p, 2, (16, 16), width)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: " + re.escape(
                f"a net of 2 inputs, hidden widths (16, 16), skip_concat None and "
                f"{width} outputs is not a conflict or free net")):
            load_weights(p)

    @pytest.mark.parametrize("input_dim, hidden, message", [
        (0, (16, 16), re.escape("a net of 0 inputs, hidden widths (16, 16)")),
        (2, (16, 0), re.escape("a net of 2 inputs, hidden widths (16, 0)")),
    ], ids=["no-inputs", "empty-layer"])
    def test_every_layer_needs_a_unit(self, tmp_path, input_dim, hidden, message):
        # a layer of no units would make the output the same for every input
        p = tmp_path / "w.qnet"
        self.save_stand_in(p, input_dim, hidden, 5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}"):
            load_weights(p)

    def test_output_width_is_not_settable(self):
        assert NetworkSpec.conflict().output_dim == NetworkSpec.free().output_dim == 5
        with pytest.raises(TypeError):
            NetworkSpec(2, (16, 16), None, 3)


@pytest.fixture(scope="module")
def edit_path(tmp_path_factory):
    return tmp_path_factory.mktemp("edits") / "edited.qnet"


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["conflict.qnet", "free.qnet"]),
       edit=st.sampled_from(["flip", "cut", "insert"]),
       at=st.integers(0, 64) | st.integers(0, 1 << 16),
       byte=st.integers(1, 255))
@example(name="conflict.qnet", edit="flip", at=9, byte=3)  # skip_concat (1, 4) -> (2, 4)
def test_a_byte_edit_of_a_shipped_policy_loads_a_policy_or_is_rejected(
        edit_path, name, edit, at, byte):
    data = bytearray((POLICIES / name).read_bytes())
    at %= len(data) + (edit == "insert")
    if edit == "flip":
        data[at] ^= byte
    elif edit == "cut":
        del data[at:]
    else:
        data[at:at] = bytes([byte])
    edit_path.write_bytes(data)
    try:
        net = load_weights(edit_path)
    except ValueError as exc:
        assert str(exc).startswith(f"{edit_path}: ")
    else:
        assert net.spec in qnet.POLICIES.values()


class TestReplayAndConfig:
    def test_replay_wraps_around(self):
        buf = ReplayBuffer(3, 2)
        for k in range(5):
            buf.push((np.zeros(2), k, 0.0, np.zeros(2), False, np.ones(5, bool)))
        assert len(buf) == 3
        actions = buf.sample(200, np.random.default_rng(0))["a"]
        assert set(actions.tolist()) == {2, 3, 4}

    def test_replay_is_built_whole_and_refuses_another_width(self):
        buf = ReplayBuffer(3, 2)
        assert [c.shape for c in buf.columns] == [(3, 2), (3,), (3,), (3, 2), (3,), (3, 5)]
        assert len(buf) == 0
        for s, s2 in ((np.zeros(3), np.zeros(2)), (np.zeros(2), np.zeros(12))):
            with pytest.raises(ValueError, match="could not broadcast"):
                buf.push((s, 0, 0.0, s2, False, np.ones(5, bool)))
        assert len(buf) == 0

    def test_epsilon_schedule(self):
        cfg = TrainerConfig(episodes=1000, eps_end=0.05, eps_decay_fraction=0.5)
        assert cfg.epsilon(0) == pytest.approx(1.0)
        assert cfg.epsilon(250) == pytest.approx(0.525)
        assert cfg.epsilon(500) == pytest.approx(0.05)
        assert cfg.epsilon(999) == pytest.approx(0.05)

    def test_config_validation(self):
        for field, value in [("eps_end", 2.0), ("eps_end", -0.1),
                             ("learning_rate", -1.0), ("learning_rate", 0.0),
                             ("eps_decay_fraction", -0.5), ("eps_decay_fraction", 1.5),
                             ("lr_end_scale", -2.0)]:
            with pytest.raises(ValueError, match=f"^{field} must"):
                TrainerConfig(**{field: value})
        with pytest.raises(TypeError, match="reward_block"):  # a constant, not a field
            TrainerConfig(reward_block=10)
        assert TrainerConfig().reward_block == 100

    @pytest.mark.parametrize("kw", [
        {}, cli.CONFLICT_TRAIN_DEFAULTS, cli.FREE_TRAIN_DEFAULTS,
        {"eps_decay_fraction": 0.0}, {"eps_decay_fraction": 1.0}, {"lr_end_scale": 0.0},
    ], ids=["dataclass", "conflict", "free", "no-decay", "all-decay", "zero-end-rate"])
    def test_config_accepts_shipped_and_edge_values(self, kw):
        TrainerConfig(**kw)

    def test_sync_target_copies(self):
        net = make(NetworkSpec.free(), seed=1)
        net.weights[0][...] = make(NetworkSpec.free(), seed=2).weights[0]
        sync_target(net)
        assert np.array_equal(net._flat, net._target)
        net.weights[0][0, 0] += 1.0
        assert not np.array_equal(net._flat, net._target)


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

    def test_conflict_episode_ends_at_the_step_cap(self):
        game = ConflictGame(2)
        game.reset(np.random.default_rng(0))
        game.pos = [(0, 0), (1, 1)]
        game.goal = [(0, 1), (1, 0)]
        game.done = [False, False]
        game.reward_total = [0.0, 0.0]
        moves, encoded = [], []
        encode = game.encode
        game.encode = lambda i: encoded.append(i) or encode(i)
        qnet._conflict_episode(game, lambda s, avail: STAY, moves.append)
        assert game.finished and not game.collided and not any(game.done)
        assert game.steps == ConflictGame.MAX_STEPS == 12
        assert len(moves) == 2 * 12
        # a move's next state is the following move's state: one encode
        # per agent per move, plus each agent's first state
        assert len(encoded) == 2 * (12 + 1)
        expected = 0.0
        for _ in range(12):
            expected += qnet.STEP_PENALTY
        assert game.reward_total == [expected, expected]

    def test_encode_matches_a_reference_that_binds_only_the_block(self):
        """Random-action episodes, states after a collision included, and
        every placement of two agents, with the peer active or resolved: the
        encoding reads only the block's nodes, so binding every active peer
        gives the bytes of binding only those inside the block."""
        game = ConflictGame(2)
        game.goal = [(0, 3), (3, 0)]
        nodes = [(r, c) for r in range(game.SIZE) for c in range(game.SIZE)]
        for own in nodes:
            for peer in nodes:
                if peer == own:
                    continue
                game.pos = [own, peer]
                for resolved in (False, True):
                    game.done = [False, resolved]
                    assert game.encode(0).tobytes() == reference_encode(game, 0).tobytes()
        rng = np.random.default_rng(11)
        checked = 0
        for n_agents in (2, 3, 4):
            game = ConflictGame(n_agents)
            for _ in range(300):
                game.reset(rng)
                while True:
                    active = [i for i in range(n_agents) if not game.done[i]]
                    for i in range(n_agents):
                        assert game.encode(i).tobytes() == reference_encode(game, i).tobytes()
                        checked += 1
                    if game.finished:
                        break
                    game.step({i: int(rng.choice(np.flatnonzero(game.action_mask(i))))
                               for i in active})
        assert checked > 10_000

    @pytest.mark.parametrize("game", [ConflictGame(2), FreeGame()], ids=["conflict", "free"])
    def test_masks_are_read_only_entries_of_one_table_per_board(self, game):
        nodes = list(itertools.product(range(game.SIZE), repeat=2))
        assert sorted(game.MASKS) == nodes
        for node in nodes:
            mask = game.MASKS[node]
            want = action_mask_bounds(node, game.SIZE, game.SIZE)
            assert mask.dtype == want.dtype and mask.tobytes() == want.tobytes()
            if isinstance(game, ConflictGame):
                game.pos = [(0, 0), node]
                assert game.action_mask(1) is mask
            else:
                game.pos = node
                assert game.action_mask() is mask
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = not mask[0]

    def test_free_game_reward_bounds(self):
        rng = np.random.default_rng(3)
        game = FreeGame()
        for _ in range(100):
            game.reset(rng)
            while not game.finished:
                avail = np.flatnonzero(game.action_mask())
                game.step(int(avail[rng.integers(len(avail))]))
            assert game.reward_total <= 1.0


def reference_encode(game, i):
    """Agent i's 12 inputs, built node by node: the 2x2 block toward the
    nearest active peer (ties to the lower index), clockwise from self, with
    only the active peers inside the block bound (the later one where two
    share a node, after a collision)."""
    r, c = game.pos[i]
    others = [j for j in range(game.n_agents) if j != i and not game.done[j]]
    if others:
        j = min(others, key=lambda j: (abs(game.pos[j][0] - r) + abs(game.pos[j][1] - c), j))
        orr, oc = game.pos[j]
    else:
        orr, oc = r, c
    r0 = min(max(r - 1 if orr < r else r, 0), game.SIZE - 2)
    c0 = min(max(c - 1 if oc < c else c, 0), game.SIZE - 2)
    clockwise = [(r0 + 1, c0), (r0 + 1, c0 + 1), (r0, c0 + 1), (r0, c0)]
    occupant = {}
    for k in others:
        if game.pos[k] in clockwise:
            occupant[game.pos[k]] = k
    start = clockwise.index((r, c))
    out = np.zeros(12)
    for slot, node in enumerate(clockwise):
        if node == (r, c):
            goal, flag = game.goal[i], 1.0
        elif node in occupant:
            goal, flag = game.goal[occupant[node]], 0.0
        else:
            continue
        k = 3 * ((slot - start) % 4)
        out[k:k + 3] = sign(goal[1] - node[1]), sign(goal[0] - node[0]), flag
    return out


@pytest.mark.parametrize("n_cases", [0, -5])
def test_conflict_evaluation_needs_at_least_one_case(n_cases):
    with pytest.raises(ValueError, match="n_cases must be at least 1"):
        evaluate_conflict_policy(make(NetworkSpec.conflict()), n_cases=n_cases)


def test_free_training_runs_and_updates_weights():
    cfg = TrainerConfig(episodes=400)
    rng = np.random.default_rng(0)
    init = QNetwork.initialize(NetworkSpec.free(), np.random.default_rng(0))
    net, log = qnet.train_free(cfg, seed=0)
    assert len(log) == 4
    assert all(np.isfinite(m) for _, m in log)
    assert any(not np.array_equal(a, b) for a, b in zip(net.weights, init.weights))


def test_training_is_deterministic_in_seed():
    cfg = TrainerConfig(episodes=200)
    net1, log1 = qnet.train_free(cfg, seed=7)
    net2, log2 = qnet.train_free(cfg, seed=7)
    assert log1 == log2
    for a, b in zip(net1.weights, net2.weights):
        assert np.array_equal(a, b)


def test_every_sgd_update_passes_the_step_sites(monkeypatch):
    """Each update runs qnet.td_loss once (looked up as a module global),
    which runs one backward and one batch-32 forward_pair of the online
    net and its target row: td_loss and backward are names the benchmark's
    step clock stamps and its spans probe.  An update that bypassed them
    would leave the benchmark timing nothing."""
    cfg = TrainerConfig(**dict(cli.CONFLICT_TRAIN_DEFAULTS, episodes=100))
    want_net, want_log = qnet.train_conflict_selfplay(cfg, seed=4)
    calls = {"td_loss": 0, "backward": 0, "passes": [], "pairs": [], "push": 0,
             "sgd_step": 0}

    def counting(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    forward_cached, forward_pair = QNetwork.forward_cached, QNetwork.forward_pair

    def counting_forward(net, states):
        calls["passes"].append(np.atleast_2d(states).shape[0])
        return forward_cached(net, states)

    def counting_pair(net, states, next_states):
        calls["pairs"].append(len(states))
        return forward_pair(net, states, next_states)

    monkeypatch.setattr(qnet, "td_loss", counting("td_loss", qnet.td_loss))
    monkeypatch.setattr(QNetwork, "backward", counting("backward", QNetwork.backward))
    monkeypatch.setattr(QNetwork, "forward_cached", counting_forward)
    monkeypatch.setattr(QNetwork, "forward_pair", counting_pair)
    monkeypatch.setattr(QNetwork, "sgd_step", counting("sgd_step", QNetwork.sgd_step))
    monkeypatch.setattr(ReplayBuffer, "push", counting("push", ReplayBuffer.push))
    net, log = qnet.train_conflict_selfplay(cfg, seed=4)
    # one update per transition once the ring holds a batch
    updates = calls["push"] - (qnet.BATCH_SIZE - 1)
    assert updates > 500
    assert calls["td_loss"] == calls["backward"] == calls["sgd_step"] == updates
    assert calls["pairs"] == [qnet.BATCH_SIZE] * updates
    assert set(calls["passes"]) == {1}  # every forward_cached is a single act
    assert log == want_log  # the wrappers change nothing
    for w, want in zip(net.weights, want_net.weights):
        assert w.tobytes() == want.tobytes()


class Start:
    """A stand-in for the generator that makes `ConflictGame.reset` place
    one given 2-agent start: block corner, spawn order, goal order."""

    def __init__(self, r0, c0, spawn, goal):
        self.corner = [r0, c0]
        # each order leads a permutation of the block's four nodes
        self.orders = [list(order) + [k for k in range(4) if k not in order]
                       for order in (spawn, goal)]

    def integers(self, _high):
        return self.corner.pop(0)

    def permutation(self, _n):
        return np.array(self.orders.pop(0))


def test_greedy_shipped_conflict_policy_collides_on_12_of_all_1296_starts():
    """A greedy episode draws nothing, so the 9 blocks x 12 spawn orders x
    12 goal orders, all equally likely, give the exact avoidance rate of
    the shipped policy, end to end through the encoder and the greedy act."""
    net = load_weights(POLICIES / "conflict.qnet")
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    game = ConflictGame(2)
    orders = list(itertools.permutations(range(4), 2))
    collided = 0
    for r0, c0 in itertools.product(range(3), repeat=2):
        for spawn, goal in itertools.product(orders, repeat=2):
            game.reset(Start(r0, c0, spawn, goal))
            qnet._conflict_episode(
                game, lambda s, avail: act_epsilon_greedy(net, s, avail, 0.0, rng), None)
            collided += game.collided
    assert 9 * len(orders) ** 2 == 1296
    assert collided == 12
    assert rng.bit_generator.state == before
