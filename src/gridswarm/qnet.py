"""Small feedforward Q-networks and their self-play training loops.

Two architectures: the conflict net (12 inputs, five hidden layers, layer 4
consumes the concatenation of layer-3 and layer-1 outputs) and the
conflict-free net (2 inputs, two hidden layers).  Hidden layers are tanh
except the concatenation layer, which is linear; the output layer is a
softmax whose entries are read directly as Q-values.

Everything is numpy float64 and hand-backpropagated so gradients can be
checked against finite differences.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from gridswarm.scenario import (
    ACTION_DELTAS,
    N_ACTIONS,
    Region,
    action_mask_bounds,
    encode_conflict_state,
    encode_free_state,
)

_MAGIC = b"GSQN"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_widths: tuple
    skip_concat: tuple | None = None  # (source layer, destination layer)
    output_dim: int = N_ACTIONS

    def __post_init__(self):
        n, skip = len(self.hidden_widths), self.skip_concat
        if n < 1 or (skip is not None and not 1 <= skip[0] < skip[1] <= n):
            raise ValueError(f"no network has hidden widths {self.hidden_widths} "
                             f"with skip_concat {skip}")

    @classmethod
    def conflict(cls, width: int = 32) -> "NetworkSpec":
        return cls(12, (width,) * 5, skip_concat=(1, 4))

    @classmethod
    def free(cls, width: int = 16) -> "NetworkSpec":
        return cls(2, (width,) * 2)

    def layer_input_width(self, layer: int) -> int:
        """Width of the input feeding hidden layer `layer` (1-based)."""
        if layer == 1:
            return self.input_dim
        if self.skip_concat is not None and layer == self.skip_concat[1]:
            src, _ = self.skip_concat
            return self.hidden_widths[layer - 2] + self.hidden_widths[src - 1]
        return self.hidden_widths[layer - 2]

    def is_linear(self, layer: int) -> bool:
        return self.skip_concat is not None and layer == self.skip_concat[1]

    def weight_shapes(self) -> list:
        """(out, in+1) of every hidden layer's matrix, then the output's."""
        shapes = [(width, self.layer_input_width(layer) + 1)
                  for layer, width in enumerate(self.hidden_widths, start=1)]
        return shapes + [(self.output_dim, self.hidden_widths[-1] + 1)]


class QNetwork:
    """Weights plus forward/backward passes for one NetworkSpec."""

    def __init__(self, spec: NetworkSpec, weights: list):
        self.spec = spec
        self.weights = weights  # one (out, in+1) matrix per layer + output

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng) -> "QNetwork":
        weights = []
        for shape in spec.weight_shapes():
            bound = 1.0 / np.sqrt(shape[1] - 1)  # fan-in, without the bias column
            weights.append(rng.uniform(-bound, bound, size=shape))
        return cls(spec, weights)

    def copy(self) -> "QNetwork":
        return QNetwork(self.spec, [w.copy() for w in self.weights])

    def _layer_input(self, hs: list, layer: int) -> np.ndarray:
        if self.spec.skip_concat is not None and layer == self.spec.skip_concat[1]:
            src, _ = self.spec.skip_concat
            return np.concatenate([hs[layer - 1], hs[src]], axis=1)
        return hs[layer - 1]

    def forward_cached(self, states: np.ndarray):
        """Batch forward pass; returns (q, hidden activations incl. input)."""
        s = np.atleast_2d(np.asarray(states, dtype=float))
        if s.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"state width {s.shape[1]} != input_dim {self.spec.input_dim}"
            )
        hs = [s]
        for layer in range(1, len(self.spec.hidden_widths) + 1):
            inp = self._layer_input(hs, layer)
            pre = _aug(inp) @ self.weights[layer - 1].T
            hs.append(pre if self.spec.is_linear(layer) else np.tanh(pre))
        z = _aug(hs[-1]) @ self.weights[-1].T
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        q = e / e.sum(axis=1, keepdims=True)
        return q, hs

    def forward(self, state: np.ndarray) -> np.ndarray:
        q, _ = self.forward_cached(state)
        return q[0] if np.ndim(state) == 1 else q

    def backward(self, q: np.ndarray, hs: list, actions: np.ndarray,
                 coeff: np.ndarray) -> list:
        """Gradients of sum_b coeff[b] * Q(s_b, a_b) w.r.t. every weight."""
        B = q.shape[0]
        n_hidden = len(self.spec.hidden_widths)
        qa = q[np.arange(B), actions]
        delta_out = -coeff[:, None] * qa[:, None] * q  # softmax jacobian row
        delta_out[np.arange(B), actions] += coeff * qa
        grads = [None] * len(self.weights)
        grads[-1] = delta_out.T @ _aug(hs[-1])
        # accumulated dL/dh for each hidden layer (1-based indexing into hs)
        dh = [None] * (n_hidden + 1)
        dh[n_hidden] = delta_out @ self.weights[-1][:, :-1]
        for layer in range(n_hidden, 0, -1):
            d = dh[layer]
            if not self.spec.is_linear(layer):
                d = d * (1.0 - hs[layer] ** 2)
            inp = self._layer_input(hs, layer)
            grads[layer - 1] = d.T @ _aug(inp)
            dinp = d @ self.weights[layer - 1][:, :-1]
            if layer == 1:
                continue
            prev_w = self.spec.hidden_widths[layer - 2]
            _accum(dh, layer - 1, dinp[:, :prev_w])
            if self.spec.skip_concat is not None and layer == self.spec.skip_concat[1]:
                src = self.spec.skip_concat[0]
                _accum(dh, src, dinp[:, prev_w:])
        return grads


def _aug(h: np.ndarray) -> np.ndarray:
    return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)


def _accum(dh: list, idx: int, val: np.ndarray):
    dh[idx] = val if dh[idx] is None else dh[idx] + val


def sync_target(net: QNetwork, target_net: QNetwork) -> QNetwork:
    if net.spec != target_net.spec:
        raise ValueError("spec mismatch between online and target networks")
    for wt, w in zip(target_net.weights, net.weights):
        np.copyto(wt, w)
    return target_net


def td_loss(net: QNetwork, target_net: QNetwork, batch: dict, gamma: float):
    """Mean squared TD error over a batch plus its weight gradients.

    The max in the bootstrap term runs over the actions available at s'
    only and is zeroed on terminal transitions.
    """
    s, a, r = batch["s"], batch["a"], batch["r"]
    if len(a) == 0:
        raise ValueError("empty batch")
    q2 = target_net.forward_cached(batch["s2"])[0]
    q2 = np.where(batch["avail2"], q2, -np.inf)
    max_q2 = np.where(batch["terminal"], 0.0, q2.max(axis=1))
    y = r + gamma * max_q2
    q, hs = net.forward_cached(s)
    qa = q[np.arange(len(a)), a]
    err = y - qa
    loss = float(np.mean(err**2))
    coeff = -2.0 * err / len(a)
    grads = net.backward(q, hs, np.asarray(a), coeff)
    return loss, grads


def act_epsilon_greedy(net: QNetwork, state, avail: np.ndarray, eps: float, rng) -> int:
    """Explore uniformly over available actions with prob eps, else argmax."""
    avail = np.asarray(avail, dtype=bool)
    if not avail.any():
        raise ValueError("no available action")
    if eps > 0 and rng.random() < eps:
        choices = np.flatnonzero(avail)
        return int(choices[rng.integers(len(choices))])
    q = net.forward(np.asarray(state, dtype=float))
    q = np.where(avail, q, -np.inf)
    return int(np.argmax(q))  # ties resolve to the lowest action index


# ---------------------------------------------------------------------------
# persistence

def save_weights(net: QNetwork, path):
    spec = net.spec
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IB", _FORMAT_VERSION, 1 if spec.skip_concat else 0))
        if spec.skip_concat:
            f.write(struct.pack("<II", *spec.skip_concat))
        f.write(struct.pack("<III", spec.input_dim, spec.output_dim,
                            len(spec.hidden_widths)))
        f.write(struct.pack(f"<{len(spec.hidden_widths)}I", *spec.hidden_widths))
        for w in net.weights:
            f.write(struct.pack("<II", *w.shape))
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_weights(path) -> QNetwork:
    """Read one net; a malformed file raises ValueError naming the file."""
    with open(path, "rb") as f:
        buf = io.BytesIO(f.read())
    try:
        return _read_net(buf)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_net(f) -> QNetwork:
    def read(n: int) -> bytes:
        data = f.read(n)
        if len(data) != n:
            raise ValueError("truncated weight file")
        return data

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, read(struct.calcsize(fmt)))

    if f.read(4) != _MAGIC:
        raise ValueError("not a gridswarm weight file")
    version, has_skip = unpack("<IB")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    skip = unpack("<II") if has_skip else None
    input_dim, output_dim, n_hidden = unpack("<III")
    spec = NetworkSpec(input_dim, unpack(f"<{n_hidden}I"), skip, output_dim)
    weights = []
    for shape in spec.weight_shapes():
        found = unpack("<II")
        if found != shape:
            raise ValueError(f"weight matrix of shape {found}, {spec} needs {shape}")
        data = np.frombuffer(read(8 * shape[0] * shape[1]), dtype="<f8")
        weights.append(data.reshape(shape).copy())
    if f.read(1):
        raise ValueError("trailing bytes after the last weight matrix")
    return QNetwork(spec, weights)


# ---------------------------------------------------------------------------
# replay and training

@dataclass
class TrainerConfig:
    gamma: float = 0.9
    target_sync_period: int = 100
    learning_rate: float = 1e-3
    replay_capacity: int = 10_000
    batch_size: int = 32
    episodes: int = 20_000
    max_steps: int = 12
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.5  # fraction of episodes over which eps decays
    lr_end_scale: float = 0.1  # final learning-rate multiplier (linear decay)
    reward_block: int = 100  # episodes per logged average

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if self.target_sync_period < 1:
            raise ValueError("target_sync_period must be >= 1")
        for e in (self.eps_start, self.eps_end):
            if not (0.0 <= e <= 1.0):
                raise ValueError("epsilon must lie in [0, 1]")
        if not 1 <= self.reward_block <= self.episodes:
            raise ValueError(f"episodes ({self.episodes}) must cover at least one "
                             f"reward_block ({self.reward_block})")

    def epsilon(self, episode: int) -> float:
        horizon = max(1, int(self.episodes * self.eps_decay_fraction))
        frac = min(1.0, episode / horizon)
        return self.eps_start + frac * (self.eps_end - self.eps_start)

    def lr(self, episode: int) -> float:
        # Full rate while epsilon is still decaying, then anneal linearly so
        # late updates stop perturbing the converged policy.
        frac = min(1.0, episode / max(1, self.episodes))
        if frac <= self.eps_decay_fraction:
            return self.learning_rate
        t = (frac - self.eps_decay_fraction) / max(1e-12, 1.0 - self.eps_decay_fraction)
        return self.learning_rate * (1.0 + t * (self.lr_end_scale - 1.0))


class ReplayBuffer:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items = []
        self.pos = 0

    def push(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self.pos] = item
        self.pos = (self.pos + 1) % self.capacity

    def __len__(self):
        return len(self.items)

    def sample(self, n: int, rng) -> dict:
        idx = rng.integers(len(self.items), size=n)
        s, a, r, s2, term, avail2 = zip(*(self.items[i] for i in idx))
        return {
            "s": np.array(s),
            "a": np.array(a),
            "r": np.array(r),
            "s2": np.array(s2),
            "terminal": np.array(term),
            "avail2": np.array(avail2),
        }


class ConflictGame:
    """Self-play conflict episodes on a small playfield.

    Agents spawn on distinct nodes of a shared 2x2 block and must reach
    distinct goal nodes inside that block.  All agents move at once; two
    active agents on one node, or a position swap, is a collision and ends
    the episode.  An agent that reaches its goal leaves the playfield (its
    task is resolved), matching the state encoding, in which a robot with
    zero goal displacement is indistinguishable from an empty node.
    Rewards: -0.1 per step, +1 on reaching the goal (0.9 for a one-step
    resolution), -1 for a collision.
    """

    STEP_PENALTY = -0.1
    GOAL_REWARD = 1.0
    COLLISION_REWARD = -1.0

    def __init__(self, n_agents: int = 2, size: int = 4):
        if not 2 <= n_agents <= 4:
            raise ValueError("conflict games support 2 to 4 agents")
        self.n_agents = n_agents
        self.size = size

    def reset(self, rng):
        r0 = int(rng.integers(self.size - 1))
        c0 = int(rng.integers(self.size - 1))
        block = [(r0 + dr, c0 + dc) for dr in (0, 1) for dc in (0, 1)]
        spawn_idx = rng.permutation(4)[: self.n_agents]
        goal_idx = rng.permutation(4)[: self.n_agents]
        self.pos = [block[i] for i in spawn_idx]
        self.goal = [block[i] for i in goal_idx]
        self.done = [p == g for p, g in zip(self.pos, self.goal)]
        self.reward_total = [self.GOAL_REWARD if d else 0.0 for d in self.done]
        self.steps = 0
        self.collided = False

    @property
    def finished(self) -> bool:
        return self.collided or all(self.done)

    def encode(self, i: int) -> np.ndarray:
        """12-vector for agent i: 2x2 region placed toward its nearest peer.

        Peers that already resolved their task have left the field and are
        neither probed nor bound.
        """
        r, c = self.pos[i]
        others = [j for j in range(self.n_agents) if j != i and not self.done[j]]
        if others:
            j = min(others, key=lambda j: (abs(self.pos[j][0] - r) + abs(self.pos[j][1] - c), j))
            orr, oc = self.pos[j]
        else:
            orr, oc = r, c
        r0 = min(max(r - 1 if orr < r else r, 0), self.size - 2)
        c0 = min(max(c - 1 if oc < c else c, 0), self.size - 2)
        region = Region(r0, c0, 2)
        bindings = {
            self.pos[k]: ("robot", k)
            for k in others
            if region.contains(self.pos[k])
        }
        goals = {k: self.goal[k] for k in range(self.n_agents)}
        return encode_conflict_state(region, bindings, self.pos[i], self.goal[i], goals)

    def action_mask(self, i: int) -> np.ndarray:
        return action_mask_bounds(self.pos[i], self.size, self.size)

    def step(self, actions: dict) -> dict:
        """Advance active agents; returns {agent: (reward, terminal)}."""
        old = list(self.pos)
        new = list(self.pos)
        for i, a in actions.items():
            dr, dc = ACTION_DELTAS[a]
            new[i] = (old[i][0] + dr, old[i][1] + dc)
        active = sorted(actions)
        hit = set()
        for ai, i in enumerate(active):
            for j in active[ai + 1:]:
                if new[i] == new[j]:
                    hit.update((i, j))
                elif new[i] == old[j] and new[j] == old[i]:
                    hit.update((i, j))
        out = {}
        for i, _a in actions.items():
            if i in hit:
                out[i] = (self.COLLISION_REWARD, True)
            elif new[i] == self.goal[i]:
                out[i] = (self.STEP_PENALTY + self.GOAL_REWARD, True)
                self.done[i] = True
            else:
                out[i] = (self.STEP_PENALTY, False)
            self.reward_total[i] += out[i][0]
        self.pos = new
        self.steps += 1
        if hit:
            self.collided = True
        return out


class FreeGame:
    """Single-agent goal-seeking on a 3x3 grid with displacement-sign states."""

    STEP_PENALTY = -0.1
    GOAL_REWARD = 1.0

    def __init__(self, size: int = 3, max_steps: int = 20):
        self.size = size
        self.max_steps = max_steps

    def reset(self, rng):
        self.pos = (int(rng.integers(self.size)), int(rng.integers(self.size)))
        self.goal = (int(rng.integers(self.size)), int(rng.integers(self.size)))
        self.steps = 0
        self.reward_total = self.GOAL_REWARD if self.pos == self.goal else 0.0
        self.finished = self.pos == self.goal

    def encode(self) -> np.ndarray:
        # state axes are (x, y) = (col, row)
        return encode_free_state(
            (self.pos[1], self.pos[0]), (self.goal[1], self.goal[0])
        )

    def action_mask(self) -> np.ndarray:
        return action_mask_bounds(self.pos, self.size, self.size)

    def step(self, action: int):
        dr, dc = ACTION_DELTAS[action]
        self.pos = (self.pos[0] + dr, self.pos[1] + dc)
        self.steps += 1
        if self.pos == self.goal:
            r, terminal = self.STEP_PENALTY + self.GOAL_REWARD, True
            self.finished = True
        else:
            r, terminal = self.STEP_PENALTY, False
            if self.steps >= self.max_steps:
                self.finished = True
        self.reward_total += r
        return r, terminal


class _SGDTrainer:
    """Shared replay + target-network machinery for both games."""

    def __init__(self, net: QNetwork, config: TrainerConfig, rng):
        self.net = net
        self.target = net.copy()
        self.config = config
        self.rng = rng
        self.buffer = ReplayBuffer(config.replay_capacity)
        self.updates = 0
        self.lr = config.learning_rate

    def act(self, state, avail, eps: float) -> int:
        return act_epsilon_greedy(self.net, state, avail, eps, self.rng)

    def observe(self, transition):
        self.buffer.push(transition)
        if len(self.buffer) < self.config.batch_size:
            return
        batch = self.buffer.sample(self.config.batch_size, self.rng)
        _loss, grads = td_loss(self.net, self.target, batch, self.config.gamma)
        for w, g in zip(self.net.weights, grads):
            w -= self.lr * g
        self.updates += 1
        if self.updates % self.config.target_sync_period == 0:
            sync_target(self.net, self.target)


def _block_log(rewards: list, block: int) -> list:
    """Mean episode reward per consecutive block."""
    return [
        (i // block, float(np.mean(rewards[i: i + block])))
        for i in range(0, len(rewards) - block + 1, block)
    ]


def train_conflict_selfplay(config: TrainerConfig, n_agents: int = 2, seed: int = 0,
                            base_net: QNetwork | None = None):
    """Self-play training of the conflict net; returns (net, reward log).

    All agents act through one shared policy instance whose experience
    jointly trains it.  For n_agents > 2 pass the policy trained on one
    fewer agent as `base_net`.
    """
    rng = np.random.default_rng(seed)
    if base_net is not None:
        net = base_net.copy()
    else:
        if n_agents > 2:
            raise ValueError("training with >2 agents needs the previous policy")
        net = QNetwork.initialize(NetworkSpec.conflict(), rng)
    trainer = _SGDTrainer(net, config, rng)
    game = ConflictGame(n_agents=n_agents)
    episode_rewards = []
    for episode in range(config.episodes):
        eps = config.epsilon(episode)
        trainer.lr = config.lr(episode)
        game.reset(rng)
        while not game.finished and game.steps < config.max_steps:
            active = [i for i in range(n_agents) if not game.done[i]]
            states = {i: game.encode(i) for i in active}
            masks = {i: game.action_mask(i) for i in active}
            actions = {i: trainer.act(states[i], masks[i], eps) for i in active}
            outcome = game.step(actions)
            for i in active:
                r, terminal = outcome[i]
                s2 = game.encode(i)
                avail2 = game.action_mask(i)
                trainer.observe((states[i], actions[i], r, s2, terminal, avail2))
        episode_rewards.append(float(np.mean(game.reward_total)))
    return trainer.net, _block_log(episode_rewards, config.reward_block)


def train_free(config: TrainerConfig, seed: int = 0):
    """Train the conflict-free net on the 3x3 goal-seeking gridworld."""
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(NetworkSpec.free(), rng)
    trainer = _SGDTrainer(net, config, rng)
    game = FreeGame(max_steps=config.max_steps)
    episode_rewards = []
    for episode in range(config.episodes):
        eps = config.epsilon(episode)
        trainer.lr = config.lr(episode)
        game.reset(rng)
        while not game.finished:
            s = game.encode()
            avail = game.action_mask()
            a = trainer.act(s, avail, eps)
            r, terminal = game.step(a)
            trainer.observe((s, a, r, game.encode(), terminal, game.action_mask()))
        episode_rewards.append(game.reward_total)
    return trainer.net, _block_log(episode_rewards, config.reward_block)


def evaluate_conflict_policy(net: QNetwork, n_cases: int = 10_000, seed: int = 1,
                             n_agents: int = 2, max_steps: int = 12) -> float:
    """Collision-avoidance rate of the greedy policy over random conflicts."""
    rng = np.random.default_rng(seed)
    game = ConflictGame(n_agents=n_agents)
    collisions = 0
    for _ in range(n_cases):
        game.reset(rng)
        while not game.finished and game.steps < max_steps:
            active = [i for i in range(n_agents) if not game.done[i]]
            actions = {
                i: act_epsilon_greedy(net, game.encode(i), game.action_mask(i), 0.0, rng)
                for i in active
            }
            game.step(actions)
        if game.collided:
            collisions += 1
    return 1.0 - collisions / n_cases


def save_reward_log(log: list, path):
    with open(path, "w") as f:
        f.write("episode_block,mean_reward\n")
        for block, mean in log:
            f.write(f"{block},{mean}\n")
