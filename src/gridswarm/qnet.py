"""Small feedforward Q-networks and their self-play training loops.

Two architectures: the conflict net (12 inputs, five hidden layers, layer 4
consumes the concatenation of layer-3 and layer-1 outputs) and the
conflict-free net (2 inputs, two hidden layers).  Hidden layers are tanh
except the concatenation layer, which is linear; the output layer is a
softmax whose entries are read directly as Q-values.

Everything is numpy float64 and hand-backpropagated so gradients can be
checked against finite differences.

Each net keeps its weights and its DQN target copy of them in the two rows
of one buffer, and its gradients in a flat buffer of the row's layout, each
seen as a tuple of per-layer views.  The target row changes only at
`sync_target`.  One workspace of preallocated buffers per batch size serves
every pass: `forward_cached` runs the weights alone, and `forward_pair` runs
the weights and the target row as one stacked pass, which `td_loss` uses.
What a caller gets back lives as follows:

- q from `forward_cached` (and `forward`), and q and the target's q from
  `forward_pair`, are fresh column-major arrays;
- the layer inputs `hs` from `forward_cached` and `forward_pair` belong to
  the net and hold until its next pass at the same batch size;
- the gradients from `backward` (and `td_loss`) are views into the net's
  gradient buffer and hold until its next `backward`; `sgd_step` scales
  them by the learning rate in place;
- a game's `action_mask` is a read-only array shared by every call at
  the same node.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from gridswarm.scenario import (
    ACTION_DELTAS,
    N_ACTIONS,
    action_mask_bounds,
    encode_conflict_state,
    encode_free_state,
    region_toward,
)
from gridswarm.world import reject_non_finite

_MAGIC = b"GSQN"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_widths: tuple
    skip_concat: tuple | None = None  # (source layer, destination layer)
    output_dim: ClassVar[int] = N_ACTIONS  # one Q-value per action

    @classmethod
    def conflict(cls) -> "NetworkSpec":
        return cls(12, (32,) * 5, skip_concat=(1, 4))

    @classmethod
    def free(cls) -> "NetworkSpec":
        return cls(2, (16,) * 2)

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


# the program's two nets by policy role: `load_weights` reads no other
POLICIES = {"conflict": NetworkSpec.conflict(), "free": NetworkSpec.free()}


class QNetwork:
    """Weights plus forward/backward passes for one NetworkSpec.

    Every weight matrix is a view into row 0 of one (2, n) float64 buffer,
    in the order of `spec.weight_shapes()`; row 1, of the same layout, holds
    the target net's weights, and every gradient is a view of that layout
    into a flat buffer of its own, so an SGD step and a target sync are a
    call or two each.  `weights` is a read-only tuple of the row-0 views, so
    neither it nor an entry can be rebound: write into an entry in place.

    The buffer lifetimes are in the module docstring.
    """

    def __init__(self, spec: NetworkSpec, weights: list):
        shapes = spec.weight_shapes()
        found = [np.shape(w) for w in weights]
        if found != shapes:
            raise ValueError(f"weight shapes {found}, {spec} needs {shapes}")
        self.spec = spec
        self._rows = np.empty((2, sum(rows * cols for rows, cols in shapes)))
        self._flat, self._target = self._rows
        self._grad_flat = np.zeros(self._flat.shape)
        self._grads = _split(self._grad_flat, shapes)
        self._weights = _split(self._flat, shapes)
        for view, w in zip(self._weights, weights):
            view[...] = w
        self._target[...] = self._flat
        # (2, in+1, out) per layer: the transposed weights over both rows
        self._transposed = [np.swapaxes(w, 1, 2) for w in _split(self._rows, shapes)]
        self._unbiased = [w[:, :-1] for w in self._weights]
        self._work = {}  # batch size -> _Workspace

    @classmethod
    def initialize(cls, spec: NetworkSpec, rng) -> "QNetwork":
        weights = []
        for shape in spec.weight_shapes():
            bound = 1.0 / np.sqrt(shape[1] - 1)  # fan-in, without the bias column
            weights.append(rng.uniform(-bound, bound, size=shape))
        return cls(spec, weights)

    def copy(self) -> "QNetwork":
        """A net with the same weights in its own buffers; its target row
        starts as a copy of those weights."""
        return QNetwork(self.spec, self.weights)

    @property
    def weights(self) -> tuple:
        """One (out, in+1) matrix per hidden layer, then the output's."""
        return self._weights

    def _workspace(self, batch: int) -> "_Workspace":
        work = self._work.get(batch)
        if work is None:
            work = self._work[batch] = _Workspace(self, batch)
        return work

    def _batch(self, states) -> np.ndarray:
        s = np.atleast_2d(np.asarray(states, dtype=float))
        if s.shape[1] != self.spec.input_dim:
            raise ValueError(
                f"state width {s.shape[1]} != input_dim {self.spec.input_dim}"
            )
        return s

    def forward_cached(self, states: np.ndarray):
        """Batch forward pass; returns (q, augmented layer inputs).

        Entry k of the list is the (B, in+1) input of layer k + 1, the
        output layer last: its first columns hold the activations of layer
        k (the states for k = 0), followed by the skip source's on the
        concatenation layer's input, and its last column is 1.0.  The list
        belongs to the net and is valid until its next pass at the same
        batch size; q is a fresh array.
        """
        s = self._batch(states)
        work = self._workspace(s.shape[0])
        np.copyto(work.states, s)
        return _run(work.single), work.inputs

    def forward_pair(self, states: np.ndarray, next_states: np.ndarray):
        """The pass of `forward_cached` on `states`, and the target net's on
        `next_states`, as one stacked pass; returns (q, q of the target,
        layer inputs of the online pass), which live as `forward_cached`'s."""
        s, s2 = self._batch(states), self._batch(next_states)
        if s.shape != s2.shape:
            raise ValueError(f"{s.shape[0]} states but {s2.shape[0]} next states")
        work = self._workspace(s.shape[0])
        np.copyto(work.states, s)
        np.copyto(work.next_states, s2)
        q, q2 = _run(work.pair)
        return q, q2, work.inputs

    def forward(self, state: np.ndarray) -> np.ndarray:
        q, _ = self.forward_cached(state)
        return q[0] if np.ndim(state) == 1 else q

    def backward(self, q: np.ndarray, hs: list, actions: np.ndarray,
                 coeff: np.ndarray) -> tuple:
        """Gradients of sum_b coeff[b] * Q(s_b, a_b) w.r.t. every weight.

        `q` and `hs` come from this net's last pass at their batch size, and
        each action lies in range(output_dim).  The gradients are views into
        the net's flat gradient buffer, valid until its next `backward`;
        `sgd_step` scales them in place.
        """
        work = self._work.get(q.shape[0])
        if work is None or hs is not work.inputs:
            raise ValueError("hs must be the layer inputs of this net's last pass")
        delta = work.delta_out
        # flat index of each (b, a_b); an action outside the row raises
        taken = np.ravel_multi_index((work.rows, actions), q.shape)
        # the softmax jacobian row of each sample, times coeff[b] * qa[b]
        np.multiply(coeff, q.take(taken), work.cqa)
        np.multiply(work.cqa_col, q, delta)
        np.negative(delta, delta)
        work.delta_flat[taken] += work.cqa
        np.matmul(delta.T, hs[-1], self._grads[-1])
        np.matmul(delta, self._unbiased[-1], work.dh_out)
        for dh, skip_dh, h, deriv, d, d_t, x, grad, unbiased, dinp in work.back:
            if skip_dh is not None:
                np.add(dh, skip_dh, dh)
            if deriv is not None:  # a tanh layer: d = dh * (1 - h**2)
                np.square(h, deriv)
                np.subtract(1.0, deriv, deriv)
                np.multiply(dh, deriv, deriv)
            np.matmul(d_t, x, grad)
            if dinp is not None:
                np.matmul(d, unbiased, dinp)
        return self._grads

    def sgd_step(self, lr: float):
        """w -= lr * g for every weight and the gradients of the last
        `backward`: the bits of that loop, in two calls over the flat
        buffers (g *= lr, then w -= g), so the gradients are left scaled."""
        g = self._grad_flat
        g *= lr
        self._flat -= g


def _split(flat: np.ndarray, shapes: list) -> tuple:
    """Consecutive C-ordered views of the last axis of `flat`, one per shape."""
    views, start = [], 0
    for rows, cols in shapes:
        view = flat[..., start:start + rows * cols]
        views.append(view.reshape(flat.shape[:-1] + (rows, cols)))
        start += rows * cols
    return tuple(views)


def _run(plan) -> np.ndarray:
    """Run one forward pass of a `_Workspace` plan, 2-D or stacked; the
    softmax runs on a column-major copy of the logits, where its reductions
    over the last axis add each row's terms in the order a C-ordered row
    would, with numpy's fast loop over the rows."""
    layers, x, wt, z, zf, row = plan
    # outputs are passed positionally: an out= keyword costs a parse per call
    for x_k, wt_k, pre, h, skip_to in layers:
        if pre is None:  # the linear layer writes its activations in place
            np.matmul(x_k, wt_k, h)
        else:  # tanh in place on a contiguous buffer beats writing a strided view
            np.matmul(x_k, wt_k, pre)
            np.tanh(pre, pre)
            np.copyto(h, pre)
        if skip_to is not None:
            np.copyto(skip_to, h)
    np.matmul(x, wt, z)  # a column-major z changes the gemm's bits on some kernels
    np.copyto(zf, z)
    np.subtract(zf, np.maximum.reduce(zf, -1, None, row, True), zf)
    np.exp(zf, zf)
    return zf / np.add.reduce(zf, -1, None, row, True)


class _Workspace:
    """Every buffer and view the passes of one net need at one batch size.

    Each layer input is a (2, B, in+1) buffer: slice 0 is the online pass's
    and slice 1 the target pass's.  `pair` plans the stacked pass over both
    slices and `single` the pass over slice 0 alone, whose views have the
    shapes and strides of a (B, in+1) buffer of their own.  A plan is
    (layers, output-layer input, its transposed weights, C-ordered logits
    buffer, its column-major copy (each slice contiguous), buffer of the
    max and then the sum of each logit row); `layers` has one entry per
    hidden layer: (input, transposed weights, contiguous buffer of the
    pre-activation and then the activation, or None on the linear layer,
    activation view in the next input, view of the concatenation input the
    activation is copied into, or None).

    `back` drives the backward pass, last hidden layer first: (dL/dh, the
    skip part of dL/dh or None, contiguous activation, tanh-derivative
    buffer, both None on the linear layer, d = dL/d pre-activation and its
    transpose, input, gradient view, weights without the bias column, dL/d
    input buffer or None on layer 1).  dL/dh is the leading columns of the
    next layer's dL/d input (the output layer's, on the last hidden layer);
    on the skip source the concatenation layer's tail columns are added
    into it in place.
    """

    def __init__(self, net: QNetwork, batch: int):
        spec = net.spec
        widths = spec.hidden_widths
        skip = spec.skip_concat
        inputs = [np.ones((2, batch, cols)) for _, cols in spec.weight_shapes()]
        self.states, self.next_states = inputs[0][..., :-1]
        layers = []
        for k, w in enumerate(widths, start=1):
            skip_to = (inputs[skip[1] - 1][..., -w - 1:-1]
                       if skip is not None and k == skip[0] else None)
            pre = None if spec.is_linear(k) else np.empty((2, batch, w))
            layers.append((inputs[k - 1], net._transposed[k - 1], pre, inputs[k][..., :w],
                           skip_to))
        self.pair = (layers, inputs[-1], net._transposed[-1],
                     np.empty((2, batch, spec.output_dim)),
                     np.empty((2, spec.output_dim, batch)).transpose(0, 2, 1),
                     np.empty((2, batch, 1)))
        self.single = ([tuple(v if v is None else v[0] for v in layer) for layer in layers],
                       *(v[0] for v in self.pair[1:]))
        self.inputs = [x[0] for x in inputs]
        n = len(widths)
        self.rows = np.arange(batch)
        self.cqa_col = np.empty((batch, 1))  # coeff[b] * q[b, a_b]
        self.cqa = self.cqa_col[:, 0]
        self.delta_out = np.empty((batch, spec.output_dim))
        self.delta_flat = self.delta_out.reshape(-1)
        self.dh_out = np.empty((batch, widths[-1]))
        dinps = {k: np.empty((batch, spec.layer_input_width(k))) for k in range(2, n + 1)}
        dinps[n + 1] = self.dh_out
        self.back = []
        for k in range(n, 0, -1):
            w = widths[k - 1]
            dh = dinps[k + 1][:, :w]
            skip_dh = (dinps[skip[1]][:, widths[skip[1] - 2]:]
                       if skip is not None and k == skip[0] else None)
            deriv = None if spec.is_linear(k) else np.empty((batch, w))
            d = dh if deriv is None else deriv
            act = layers[k - 1][2]  # the contiguous activations, or None
            self.back.append((dh, skip_dh, None if act is None else act[0], deriv, d, d.T,
                              self.inputs[k - 1], net._grads[k - 1], net._unbiased[k - 1],
                              dinps.get(k)))


def sync_target(net: QNetwork):
    """Copy the net's weights into its target row."""
    np.copyto(net._target, net._flat)


def td_loss(net: QNetwork, batch: dict, gamma: float):
    """Mean squared TD error over a batch plus its weight gradients.

    Runs one `forward_pair` of `net` at the batch size, its target row
    bootstrapping from s', and one `backward`; the gradients are that
    backward's views.

    The max in the bootstrap term runs over the actions available at s'
    only and is zeroed on terminal transitions.
    """
    s, a, r = batch["s"], batch["a"], batch["r"]
    n = len(a)
    if n == 0:
        raise ValueError("empty batch")
    q, q2, hs = net.forward_pair(s, batch["s2"])
    # exact: q2 >= +0.0 (a softmax) and STAY is always available, so zeroing
    # the unavailable actions keeps each row's max, and zeroing a terminal
    # row makes it +0.0; the transposes reduce over q2's outer axis
    max_q2 = np.maximum.reduce(q2.T * (batch["avail2"].T & ~batch["terminal"]), 0)
    y = r + gamma * max_q2
    err = y - q[np.arange(n), a]
    loss = float(np.add.reduce(err * err)) / n  # the bits of np.mean(err**2)
    coeff = -2.0 * err / n
    grads = net.backward(q, hs, np.asarray(a), coeff)
    return loss, grads


def act_epsilon_greedy(net: QNetwork, state, avail: np.ndarray, eps: float, rng) -> int:
    """Explore uniformly over available actions with prob eps, else argmax;
    `avail` holds one flag per action."""
    avail = np.asarray(avail, dtype=bool)
    if avail.shape != (N_ACTIONS,):
        raise ValueError(f"an action mask has shape ({N_ACTIONS},), not {avail.shape}")
    choices = avail.nonzero()[0]
    if not len(choices):
        raise ValueError("no available action")
    if eps > 0 and rng.random() < eps:
        return int(choices[rng.integers(len(choices))])
    q = net.forward(np.asarray(state, dtype=float))
    return int(choices[q.take(choices).argmax()])  # ties go to the lowest action index


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
    spec = NetworkSpec(input_dim, unpack(f"<{n_hidden}I"), skip)
    if output_dim != N_ACTIONS or spec not in POLICIES.values():
        raise ValueError(f"a net of {input_dim} inputs, hidden widths {spec.hidden_widths}, "
                         f"skip_concat {skip} and {output_dim} outputs is not a "
                         f"{' or '.join(POLICIES)} net")
    weights = []
    for shape in spec.weight_shapes():
        found = unpack("<II")
        if found != shape:
            raise ValueError(f"weight matrix of shape {found}, {spec} needs {shape}")
        data = np.frombuffer(read(8 * shape[0] * shape[1]), dtype="<f8")
        if not np.isfinite(data).all():
            raise ValueError(f"non-finite weight in a matrix of shape {shape}")
        weights.append(data.reshape(shape))
    if f.read(1):
        raise ValueError("trailing bytes after the last weight matrix")
    return QNetwork(spec, weights)


# ---------------------------------------------------------------------------
# replay and training

# DQN settings shared by both nets; epsilon decays from 1.0.
GAMMA = 0.9
TARGET_SYNC_PERIOD = 100  # SGD updates between target-net copies
REPLAY_CAPACITY = 10_000
BATCH_SIZE = 32


@dataclass
class TrainerConfig:
    learning_rate: float = 1e-3
    episodes: int = 20_000
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.5  # fraction of episodes over which eps decays
    lr_end_scale: float = 0.1  # final learning-rate multiplier (linear decay)
    reward_block: ClassVar[int] = 100  # episodes per logged average

    def __post_init__(self):
        reject_non_finite(self)
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, not {self.learning_rate}")
        for name in ("eps_end", "eps_decay_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], not {getattr(self, name)}")
        if self.lr_end_scale < 0.0:
            raise ValueError(f"lr_end_scale must not be negative, not {self.lr_end_scale}")
        if self.episodes < self.reward_block:
            raise ValueError(f"episodes ({self.episodes}) must cover at least one "
                             f"reward_block ({self.reward_block})")

    def epsilon(self, episode: int) -> float:
        horizon = max(1, int(self.episodes * self.eps_decay_fraction))
        frac = min(1.0, episode / horizon)
        return 1.0 + frac * (self.eps_end - 1.0)

    def lr(self, episode: int) -> float:
        # Full rate while epsilon is still decaying, then anneal linearly so
        # late updates stop perturbing the converged policy.
        frac = min(1.0, episode / max(1, self.episodes))
        if frac <= self.eps_decay_fraction:
            return self.learning_rate
        t = (frac - self.eps_decay_fraction) / max(1e-12, 1.0 - self.eps_decay_fraction)
        return self.learning_rate * (1.0 + t * (self.lr_end_scale - 1.0))


class ReplayBuffer:
    """Ring of the last `capacity` transitions (s, a, r, s2, terminal,
    avail2), one preallocated numpy column per field."""

    FIELDS = ("s", "a", "r", "s2", "terminal", "avail2")
    DTYPES = (float, np.int64, float, float, bool, bool)

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.columns = None  # allocated at the first push, shaped by it
        self.size = 0
        self.pos = 0

    def push(self, item):
        if self.columns is None:
            # np.empty leaves the pages no transition has reached unbacked
            self.columns = [np.empty((self.capacity,) + np.shape(v), dtype=dtype)
                            for v, dtype in zip(item, self.DTYPES)]
        for column, v in zip(self.columns, item):
            column[self.pos] = v
        self.pos = (self.pos + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def __len__(self):
        return self.size

    def sample(self, n: int, rng) -> dict:
        idx = rng.integers(self.size, size=n)
        # take copies the rows of a 2-D column in a third of the time of column[idx]
        return {name: column.take(idx, 0) for name, column in zip(self.FIELDS, self.columns)}


# the self-play rewards of both games
STEP_PENALTY, GOAL_REWARD, COLLISION_REWARD = -0.1, 1.0, -1.0


def _mask_table(size: int) -> dict:
    """Read-only `action_mask_bounds` of every node of a size x size board."""
    table = {}
    for node in np.ndindex(size, size):
        mask = table[node] = action_mask_bounds(node, size, size)
        mask.flags.writeable = False
    return table


class ConflictGame:
    """Self-play conflict episodes on a 4x4 playfield.

    Agents spawn on distinct nodes of a shared 2x2 block and must reach
    distinct goal nodes inside that block.  All agents move at once; two
    active agents on one node, or a position swap, is a collision and ends
    the episode.  An agent that reaches its goal leaves the playfield (its
    task is resolved), matching the state encoding, in which a robot with
    zero goal displacement is indistinguishable from an empty node.
    Rewards: -0.1 per step, +1 on reaching the goal (0.9 for a one-step
    resolution), -1 for a collision.  An episode ends after at most
    MAX_STEPS moves, in training and in evaluation alike.
    """

    SIZE = 4
    MAX_STEPS = 12
    MASKS = _mask_table(SIZE)

    def __init__(self, n_agents: int = 2):
        if not 2 <= n_agents <= 4:
            raise ValueError("conflict games support 2 to 4 agents")
        self.n_agents = n_agents

    def reset(self, rng):
        r0 = int(rng.integers(self.SIZE - 1))
        c0 = int(rng.integers(self.SIZE - 1))
        block = [(r0 + dr, c0 + dc) for dr in (0, 1) for dc in (0, 1)]
        spawn_idx = rng.permutation(4)[: self.n_agents]
        goal_idx = rng.permutation(4)[: self.n_agents]
        self.pos = [block[i] for i in spawn_idx]
        self.goal = [block[i] for i in goal_idx]
        self.done = [p == g for p, g in zip(self.pos, self.goal)]
        self.reward_total = [GOAL_REWARD if d else 0.0 for d in self.done]
        self.steps = 0
        self.collided = False

    @property
    def finished(self) -> bool:
        return self.collided or all(self.done) or self.steps >= self.MAX_STEPS

    def encode(self, i: int) -> np.ndarray:
        """12-vector for agent i: 2x2 region placed toward its nearest peer.

        Peers that already resolved their task have left the field and are
        neither probed nor bound.
        """
        pos = self.pos
        r, c = pos[i]
        others = [j for j, done in enumerate(self.done) if j != i and not done]
        orr, oc = r, c
        if others:
            orr, oc = pos[min(others, key=lambda j: (abs(pos[j][0] - r) + abs(pos[j][1] - c), j))]
        # a peer level with self on an axis is probed one node past, so the
        # block takes the later start there (missions take the earlier one);
        # ROADMAP item 6 says why the rules stay apart
        corner = region_toward((r, c), (orr + (orr == r), oc + (oc == c)),
                               2, self.SIZE, self.SIZE)
        # the encoder looks up only the block's four nodes, so every active
        # peer is bound
        bindings = {pos[k]: ("robot", k) for k in others}
        return encode_conflict_state(corner, bindings, pos[i], self.goal[i],
                                     dict(enumerate(self.goal)))

    def action_mask(self, i: int) -> np.ndarray:
        return self.MASKS[self.pos[i]]

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
                if new[i] == new[j] or (new[i] == old[j] and new[j] == old[i]):
                    hit.update((i, j))
        out = {}
        for i, _a in actions.items():
            if i in hit:
                out[i] = (COLLISION_REWARD, True)
            elif new[i] == self.goal[i]:
                out[i] = (STEP_PENALTY + GOAL_REWARD, True)
                self.done[i] = True
            else:
                out[i] = (STEP_PENALTY, False)
            self.reward_total[i] += out[i][0]
        self.pos = new
        self.steps += 1
        if hit:
            self.collided = True
        return out


class FreeGame:
    """Single-agent goal-seeking on a 3x3 grid with displacement-sign states."""

    SIZE = 3
    MAX_STEPS = 20
    MASKS = _mask_table(SIZE)

    def reset(self, rng):
        self.pos = (int(rng.integers(self.SIZE)), int(rng.integers(self.SIZE)))
        self.goal = (int(rng.integers(self.SIZE)), int(rng.integers(self.SIZE)))
        self.steps = 0
        self.reward_total = GOAL_REWARD if self.pos == self.goal else 0.0

    @property
    def finished(self) -> bool:
        return self.pos == self.goal or self.steps >= self.MAX_STEPS

    def encode(self) -> np.ndarray:
        # state axes are (x, y) = (col, row)
        return encode_free_state(
            (self.pos[1], self.pos[0]), (self.goal[1], self.goal[0])
        )

    def action_mask(self) -> np.ndarray:
        return self.MASKS[self.pos]

    def step(self, action: int):
        dr, dc = ACTION_DELTAS[action]
        self.pos = (self.pos[0] + dr, self.pos[1] + dc)
        self.steps += 1
        if self.pos == self.goal:
            r, terminal = STEP_PENALTY + GOAL_REWARD, True
        else:
            r, terminal = STEP_PENALTY, False
        self.reward_total += r
        return r, terminal


def _train(net: QNetwork, config: TrainerConfig, rng, game, play):
    """DQN with replay and a target net; returns (net, mean reward per block).

    `play(game, act, learn)` runs each reset episode to the end, choosing
    through `act(state, avail)` and passing `learn` every transition.
    """
    sync_target(net)
    buffer = ReplayBuffer(REPLAY_CAPACITY)
    updates = 0

    def learn(transition):
        nonlocal updates
        buffer.push(transition)
        if len(buffer) < BATCH_SIZE:
            return
        batch = buffer.sample(BATCH_SIZE, rng)
        td_loss(net, batch, GAMMA)
        net.sgd_step(lr)
        updates += 1
        if updates % TARGET_SYNC_PERIOD == 0:
            sync_target(net)

    rewards = []
    for episode in range(config.episodes):
        eps = config.epsilon(episode)
        lr = config.lr(episode)
        game.reset(rng)
        play(game, lambda s, avail: act_epsilon_greedy(net, s, avail, eps, rng), learn)
        # one total per agent in a conflict game, a single one in a free game
        rewards.append(float(np.mean(game.reward_total)))
    block = config.reward_block
    return net, [(i // block, float(np.mean(rewards[i: i + block])))
                 for i in range(0, len(rewards) - block + 1, block)]


def _conflict_episode(game: ConflictGame, act, learn):
    """Play a reset conflict game out: every active agent acts, in id order,
    then all move at once; `learn` (None when evaluating) gets each mover's
    transition, whose next state is the state that mover acts on next."""
    views = {i: (game.encode(i), game.action_mask(i))
             for i in range(game.n_agents) if not game.done[i]}
    while not game.finished:
        actions = {i: act(s, avail) for i, (s, avail) in views.items()}
        outcome = game.step(actions)
        nexts = {i: (game.encode(i), game.action_mask(i)) for i in views}
        if learn is not None:
            for i, (s, _avail) in views.items():
                (r, terminal), (s2, avail2) = outcome[i], nexts[i]
                learn((s, actions[i], r, s2, terminal, avail2))
        views = {i: v for i, v in nexts.items() if not game.done[i]}


def _free_episode(game: FreeGame, act, learn):
    s, avail = game.encode(), game.action_mask()
    while not game.finished:
        a = act(s, avail)
        r, terminal = game.step(a)
        s2, avail2 = game.encode(), game.action_mask()
        learn((s, a, r, s2, terminal, avail2))
        s, avail = s2, avail2


def train_conflict_selfplay(config: TrainerConfig, n_agents: int = 2, seed: int = 0,
                            base_net: QNetwork | None = None):
    """Self-play training of the conflict net; returns (net, reward log).

    All agents act through one shared policy instance whose experience
    jointly trains it.  For n_agents > 2 pass the policy trained on one
    fewer agent as `base_net`.
    """
    if base_net is None and n_agents > 2:
        raise ValueError("training with >2 agents needs the previous policy")
    rng = np.random.default_rng(seed)
    net = (QNetwork.initialize(NetworkSpec.conflict(), rng) if base_net is None
           else base_net.copy())
    return _train(net, config, rng, ConflictGame(n_agents=n_agents), _conflict_episode)


def train_free(config: TrainerConfig, seed: int = 0):
    """Train the conflict-free net on the 3x3 goal-seeking gridworld."""
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(NetworkSpec.free(), rng)
    return _train(net, config, rng, FreeGame(), _free_episode)


def evaluate_conflict_policy(net: QNetwork, n_cases: int = 10_000, seed: int = 1,
                             n_agents: int = 2) -> float:
    """Collision-avoidance rate of the greedy policy over random conflicts."""
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, not {n_cases}")
    rng = np.random.default_rng(seed)
    game = ConflictGame(n_agents=n_agents)
    def greedy(state, avail):
        return act_epsilon_greedy(net, state, avail, 0.0, rng)

    collisions = 0
    for _ in range(n_cases):
        game.reset(rng)
        _conflict_episode(game, greedy, None)
        collisions += game.collided
    return 1.0 - collisions / n_cases


def save_reward_log(log: list, path):
    with open(path, "w") as f:
        f.write("episode_block,mean_reward\n")
        for block, mean in log:
            f.write(f"{block},{mean}\n")
