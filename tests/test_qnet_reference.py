"""Byte-identity of the Q-net passes and the replay ring against references.

The references are the straightforward forms: every layer input built by
`np.concatenate` with a column of ones, a target net that is a second net
with its own pass, replay kept as a list of transition tuples, and an SGD
step that is `w -= lr * g` on every matrix.  The shipped code reuses each
net's preallocated per-batch workspace, keeps its weights and its target
copy in one two-row buffer and runs both nets' passes as one stacked pass,
keeps gradients in a flat buffer that one fused step updates, and keeps
replay in numpy columns; all must produce the same bytes, so trained
weights do not move.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from gridswarm import qnet
from gridswarm.qnet import NetworkSpec, QNetwork, ReplayBuffer, sync_target, td_loss

SPECS = {"conflict": NetworkSpec.conflict(), "free": NetworkSpec.free()}
batch_sizes = st.lists(st.integers(1, 40), min_size=1, max_size=6)
seeds = st.integers(0, 2**32 - 1)


# -- reference passes --------------------------------------------------------

def _aug(h):
    return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)


def _layer_input(spec, hs, layer):
    if spec.skip_concat is not None and layer == spec.skip_concat[1]:
        return np.concatenate([hs[layer - 1], hs[spec.skip_concat[0]]], axis=1)
    return hs[layer - 1]


def ref_forward_cached(net, states):
    spec = net.spec
    hs = [np.atleast_2d(np.asarray(states, dtype=float))]
    for layer in range(1, len(spec.hidden_widths) + 1):
        pre = _aug(_layer_input(spec, hs, layer)) @ net.weights[layer - 1].T
        hs.append(pre if spec.is_linear(layer) else np.tanh(pre))
    z = _aug(hs[-1]) @ net.weights[-1].T
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True), hs


def ref_backward(net, q, hs, actions, coeff):
    spec = net.spec
    B, n_hidden = q.shape[0], len(spec.hidden_widths)
    qa = q[np.arange(B), actions]
    delta_out = -coeff[:, None] * qa[:, None] * q
    delta_out[np.arange(B), actions] += coeff * qa
    grads = [None] * len(net.weights)
    grads[-1] = delta_out.T @ _aug(hs[-1])
    dh = [None] * (n_hidden + 1)
    dh[n_hidden] = delta_out @ net.weights[-1][:, :-1]

    def accum(idx, val):
        dh[idx] = val if dh[idx] is None else dh[idx] + val

    for layer in range(n_hidden, 0, -1):
        d = dh[layer]
        if not spec.is_linear(layer):
            d = d * (1.0 - hs[layer] ** 2)
        grads[layer - 1] = d.T @ _aug(_layer_input(spec, hs, layer))
        dinp = d @ net.weights[layer - 1][:, :-1]
        if layer == 1:
            continue
        prev_w = spec.hidden_widths[layer - 2]
        accum(layer - 1, dinp[:, :prev_w])
        if spec.skip_concat is not None and layer == spec.skip_concat[1]:
            accum(spec.skip_concat[0], dinp[:, prev_w:])
    return grads


def ref_td_loss(net, target_net, batch, gamma):
    s, a, r = batch["s"], batch["a"], batch["r"]
    q2 = ref_forward_cached(target_net, batch["s2"])[0]
    q2 = np.where(batch["avail2"], q2, -np.inf)
    max_q2 = np.where(batch["terminal"], 0.0, q2.max(axis=1))
    y = r + gamma * max_q2
    q, hs = ref_forward_cached(net, s)
    err = y - q[np.arange(len(a)), a]
    coeff = -2.0 * err / len(a)
    return float(np.mean(err**2)), ref_backward(net, q, hs, np.asarray(a), coeff)


def target_weights(net):
    """The per-matrix views of the net's target row."""
    return qnet._split(net._target, net.spec.weight_shapes())


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_layers_match(net, hs, ref_hs):
    """Each buffer holds its layer's activations, then the skip source's on
    the concatenation layer's input, then the bias column of ones."""
    spec = net.spec
    widths = (spec.input_dim,) + spec.hidden_widths
    assert len(hs) == len(ref_hs)
    for k, (buf, h) in enumerate(zip(hs, ref_hs)):
        assert_same(np.ascontiguousarray(buf[:, :widths[k]]), h)
        assert np.all(buf[:, -1] == 1.0)
        if spec.skip_concat is not None and k == spec.skip_concat[1] - 1:
            src = ref_hs[spec.skip_concat[0]]
            assert_same(np.ascontiguousarray(buf[:, widths[k]:-1]), src)
        else:
            assert buf.shape[1] == widths[k] + 1


def random_batch(rng, spec, B):
    avail2 = rng.random((B, spec.output_dim)) < 0.5
    avail2[np.arange(B), rng.integers(0, spec.output_dim, size=B)] = True  # as games do
    return {
        "s": rng.normal(scale=2.0, size=(B, spec.input_dim)),
        "a": rng.integers(0, spec.output_dim, size=B),
        "r": rng.uniform(-1.0, 1.0, size=B),
        "s2": rng.normal(scale=2.0, size=(B, spec.input_dim)),
        "terminal": rng.random(B) < 0.3,
        "avail2": avail2,
    }


# -- passes ------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, batch_sizes)
def test_forward_and_backward_match_reference(name, seed, sizes):
    """Batch sizes interleave on one net; each pass and its gradients equal
    the reference's byte for byte, and no earlier q is overwritten."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(spec, rng)
    earlier = []
    for B, other in zip(sizes, sizes[1:] + sizes[:1]):
        s = rng.normal(scale=2.0, size=(B, spec.input_dim))
        a = rng.integers(0, spec.output_dim, size=B)
        coeff = rng.normal(size=B)
        ref_q, ref_hs = ref_forward_cached(net, s)
        q, hs = net.forward_cached(s)
        assert_same(q, ref_q)
        assert_layers_match(net, hs, ref_hs)
        if other != B:  # a pass at another batch size leaves these inputs be
            net.forward_cached(rng.normal(size=(other, spec.input_dim)))
        grads = net.backward(q, hs, a, coeff)
        for g, ref_g in zip(grads, ref_backward(net, ref_q, ref_hs, a, coeff)):
            assert_same(g, ref_g)
        earlier.append((q, q.copy()))
    for q, snapshot in earlier:
        assert_same(q, snapshot)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds)
def test_single_state_forward_matches_reference(name, seed):
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(spec, rng)
    state = rng.normal(scale=2.0, size=spec.input_dim)
    assert_same(net.forward(state), ref_forward_cached(net, state)[0][0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, batch_sizes)
def test_sgd_on_td_loss_matches_reference(name, seed, sizes):
    """An online net and its target row, trained for a few SGD steps at
    interleaved batch sizes, keep the exact weights of the reference's
    online net and separate target net."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(spec, rng)
    ref_net, ref_target = net.copy(), net.copy()
    for step, B in enumerate(sizes):
        batch = random_batch(rng, spec, B)
        loss, grads = td_loss(net, batch, gamma=0.9)
        ref_loss, ref_grads = ref_td_loss(ref_net, ref_target, batch, gamma=0.9)
        assert loss == ref_loss
        for g, ref_g in zip(grads, ref_grads):
            assert_same(g, ref_g)
        for w, g, ref_w, ref_g in zip(net.weights, grads, ref_net.weights, ref_grads):
            w -= 0.1 * g
            ref_w -= 0.1 * ref_g
        if step % 2:  # sync the targets now and then, as training does
            sync_target(net)
            for ref_wt, ref_w in zip(ref_target.weights, ref_net.weights):
                np.copyto(ref_wt, ref_w)
    for w, ref_w in zip(net.weights, ref_net.weights):
        assert_same(w, ref_w)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, st.integers(1, 40))
def test_copy_shares_no_layer_buffers(name, seed, B):
    """A pass of the copy at the same batch size leaves the original's
    layer inputs as they were."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(spec, rng)
    target = net.copy()
    s, s2 = rng.normal(size=(2, B, spec.input_dim))
    _q, hs = net.forward_cached(s)
    target.forward_cached(s2)
    assert_layers_match(net, hs, ref_forward_cached(net, s)[1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, st.integers(1, 40))
def test_forward_pair_matches_two_reference_passes(name, seed, B):
    """The stacked pass equals the reference pass of the net on s and of a
    separate target net on s2: q, q' and the online layer inputs."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    target = QNetwork.initialize(spec, rng)
    net = target.copy()  # its target row holds the target's weights
    for w in net.weights:
        w[...] = rng.uniform(-1.0, 1.0, size=w.shape)
    s, s2 = rng.normal(scale=2.0, size=(2, B, spec.input_dim))
    q, q2, hs = net.forward_pair(s, s2)
    ref_q, ref_hs = ref_forward_cached(net, s)
    assert_same(q, ref_q)
    assert_same(q2, ref_forward_cached(target, s2)[0])
    assert_layers_match(net, hs, ref_hs)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_target_row_moves_only_at_sync(name):
    """backward and sgd_step leave the target row byte for byte as it was;
    sync_target copies the weights into it, and a copy() of the net shares
    no memory with it."""
    spec = SPECS[name]
    rng = np.random.default_rng(11)
    net = QNetwork.initialize(spec, rng)
    kept = [w.copy() for w in target_weights(net)]
    for B in (8, 1, 8):
        td_loss(net, random_batch(rng, spec, B), gamma=0.9)
        net.sgd_step(0.1)
        for wt, want in zip(target_weights(net), kept):
            assert_same(wt, want)
    assert any(not np.array_equal(w, want) for w, want in zip(net.weights, kept))
    sync_target(net)
    for wt, w in zip(target_weights(net), net.weights):
        assert_same(wt, w)
    twin = net.copy()
    td_loss(twin, random_batch(rng, spec, 8), gamma=0.9)
    for a in twin.weights + target_weights(twin) + twin._grads:
        for b in net.weights + target_weights(net):
            assert not np.shares_memory(a, b)


# -- the flat weight and gradient buffers ------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, batch_sizes,
       st.lists(st.floats(1e-4, 0.5), min_size=6, max_size=6))
def test_trainer_update_matches_reference(name, seed, sizes, rates):
    """The trainer's own update, td_loss then the flat sgd_step, with
    sync_target now and then, keeps the weights of the reference's
    w -= lr * g on every matrix byte for byte."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    net = QNetwork.initialize(spec, rng)
    ref_net, ref_target = net.copy(), net.copy()
    for step, (B, lr) in enumerate(zip(sizes, rates)):
        batch = random_batch(rng, spec, B)
        loss, _grads = td_loss(net, batch, gamma=0.9)
        net.sgd_step(lr)
        ref_loss, ref_grads = ref_td_loss(ref_net, ref_target, batch, gamma=0.9)
        for w, g in zip(ref_net.weights, ref_grads):
            w -= lr * g
        assert loss == ref_loss
        for w, ref_w in zip(net.weights, ref_net.weights):
            assert_same(w, ref_w)
        if step % 2:
            sync_target(net)
            for wt, w in zip(ref_target.weights, ref_net.weights):
                np.copyto(wt, w)
            for wt, ref_wt in zip(target_weights(net), ref_target.weights):
                assert_same(wt, ref_wt)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_copy_shares_no_weight_or_gradient_memory(name):
    spec = SPECS[name]
    rng = np.random.default_rng(5)
    net = QNetwork.initialize(spec, rng)
    twin = net.copy()
    batch = random_batch(rng, spec, 8)
    _loss, grads = td_loss(net, batch, gamma=0.9)
    _loss, twin_grads = td_loss(twin, batch, gamma=0.9)
    for a, b in zip(net.weights + grads, twin.weights + twin_grads):
        assert not np.shares_memory(a, b)
    before = [w.copy() for w in net.weights]
    twin.sgd_step(0.1)  # steps the copy only
    for w, kept in zip(net.weights, before):
        assert_same(w, kept)
    for g, twin_g in zip(grads, twin_grads):
        assert not np.array_equal(g, twin_g)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_an_update_after_acts_matches_the_reference(name):
    """Acts at batch 1 and 8 before the net's first update leave that
    update matching the reference."""
    spec = SPECS[name]
    rng = np.random.default_rng(4)
    net = QNetwork.initialize(spec, rng)
    ref_net = net.copy()
    for B in (1, 8):
        net.forward_cached(rng.normal(size=(B, spec.input_dim)))
    batch = random_batch(rng, spec, 8)
    _loss, grads = td_loss(net, batch, gamma=0.9)
    _ref_loss, ref_grads = ref_td_loss(ref_net, ref_net.copy(), batch, gamma=0.9)
    for g, ref_g in zip(grads, ref_grads):
        assert_same(g, ref_g)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_net_comes_with_a_zeroed_gradient_buffer(name, tmp_path):
    """A fresh net, a copy and a loaded net each hold zeroed gradients in
    the layout of `spec.weight_shapes()`, in memory of their own, and an
    SGD step before any backward leaves the weights as they were."""
    spec = SPECS[name]
    net = QNetwork.initialize(spec, np.random.default_rng(6))
    qnet.save_weights(net, tmp_path / "net.qnet")
    nets = [net, net.copy(), qnet.load_weights(tmp_path / "net.qnet")]
    for a in nets:
        assert [g.shape for g in a._grads] == spec.weight_shapes()
        assert all(np.shares_memory(g, a._grad_flat) for g in a._grads)
        assert not a._grad_flat.any()
        for b in nets:
            if b is not a:
                assert not np.shares_memory(a._grad_flat, b._grad_flat)
        kept = a._flat.tobytes()
        a.sgd_step(0.1)
        assert a._flat.tobytes() == kept


def test_weights_cannot_be_rebound():
    """`weights` and its entries are the views of the flat buffer the
    trainer steps: rebinding either is refused and leaves the buffer as it
    was, and a write into an entry in place reaches the next pass."""
    spec = SPECS["free"]
    net = QNetwork.initialize(spec, np.random.default_rng(2))
    kept = net._flat.tobytes()
    with pytest.raises(TypeError):
        net.weights[1] = net.weights[1].copy()
    with pytest.raises(AttributeError):
        net.weights = [w.copy() for w in net.weights]
    assert net._flat.tobytes() == kept
    s = np.random.default_rng(3).normal(size=(4, spec.input_dim))
    before = net.forward(s)
    net.weights[1][:, -1] += 0.5  # every layer-2 bias, in place
    q = net.forward(s)
    assert not np.array_equal(q, before)
    assert_same(q, ref_forward_cached(net, s)[0])


# -- replay ------------------------------------------------------------------

class ListReplay:
    """The list-of-tuples ring: the reference for ReplayBuffer."""

    def __init__(self, capacity):
        self.capacity, self.items, self.pos = capacity, [], 0

    def push(self, item):
        if len(self.items) < self.capacity:
            self.items.append(item)
        else:
            self.items[self.pos] = item
        self.pos = (self.pos + 1) % self.capacity

    def sample(self, n, rng):
        idx = rng.integers(len(self.items), size=n)
        s, a, r, s2, term, avail2 = zip(*(self.items[i] for i in idx))
        return {"s": np.array(s), "a": np.array(a), "r": np.array(r),
                "s2": np.array(s2), "terminal": np.array(term),
                "avail2": np.array(avail2)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPECS)), seeds, st.integers(1, 12),
       st.integers(1, 40), st.integers(1, 40))
def test_replay_sample_matches_list_reference(name, seed, capacity, pushes, n):
    """Pushes past capacity wrap around; every sample has the reference's
    rows, dtypes and shapes, and later pushes leave it as it was."""
    dim = SPECS[name].input_dim
    rng = np.random.default_rng(seed)
    buf, ref = ReplayBuffer(capacity, dim), ListReplay(capacity)
    draw, ref_draw = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    earlier = []
    for _ in range(pushes):
        item = (rng.normal(size=dim), int(rng.integers(5)), float(rng.normal()),
                rng.normal(size=dim), bool(rng.random() < 0.3), rng.random(5) < 0.7)
        buf.push(item)
        ref.push(item)
        assert len(buf) == len(ref.items)
        got, want = buf.sample(n, draw), ref.sample(n, ref_draw)
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
        earlier.append((got, want))
    for got, want in earlier:
        for key in want:
            assert_same(got[key], want[key])
