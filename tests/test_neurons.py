import hashlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (band_mask, dsn_bptt, dsn_dynamic_decay, dsn_op_chain,
                     dsn_serial_trace, lif_bptt, lif_step_fold, matrix_form, psn_dense,
                     round_half_away, step_fold)
from spikescan import neurons
from spikescan import numerics as nm
from spikescan.errors import (LengthMismatch, NonFiniteError, ShapeMismatch,
                              StepUnavailable)
from spikescan.neurons import (NEURON_KINDS, DsnNeuron, DsnParams, DsnState,
                               LifNeuron, Neuron, NeuronConfig, PsnNeuron,
                               PsnParams, dsn_forward_parallel, make_neuron,
                               psn_forward)
from spikescan.numerics import ArcTangent, Rectangular, StraightThrough, Tape, Tensor
from spikescan.props import check_long_control


def test_lif_step_hand_evaluated():
    neuron = LifNeuron(NeuronConfig(beta=0.5, v_th=1.0, reset_mode="hard"))
    s, _, v = neuron.step(neuron.init_state(1, 2), np.array([[2.0, 0.6]]))
    np.testing.assert_array_equal(s, [[1.0, 0.0]])
    # hard reset clears the firing lane, keeps the other at H
    np.testing.assert_allclose(v, [[0.0, 0.3]])
    # the taped forward over that one step agrees
    s_seq = neuron.forward(Tensor([[[2.0], [0.6]]]))
    assert s_seq.shape == (1, 2, 1)
    np.testing.assert_array_equal(s_seq.data[..., 0], s)


def test_if_soft_burst_spikes_four_steps():
    cfg = NeuronConfig.integrate_fire("soft")
    x = np.zeros((1, 1, 6))
    x[0, 0, 0] = 4.0
    s, h = LifNeuron(cfg).trace(x)
    np.testing.assert_array_equal(s[0, 0], [1, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(h[0, 0], [4, 3, 2, 1, 0, 0])


def test_zero_input_stays_silent():
    cfg = NeuronConfig(beta=0.5, reset_mode="soft")
    s, h = LifNeuron(cfg).trace(np.zeros((2, 3, 10)))
    assert not s.any() and not h.any()


def test_no_reset_if_accumulates_linearly():
    cfg = NeuronConfig.integrate_fire("none")
    x = np.full((1, 1, 8), 0.5)
    _, h = LifNeuron(cfg).trace(x)
    np.testing.assert_allclose(h[0, 0], 0.5 * np.arange(1, 9))


def test_beta_zero_is_memoryless():
    cfg = NeuronConfig(beta=0.0, reset_mode="hard")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 12))
    _, h = LifNeuron(cfg).trace(x)
    np.testing.assert_array_equal(h, x)


def test_sequence_matches_step_fold_bit_exactly():
    cfg = NeuronConfig(beta=0.25, v_th=1.0, reset_mode="soft")
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 40)) * 2.0
    neuron = LifNeuron(cfg)
    s_seq = neuron.forward(Tensor(x))
    _, h_seq = neuron.trace(x)
    state = neuron.init_state(2, 3)
    for t in range(40):
        s, h, state = neuron.step(state, x[..., t])
        np.testing.assert_array_equal(s, s_seq.data[..., t])
        np.testing.assert_array_equal(h, h_seq[..., t])


def test_config_validation():
    with pytest.raises(ValueError):
        NeuronConfig(beta=1.0)
    with pytest.raises(ValueError):
        NeuronConfig(beta=0.5, v_th=0.0)
    with pytest.raises(ValueError):
        NeuronConfig(beta=0.5, reset_mode="bounce")


# ---------------------------------------------------------------------------
# dynamic decay


def test_decay_of_zero_preactivation():
    params = DsnParams(conv_kernel=nm.zeros((3, 4)), conv_bias=nm.zeros((3,)),
                       tau=1.0)
    alpha = dsn_dynamic_decay(params, nm.zeros((2, 3, 4)))
    np.testing.assert_allclose(alpha.data, 0.5)


def test_decay_sharpening_power():
    params = DsnParams(conv_kernel=nm.zeros((1, 4)), conv_bias=nm.zeros((1,)),
                       tau=0.25)
    alpha = dsn_dynamic_decay(params, nm.zeros((1, 1, 4)))
    np.testing.assert_allclose(alpha.data, 0.5 ** 4)


def test_decay_strictly_inside_unit_interval():
    rng = np.random.default_rng(2)
    params = DsnParams.init(channels=5, seed=0)
    window = Tensor(rng.normal(size=(4, 5, 4)) * 50.0)
    alpha = dsn_dynamic_decay(params, window).data
    assert np.all(alpha > 0.0) and np.all(alpha < 1.0)


def test_dsn_step_degenerate_decay_tracks_input():
    # a hugely negative bias drives the decay to zero: H_t = x_t
    params = DsnParams(conv_kernel=nm.zeros((2, 4)),
                       conv_bias=Tensor([-2000.0, -2000.0]))
    neuron = DsnNeuron(params)
    state = DsnState.zeros(1, 2, 4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x_t = rng.normal(size=(1, 2)) * 3.0
        s, _, state = neuron.step(state, x_t)
        np.testing.assert_array_equal(state.h, x_t)
        np.testing.assert_array_equal(
            s, np.clip(round_half_away(x_t), 0, 4))


def test_dsn_long_control_bound():
    rng = np.random.default_rng(4)
    params = DsnParams.init(channels=3, seed=1)
    c_max = 2.5
    x = rng.uniform(0.0, c_max, size=(2, 3, 200))
    _, h, _ = dsn_serial_trace(params, x)
    assert h.max() <= c_max


def test_dsn_serial_equals_parallel():
    rng = np.random.default_rng(5)
    params = DsnParams.init(channels=4, k=4, seed=2)
    x = rng.normal(size=(2, 4, 1024)) * 2.0
    s_ser, h_ser, a_ser = dsn_serial_trace(params, x)
    # the neuron's own trace is the step fold, equal to the oracle bit for bit
    s_trace, h_trace = DsnNeuron(params).trace(x)
    np.testing.assert_array_equal(s_trace, s_ser)
    np.testing.assert_array_equal(h_trace, h_ser)
    s_par, h_par, a_par = dsn_forward_parallel(params, Tensor(x))
    np.testing.assert_array_equal(a_ser, a_par.data)
    assert np.max(np.abs(h_ser - h_par.data)) <= 1e-10
    np.testing.assert_array_equal(s_ser, s_par.data)


def test_dsn_t1_reduces_to_step():
    rng = np.random.default_rng(6)
    params = DsnParams.init(channels=2, seed=3)
    x = rng.normal(size=(1, 2, 1))
    s_par, h_par, _ = dsn_forward_parallel(params, Tensor(x))
    s_step, _, state = DsnNeuron(params).step(DsnState.zeros(1, 2, 4), x[..., 0])
    np.testing.assert_array_equal(s_par.data[..., 0], s_step)
    np.testing.assert_allclose(h_par.data[..., 0], state.h, atol=1e-14)


def test_dsn_matches_matrix_form_oracle():
    # tau = 1 keeps the decays inside the matrix-form guard band
    rng = np.random.default_rng(7)
    params = DsnParams.init(channels=3, k=4, tau=1.0, seed=4)
    x = rng.normal(size=(2, 3, 32)) * 0.5
    _, h_par, alpha = dsn_forward_parallel(params, Tensor(x))
    h_mat = matrix_form(alpha.data, x)
    assert np.max(np.abs(h_par.data - h_mat)) <= 1e-8


def test_dsn_streaming_state_is_bounded():
    params = DsnParams.init(channels=2, k=4, seed=5)
    neuron = DsnNeuron(params)
    state = neuron.init_state(1, 2)
    sizes = set()
    rng = np.random.default_rng(8)
    for _ in range(50):
        _, _, state = neuron.step(state, rng.normal(size=(1, 2)))
        sizes.add(neuron.state_size(state))
    assert len(sizes) == 1
    assert state.window.shape == (params.kernel_size - 1, 1, 2)  # tap-major


def _force_sum_route(monkeypatch, budget: int) -> None:
    """Run ``neurons._ordered_sum`` under a ``CONV_BLOCK_BYTES`` of budget
    bytes while every other caller keeps its own: 2**40 sends each step's
    sum of more than one element to the reduce, 0 every sum to the loop."""
    ordered_sum = neurons._ordered_sum

    def forced(*args, **kwargs):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nm, "CONV_BLOCK_BYTES", budget)
            return ordered_sum(*args, **kwargs)

    monkeypatch.setattr(neurons, "_ordered_sum", forced)


SUM_ROUTES = {"reduce": 2 ** 40, "loop": 0}


@pytest.mark.parametrize("route", list(SUM_ROUTES))
def test_step_sums_match_sequence_in_both_forms(monkeypatch, route):
    # the step's ordered sums (taps, and channels of a mix) as one reduce
    # and as a loop over terms; both must round as the taped ops do
    _force_sum_route(monkeypatch, SUM_ROUTES[route])
    rng = np.random.default_rng(24)
    c = 6
    base = DsnParams.init(channels=c, k=5, seed=8)
    params = DsnParams(conv_kernel=base.conv_kernel,
                       conv_bias=Tensor(rng.normal(size=c)),
                       channel_mix=Tensor(rng.normal(size=(c, c)) / np.sqrt(c)),
                       tau=0.5, n_max=3)
    x = rng.normal(size=(2, c, 300)) * 2.0
    s_par, _, a_par = dsn_forward_parallel(params, Tensor(x))
    s_fold = step_fold(DsnNeuron(params), x)[0]
    assert 0.1 < np.mean(s_fold > 0) < 0.9
    np.testing.assert_array_equal(s_fold, s_par.data)
    _, _, a_ser = dsn_serial_trace(params, x)
    np.testing.assert_array_equal(a_ser, a_par.data)
    sliding = PsnNeuron(PsnParams.sliding(Tensor(rng.normal(size=37))))
    s_step, h_step, _ = step_fold(sliding, x)
    h_conv = neurons._psn_membrane(sliding.params, x).data
    assert s_step.tobytes() == sliding.sequence(Tensor(x)).data.tobytes()
    assert h_step.tobytes() == h_conv.tobytes()
    # negative weights over zeros: every term is -0.0, the conv's sum +0.0
    negative = PsnNeuron(PsnParams.sliding(Tensor(-np.ones(4))))
    zeros = np.zeros((2, 3, 6))
    h_conv = neurons._psn_membrane(negative.params, zeros).data
    assert step_fold(negative, zeros)[1].tobytes() == h_conv.tobytes()


# columns of 32 terms whose sum depends on the order of its adds
ORDER_TERMS = np.array([
    [1e16, 1.0, -1e16, 1.0] * 8,  # in order 1.0, pairwise 0.0
    [-1.0, 1e16, 1.0, -1e16] * 8,
    [-0.0] * 32,  # -0.0 from the first term, +0.0 from +0.0
    [0.0, -0.0] * 16,
    [5e-324, -1e-310, 3e-320, -2.5e-308] * 8,  # subnormal partial sums
    [1e300, -1e300, 1e-300, 7.0] * 8,
]).T


def _left_fold(a: np.ndarray, b: np.ndarray, from_zero: bool) -> np.ndarray:
    """sum over j of a[j] * b[j], element by element in Python floats, one
    term after another from the first term (or from +0.0)."""
    terms = np.array([np.multiply(u, v) for u, v in zip(a, b)])
    sums = []
    for lane in terms.reshape(len(terms), -1).T:
        acc = 0.0 if from_zero else float(lane[0])
        for term in lane[0 if from_zero else 1:]:
            acc = acc + float(term)
        sums.append(acc)
    return np.array(sums).reshape(terms.shape[1:])


def _order_operands(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(32, B, C) terms cycling through the ``ORDER_TERMS`` columns lane by
    lane, and (32, 1, C) taps of 1, -1, 0.5 and 2."""
    k, B, C = shape
    a = ORDER_TERMS[:, np.arange(B * C) % ORDER_TERMS.shape[1]].reshape(shape)
    b = np.resize([1.0, -1.0, 0.5, 2.0], (k, 1, C))
    return a, b


ORDER_CASES = ([("accumulate", (32, 1, 1), 2 ** 40)]
               + [(route, shape, SUM_ROUTES[route]) for route in SUM_ROUTES
                  for shape in ((32, 1, 2), (32, 2, 1), (32, 3, 4))]
               + [("loop", (32, 1, 1), 0)])


@pytest.mark.parametrize("from_zero", [False, True], ids=["from-first", "from-zero"])
@pytest.mark.parametrize("route, shape, budget", ORDER_CASES,
                         ids=[f"{r}-{'x'.join(map(str, s))}" for r, s, _ in ORDER_CASES])
def test_ordered_sum_is_the_left_fold_on_every_route(monkeypatch, route, shape, budget,
                                                     from_zero):
    pairwise = np.add.reduce(ORDER_TERMS[:, 0])  # one innermost axis
    assert pairwise != _left_fold(ORDER_TERMS[:, :1], np.ones((32, 1)), False)[0]
    monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", budget)
    a, b = _order_operands(shape)
    got = neurons._ordered_sum(a, b, shape[1:], from_zero)
    assert got.shape == shape[1:]
    assert got.tobytes() == _left_fold(a, b, from_zero).tobytes()


def test_ordered_sum_of_a_block_is_the_left_fold():
    # a block's (k, n, B, C) window against (k, 1, C) taps: unequal ranks
    a, b = _order_operands((32, 6, 4))
    a = a.reshape(32, 3, 2, 4)
    got = neurons._ordered_sum(a, b, a.shape[1:])
    assert got.tobytes() == _left_fold(a, b, False).tobytes()


@pytest.mark.parametrize("route", list(SUM_ROUTES))
def test_ordered_sum_of_a_channel_mix_is_the_left_fold(monkeypatch, route):
    # the DSN step's mix operands: a transposed (C, 1, C) view of the mix and
    # the (C, B, 1) pre-activations, whose product in the default 'K' layout
    # has the channel axis innermost
    monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", SUM_ROUTES[route])
    C, B = 32, 3
    mix = ORDER_TERMS[:, np.arange(C) % ORDER_TERMS.shape[1]].T  # mix[o, j]
    npre = np.resize([1.0, -1.0, 0.5, 2.0], (B, C))
    a, b = mix.T[:, None, :], np.moveaxis(npre, -1, 0)[..., None]
    assert np.multiply(a, b).strides[0] == 8
    got = neurons._ordered_sum(a, b, (B, C))
    assert got.tobytes() == _left_fold(a, b, False).tobytes()


@pytest.mark.parametrize("tau", [0.25, 0.5, 2.0])
def test_step_matches_sequence_where_decays_saturate(tau):
    # biases drive channels 0 and 1 past the high clamp (sigmoid rounds to
    # 1.0) and channels 2 and 3 past the exponent cap and, for tau < 1, the
    # low clamp (sigmoid ** (1/tau) underflows); the rest stay in between
    rng = np.random.default_rng(31)
    base = DsnParams.init(channels=6, k=4, seed=2)
    params = DsnParams(conv_kernel=base.conv_kernel,
                       conv_bias=Tensor([800.0, 80.0, -800.0, -180.0, 0.5, -1.0]),
                       tau=tau, n_max=4)
    x = rng.normal(size=(3, 6, 200)) * 3.0
    s_par, _, a_par = dsn_forward_parallel(params, Tensor(x))
    assert step_fold(DsnNeuron(params), x)[0].tobytes() == s_par.data.tobytes()
    _, _, a_ser = dsn_serial_trace(params, x)
    assert a_ser.tobytes() == a_par.data.tobytes()
    assert np.all(a_par.data[:, :2] == np.nextafter(1.0, 0.0))
    if tau < 1.0:
        assert np.all(a_par.data[:, 2] == 1e-300)
    assert np.all((a_par.data > 0.0) & (a_par.data < 1.0))


def test_dsn_params_validation():
    with pytest.raises(ValueError):
        DsnParams(conv_kernel=nm.zeros((2, 4)), tau=0.0)
    with pytest.raises(ValueError):
        DsnParams(conv_kernel=nm.zeros((2, 4)), n_max=0)
    with pytest.raises(ShapeMismatch):
        DsnParams(conv_kernel=nm.zeros((2, 4)), conv_bias=nm.zeros((3,)))


def test_enhanced_dsn_channel_mix_identity_is_noop():
    rng = np.random.default_rng(9)
    base = DsnParams.init(channels=3, seed=6)
    mixed = DsnParams(conv_kernel=base.conv_kernel, conv_bias=base.conv_bias,
                      channel_mix=Tensor(np.eye(3)), tau=base.tau,
                      n_max=base.n_max)
    x = rng.normal(size=(1, 3, 20))
    _, h_a, _ = dsn_forward_parallel(base, Tensor(x))
    _, h_b, _ = dsn_forward_parallel(mixed, Tensor(x))
    np.testing.assert_allclose(h_a.data, h_b.data, atol=1e-12)


# ---------------------------------------------------------------------------
# the fused DSN membrane op against the separate ops


def _dsn_params(rng, channels, k=4, tau=0.25, bias=True, mix=False):
    base = DsnParams.init(channels=channels, k=k, tau=tau, seed=int(rng.integers(99)))
    if isinstance(bias, bool):
        bias = rng.normal(size=channels) * 2.0 if bias else None
    return DsnParams(
        conv_kernel=base.conv_kernel,
        conv_bias=None if bias is None else Tensor(bias),
        channel_mix=(Tensor(rng.normal(size=(channels, channels)) / np.sqrt(channels))
                     if mix else None),
        tau=tau, n_max=3)


def _dsn_pass(fn, params, x, w, taped=("x", "kernel", "bias", "mix"), reuse_x=False):
    """S, H and alpha and every taped gradient (x, then the weights by name)
    of one pass of mean(S) + sum(H * w) (+ sum(x * w) recorded after it
    with ``reuse_x``, so x's node holds a gradient when the pass's backward
    reaches it), None for an untaped one."""
    tape = Tape()
    named = {"kernel": params.conv_kernel, "bias": params.conv_bias,
             "mix": params.channel_mix}
    leaves = {n: (tape.leaf(t.data) if n in taped else t)
              for n, t in named.items() if t is not None}
    xt = tape.leaf(x) if "x" in taped else Tensor(x)
    s, h, a = fn(replace(params, conv_kernel=leaves["kernel"],
                         conv_bias=leaves.get("bias"), channel_mix=leaves.get("mix")), xt)
    loss = nm.add(nm.mean_all(s), nm.sum_all(nm.mul(h, Tensor(w))))
    if reuse_x:
        loss = nm.add(loss, nm.sum_all(nm.mul(xt, Tensor(w))))
    tape.backward(loss)
    return [s.data, h.data, a.data, tape.grad(xt)] + [tape.grad(leaves[n])
                                                      for n in sorted(leaves)]


def _dsn_pass_bytes(fn, params, x, w, taped=("x", "kernel", "bias", "mix"),
                    reuse_x=False):
    """The bytes of ``_dsn_pass``'s arrays, None for an untaped gradient."""
    return [None if v is None else v.tobytes()
            for v in _dsn_pass(fn, params, x, w, taped, reuse_x)]


# (B, C, T, k, tau, bias, mix, sub-block frames, reuse_x); the sub-block
# frames, when given, shrink ``numerics.CONV_BLOCK_BYTES`` so that many
# sub-blocks, each shorter than the kernel where k = 300, cut the pass
DSN_FUSED_CASES = {
    # 900 lanes of 300 steps: 9 sub-blocks of 36 frames, the last one 12
    "lanes": (3, 300, 300, 4, 0.25, True, False, None, False),
    "no-bias": (3, 300, 300, 4, 0.25, None, False, None, False),
    "x-reused": (3, 20, 300, 4, 0.5, True, False, 16, True),
    # decays pinned at both ends, where only the pin's mask zeroes gradients
    "saturated": (3, 6, 300, 4, 0.25, [800.0, 80.0, -800.0, -180.0, 0.5, -1.0],
                  False, 16, False),
    "mix": (3, 8, 300, 4, 0.25, True, True, 16, False),
    "mix-no-bias": (3, 8, 300, 5, 0.5, None, True, 16, False),
    "time": (2, 3, 3000, 7, 2.0, True, False, 512, False),
    "time-long-kernel": (1, 2, 1100, 300, 0.25, True, False, 37, False),
    # 16 lanes: both 2,048-frame sub-blocks run the adjoint over time blocks
    "time-blocks": (1, 16, 4096, 4, 0.25, True, False, None, False),
}


@pytest.mark.parametrize("case", list(DSN_FUSED_CASES))
def test_taped_pass_matches_the_fold_and_the_oracles(monkeypatch, case):
    # S and alpha equal the separate ops' and H the fold's bit for bit; dx
    # equals the per-frame reverse loop ``oracles.dsn_bptt`` bit for bit;
    # the weight gradients, sums over the batch and time taken in another
    # order, match it and the separate ops within 1e-12 of their largest
    B, C, T, k, tau, bias, mix, frames, reuse_x = DSN_FUSED_CASES[case]
    if frames is not None:
        monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * B * C * frames)
    merges = _spy_merges(monkeypatch)
    rng = np.random.default_rng(40)
    params = _dsn_params(rng, C, k=k, tau=tau, bias=bias, mix=mix)
    x = rng.normal(size=(B, C, T)) * 2.0
    w = rng.normal(size=(B, C, T)) * 0.1
    s, h, a, dx, *grads = _dsn_pass(dsn_forward_parallel, params, x, w, reuse_x=reuse_x)
    if case == "time-blocks":  # both sub-blocks of the forward, then of the adjoint
        assert len(merges) == 4
    want = _dsn_pass(dsn_op_chain, params, x, w, reuse_x=reuse_x)
    assert s.tobytes() == want[0].tobytes() and a.tobytes() == want[2].tobytes()
    assert h.tobytes() == DsnNeuron(params).trace(x)[1].tobytes()
    assert 0.05 < np.mean(s > 0) < 0.95
    rounded, counts = nm.fire_counts(h, params.n_max)
    oracle = dsn_bptt(params, x, w * 1.0 + (1.0 / x.size) * (rounded == counts))
    assert dx.tobytes() == ((w + oracle[0]) if reuse_x else oracle[0]).tobytes()
    refs = {"kernel": oracle[1], "bias": oracle[2] if bias is not None else None,
            "mix": oracle[3]}
    named = sorted(n for n, ref in refs.items() if ref is not None)
    assert len(grads) == len(named)
    for name, got, chain in zip(named, grads, want[4:]):
        for ref in (refs[name], chain):
            assert got.shape == ref.shape, name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("mix", [False, True], ids=["plain", "mix"])
def test_fused_membrane_takes_an_empty_sequence(mix):
    params = _dsn_params(np.random.default_rng(44), 4, mix=mix)
    s, h, alpha = dsn_forward_parallel(params, np.zeros((2, 4, 0)))
    assert s.shape == h.shape == alpha.shape == (2, 4, 0)
    assert DsnNeuron(params).sequence(np.zeros((2, 4, 0))).shape == (2, 4, 0)


@pytest.mark.parametrize("mix", [False, True], ids=["plain", "mix"])
def test_fused_membrane_takes_an_empty_batch(mix):
    params = _dsn_params(np.random.default_rng(45), 4, mix=mix)
    neuron = DsnNeuron(params)
    x = np.zeros((0, 4, 5))
    s, h, alpha = dsn_forward_parallel(params, x)
    assert s.shape == h.shape == alpha.shape == (0, 4, 5)
    assert neuron.forward(x).shape == neuron.sequence(x).shape == (0, 4, 5)
    tape = Tape()
    leaves = {n: tape.leaf(w.data) for n, w in neuron.weights().items()}
    xt = tape.leaf(x)
    s = neuron.with_weights(leaves).forward(xt)
    assert s.shape == (0, 4, 5)
    tape.backward(nm.sum_all(s))
    assert tape.grad(xt).shape == (0, 4, 5)
    for name, leaf in leaves.items():
        g = tape.grad(leaf)
        assert g.shape == neuron.weights()[name].shape, name
        assert not np.any(g), name


@pytest.mark.parametrize("taped", [("x",), ("kernel", "bias")], ids=["x", "weights"])
def test_fused_membrane_differentiates_only_what_is_taped(monkeypatch, taped):
    # the gradients of what is taped are those of the pass that tapes
    # everything, bit for bit, and the rest are None
    monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * 6 * 64)
    rng = np.random.default_rng(41)
    params = _dsn_params(rng, 3)
    x = rng.normal(size=(2, 3, 700))
    w = rng.normal(size=x.shape)
    got = _dsn_pass_bytes(dsn_forward_parallel, params, x, w, taped)
    full = _dsn_pass_bytes(dsn_forward_parallel, params, x, w)
    names = ["x", "bias", "kernel"]
    assert got[:3] == full[:3]
    for name, g, f in zip(names, got[3:], full[3:]):
        assert g == (f if name in taped else None), name


def test_dsn_pass_keeps_h_sigma_and_a_mask():
    # 2048 lanes of 256 steps, 8 tiles: after the forward the tape keeps H,
    # sigma and clip_round's one-byte mask beyond x and S; the backward's
    # peak, with the loss's and the fire's gradients and dx, stays within 6
    # arrays beyond x and S (the separate ops kept 5 and peaked at 11)
    B, C, T = 4, 512, 256
    neuron = DsnNeuron(DsnParams.init(C, seed=1))
    x = np.random.default_rng(42).normal(size=(B, C, T))
    one = x.nbytes
    tracemalloc.start()
    try:
        tape = Tape()
        leaves = {n: tape.leaf(w.data) for n, w in neuron.weights().items()}
        xt = tape.leaf(x)
        base = tracemalloc.get_traced_memory()[0]
        s = neuron.with_weights(leaves).forward(xt)
        kept = tracemalloc.get_traced_memory()[0] - base - s.data.nbytes
        loss = nm.mean_all(s)
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base - s.data.nbytes
    finally:
        tracemalloc.stop()
    assert kept <= 2 * one + one // 8 + 2 ** 17
    assert peak <= 6 * one


@pytest.mark.parametrize("where", ["input", "overflow", "kernel", "bias", "last-frame"])
def test_fused_membrane_rejects_non_finite_values(monkeypatch, where):
    # every DSN path over a sequence raises NonFiniteError, with no
    # RuntimeWarning on the way, where a pre-activation is not finite:
    # 16-frame sub-blocks put the bad frame in the middle or the last one
    monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * 4 * 16)
    rng = np.random.default_rng(43)
    params = _dsn_params(rng, 2)
    x = rng.normal(size=(2, 2, 1500))
    if where == "input":
        x[1, 1, 1400] = np.nan
    elif where == "overflow":  # finite, but the conv's sum is not
        x[1, 0, 700] = 1e308
        params = replace(params, conv_kernel=Tensor(np.full((2, 4), 10.0)))
    elif where in ("kernel", "bias"):  # a weight no Tensor check saw
        bad = np.array(getattr(params, f"conv_{where}").data)
        bad.flat[-1] = np.inf
        params = replace(params, **{f"conv_{where}": Tensor._attach(bad, None, None)})
    else:  # the last frame of the last sub-block
        x[1, 1, -1] = 1e308
        params = replace(params, conv_kernel=Tensor(np.full((2, 4), 10.0)))
    neuron = DsnNeuron(params)
    taped = Tape().leaf(x) if where != "input" else x
    calls = [lambda: dsn_forward_parallel(params, x), lambda: neuron.forward(taped),
             lambda: neuron.trace(x), lambda: neuron.sequence(x),
             lambda: neuron.advance(neuron.init_state(2, 2), x)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NonFiniteError):
                call()


# ---------------------------------------------------------------------------
# ``DsnNeuron.forward`` and ``sequence``: the block path for untaped input
# and weights at every lane count, the taped pass where either is taped


def _sequence_path(monkeypatch, neuron, x) -> tuple[Tensor, str]:
    """``neuron.sequence(x)`` and the path it took."""
    taken = []
    taped, advance = neurons._dsn_taped, DsnNeuron._advance
    monkeypatch.setattr(neurons, "_dsn_taped",
                        lambda *a: taken.append("taped") or taped(*a))
    monkeypatch.setattr(DsnNeuron, "_advance",
                        lambda *a: taken.append("advance") or advance(*a))
    s = neuron.sequence(x)
    assert len(taken) == 1
    return s, taken[0]


# (B, C, T, k, mix, taped): lane counts below, at and above 64 and no
# multiple of it, a channel mix, T from 0 to 300, T < k, and a taped input
# or taped weights, which take the taped pass
DSN_ROUTE_CASES = {
    "advance-62-lanes": (2, 31, 300, 4, False, ()),
    "advance": (2, 32, 300, 4, False, ()),
    "advance-201-lanes": (3, 67, 300, 4, False, ()),
    "advance-mix-24-lanes": (3, 8, 300, 4, True, ()),
    "advance-mix": (4, 16, 300, 5, True, ()),
    "advance-6-lanes-T257": (1, 6, 257, 4, False, ()),
    "advance-T256": (1, 6, 256, 4, False, ()),
    "advance-T0": (2, 40, 0, 4, False, ()),
    "advance-T1": (2, 40, 1, 4, False, ()),
    "advance-6-lanes-T-below-k": (1, 6, 2, 4, False, ()),
    "advance-T-below-k": (2, 40, 2, 4, True, ()),
    "taped-x": (2, 31, 300, 4, False, ("x",)),
    "taped-weights-mix": (3, 8, 300, 4, True, ("kernel", "mix")),
}


@pytest.mark.parametrize("case", list(DSN_ROUTE_CASES))
def test_sequence_spikes_equal_the_parallel_pass_on_either_path(monkeypatch, case):
    B, C, T, k, mix, taped = DSN_ROUTE_CASES[case]
    rng = np.random.default_rng(45)
    params = _dsn_params(rng, C, k=k, mix=mix)
    x = rng.normal(size=(B, C, T)) * 2.0
    tape = Tape()
    neuron = DsnNeuron(params)
    neuron = neuron.with_weights({n: tape.leaf(w.data) if n in taped else w
                                  for n, w in neuron.weights().items()})
    s, path = _sequence_path(monkeypatch, neuron, tape.leaf(x) if "x" in taped else x)
    assert path == case.split("-")[0]
    assert (s.tape is None) == (not taped) and s.shape == (B, C, T)
    assert s.data.tobytes() == dsn_forward_parallel(params, x)[0].data.tobytes()
    assert s.data.tobytes() == dsn_op_chain(params, x)[0].data.tobytes()
    if T > 2:  # bytes, so a -0.0 count must come out -0.0 on both paths
        assert np.any((s.data == 0.0) & np.signbit(s.data))


@pytest.mark.parametrize("shape", [(1, 8, 300), (4, 16, 50)], ids=["scan", "advance"])
def test_sequence_rejects_bad_input_on_either_path(shape):
    B, C, T = shape
    neuron = make_neuron("dsn", channels=C, seed=2)
    x = np.random.default_rng(46).normal(size=shape)
    x[B - 1, C - 1, T - 10] = np.nan
    with pytest.raises(NonFiniteError):
        neuron.sequence(x)
    with pytest.raises(ShapeMismatch):
        neuron.sequence(np.zeros((B, C + 1, T)))
    with pytest.raises(ShapeMismatch):
        neuron.sequence(np.zeros((B * C, T)))


def test_taped_sequence_stays_on_the_taped_pass():
    # 128 lanes: a taped input or taped weights still go through ``forward``
    # and get the taped pass's gradients
    rng = np.random.default_rng(47)
    params = _dsn_params(rng, 32)
    x = rng.normal(size=(4, 32, 200)) * 2.0
    w = rng.normal(size=x.shape) * 0.1

    def sequence(p, xt):
        s = DsnNeuron(p).sequence(xt)
        assert s.tape is not None
        return s, Tensor(np.zeros(x.shape)), Tensor(np.zeros(x.shape))

    def taped(p, xt):
        return (dsn_forward_parallel(p, xt)[0], Tensor(np.zeros(x.shape)),
                Tensor(np.zeros(x.shape)))

    for names in (("x",), ("kernel", "bias")):
        assert (_dsn_pass_bytes(sequence, params, x, w, names)
                == _dsn_pass_bytes(taped, params, x, w, names))


# ---------------------------------------------------------------------------
# the DSN's H recurrence over time blocks (``_dsn_membranes``)


def _latch_params(channels: int, marker: bool) -> DsnParams:
    """A DSN whose value channels latch: bias +40 pins their decay at 1 - ulp.
    With ``marker``, the second half of the channels are markers: a marker
    frame of 1 drives its value channel's decay (mixed in with weight 80)
    to about 0, and the channel then holds the value of that frame."""
    kernel, bias, mix = np.zeros((channels, 4)), np.full(channels, 40.0), None
    if marker:
        half = channels // 2
        kernel[half:, -1] = -1.0
        bias[half:] = 0.0
        mix = np.eye(channels)
        mix[np.arange(half), np.arange(half) + half] = 80.0
        mix = Tensor(mix)
    return DsnParams(conv_kernel=Tensor(kernel), conv_bias=Tensor(bias), channel_mix=mix)


def _latch_input(shape, seed, marker_rate=0.0):
    """Values 1..4 on the first half of the channels and, on the second, a
    marker at each frame with probability ``marker_rate``."""
    B, C, T = shape
    rng = np.random.default_rng(seed)
    x = np.zeros(shape)
    x[:, :C // 2] = rng.integers(1, 5, size=(B, C // 2, T))
    x[:, C // 2:] = rng.random((B, C - C // 2, T)) < marker_rate
    return x


def _spy_block_plans(monkeypatch):
    """A list that gets (frames, blocks, frames per block) of the
    sub-blocks the DSN fold cuts into time blocks, once for a run of equal
    plans (alpha and b of a sub-block are cut alike)."""
    block_rows, plans = neurons._block_rows, []

    def spy(a, blocks, m):
        if not plans or plans[-1][0] != len(a) or plans[-1][1:] != (blocks, m):
            plans.append((len(a), blocks, m))
        return block_rows(a, blocks, m)
    monkeypatch.setattr(neurons, "_block_rows", spy)
    return plans


def _assert_block_route_equals_the_step_fold(neuron, x):
    s_fold, h_fold, state_fold = step_fold(neuron, x)
    s, h = neuron.trace(x)
    assert s.tobytes() == s_fold.tobytes() and h.tobytes() == h_fold.tobytes()
    s, state = neuron.advance(neuron.init_state(*x.shape[:2]), x)
    assert s.tobytes() == s_fold.tobytes()
    _assert_same_state(state, state_fold)
    assert all(_owns_its_memory(a) for a in _state_arrays(state))


# (neuron, (B, C, T), merges expected): the seeded neuron, a channel mix,
# 1001 frames that 50 blocks of 21 do not divide, the all-latch neuron, and
# the marker latch with a marker every ~100 frames
DSN_BLOCK_CASES = {
    "seeded-1x16x4096": (lambda: make_neuron("dsn", channels=16, seed=3), (1, 16, 4096), True),
    "seeded-2x8x4096": (lambda: make_neuron("dsn", channels=8, seed=4), (2, 8, 4096), True),
    "mix-2x8x2048": (lambda: DsnNeuron(replace(
        DsnParams.init(8, seed=5), channel_mix=Tensor(
            np.random.default_rng(5).normal(size=(8, 8)) / np.sqrt(8)))), (2, 8, 2048), True),
    "seeded-1x16x1001": (lambda: make_neuron("dsn", channels=16, seed=6), (1, 16, 1001), True),
    "all-latch-1x16x2048": (lambda: DsnNeuron(_latch_params(16, False)), (1, 16, 2048), False),
    "marker-latch-8x2x4096": (lambda: DsnNeuron(_latch_params(2, True)), (8, 2, 4096), None),
}


@pytest.mark.parametrize("case", list(DSN_BLOCK_CASES))
def test_dsn_time_blocks_equal_the_step_fold(monkeypatch, case):
    make, shape, merges_expected = DSN_BLOCK_CASES[case]
    neuron = make()
    if case.startswith("marker"):
        x = _latch_input(shape, 81, 0.01)
    elif case.startswith("all-latch"):
        x = _latch_input(shape, 82)
    else:
        x = np.random.default_rng(83).normal(size=shape) * 2.0
    merges, plans = _spy_merges(monkeypatch), _spy_block_plans(monkeypatch)
    merge, merged = neurons._merge_blocks, []

    def recorded(run, ins, out, *rest):
        exact = merge(run, ins, out, *rest)
        merged.append(exact == out.shape[1])
        return exact
    monkeypatch.setattr(neurons, "_merge_blocks", recorded)
    _assert_block_route_equals_the_step_fold(neuron, x)
    if merges_expected is not None:
        assert bool(merges) == merges_expected
    if merges_expected:  # within DSN_REPAIR_PASSES passes
        assert all(merged)
    if case.endswith("x1001"):
        assert plans == [(1001, 50, 21)]
    if case.startswith("marker"):  # the latch holds its marked values
        assert np.all(neuron.trace(x)[0][:, 0, -1] == x[np.arange(8), 0, [
            np.flatnonzero(x[b, 1])[-1] for b in range(8)]])


def test_dsn_time_blocks_run_the_plain_loop_after_unmerged_repair_passes(monkeypatch):
    # 8-frame blocks of lanes that forget over ~200 frames: DSN_REPAIR_PASSES
    # passes end unmerged, each leaving one more block exact, and the frames
    # after those blocks run the plain loop
    params = replace(DsnParams.init(16, seed=7), conv_bias=Tensor(np.full(16, 3.0)))
    neuron = DsnNeuron(params)
    x = np.random.default_rng(84).normal(size=(1, 16, 512))
    monkeypatch.setattr(neurons, "BLOCK_MARGIN", 0.0)
    merges, plans = _spy_merges(monkeypatch), _spy_block_plans(monkeypatch)
    merge, exact = neurons._merge_blocks, []
    monkeypatch.setattr(neurons, "_merge_blocks", lambda *a: exact.append(merge(*a)) or exact[-1])
    _assert_block_route_equals_the_step_fold(neuron, x)
    assert plans == [(512, 64, 8)]
    passes = neurons.DSN_REPAIR_PASSES
    assert merges == [list(range(63, 63 - passes, -1))] * 2  # trace, then advance
    assert exact == [passes + 1] * 2


def test_dsn_time_blocks_chained_through_advance_and_step(monkeypatch):
    neuron = make_neuron("dsn", channels=16, seed=8)
    x = np.random.default_rng(85).normal(size=(1, 16, 2048)) * 2.0
    states = _step_states(neuron, x)
    s_fold = step_fold(neuron, x)[0]
    merges = _spy_merges(monkeypatch)
    for n in (1, 7, 97, 2047):
        state, spikes, t = states[0], [], 0
        while t < 2048:  # a step, then a block of n frames
            s, _, state = neuron.step(state, x[..., t])
            spikes.append(s[..., None])
            s, state = neuron.advance(state, x[..., t + 1:t + 1 + n])
            spikes.append(s)
            t += 1 + n
            _assert_same_state(state, states[min(t, 2048)])
        assert np.concatenate(spikes, axis=-1).tobytes() == s_fold.tobytes(), n
    assert merges  # the 2047-frame blocks take time blocks


@pytest.mark.parametrize("shape", [(4, 256, 1024), (6, 16, 2048), (1, 16, 255)],
                         ids=["wide-eval", "96-lanes", "255-frames"])
def test_dsn_time_blocks_stay_off_outside_their_bounds(monkeypatch, shape):
    # the benchmark's wide eval shape (1,024 lanes leave no room for even
    # one block of a BLOCK_ROW-element row), DSN_BLOCK_MAX_LANES lanes and a
    # sub-block shorter than DSN_BLOCK_MIN_FRAMES: the planner never runs
    called = []
    monkeypatch.setattr(neurons, "_least_forgetting", lambda a: called.append(a) or 0.5)
    merges = _spy_merges(monkeypatch)
    B, C, T = shape
    neuron = make_neuron("dsn", channels=C, seed=9)
    x = np.random.default_rng(86).normal(size=shape)
    s = neuron.sequence(x)
    assert not called and not merges
    assert s.data.tobytes() == neuron.forward(x).data.tobytes()


def test_least_forgetting_counts_a_full_reset_as_53_bits():
    # lane 0 latches (1 - ulp) but for two frames of decay 1e-70; lane 1
    # halves every frame: lane 0 forgets least, 2 x 53 bits over 600 frames
    alpha = np.full((600, 2), 1.0 - 2.0 ** -53)
    alpha[[100, 400], 0] = 1e-70
    alpha[:, 1] = 0.5
    got = neurons._least_forgetting(alpha)
    assert got == pytest.approx(2.0 ** (-106 / 600), rel=1e-12)


@pytest.mark.parametrize("B, T", [(0, 300), (2, 0)])
def test_dsn_fold_of_no_lanes_or_no_frames_is_empty(B, T):
    neuron = make_neuron("dsn", channels=4, seed=10)
    x = np.zeros((B, 4, T))
    s, state = neuron.advance(neuron.init_state(B, 4), x)
    assert s.shape == (B, 4, T) and state.h.shape == (B, 4)
    assert neuron.sequence(x).shape == (B, 4, T)
    assert [a.shape for a in neuron.trace(x)] == [(B, 4, T)] * 2


# ---------------------------------------------------------------------------
# PSN family


def test_sliding_delta_kernel_is_instantaneous_threshold():
    params = PsnParams.sliding(Tensor([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 15)) * 2.0
    s = psn_forward(params, Tensor(x), v_th=1.0)
    np.testing.assert_array_equal(s.data, (x >= 1.0).astype(float))


def test_full_psn_rejects_other_lengths():
    params = PsnParams.init_decay("full", t_train=16)
    with pytest.raises(LengthMismatch):
        psn_forward(params, Tensor(np.zeros((1, 1, 17))))
    with pytest.raises(LengthMismatch):
        psn_forward(params, Tensor(np.zeros((1, 1, 8))))


def test_masked_equals_full_on_lower_triangular_weight():
    rng = np.random.default_rng(11)
    t = 12
    w = np.tril(rng.normal(size=(t, t)))
    full = PsnParams.full(Tensor(w))
    masked = PsnParams.masked(Tensor(w), k=t)
    x = Tensor(rng.normal(size=(2, 2, t)))
    np.testing.assert_array_equal(psn_forward(full, x).data,
                                  psn_forward(masked, x).data)


def test_full_psn_depends_on_future_inputs():
    rng = np.random.default_rng(12)
    t = 10
    params = PsnParams.full(Tensor(rng.normal(size=(t, t))))
    x = rng.normal(size=(1, 1, t))
    x2 = x.copy()
    x2[0, 0, -1] += 3.0  # change only the last step
    s1 = psn_forward(params, Tensor(x)).data
    s2 = psn_forward(params, Tensor(x2)).data
    assert not np.array_equal(s1[..., :-1], s2[..., :-1])


def test_masked_psn_is_causal():
    rng = np.random.default_rng(13)
    t = 10
    params = PsnParams.init_decay("masked", t_train=t, k=4)
    x = rng.normal(size=(1, 1, t))
    x2 = x.copy()
    x2[0, 0, -1] += 3.0
    s1 = psn_forward(params, Tensor(x)).data
    s2 = psn_forward(params, Tensor(x2)).data
    np.testing.assert_array_equal(s1[..., :-1], s2[..., :-1])


def test_masked_band_enforced():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(8, 8))
    params = PsnParams.masked(Tensor(w), k=3)
    dense = params.weight.data
    for i in range(8):
        for j in range(8):
            inside = (j <= i) and (j > i - 3)
            if not inside:
                assert dense[i, j] == 0.0


def test_full_psn_flag_and_sliding_step_matches_sequence():
    full = PsnParams.init_decay("full", t_train=8)
    assert full.non_causal
    sliding = PsnNeuron(PsnParams.init_decay("sliding", k=5))
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 3, 30))
    np.testing.assert_array_equal(step_fold(sliding, x)[0],
                                  sliding.sequence(Tensor(x)).data)


def test_sliding_psn_window_matches_step_fold_and_banded_matrix():
    # random weights past lag 32 matter, so a dropped or shifted tap shows
    rng = np.random.default_rng(17)
    k, T = 37, 300
    w = rng.normal(size=k)
    x = rng.normal(size=(2, 3, T))
    sliding = PsnNeuron(PsnParams.sliding(Tensor(w)))
    s = sliding.sequence(Tensor(x)).data
    assert 0.1 < s.mean() < 0.9
    np.testing.assert_array_equal(s, step_fold(sliding, x)[0])
    lag = np.arange(T)[:, None] - np.arange(T)[None, :]
    toeplitz = np.where((lag >= 0) & (lag < k), w[np.clip(lag, 0, k - 1)], 0.0)
    banded = PsnParams.masked(Tensor(toeplitz), k)
    h = sliding.trace(x)[1]
    h_band = neurons._psn_membrane(banded, x).data
    assert np.max(np.abs(h - h_band)) <= 1e-12 * np.max(np.abs(h_band))


@pytest.mark.parametrize("variant, t, k", [
    ("full", 20, None), ("full", 80, None), ("masked", 20, 7), ("masked", 80, 37),
    ("sliding", 20, 37), ("sliding", 80, 37)])
def test_psn_membrane_matches_dense_oracle_with_random_weights(variant, t, k):
    # random weights across the whole band (the init weights past lag 32
    # are below 2^-33), so a band or window one step too wide or too narrow,
    # or reversed, moves H and both gradients far past rounding
    rng = np.random.default_rng(t)
    w = rng.normal(size=k if variant == "sliding" else (t, t))
    params = {"full": PsnParams.full, "sliding": PsnParams.sliding,
              "masked": lambda w: PsnParams.masked(w, k)}[variant](w)
    x = rng.normal(size=(2, 3, t))
    g = rng.normal(size=x.shape)
    tape = Tape()
    xt, wt = tape.leaf(x), tape.leaf(params.weight.data)
    h = neurons._psn_membrane(replace(params, weight=wt), xt)
    tape.backward(h, seed=g)
    for got, want in zip((h.data, tape.grad(xt), tape.grad(wt)),
                         psn_dense(variant, w, x, g, k)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_sliding_psn_membrane_of_a_time_major_view():
    # a (B, C, T) view of time-major memory, as the LIF's taped spikes are:
    # the membrane and its gradients equal those of a contiguous copy
    rng = np.random.default_rng(18)
    frames = rng.normal(size=(40, 2, 3))
    g = rng.normal(size=(2, 3, 40))
    params = PsnParams.sliding(rng.normal(size=5))
    results = []
    for x in (frames.transpose(1, 2, 0), np.ascontiguousarray(frames.transpose(1, 2, 0))):
        tape = Tape()
        xt = Tensor._attach(x, tape, tape.leaf(x)._node)
        wt = tape.leaf(params.weight.data)
        h = neurons._psn_membrane(replace(params, weight=wt), xt)
        tape.backward(h, seed=g)
        results.append([h.data, tape.grad(xt), tape.grad(wt)])
    assert np.any(results[1][0])
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_sliding_psn_shares_one_kernel(monkeypatch):
    # the sliding PSN's taps and adjoint taps take its one (k,) kernel
    calls = []
    taps = nm._depthwise_taps

    def spy(src, kern, dst, adjoint):
        calls.append((kern.shape, adjoint))
        taps(src, kern, dst, adjoint)

    monkeypatch.setattr(nm, "_depthwise_taps", spy)
    rng = np.random.default_rng(47)
    x = rng.normal(size=(2, 3, 40))
    neuron = PsnNeuron(PsnParams.sliding(rng.normal(size=5)))
    tape = Tape()
    leaves = {n: tape.leaf(w.data) for n, w in neuron.weights().items()}
    xt = tape.leaf(x)
    tape.backward(nm.sum_all(neuron.with_weights(leaves).forward(xt)))
    assert sorted(calls) == [((5,), False), ((5,), True)]


@pytest.mark.parametrize("i, j, outside", [
    (3, 4, True), (3, 140, True), (100, 101, True), (149, 128, False),
    (140, 100, True), (140, 108, True), (140, 109, False), (140, 10, True),
    (40, 8, True), (40, 9, False), (0, 0, False)])
def test_masked_psn_rejects_any_entry_outside_its_band(i, j, outside):
    # 150 rows make three row blocks of the check; k = 32 puts the band's
    # lower edge at lag 31, inside a block's triangle and past its columns
    t, k = 150, 32
    params = PsnParams.init_decay("masked", t_train=t, k=k)
    w = params.weight.data.copy()
    w[i, j] = 5e-324  # the smallest nonzero double
    if outside:
        with pytest.raises(ValueError, match="outside its band"):
            replace(params, weight=Tensor(w))
    else:
        assert replace(params, weight=Tensor(w)).weight.data[i, j] == 5e-324
    w[i, j] = -0.0  # a signed zero is still zero
    replace(params, weight=Tensor(w))


def test_masked_psn_band_check_makes_no_square_temporary():
    # T = 2048: W is 32 MiB, and its bool band alone would be 4 MiB
    params = PsnParams.init_decay("masked", t_train=2048, k=32)
    tracemalloc.start()
    try:
        replace(params, weight=params.weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 18


TAPED_OPS = {"dsn": ["dsn_membrane", "clip_round"],
             "psn": ["psn_membrane", "spike_threshold"],
             "masked-psn": ["psn_membrane", "spike_threshold"],
             "sliding-psn": ["psn_membrane", "spike_threshold"]}


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_taped_forward_records_one_sequence_op_per_kind(kind):
    # one taped membrane (or sequence) op per kind, then its fire: no chain
    # of generic ops, whose T x T copies full PSN once held
    neuron = make_neuron(kind, channels=3, t_train=16, k=5)
    tape = Tape()
    x = tape.leaf(np.random.default_rng(0).normal(size=(2, 3, 16)))
    weights = {name: tape.leaf(w.data) for name, w in neuron.weights().items()}
    neuron.with_weights(weights).forward(x)
    assert [op for op in tape._ops if op != "leaf"] == TAPED_OPS.get(kind, ["lif_sequence"])
    for name in ("transpose", "tile_channels", "reverse_last", "depthwise_causal_conv"):
        assert not hasattr(nm, name)


# ---------------------------------------------------------------------------
# nonlinearity witnesses


def test_reset_introduces_nonlinearity():
    cfg = NeuronConfig(beta=0.5, v_th=1.0, reset_mode="hard")
    x = np.array([[[1.2, 0.4]]])
    y = np.array([[[1.2, 0.4]]])
    _, h_x = LifNeuron(cfg).trace(x)
    _, h_y = LifNeuron(cfg).trace(y)
    _, h_xy = LifNeuron(cfg).trace(x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) > 0.1


def test_no_reset_is_linear():
    cfg = NeuronConfig(beta=0.5, v_th=1.0, reset_mode="none")
    rng = np.random.default_rng(16)
    x = rng.normal(size=(1, 2, 30))
    y = rng.normal(size=(1, 2, 30))
    _, h_x = LifNeuron(cfg).trace(x)
    _, h_y = LifNeuron(cfg).trace(y)
    _, h_xy = LifNeuron(cfg).trace(x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) <= 1e-12


def test_dynamic_decay_is_nonlinear():
    params = DsnParams.init(channels=2, seed=7)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(1, 2, 20))
    y = rng.normal(size=(1, 2, 20))
    _, h_x, _ = dsn_serial_trace(params, x)
    _, h_y, _ = dsn_serial_trace(params, y)
    _, h_xy, _ = dsn_serial_trace(params, x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) > 1e-3


def test_make_neuron_registry():
    for kind in ("lif-hard", "if-soft", "dsn", "sliding-psn"):
        neuron = make_neuron(kind, channels=2, t_train=16)
        assert neuron.name == kind if kind != "dsn" else True
    with pytest.raises(ValueError):
        make_neuron("unknown-kind")
    with pytest.raises(ValueError):
        make_neuron("psn")  # needs t_train


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_channels_is_fixed_only_for_dsn(kind):
    neuron = make_neuron(kind, channels=5, t_train=16)
    assert neuron.channels == (5 if kind == "dsn" else None)
    assert neuron.with_weights(neuron.weights()).channels == neuron.channels


# Inputs whose last frame puts the fold's membrane on a fire boundary, where
# a scan's reassociated H (a few ulps off) fired otherwise: (kind, seed of
# default_rng, draw of standard_normal((1, 1, 600)), scale, frames, value
# of the last frame, the fold's spike count there)
BOUNDARY_WITNESSES = {
    "lif-none": ("lif-none", 2, 11, 1.0, 565, 1.7006490508506813, 1.0),
    "if-none": ("if-none", 2, 1, 1.0, 600, 34.43311684121372, 0.0),
    "dsn": ("dsn", 1, 7, 3.0, 522, 1.563509754438159, 1.0),
}


@pytest.mark.parametrize("case", list(BOUNDARY_WITNESSES))
def test_taped_pass_fires_as_the_fold_on_a_boundary_witness(case):
    kind, seed, draw, scale, frames, last, count = BOUNDARY_WITNESSES[case]
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        x = rng.standard_normal((1, 1, 600)) * scale
    x = x[..., :frames].copy()
    x[0, 0, -1] = last
    neuron = make_neuron(kind, channels=1, seed=0)
    s_fold, h_fold, _ = step_fold(neuron, x)
    s_trace, h_trace = neuron.trace(x)
    assert s_trace.tobytes() == s_fold.tobytes() and h_trace.tobytes() == h_fold.tobytes()
    assert s_fold[0, 0, -1] == count
    tape = Tape()
    leaves = {n: tape.leaf(w.data) for n, w in neuron.weights().items()}
    taped = neuron.with_weights(leaves)
    for s in (neuron.sequence(x), neuron.sequence(Tensor(x)), taped.forward(tape.leaf(x)),
              taped.sequence(tape.leaf(x))):
        assert s.data.tobytes() == s_fold.tobytes()
    if kind == "dsn":  # the taped membranes are the fold's too
        s, h, _ = dsn_forward_parallel(neuron.params, tape.leaf(x))
        assert s.data.tobytes() == s_fold.tobytes() and h.data.tobytes() == h_fold.tobytes()


def test_lif_none_gains_parallel_path():
    neuron = make_neuron("lif-none")
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 2, 50))
    s_par = neuron.sequence(Tensor(x)).data
    np.testing.assert_array_equal(s_par, step_fold(neuron, x)[0])


# ---------------------------------------------------------------------------
# the taped LIF sequence op and the registry-wide interface


def _lif_cfg(leak: str, reset: str) -> NeuronConfig:
    if leak == "if":
        return NeuronConfig.integrate_fire(reset)
    return NeuronConfig.lif(2.0, reset)


def _fold_input_grad(cfg, x, w, sg):
    """Spikes and dL/dx of L = sum(w * S) through the per-step taped fold."""
    tape = nm.Tape()
    xt = tape.leaf(x)
    frames = lif_step_fold(cfg, xt, sg)
    loss = nm.sum_all(nm.mul(frames[0], Tensor(w[..., 0])))
    for t in range(1, len(frames)):
        loss = loss + nm.sum_all(nm.mul(frames[t], Tensor(w[..., t])))
    tape.backward(loss)
    return np.stack([f.data for f in frames], axis=-1), tape.grad(xt)


@pytest.mark.parametrize("sg", [Rectangular(), ArcTangent()], ids=["rect", "atan"])
@pytest.mark.parametrize("reset", ["hard", "soft", "none"])
@pytest.mark.parametrize("leak", ["lif", "if"])
def test_lif_sequence_gradient_matches_step_fold(leak, reset, sg):
    cfg = _lif_cfg(leak, reset)
    rng = np.random.default_rng(21)
    for steps in (1, 7, 64):
        x = rng.normal(size=(2, 3, steps)) * 1.5
        w = rng.normal(size=x.shape)
        tape = nm.Tape()
        xt = tape.leaf(x)
        s = LifNeuron(cfg, sg).forward(xt)
        tape.backward(nm.sum_all(nm.mul(s, Tensor(w))))
        s_fold, g_fold = _fold_input_grad(cfg, x, w, sg)
        np.testing.assert_array_equal(s.data, s_fold)
        scale = max(1.0, float(np.max(np.abs(g_fold))))
        assert np.max(np.abs(tape.grad(xt) - g_fold)) <= 1e-12 * scale


# every LIF/IF kind, and each reset with a nonzero (or negative-zero) v_reset
LIF_KERNEL_CFGS = {
    f"{leak}-{reset}": _lif_cfg(leak, reset)
    for leak in ("lif", "if") for reset in ("hard", "soft", "none")}
LIF_KERNEL_CFGS.update({
    "lif-hard-vreset-0.3": NeuronConfig.lif(4.0, "hard", v_th=0.75, v_reset=0.3),
    "lif-hard-vreset--0.5": NeuronConfig.lif(1.5, "hard", v_reset=-0.5),
    "lif-hard-vreset--0.0": NeuronConfig.lif(2.0, "hard", v_reset=-0.0),
    "if-hard-vreset--0.25": NeuronConfig.integrate_fire("hard", v_th=0.5, v_reset=-0.25),
    "lif-soft-vth-0.3": NeuronConfig.lif(3.0, "soft", v_th=0.3),
})


def _kernel_input(shape, cfg, seed):
    """Normal inputs mixed with +-0.0, subnormals, the smallest normal and
    the inputs that put H exactly at v_th from rest (and at -v_th)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 1.5
    at_th = cfg.v_th if cfg.leak == "if" else cfg.v_th / (1.0 - cfg.beta)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308,
                         at_th, -at_th, cfg.v_th])
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(specials, size=int(np.count_nonzero(pick)))
    return x


@pytest.mark.parametrize("start", ["rest", "negative-zero"])
@pytest.mark.parametrize("name", list(LIF_KERNEL_CFGS))
@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 1), (1, 1, 300), (2, 3, 300),
                                   (100, 100, 6)],
                         ids=["1-lane-T1", "6-lanes-T1", "1-lane", "6-lanes", "10000-lanes"])
def test_lif_kernel_equals_the_step_fold_bit_for_bit(name, shape, start):
    cfg = LIF_KERNEL_CFGS[name]
    neuron = LifNeuron(cfg)
    x = _kernel_input(shape, cfg, 61)
    v0 = np.full(shape[:2], 0.0 if start == "rest" else -0.0)
    s_fold, h_fold, v_fold = step_fold(neuron, x, v0)
    h, s, v = neurons._lif_fold(x.transpose(2, 0, 1), v0, cfg)
    assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
    assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
    assert v.tobytes() == v_fold.tobytes() and _owns_its_memory(v)
    assert np.all(v0 == 0.0) and np.all(np.signbit(v0) == (start != "rest"))
    if start == "rest":
        s_trace, h_trace = neuron.trace(x)
        assert s_trace.tobytes() == s_fold.tobytes()
        assert h_trace.tobytes() == h_fold.tobytes()


def test_lif_kernel_input_reaches_every_edge_case():
    # the kernel cases put H exactly at v_th and fire on about half the
    # frames; from a -0.0 membrane a -0.0 input gives H = -0.0, which the
    # hard reset's + v_reset S turns into +0.0 for v_reset = +0.0 only
    x = _kernel_input((2, 3, 300), LIF_KERNEL_CFGS["lif-hard"], 61)
    for name in ("lif-hard", "if-hard", "if-soft"):
        cfg = LIF_KERNEL_CFGS[name]
        _, h, _ = step_fold(LifNeuron(cfg), _kernel_input((2, 3, 300), cfg, 61))
        assert np.any(h == cfg.v_th), name
        assert 0.05 < np.mean(h >= cfg.v_th) < 0.95, name
    assert np.any(x == 0.0) and np.any((x == 0.0) & np.signbit(x))
    assert np.any((x != 0.0) & (np.abs(x) < 2.2250738585072014e-308))
    minus = np.full((1, 1, 1), -0.0)
    for name, sign in (("lif-hard", False), ("lif-hard-vreset--0.0", True)):
        _, h, v = step_fold(LifNeuron(LIF_KERNEL_CFGS[name]), minus, minus[..., 0])
        assert np.signbit(h[0, 0, 0]) and v[0, 0] == 0.0
        assert np.signbit(v[0, 0]) == sign


@pytest.mark.parametrize("x_t", [9e307, -9e307])
@pytest.mark.parametrize("reset", ["hard", "soft", "none"])
def test_lif_kernel_equals_the_step_fold_where_the_membrane_overflows(reset, x_t):
    # an accumulator under a huge threshold overflows to +-inf; a hard reset
    # of +inf is inf * 0 = NaN, which the kernel reruns its block to match
    cfg = NeuronConfig.integrate_fire(reset, v_th=1e308, v_reset=-2.0)
    x = np.full((1, 2, 12), x_t)
    x[0, 1, ::3] = 1.0
    with np.errstate(all="ignore"):
        s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x)
        h, s, v = neurons._lif_fold(x.transpose(2, 0, 1), np.zeros((1, 2)), cfg)
    assert np.any(np.isinf(h_fold))
    assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
    assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
    assert v.tobytes() == v_fold.tobytes()


@pytest.mark.parametrize("field, value", [
    ("v_th", np.inf), ("v_th", np.nan), ("v_th", 0.0), ("v_reset", np.inf),
    ("v_reset", -np.inf), ("v_reset", np.nan)])
def test_neuron_config_refuses_a_threshold_or_reset_that_is_not_finite(field, value):
    with pytest.raises(ValueError):
        NeuronConfig(**{field: value})


@pytest.mark.parametrize("name", list(LIF_KERNEL_CFGS))
def test_lif_kernel_blocks_chained_through_advance_equal_one_call(name):
    cfg = LIF_KERNEL_CFGS[name]
    neuron = LifNeuron(cfg)
    x = _kernel_input((2, 3, 400), cfg, 62)
    start = step_fold(neuron, x[..., :5])[2]  # from a state that is not rest
    x = x[..., 5:]
    s_one, v_one = neuron.advance(start, x)
    state, spikes, t = start, [], 0
    for n in (1, 7, 97, x.shape[-1] - 105):
        s, state = neuron.advance(state, x[..., t:t + n])
        spikes.append(s)
        t += n
    assert np.concatenate(spikes, axis=-1).tobytes() == s_one.tobytes()
    assert state.tobytes() == v_one.tobytes() == step_fold(neuron, x, start)[2].tobytes()


def test_lif_kernel_runs_per_lane_betas_as_channels():
    # a (C,) vector of betas over one broadcast (n, 1) signal equals C
    # separate folds, one per beta
    x = _kernel_input((5, 1, 200), NeuronConfig.lif(2.0), 63)
    taus = (4.0 / 3.0, 2.0, 4.0, 7.5)
    for reset in ("hard", "soft", "none"):
        cfgs = [NeuronConfig.lif(tau, reset) for tau in taus]
        h, s, v = neurons._lif_fold(x.transpose(2, 0, 1), np.zeros((5, len(taus))),
                                    cfgs[0], np.array([c.beta for c in cfgs]))
        for c, cfg in enumerate(cfgs):
            s_c, h_c, v_c = step_fold(LifNeuron(cfg), x)
            assert h[:, :, c].T.tobytes() == h_c[:, 0].tobytes()
            assert s[:, :, c].T.tobytes() == s_c[:, 0].tobytes()
            assert v[:, c].tobytes() == v_c[:, 0].tobytes()


@pytest.mark.parametrize("sg", [Rectangular(), ArcTangent(), StraightThrough()],
                         ids=["rect", "atan", "straight"])
@pytest.mark.parametrize("name", list(LIF_KERNEL_CFGS))
def test_in_place_lif_bptt_equals_the_per_step_oracle(name, sg):
    cfg = LIF_KERNEL_CFGS[name]
    rng = np.random.default_rng(64)
    for shape in ((1, 1, 1), (2, 3, 200)):
        x = _kernel_input(shape, cfg, 65)
        g = rng.normal(size=shape)
        g[rng.random(shape) < 0.2] = -0.0
        s, h = LifNeuron(cfg, sg).trace(x)
        args = (cfg, sg, s.transpose(2, 0, 1), h.transpose(2, 0, 1), g.transpose(2, 0, 1))
        want = lif_bptt(*args)
        got = neurons._lif_bptt(*args)
        assert got.tobytes() == want.tobytes()


# The route constants that force each route of the LIF frame loops: Python
# floats, one block of whole rows, and time blocks at any lane count from
# two blocks on (IF keeps one block), by default half as long as
# ``BLOCK_MARGIN`` makes them.
ROUTES = {
    "float": {"FLOAT_LOOP_LANES": 10 ** 9},
    "one-block": {"FLOAT_LOOP_LANES": 0, "BLOCK_MIN_COUNT": 10 ** 9},
    "blocks": {"FLOAT_LOOP_LANES": 0, "BLOCK_MIN_COUNT": 2, "BPTT_BLOCK_MAX_LANES": 10 ** 9},
}
HALF_MARGIN = neurons.BLOCK_MARGIN / 2


def _route(monkeypatch, name, margin=HALF_MARGIN):
    for constant, value in ROUTES[name].items():
        monkeypatch.setattr(neurons, constant, value)
    monkeypatch.setattr(neurons, "BLOCK_MARGIN", margin)


def _all_routes(monkeypatch, run, margin=HALF_MARGIN):
    """run() on each route of ``ROUTES``, in that order, with time blocks
    ``margin`` times the frames that forget a start; the constants stay at
    the last route's until the test ends."""
    out = []
    for name in ROUTES:
        _route(monkeypatch, name, margin)
        out.append(run())
    return out


def _spy_merges(monkeypatch):
    """A list that gets the carry rows of every repair pass of
    ``_merge_blocks`` (one list of row counts per call)."""
    merge, passes = neurons._merge_blocks, []

    def spy(run, ins, out, start, carry, *repairs):
        rows = []
        passes.append(rows)

        def counted(r):
            rows.append(r.shape[0])
            return carry(r)
        return merge(run, ins, out, start, counted, *repairs)

    monkeypatch.setattr(neurons, "_merge_blocks", spy)
    return passes


FLOAT_ROUTE_LANES = range(1, neurons.FLOAT_LOOP_LANES + 2)


@pytest.mark.parametrize("start", ["rest", "negative-zero"])
@pytest.mark.parametrize("name", list(LIF_KERNEL_CFGS))
def test_float_loop_equals_the_numpy_loop_bit_for_bit(monkeypatch, name, start):
    cfg = LIF_KERNEL_CFGS[name]
    rng = np.random.default_rng(66)
    for n in FLOAT_ROUTE_LANES:
        frames = _kernel_input((1, n, 150), cfg, n).transpose(2, 0, 1)
        v0 = np.full((1, n), 0.0 if start == "rest" else -0.0)
        betas = [None]
        if cfg.leak == "lif":  # per-lane betas, 0.0 among them
            betas.append(np.concatenate(([0.0], rng.uniform(0.0, 0.99, n - 1))))
        for beta in betas:
            got, *others = _all_routes(monkeypatch, lambda: neurons._lif_fold(frames, v0, cfg, beta))
            for want in others:
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), (n, beta)
                assert _owns_its_memory(want[2])
            assert _owns_its_memory(got[2]) and np.all(np.signbit(v0) == (start != "rest"))


@pytest.mark.parametrize("sg", [Rectangular(), ArcTangent()], ids=["rect", "atan"])
@pytest.mark.parametrize("name", list(LIF_KERNEL_CFGS))
def test_float_bptt_equals_the_numpy_loop_and_the_oracle(monkeypatch, name, sg):
    cfg = LIF_KERNEL_CFGS[name]
    rng = np.random.default_rng(67)
    for n in FLOAT_ROUTE_LANES:
        x = _kernel_input((1, n, 150), cfg, n)
        g = rng.normal(size=x.shape)
        g[rng.random(x.shape) < 0.2] = -0.0
        s, h = LifNeuron(cfg, sg).trace(x)
        args = (cfg, sg, s.transpose(2, 0, 1), h.transpose(2, 0, 1), g.transpose(2, 0, 1))
        got = _all_routes(monkeypatch, lambda: neurons._lif_bptt(*args))
        assert len({a.tobytes() for a in got} | {lif_bptt(*args).tobytes()}) == 1, n


@pytest.mark.parametrize("x_t", [9e307, -9e307])
@pytest.mark.parametrize("reset", ["hard", "soft", "none"])
def test_float_loop_equals_the_step_fold_where_one_lane_overflows(monkeypatch, reset, x_t):
    cfg = NeuronConfig.integrate_fire(reset, v_th=1e308, v_reset=-2.0)
    x = np.full((1, 1, 12), x_t)
    x[0, 0, 5] = 1.0
    with np.errstate(all="ignore"):
        s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x)
        folds = _all_routes(monkeypatch, lambda: neurons._lif_fold(
            x.transpose(2, 0, 1), np.zeros((1, 1)), cfg))
        args = (cfg, Rectangular(), folds[0][1], folds[0][0], np.ones((12, 1, 1)))
        grads = _all_routes(monkeypatch, lambda: neurons._lif_bptt(*args))
        want_grad = lif_bptt(*args)
    assert np.any(np.isinf(h_fold))
    for h, s, v in folds:
        assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
        assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
        assert v.tobytes() == v_fold.tobytes()
    assert len({a.tobytes() for a in grads} | {want_grad.tobytes()}) == 1


def test_divergence_run_takes_the_float_loop_and_16_lanes_do_not(monkeypatch):
    calls = []
    float_loop = neurons._float_membranes

    def spy(drive, *rest):
        calls.append(len(drive))
        return float_loop(drive, *rest)

    monkeypatch.setattr(neurons, "_float_membranes", spy)
    merges = _spy_merges(monkeypatch)
    verdict = check_long_control(make_neuron("if-soft"), 2.0)
    assert not verdict.holds and verdict.detail["steps"] == 20_000
    assert calls == [1024] * 20 and not merges  # one lane, one call per block
    calls.clear()
    neurons._lif_fold(np.ones((50, 1, 16)), np.zeros((1, 16)), NeuronConfig.integrate_fire("soft"))
    assert not calls
    # a 16-lane x 2048 lif-hard fold and its BPTT take time blocks, and no
    # IF fold does
    x = np.random.default_rng(0).normal(size=(2048, 1, 16))
    for kind in ("lif-hard", "if-hard", "if-soft", "if-none"):
        merges.clear()
        cfg = make_neuron(kind).cfg
        h, s, _ = neurons._lif_fold(x, np.zeros((1, 16)), cfg)
        neurons._lif_bptt(cfg, Rectangular(), s, h, x)
        assert len(merges) == (2 if kind == "lif-hard" else 0), kind
    assert not calls


def test_lif_fold_takes_membranes_of_any_shape(monkeypatch):
    # frames that are not (T, B, C) broadcast to the membrane's shape
    cases = [(np.ones((4, 3)), np.zeros(3), NeuronConfig.lif(2.0)),
             (_kernel_input((300,), NeuronConfig.lif(2.0), 1), np.array(0.25),
              NeuronConfig.lif(2.0, "soft")),
             (_kernel_input((300, 10), NeuronConfig.lif(2.0), 2), np.full(10, -0.0),
              NeuronConfig.lif(1.5, "hard", v_reset=-0.5)),
             (_kernel_input((300, 1), NeuronConfig.lif(2.0), 3), np.zeros(12),
              NeuronConfig.lif(2.0, "none"))]
    for frames, v0, cfg in cases:
        neuron, v, hs, ss = LifNeuron(cfg), v0, [], []
        for x_t in np.broadcast_to(frames.T, v0.shape + frames.shape[:1]).T:
            s_t, h_t, v = neuron.step(v, x_t)
            hs.append(h_t)
            ss.append(s_t)
        for h, s, v_end in _all_routes(monkeypatch, lambda: neurons._lif_fold(frames, v0, cfg)):
            assert h.shape == s.shape == (len(frames),) + v0.shape
            assert h.tobytes() == np.array(hs).tobytes() and s.tobytes() == np.array(ss).tobytes()
            assert v_end.shape == v0.shape and v_end.tobytes() == v.tobytes()
            assert _owns_its_memory(v_end)


def _block_case_input(kind: str, shape, cfg, seed):
    """(B, C, T) input: the kernel input, a constant drive over v_th, or a
    period of 5 kernel-input frames repeated."""
    if kind == "constant":
        return np.full(shape, 1.7 * cfg.v_th)
    x = _kernel_input(shape, cfg, seed)
    if kind == "periodic":
        x = np.tile(x[..., :5], shape[-1] // 5 + 1)[..., :shape[-1]]
    return x


BLOCK_CASES = [(name, drive, start) for name in LIF_KERNEL_CFGS
               for drive, start in (("kernel", "rest"), ("kernel", "negative-zero"),
                                    ("constant", "rest"), ("periodic", "negative-zero"))]


@pytest.mark.parametrize("name, drive, start", BLOCK_CASES,
                         ids=["-".join(case) for case in BLOCK_CASES])
def test_time_blocks_equal_the_step_fold_and_the_bptt_oracle(monkeypatch, name, drive, start):
    # 10 lanes of 263 frames, not a whole number of blocks; H, S, V and
    # dL/dx through every route equal the step fold and the oracle
    cfg = LIF_KERNEL_CFGS[name]
    x = _block_case_input(drive, (2, 5, 263), cfg, 70)
    v0 = np.full((2, 5), 0.0 if start == "rest" else -0.0)
    s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x, v0)
    merges = _spy_merges(monkeypatch)
    folds = _all_routes(monkeypatch, lambda: neurons._lif_fold(x.transpose(2, 0, 1), v0, cfg))
    blocks, n = neurons._time_blocks(263, 10, cfg, cfg.beta)
    assert len(merges) == (cfg.leak == "lif") and (blocks * n != 263 or not merges)
    for h, s, v in folds:
        assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
        assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
        assert v.tobytes() == v_fold.tobytes() and _owns_its_memory(v)
    assert np.all(np.signbit(v0) == (start != "rest"))
    g = np.random.default_rng(71).normal(size=x.shape).transpose(2, 0, 1)
    args = (cfg, ArcTangent(), folds[0][1], folds[0][0], g)
    grads = _all_routes(monkeypatch, lambda: neurons._lif_bptt(*args))
    assert len(merges) == 2 * (cfg.leak == "lif")
    assert len({a.tobytes() for a in grads} | {lif_bptt(*args).tobytes()}) == 1


def test_time_blocks_run_per_lane_betas_from_0_to_0_99(monkeypatch):
    x = _kernel_input((3, 1, 900), NeuronConfig.lif(2.0), 72)
    betas = np.array([0.0, 0.25, 0.5, 0.9, 0.99])
    merges = _spy_merges(monkeypatch)
    for reset in ("hard", "soft", "none"):
        cfgs = [NeuronConfig(beta=b, reset_mode=reset) for b in betas]
        folds = _all_routes(monkeypatch, lambda: neurons._lif_fold(  # blocks for 0.99 too
            x.transpose(2, 0, 1), np.zeros((3, len(betas))), cfgs[0], betas), 0.05)
        for c, cfg in enumerate(cfgs):
            s_c, h_c, v_c = step_fold(LifNeuron(cfg), x)
            for h, s, v in folds:
                assert h[:, :, c].T.tobytes() == h_c[:, 0].tobytes()
                assert s[:, :, c].T.tobytes() == s_c[:, 0].tobytes()
                assert v[:, c].tobytes() == v_c[:, 0].tobytes()
    assert len(merges) == 3


def test_time_blocks_repeat_a_repair_pass_that_does_not_merge(monkeypatch):
    # 8-frame blocks are too short for a wrong start to be forgotten, so
    # passes end unmerged, each leaving one more block exact
    cfg = NeuronConfig.lif(4.0, "soft")
    x = _kernel_input((1, 12, 400), cfg, 73)
    merges = _spy_merges(monkeypatch)
    folds = _all_routes(monkeypatch, lambda: neurons._lif_fold(
        x.transpose(2, 0, 1), np.zeros((1, 12)), cfg), 0.0)
    g = np.random.default_rng(74).normal(size=x.shape).transpose(2, 0, 1)
    args = (cfg, Rectangular(), folds[0][1], folds[0][0], g)
    grads = _all_routes(monkeypatch, lambda: neurons._lif_bptt(*args), 0.0)
    assert neurons._time_blocks(400, 12, cfg, cfg.beta) == (50, 8)
    for passes in merges:
        assert len(passes) > 1 and passes == list(range(49, 49 - len(passes), -1))
    s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x)
    for h, s, v in folds:
        assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
        assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
        assert v.tobytes() == v_fold.tobytes()
    assert len({a.tobytes() for a in grads} | {lif_bptt(*args).tobytes()}) == 1


def test_time_blocks_equal_the_step_fold_where_a_lane_overflows(monkeypatch):
    # a leaky H is a rounded convex combination of finite values and stays
    # finite, so the +inf rerun only comes of IF, which keeps one block;
    # here 8 IF lanes, one of them overflowing, through every route
    cfg = NeuronConfig.integrate_fire("hard", v_th=1e308, v_reset=-2.0)
    x = _kernel_input((1, 8, 300), NeuronConfig.lif(2.0), 75)
    x[0, 3] = 9e307
    x[0, 3, ::7] = 1.0
    merges = _spy_merges(monkeypatch)
    with np.errstate(all="ignore"):
        s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x)
        folds = _all_routes(monkeypatch, lambda: neurons._lif_fold(
            x.transpose(2, 0, 1), np.zeros((1, 8)), cfg))
    assert np.any(np.isposinf(h_fold[0, 3])) and not merges
    for h, s, v in folds:
        assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
        assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
        assert v.tobytes() == v_fold.tobytes()


@pytest.mark.parametrize("name", ["lif-hard", "lif-soft", "lif-none", "lif-hard-vreset--0.5"])
def test_time_blocks_chained_through_advance_equal_the_step_fold(monkeypatch, name):
    cfg = LIF_KERNEL_CFGS[name]
    neuron = LifNeuron(cfg)
    x = _kernel_input((2, 5, 600), cfg, 76)
    start = step_fold(neuron, x[..., :5])[2]
    x = x[..., 5:]
    s_fold, _, v_fold = step_fold(neuron, x, start)
    _route(monkeypatch, "blocks")
    for n in (1, 97, x.shape[-1]):
        state, spikes = start, []
        for t in range(0, x.shape[-1], n):
            s, state = neuron.advance(state, x[..., t:t + n])
            spikes.append(s)
        assert np.concatenate(spikes, axis=-1).tobytes() == s_fold.tobytes(), n
        assert state.tobytes() == v_fold.tobytes(), n


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([n for n, c in LIF_KERNEL_CFGS.items() if c.leak == "lif"]),
       st.integers(8, 24), st.integers(1, 500), st.integers(0, 2 ** 16),
       st.sampled_from(["kernel", "constant", "periodic"]))
def test_time_block_route_equals_the_step_fold(name, lanes, T, seed, drive):
    cfg = LIF_KERNEL_CFGS[name]
    x = _block_case_input(drive, (1, lanes, T), cfg, seed)
    v0 = np.random.default_rng(seed).normal(size=(1, lanes))
    s_fold, h_fold, v_fold = step_fold(LifNeuron(cfg), x, v0)
    with pytest.MonkeyPatch.context() as mp:
        _route(mp, "blocks")
        h, s, v = neurons._lif_fold(x.transpose(2, 0, 1), v0, cfg)
    assert h.transpose(1, 2, 0).tobytes() == h_fold.tobytes()
    assert s.transpose(1, 2, 0).tobytes() == s_fold.tobytes()
    assert v.tobytes() == v_fold.tobytes()


def _taped_forward(neuron, x, w):
    """Spikes and dL/dx of L = sum(w * S) through ``with_weights(...).forward``."""
    tape = nm.Tape()
    leaves = {name: tape.leaf(t.data) for name, t in neuron.weights().items()}
    xt = tape.leaf(x)
    rebuilt = neuron.with_weights(leaves)
    assert rebuilt.weights() == leaves  # every given tensor is used as is
    s = rebuilt.forward(xt)
    tape.backward(nm.sum_all(nm.mul(s, Tensor(w))))
    return s.data, tape.grad(xt)


def _central_differences(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def _spikes_and_membranes(neuron, x):
    """(S, H): ``trace`` for a kind with a serial mode; for full and masked
    PSN, which have none, their membrane and its threshold."""
    if neuron.supports_step:
        return neuron.trace(x)
    h = neurons._psn_membrane(neuron.params, x).data
    return nm.heaviside(h - neuron.v_th), h


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_registry_forward_matches_trace_and_gradient(kind):
    rng = np.random.default_rng(22)
    steps = 16
    neuron = make_neuron(kind, channels=3, t_train=steps, k=5, seed=1)
    x = rng.normal(size=(2, 3, steps)) * 2.0
    w = rng.normal(size=x.shape)
    s, gx = _taped_forward(neuron, x, w)
    s_trace, h = _spikes_and_membranes(neuron, x)
    np.testing.assert_array_equal(s, s_trace)
    if neuron.supports_step:
        np.testing.assert_array_equal(s, step_fold(neuron, x)[0])
    if neuron.supports_parallel:
        # reset-free: S = g(H(x)) with H smooth in x, so the taped gradient is
        # the membrane's Jacobian applied to w * g'(H), with g' the surrogate
        # (binary spikes) or the straight-through mask (integer counts)
        if neuron.n_max == 1:
            fire_grad = nm.surrogate_grad(neuron.sg, h - neuron.v_th)
        else:
            r = round_half_away(h)
            fire_grad = ((r >= 0.0) & (r <= neuron.n_max)).astype(float)
        v = w * fire_grad
        ref = _central_differences(
            lambda xv: float(np.sum(v * _spikes_and_membranes(neuron, xv)[1])), x)
        assert np.max(np.abs(gx - ref)) <= 1e-6 * max(1.0, float(np.max(np.abs(ref))))
    else:
        _, g_fold = _fold_input_grad(neuron.cfg, x, w, neuron.sg)
        assert np.max(np.abs(gx - g_fold)) <= 1e-12 * max(1.0, float(np.max(np.abs(g_fold))))


def test_masked_psn_gradient_stays_in_band():
    rng = np.random.default_rng(23)
    neuron = make_neuron("masked-psn", channels=2, t_train=12, k=3)
    tape = nm.Tape()
    wt = tape.leaf(neuron.weights()["weight"].data)
    s = neuron.with_weights({"weight": wt}).forward(Tensor(rng.normal(size=(2, 2, 12)) * 2.0))
    tape.backward(nm.sum_all(s))
    g = tape.grad(wt)
    i, j = np.indices(g.shape)
    band = (j <= i) & (j > i - 3)
    assert not g[~band].any()
    assert g[band].any()


def _init_decay_by_lag(t: int, beta: float = 0.5) -> np.ndarray:
    # full/masked W from an int64 T x T lag array, beta^lag on its causal part
    lag = np.arange(t)[:, None] - np.arange(t)[None, :]
    w = np.power(beta, lag, out=np.zeros((t, t)), where=lag >= 0)
    w *= 1.0 - beta
    return w


@pytest.mark.parametrize("t", [1, 7, 300, 2048])
def test_init_decay_builds_the_lag_formula_bytes(t):
    w = _init_decay_by_lag(t)
    assert PsnParams.init_decay("full", t_train=t).weight.data.tobytes() == w.tobytes()
    k = min(32, t)
    masked = PsnParams.init_decay("masked", t_train=t, k=k).weight.data
    assert masked.tobytes() == (w * band_mask(t, k)).tobytes()


def test_init_decay_peaks_near_one_weight_matrix():
    # T = 2048: W is 32 MiB; a T x T int64 lag array beside it doubles that
    t = 2048
    tracemalloc.start()
    try:
        w = PsnParams.init_decay("full", t_train=t).weight.data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * w.nbytes


def test_init_decay_long_lengths_fill_only_the_causal_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masked = PsnParams.init_decay("masked", t_train=2048, k=32).weight.data
        full = PsnParams.init_decay("full", t_train=2048).weight.data
    i, j = np.indices(full.shape)
    lag = i - j
    assert not full[lag < 0].any()
    assert not masked[(lag < 0) | (lag >= 32)].any()
    np.testing.assert_array_equal(full[lag == 0], 0.5)
    np.testing.assert_array_equal(masked[lag == 31], 0.5 ** 32)
    # lengths the old full-matrix formula handled keep their exact weights
    small = PsnParams.init_decay("full", t_train=64).weight.data
    i, j = np.indices(small.shape)
    np.testing.assert_array_equal(small, np.where(j <= i, 0.5 ** (i - j) * 0.5, 0.0))


# ---------------------------------------------------------------------------
# the serial step contract


def _state_arrays(state):
    if isinstance(state, DsnState):
        return [state.h, state.window]
    return [state]


STEP_KINDS = [k for k in NEURON_KINDS if make_neuron(k, t_train=16).supports_step]


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_step_is_a_function_of_its_state(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    rng = np.random.default_rng(25)
    state = neuron.init_state(2, 3)
    for _ in range(7):  # a state that is not all zeros
        _, _, state = neuron.step(state, rng.normal(size=(2, 3)) * 2.0)
    before = [a.copy() for a in _state_arrays(state)]
    x_t = rng.normal(size=(2, 3)) * 2.0
    first = neuron.step(state, x_t)
    second = neuron.step(state, x_t)
    for a, b in zip(_state_arrays(state), before):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(first[:2] + tuple(_state_arrays(first[2])),
                    second[:2] + tuple(_state_arrays(second[2]))):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_fold_rejects_input_that_is_not_bct(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    for shape in ((3, 16), (16,), (1, 2, 3, 16)):
        x = np.zeros(shape)
        with pytest.raises(ShapeMismatch):
            neuron.trace(x)


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_step_rejects_a_frame_unlike_its_state(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    state = neuron.init_state(2, 3)
    for shape in ((3,), (1, 3), (2, 4), (2, 3, 1)):
        with pytest.raises(ShapeMismatch):
            neuron.step(state, np.ones(shape))


def test_trace_is_the_step_fold_except_for_psn():
    # one multi-frame serial path: ``trace`` and ``advance`` both run
    # ``_advance``, which every stepping kind defines (the LIF's block kernel,
    # the DSN's and sliding PSN's sub-blocks) and the base leaves abstract;
    # full/masked PSN, which cannot step, have no ``trace``
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    def defining(name):
        return {cls.__name__ for cls in (Neuron, *subclasses(Neuron))
                if cls.__module__ == neurons.__name__ and name in vars(cls)}

    assert defining("_advance") == {"Neuron", "LifNeuron", "DsnNeuron", "PsnNeuron"}
    with pytest.raises(NotImplementedError):
        Neuron()._advance(np.zeros((1, 1)), np.zeros((1, 1, 1)), False)
    assert defining("trace") == {"Neuron"}
    assert defining("advance") == {"Neuron"}
    for name in ("lif_trace", "lif_sequence", "dsn_step", "dsn_alpha_sequence"):
        assert not hasattr(neurons, name)
    for name in ("serial_fold", "_fold"):
        assert not hasattr(Neuron, name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_non_finite_input_is_rejected(kind, bad):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    x = np.random.default_rng(26).normal(size=(2, 3, 16))
    x[1, 2, 9] = bad
    with pytest.raises(NonFiniteError):
        # full and masked PSN have no serial mode; their one path is sequence
        (neuron.trace if neuron.supports_step else neuron.sequence)(x)


@pytest.mark.parametrize("kind", ["psn", "masked-psn"])
def test_kinds_without_a_serial_mode_refuse_trace(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5)
    with pytest.raises(StepUnavailable):
        neuron.trace(np.zeros((2, 3, 16)))


@pytest.mark.parametrize("kind", ["lif-hard", "dsn", "sliding-psn"])
def test_step_refuses_a_tensor_frame(kind):
    # every step reads its frame as a float64 array; a Tensor is not one
    neuron = make_neuron(kind, channels=2, k=5)
    with pytest.raises(TypeError):
        neuron.step(neuron.init_state(1, 2), Tensor(np.ones((1, 2))))


@pytest.mark.parametrize("kind", ["dsn", "sliding-psn"])
def test_non_finite_frame_is_rejected_by_step(kind):
    neuron = make_neuron(kind, channels=3, k=5, seed=2)
    state = neuron.init_state(1, 3)
    _, _, state = neuron.step(state, np.ones((1, 3)))
    with pytest.raises(NonFiniteError):
        neuron.step(state, np.array([[0.0, np.nan, 1.0]]))


def _step_digest_neuron(kind: str, channels: int) -> Neuron:
    """A registry neuron, or ``dsn-mix``: a DSN with a random bias and a
    random channel mix."""
    if kind != "dsn-mix":
        return make_neuron(kind, channels=channels, seed=0)
    rng = np.random.default_rng(27)
    base = DsnParams.init(channels=channels, k=4, seed=0)
    return DsnNeuron(DsnParams(
        conv_kernel=base.conv_kernel, conv_bias=Tensor(rng.normal(size=channels)),
        channel_mix=Tensor(rng.normal(size=(channels, channels)) / np.sqrt(channels)),
        tau=0.5, n_max=3))


def step_digest(kind: str, batch: int, channels: int) -> str:
    """sha256 over the spikes, the membranes and the final state of the
    ``step`` fold of 48 seeded frames, 2 N(0, 1) each."""
    x = np.random.default_rng(26).normal(size=(batch, channels, 48)) * 2.0
    s, h, state = step_fold(_step_digest_neuron(kind, channels), x)
    blob = hashlib.sha256()
    for a in (s, h, *_state_arrays(state)):
        blob.update(np.ascontiguousarray(a).tobytes())
    return blob.hexdigest()


# ``step_digest`` by (kind, batch, channels), recorded before a step's
# ordered sums became one reduce (``BENCH_step_sums.json``).  Among them
# the shapes run every route of ``neurons._ordered_sum``: one-lane windows
# the accumulate, 1 x 16 and 4 x 256 the reduce, and the 4 x 256 mix and
# the 8 x 2048 windows, past ``CONV_BLOCK_BYTES``, the loop.
STEP_DIGESTS = {
    ("dsn", 1, 1): "e1bd15356da498104843e3b28e4b48a9964f71c7b942d241bc52fed47541be6e",
    ("dsn", 1, 16): "2cb7d02851734ff3a0fc1c185f71f86ecc9726f69284b24a2c15e1eb0c1867f0",
    ("dsn", 4, 256): "2521495683daf203716de5510a8e493b96922ccae88cb4704c06337dc4db6e84",
    ("dsn", 8, 2048): "f70323034b12f4a3eb67304faa36c0fdc366897518057e80cabd370c4b36b734",
    ("dsn-mix", 1, 1): "905dcf682003b7848d762685469d7f8605ff4e231fde6df17e2d9c9debaeec34",
    ("dsn-mix", 1, 16): "7055d2fd1e334b9d83d3b61d44a9799e006c99416663ab20beedd287e5236dc9",
    ("dsn-mix", 4, 256): "7d07c3063e4e1e4f7f40b500d40d5dcdc2b67d44dff7dd53102ff254d830ffe9",
    ("sliding-psn", 1, 1): "9b3b730eb055ba8d74469377adbf5731828f61a15aac3e3be95546d7019b79fd",
    ("sliding-psn", 1, 16): "6b498739ddb5bc8ae262b2bc13a01d3db228c9eef7c5ae631e36a8d63b017dbb",
    ("sliding-psn", 4, 256): "a7c362015f9ef5c1497458d6c386ea0bb186b60d8e2c60c12794f357499ce515",
    ("sliding-psn", 8, 2048): "204cc438cd71c70032288edf15105b9a6136bdf43b8be1a188a575ccfbf55058",
    ("lif-hard", 1, 1): "950a2363750ddc15f2d9d2b380277f17ce080a7f4723ee76a97740577979c2c6",
    ("lif-hard", 1, 16): "f98387abc360d1b95d0a88b38afea551f2834051c98313d1317f2b3d66f7bb8a",
    ("lif-hard", 4, 256): "8fd21a08fe2e02e07dd70fbf714b51965b808e48285d60386b5a01c14d2d9848",
    ("lif-hard", 8, 2048): "973dbb44509262cf0809c3263df2d202a971402e9a3e4e9c7c07f02e41908109",
}


@pytest.mark.parametrize("case", list(STEP_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_step_fold_digests_match_golden(case):
    assert step_digest(*case) == STEP_DIGESTS[case]


# ---------------------------------------------------------------------------
# block inference: ``advance`` is the step fold, a block at a time


def _advance_neuron(case: str) -> Neuron:
    """Every stepping kind by its registry name; ``dsn-mix``, a DSN with a
    random bias and a non-identity channel mix; ``sliding-psn-random``, 32
    random weights that do not decay, so a window off by one frame flips
    spikes (``init_decay`` weights halve with every lag, so old frames
    rarely flip one)."""
    rng = np.random.default_rng(41)
    if case == "dsn-mix":
        base = DsnParams.init(channels=3, k=4, seed=8)
        return DsnNeuron(DsnParams(conv_kernel=base.conv_kernel,
                                   conv_bias=Tensor(rng.normal(size=3)),
                                   channel_mix=Tensor(rng.normal(size=(3, 3)) / np.sqrt(3)),
                                   tau=0.5, n_max=3))
    if case == "sliding-psn-random":
        return PsnNeuron(PsnParams.sliding(rng.uniform(-0.2, 0.3, 32)))
    return make_neuron(case, channels=3, seed=2)


ADVANCE_CASES = STEP_KINDS + ["dsn-mix", "sliding-psn-random"]


def _step_states(neuron, x):
    """The state after each prefix x[..., :t] of the step fold, t = 0..T."""
    state = neuron.init_state(x.shape[0], x.shape[1])
    states = [state]
    for t in range(x.shape[-1]):
        state = neuron.step(state, x[..., t])[2]
        states.append(state)
    return states


def _assert_same_state(a, b):
    for u, v in zip(_state_arrays(a), _state_arrays(b), strict=True):
        assert u.shape == v.shape and u.tobytes() == v.tobytes()


def _owns_its_memory(a: np.ndarray) -> bool:
    root = a
    while root.base is not None:
        root = root.base
    return root.nbytes == a.nbytes


@pytest.fixture(params=list(SUM_ROUTES))
def sum_form(request, monkeypatch):
    # the ordered sums as one reduce and as a loop over terms, at any sub-block
    _force_sum_route(monkeypatch, SUM_ROUTES[request.param])


@pytest.fixture(params=[None, 5], ids=["sub-block-default", "sub-block-5"])
def sub_block(request, monkeypatch):
    # the default sub-block (longer than any block here) and 5 frames, which
    # is longer than a DSN window and shorter than a sliding-PSN one
    if request.param:
        monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * 2 * 3 * request.param)


@pytest.mark.parametrize("case", ADVANCE_CASES)
def test_advance_equals_the_step_fold_at_any_block_length(case, sum_form, sub_block):
    neuron = _advance_neuron(case)
    x = np.random.default_rng(42).normal(size=(2, 3, 300)) * 2.0
    s_fold, h_fold, _ = step_fold(neuron, x)
    assert 0.01 < np.mean(s_fold > 0) < 0.99
    s_trace, h_trace = neuron.trace(x)
    assert s_trace.tobytes() == s_fold.tobytes()
    assert h_trace.tobytes() == h_fold.tobytes()
    states = _step_states(neuron, x)
    for block in (1, 7, 97, 300):
        state, spikes = states[0], []
        for t in range(0, 300, block):
            s, state = neuron.advance(state, x[..., t:t + block])
            assert s.shape == x[..., t:t + block].shape
            spikes.append(s)
            _assert_same_state(state, states[min(t + block, 300)])
            assert all(_owns_its_memory(a) for a in _state_arrays(state))
        assert np.concatenate(spikes, axis=-1).tobytes() == s_fold.tobytes(), block


@pytest.mark.parametrize("case", ADVANCE_CASES)
def test_advance_interleaves_with_step_and_keeps_its_input_state(case, sum_form,
                                                                 sub_block):
    neuron = _advance_neuron(case)
    x = np.random.default_rng(43).normal(size=(2, 3, 160)) * 2.0
    s_fold = step_fold(neuron, x)[0]
    step_size = neuron.state_size(neuron.init_state(2, 3))
    state, spikes, t = neuron.init_state(2, 3), [], 0
    for n in (1, 0, 7, 1, 1, 40, 3, 1, 97, 0, 9):
        if n == 1 and t % 2:
            s, _, state = neuron.step(state, x[..., t])
            s = s[..., None]
        else:
            before = [a.copy() for a in _state_arrays(state)]
            s, new = neuron.advance(state, x[..., t:t + n])
            for a, b in zip(_state_arrays(state), before):
                assert a.tobytes() == b.tobytes()
            assert neuron.state_size(new) == step_size
            state = new
        spikes.append(s)
        t += n
    assert t == 160
    assert np.concatenate(spikes, axis=-1).tobytes() == s_fold.tobytes()


@pytest.mark.parametrize("kind", ["psn", "masked-psn"])
def test_advance_is_unavailable_where_step_is(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5)
    with pytest.raises(StepUnavailable):
        neuron.advance(np.zeros((5, 2, 3)), np.zeros((2, 3, 16)))


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_advance_rejects_non_finite_frames_and_other_shapes(kind, sub_block):
    neuron = make_neuron(kind, channels=3, seed=2)
    state = neuron.init_state(2, 3)
    x = np.random.default_rng(44).normal(size=(2, 3, 16))
    x[1, 2, 12] = np.nan  # in the third sub-block of 5 frames
    with pytest.raises(NonFiniteError):
        neuron.advance(state, x)
    for shape in ((3, 16), (2, 3), (1, 2, 3, 16), (2, 4, 16), (1, 3, 16)):
        with pytest.raises(ShapeMismatch):
            neuron.advance(state, np.zeros(shape))


def _gather_layout(layout: str, rng) -> np.ndarray:
    """A (B, C, T) block in the memory layout named: lane-major, time-major
    (``eval_serial`` hands ``advance`` a transposed (T, B, C) array), a
    non-contiguous slice whose (B, C) lanes do not form one axis, or
    3 x 67 lane-major lanes, which span four lane tiles, the last of 9."""
    if layout == "lane-major":
        return rng.normal(size=(4, 48, 300)) * 2.0
    if layout == "time-major":
        return np.ascontiguousarray((rng.normal(size=(4, 48, 300)) * 2.0)
                                    .transpose(2, 0, 1)).transpose(1, 2, 0)
    if layout == "slice":
        return (rng.normal(size=(3, 50, 600)) * 2.0)[:, 1:49, ::2]
    return rng.normal(size=(3, 67, 300)) * 2.0


@pytest.mark.parametrize("layout", ["lane-major", "time-major", "slice", "3x67"])
@pytest.mark.parametrize("kind", ["dsn", "sliding-psn"])
def test_advance_gathers_every_layout_as_the_step_fold_reads_it(kind, layout):
    rng = np.random.default_rng(48)
    x = _gather_layout(layout, rng)
    B, C, T = x.shape
    if layout == "slice":
        assert x.strides[0] != C * x.strides[1] and x.strides[2] != x.itemsize
    neuron = make_neuron(kind, channels=C, seed=3)
    assert nm.CONV_BLOCK_BYTES // (8 * B * C) < T  # more than one sub-block
    s_fold, _, _ = step_fold(neuron, x)
    states = _step_states(neuron, x)
    for block in (1, 7, 97, T):
        state, spikes = states[0], []
        for t in range(0, T, block):
            s, state = neuron.advance(state, x[..., t:t + block])
            spikes.append(s)
            _assert_same_state(state, states[min(t + block, T)])
        assert np.concatenate(spikes, axis=-1).tobytes() == s_fold.tobytes(), block
