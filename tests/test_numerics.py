import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (depthwise_causal_conv, grad_check, round_half_away,
                     sigmoid_power_clamp)
from spikescan import numerics as nm
from spikescan.errors import DivisionByZero, NonFiniteError, ShapeMismatch
from spikescan.layers import batch_norm_train, column_conv
from spikescan.neurons import PsnParams, _psn_membrane
from spikescan.numerics import (ArcTangent, Rectangular, StraightThrough,
                                Tape, Tensor, clip_round, matmul,
                                spike_threshold, surrogate_grad)
from spikescan.scan import scan


def test_sigmoid_at_zero():
    # at tau = 1 the sharpened sigmoid is the sigmoid inside the clamp band
    assert nm.sharpened_sigmoid(Tensor([0.0]), 1.0).item() == 0.5


def test_pow_identity_exponent():
    x = Tensor([0.3, 0.7, 1.5])
    out = nm.power(x, 1.0)
    np.testing.assert_array_equal(out.data, x.data)


def test_mul_by_scalar():
    out = nm.mul(Tensor([1.0, 2.0, 3.0]), 2.0)
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])


def test_equal_shape_or_scalar_only():
    with pytest.raises(ShapeMismatch):
        nm.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_division_by_zero_rejected():
    with pytest.raises(DivisionByZero):
        nm.div(Tensor([1.0]), Tensor([0.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_non_finite_result_rejected():
    with pytest.raises(NonFiniteError):
        nm.div(Tensor([1.0]), Tensor([1e-320]))  # overflows to inf


def test_rank_cap():
    with pytest.raises(ShapeMismatch):
        Tensor(np.zeros((2, 2, 2, 2)))


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    x = np.arange(12.0).reshape(3, 4)
    out = matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_1x1():
    out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.item() == 6.0


def test_matmul_vs_triple_loop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    want = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - want)) <= 1e-12


def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# spike threshold and surrogates


def test_spike_threshold_fires_at_threshold():
    out = spike_threshold(Tensor([1.0]), 1.0, Rectangular())
    assert out.item() == 1.0  # Theta(0) = 1


def test_spike_threshold_below():
    out = spike_threshold(Tensor([1.0 - 1e-12]), 1.0, Rectangular())
    assert out.item() == 0.0


def test_spike_forward_independent_of_surrogate():
    h = Tensor(np.linspace(-2, 2, 41))
    outs = [spike_threshold(h, 0.5, sg).data
            for sg in (Rectangular(0.3), ArcTangent(5.0), StraightThrough())]
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(outs[0], outs[2])


def test_rectangular_gradient_at_threshold():
    tape = Tape()
    h = tape.leaf(np.array([1.0]))
    s = spike_threshold(h, 1.0, Rectangular(width=1.0))
    tape.backward(s, seed=np.array([1.0]))
    np.testing.assert_array_equal(tape.grad(h), [1.0])


def test_rectangular_gradient_outside_window():
    g = surrogate_grad(Rectangular(width=1.0), np.array([-0.6, -0.49, 0.49, 0.6]))
    np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 0.0])


def test_atan_gradient_formula():
    a = 2.0
    v = np.array([-1.0, 0.0, 0.3])
    want = a / (2.0 * (1.0 + (np.pi * a * v / 2.0) ** 2))
    np.testing.assert_allclose(surrogate_grad(ArcTangent(a), v), want, rtol=1e-15)


def test_surrogate_param_validation():
    with pytest.raises(ValueError):
        Rectangular(width=0.0)
    with pytest.raises(ValueError):
        ArcTangent(slope=-1.0)


# ---------------------------------------------------------------------------
# clip_round


def test_clip_round_examples():
    out = clip_round(Tensor([2.4, -0.3, 7.2, 0.5]), 4)
    np.testing.assert_array_equal(out.data, [2.0, 0.0, 4.0, 1.0])


def test_clip_round_tie_away_from_zero():
    out = clip_round(Tensor([0.5, 1.5, 2.5, -0.5]), 4)
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0, 0.0])


def test_clip_round_straight_through_mask():
    tape = Tape()
    h = tape.leaf(np.array([-0.7, -0.3, 2.2, 4.2, 4.8]))
    s = clip_round(h, 4)
    tape.backward(nm.sum_all(s))
    # gradient passes wherever the rounded value is already inside [0, 4]
    np.testing.assert_array_equal(tape.grad(h), [0.0, 1.0, 1.0, 1.0, 0.0])


def test_fire_counts_match_rounding_oracle():
    # ties, the double below 0.5 whose |x| + 0.5 rounds up, signed zeros,
    # and values past 2^52 where + 0.5 rounds to even
    edge = [0.5, -0.5, 1.5, -1.5, 3.5, 4.5, np.nextafter(0.5, 0.0),
            np.nextafter(-0.5, 0.0), np.nextafter(4.5, 0.0), 0.0, -0.0,
            2.0 ** 52 + 1.0, -(2.0 ** 52 + 1.0), 1e300, -1e300]
    h = np.concatenate([edge, np.random.default_rng(5).normal(size=500) * 3.0])
    tape = Tape()
    ht = tape.leaf(h)
    s = clip_round(ht, 4)
    tape.backward(s, seed=np.ones_like(h))
    rounded = round_half_away(h)
    assert nm.fire_counts(h, 4)[0].tobytes() == rounded.tobytes()
    assert s.data.tobytes() == np.clip(rounded, 0.0, 4.0).tobytes()
    mask = ((rounded >= 0.0) & (rounded <= 4)).astype(float)
    assert tape.grad(ht).tobytes() == mask.tobytes()


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
       st.integers(1, 7))
def test_clip_round_always_integer_in_range(values, n_max):
    out = clip_round(Tensor(values), n_max).data
    assert np.all(out == np.round(out))
    assert np.all((out >= 0) & (out <= n_max))


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_quadratic():
    err = grad_check(lambda x: nm.sum_all(nm.mul(x, x)), Tensor([3.0]), 1e-5)
    assert err <= 1e-8


def test_grad_check_sigmoid_chain():
    def f(x):
        return nm.mean_all(nm.sharpened_sigmoid(
            nm.mul(nm.sharpened_sigmoid(x, 1.0), 3.0), 1.0))

    rng = np.random.default_rng(0)
    err = grad_check(f, Tensor(rng.normal(size=(2, 3))), 1e-5)
    assert err <= 1e-6


def test_grad_check_composite_ops():
    def f(x):
        y = nm.div(nm.add(nm.mul(x, x), 1.0), nm.add(nm.relu(x), 2.0))
        return nm.mean_all(nm.power(y, 1.5))

    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
    assert grad_check(f, x, 1e-6) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_tape_matches_finite_differences_at_smooth_points(seed):
    # randomized composite expression away from relu/surrogate kinks
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.2, 1.8, size=(2, 3))

    def f(x):
        y = nm.mul(nm.sharpened_sigmoid(x, 1.0), nm.add(x, 0.5))
        return nm.mean_all(nm.mul(y, y))

    assert grad_check(f, Tensor(x0), 1e-6) <= 1e-5


def _decay_and_input_grad(decay, pre: np.ndarray, tau: float, w: np.ndarray):
    tape = Tape()
    x = tape.leaf(pre)
    alpha = decay(x, tau)
    tape.backward(alpha, seed=w)
    return alpha.data, tape.grad(x)


@pytest.mark.parametrize("tau", [0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 4.0])
def test_sharpened_sigmoid_bits_match_three_op_chain(tau):
    # one fused op against sigmoid -> power -> clamp, forward and backward,
    # with lanes that saturate the exponent cap and both ends of the clamp;
    # at tau = 1/4, pre = -174 is clamped low with a nonzero chain gradient,
    # so only the clamp's mask zeroes it
    rng = np.random.default_rng(11)
    pre = rng.normal(size=(3, 5, 400)) * 30.0
    lanes = pre.reshape(15, 400)
    for i, v in enumerate([600.0, -600.0, 40.0, -40.0, 0.0, -0.0, 500.5, -200.0,
                           -174.0]):
        lanes[i, ::3] = v
    w = rng.normal(size=pre.shape)
    alpha, grad = _decay_and_input_grad(nm.sharpened_sigmoid, pre, tau, w)
    ref_alpha, ref_grad = _decay_and_input_grad(sigmoid_power_clamp, pre, tau, w)
    assert alpha.tobytes() == ref_alpha.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert np.all((alpha > 0.0) & (alpha < 1.0))
    assert np.any(alpha == np.nextafter(1.0, 0.0))  # the pin engaged


@pytest.mark.parametrize("op", ["sharpened_sigmoid", "clip_round"])
def test_decay_and_fire_keep_one_byte_masks(op):
    # beside the array it returns, the sigmoid keeps sigma and the pin's
    # mask (not the float64 power), the fire only its straight-through mask
    # (not the float64 rounded values)
    x = np.random.default_rng(12).normal(size=(8, 64, 512)) * 3.0
    run = {"sharpened_sigmoid": lambda t: nm.sharpened_sigmoid(t, 0.25),
           "clip_round": lambda t: clip_round(t, 4)}[op]
    tracemalloc.start()
    try:
        t = Tape().leaf(x)
        base = tracemalloc.get_traced_memory()[0]
        out = run(t)
        kept = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    floats = 1 if op == "sharpened_sigmoid" else 0
    assert kept <= floats * x.nbytes + x.size + 2 ** 14


def test_gradient_accumulates_across_reuse():
    tape = Tape()
    x = tape.leaf(np.array([2.0]))
    y = nm.add(nm.mul(x, x), nm.mul(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
    tape.backward(nm.sum_all(y))
    np.testing.assert_allclose(tape.grad(x), [7.0])


@pytest.mark.parametrize("op, shape, dx", [
    (lambda x: nm.add(x, nm.mul(x, 1.0)), (2, 3, 4), 4.0),
    (lambda x: nm.sub(x, 1.0), (2, 3, 4), 3.0),
    (lambda x: nm.reshape(x, (6, 4)), (2, 3, 4), 3.0),
    (lambda x: nm.add_channel_bias(x, Tensor(np.ones(3))), (2, 3, 4), 3.0),
], ids=["add", "sub", "reshape", "add_channel_bias"])
def test_pass_through_gradient_is_not_kept_as_the_output_gradient(op, shape, dx):
    # y's backward hands x the output gradient itself; z's later
    # contribution to x must add into a copy, not into y's own buffer
    tape = Tape()
    x = tape.leaf(np.random.default_rng(0).normal(size=shape))
    z = nm.mul(x, 2.0)
    y = op(x)
    tape.backward(nm.sum_all(y) + nm.sum_all(z))
    np.testing.assert_array_equal(tape.grad(y), np.ones(y.shape))
    np.testing.assert_array_equal(tape.grad(x), np.full(x.shape, dx))


def test_gradient_of_an_untaped_input_never_runs():
    def refuse(g):
        raise AssertionError("gradient of an untaped input computed")

    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    y = nm._op("probe", x.data * 5.0, (x, lambda g: g * 5.0),
               (Tensor([3.0, 4.0]), refuse))
    tape.backward(nm.sum_all(y))
    np.testing.assert_array_equal(tape.grad(x), [5.0, 5.0])


def test_second_backward_on_a_tape_raises():
    tape = Tape()
    x = tape.leaf(np.array([2.0]))
    y = nm.sum_all(nm.mul(x, x))
    tape.backward(y)
    with pytest.raises(ValueError):
        tape.backward(y)
    with pytest.raises(ValueError):
        nm.mul(x, 2.0)  # nothing more can be recorded either
    np.testing.assert_allclose(tape.grad(x), [4.0])  # gradients stay readable


def test_used_tape_is_freed_without_the_cycle_collector():
    from spikescan.neurons import make_neuron

    neuron = make_neuron("dsn", channels=3)
    gc.disable()
    try:
        tape = Tape()
        x = tape.leaf(np.random.default_rng(0).normal(size=(2, 3, 16)))
        tape.backward(nm.mean_all(neuron.forward(x)))
        ref = weakref.ref(tape)
        del tape, x
        assert ref() is None
    finally:
        gc.enable()


def test_tensor_operator_sugar():
    a = Tensor([1.0, 2.0])
    b = Tensor([3.0, 4.0])
    np.testing.assert_array_equal((a + b).data, [4.0, 6.0])
    np.testing.assert_array_equal((a - b).data, [-2.0, -2.0])
    np.testing.assert_array_equal((a * b).data, [3.0, 8.0])
    np.testing.assert_array_equal((-a).data, [-1.0, -2.0])


# every op that takes more than one tensor, with its operand shapes
MULTI_OPERAND_OPS = {
    "add": (nm.add, [(2, 3), (2, 3)]),
    "sub": (nm.sub, [(2, 3), (2, 3)]),
    "mul": (nm.mul, [(2, 3), (2, 3)]),
    "div": (nm.div, [(2, 3), (2, 3)]),
    "matmul": (matmul, [(2, 3), (3, 2)]),
    "depthwise_causal_conv": (depthwise_causal_conv, [(1, 2, 5), (2, 3), (2,)]),
    "causal_conv": (nm.causal_conv, [(1, 2, 5), (3, 2, 2), (3,)]),
    "psn_membrane": (lambda x, w: _psn_membrane(PsnParams.sliding(w), x),
                     [(1, 2, 5), (3,)]),
    "channel_mix": (nm.channel_mix, [(3, 2), (1, 2, 5)]),
    "add_channel_bias": (nm.add_channel_bias, [(1, 2, 5), (2,)]),
    "scan": (scan, [(1, 2, 5), (1, 2, 5), (1, 2)]),
    "column_conv": (partial(column_conv, height=2), [(1, 4, 3), (1, 2, 3), (1,)]),
    "add_channel_bias_rank2": (nm.add_channel_bias, [(2, 3), (3,)]),
    "batch_norm_train": (batch_norm_train, [(2, 2, 3), (2,), (2,)]),
}


@pytest.mark.parametrize("name", list(MULTI_OPERAND_OPS))
def test_operands_on_two_tapes_are_rejected(name):
    # recording on one tape would silently drop the other operand's gradient
    op, shapes = MULTI_OPERAND_OPS[name]
    arrays = [np.random.default_rng(0).uniform(0.1, 0.9, size=s) for s in shapes]
    for other in range(1, len(arrays)):
        first, second = Tape(), Tape()
        args = [Tensor(a) for a in arrays]
        args[0] = first.leaf(arrays[0])
        args[other] = second.leaf(arrays[other])
        with pytest.raises(ValueError, match="different tapes"):
            op(*args)


# inputs that stress a product's rounding: signed zeros, subnormals and
# large finite values among normal ones
TAP_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1.7e308]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default", "3-row-blocks"])
@pytest.mark.parametrize("T", [3, 5, 12], ids=["T<k", "T=k", "T>k"])
@pytest.mark.parametrize("adjoint", [False, True], ids=["taps", "adjoint"])
def test_shared_kernel_taps_equal_tiled_kernel_bit_for_bit(monkeypatch, block_rows,
                                                           T, adjoint):
    # a (k,) kernel every lane shares multiplies by scalars; the same kernel
    # tiled to (L, k) multiplies by columns: the same bits either way, over
    # 7 lanes that 3-row blocks cut into 3, 3 and 1
    if block_rows is not None:
        monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * block_rows * T)
    L, k = 7, 5
    rng = np.random.default_rng(46)
    src = rng.normal(size=(L, T)) * 10.0
    src.flat[rng.choice(src.size, len(TAP_SPECIALS), replace=False)] = TAP_SPECIALS
    kern = rng.normal(size=k)
    kern[:4] = [-0.0, 5e-324, 1e10, -3e-300]
    shared, tiled = np.zeros((L, T)), np.zeros((L, T))
    with np.errstate(all="ignore"):
        nm._depthwise_taps(src, kern, shared, adjoint)
        nm._depthwise_taps(src, np.tile(kern, (L, 1)), tiled, adjoint)
    assert shared.tobytes() == tiled.tobytes()
    assert np.any(shared)
