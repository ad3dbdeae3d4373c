import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikescan import numerics as nm
from spikescan.errors import DivisionByZero, NonFiniteError, ShapeMismatch
from spikescan.numerics import (ArcTangent, Rectangular, StraightThrough,
                                Tape, Tensor, clip_round, elementwise,
                                grad_check, matmul, spike_threshold,
                                surrogate_grad)


def test_sigmoid_at_zero():
    assert nm.sigmoid(Tensor([0.0])).item() == 0.5


def test_pow_identity_exponent():
    x = Tensor([0.3, 0.7, 1.5])
    out = nm.power(x, 1.0)
    np.testing.assert_array_equal(out.data, x.data)


def test_mul_by_scalar():
    out = elementwise("mul", Tensor([1.0, 2.0, 3.0]), 2.0)
    np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])


def test_elementwise_dispatch_unknown():
    with pytest.raises(ValueError):
        elementwise("frobnicate", Tensor([1.0]), 1.0)


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
        return nm.mean_all(nm.sigmoid(nm.mul(nm.sigmoid(x), 3.0)))

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
        y = nm.mul(nm.sigmoid(x), nm.add(x, 0.5))
        return nm.mean_all(nm.mul(y, y))

    assert grad_check(f, Tensor(x0), 1e-6) <= 1e-5


def test_gradient_accumulates_across_reuse():
    tape = Tape()
    x = tape.leaf(np.array([2.0]))
    y = nm.add(nm.mul(x, x), nm.mul(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
    tape.backward(nm.sum_all(y))
    np.testing.assert_allclose(tape.grad(x), [7.0])


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


def test_float32_build_flag():
    nm.set_default_dtype(np.float32)
    try:
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float32
    finally:
        nm.set_default_dtype(np.float64)
