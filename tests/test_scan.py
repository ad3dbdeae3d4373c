import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (grad_check, matrix_form, scan_fold, scan_moveaxis,
                     scan_moveaxis_grads)
from spikescan import numerics as nm
from spikescan.numerics import Tape, Tensor
from spikescan.scan import scan


def _problem(rng, b=2, c=3, t=64, h0=True, lo=0.01, hi=0.99):
    """(alpha, x, h0) arrays; h0 is None unless drawn."""
    alpha = rng.uniform(lo, hi, size=(b, c, t))
    x = rng.uniform(-5.0, 5.0, size=(b, c, t))
    start = rng.normal(size=(b, c)) if h0 else None
    return alpha, x, start


def _fold(alpha, x, h0=None):
    """The oracle for H_t = alpha_t H_{t-1} + (1 - alpha_t) x_t."""
    start = np.zeros(alpha.shape[:2]) if h0 is None else h0
    return scan_fold(alpha, (1.0 - alpha) * x, start)


def _scan_grads(alpha, x, h0, dh):
    """H and [dAlpha, dX, dH0] of the taped scan for upstream gradient dh."""
    tape = Tape()
    leaves = [tape.leaf(a) for a in (alpha, x, h0)]
    h = scan(*leaves)
    tape.backward(h, seed=dh)
    return h.data, [tape.grad(t) for t in leaves]


def test_pure_carry():
    h0 = np.array([[2.0, -1.0]])
    alpha, x = np.ones((1, 2, 5)), np.zeros((1, 2, 5))
    want = np.repeat(h0[..., None], 5, axis=-1)
    np.testing.assert_array_equal(_fold(alpha, x, h0), want)
    np.testing.assert_array_equal(scan(alpha, x, h0).data, want)


def test_pure_input():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 7))
    np.testing.assert_array_equal(_fold(np.zeros_like(x), x), x)
    np.testing.assert_array_equal(scan(np.zeros_like(x), x).data, x)


def test_constant_decay_matches_geometric_expansion():
    # closed form: H_t = sum_i beta^(t-i) (1-beta) x_i
    rng = np.random.default_rng(1)
    beta = 0.6
    x = rng.normal(size=(1, 1, 20))
    alpha = np.full_like(x, beta)
    want = np.zeros_like(x)
    for t in range(20):
        for i in range(t + 1):
            want[0, 0, t] += beta ** (t - i) * (1 - beta) * x[0, 0, i]
    np.testing.assert_allclose(_fold(alpha, x), want, atol=1e-12)
    np.testing.assert_allclose(scan(alpha, x).data, want, atol=1e-10)


# 100000 steps are 391 chunks, so the carry fold runs hundreds of steps
@pytest.mark.parametrize("t", [1, 2, 3, 255, 256, 257, 1024, 100000])
def test_parallel_matches_serial(t):
    rng = np.random.default_rng(t)
    alpha, x, h0 = _problem(rng, t=t)
    diff = np.abs(scan(alpha, x, h0).data - _fold(alpha, x, h0))
    assert diff.max() <= 1e-10


def test_parallel_bit_identical_across_runs():
    rng = np.random.default_rng(9)
    alpha, x, h0 = _problem(rng, t=700)
    a = scan(alpha, x, h0).data
    b = scan(alpha, x, h0).data
    assert a.tobytes() == b.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2 ** 31 - 1))
def test_parallel_serial_property(t, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, 1.0, size=(1, 2, t))
    alpha = np.clip(alpha, 1e-12, 1.0 - 1e-12)
    x = rng.uniform(-1e4, 1e4, size=(1, 2, t))
    diff = np.abs(scan(alpha, x).data - _fold(alpha, x))
    assert diff.max() <= 1e-10


# bit for bit against the scan that folds on whole-array moveaxis copies:
# lengths around one and several 256-step chunks, lane counts that are not
# multiples of the transpose tile, a drawn start h0
@pytest.mark.parametrize("t", [1, 7, 255, 256, 257, 300, 1000, 4096])
@pytest.mark.parametrize("lanes", [(1, 1), (1, 5), (3, 11), (2, 35)],
                         ids=lambda lanes: f"{lanes[0] * lanes[1]}lanes")
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       band=st.sampled_from([(0.0, 1.0), (0.9, 1.0), (1e-6, 0.1)]))
def test_scan_bits_match_moveaxis_oracle(t, lanes, seed, band):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(*band, size=lanes + (t,))
    x = rng.normal(scale=3.0, size=lanes + (t,))
    h0 = rng.normal(size=lanes)
    dh = rng.normal(size=lanes + (t,))
    want_h = scan_moveaxis(alpha, (1.0 - alpha) * x, h0)
    h, grads = _scan_grads(alpha, x, h0, dh)
    assert h.tobytes() == want_h.tobytes()
    want = scan_moveaxis_grads(alpha, x, h0, want_h, dh)
    for name, got, ref in zip(("d_alpha", "d_x", "d_h0"), grads, want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_upstream():
    rng = np.random.default_rng(3)
    alpha, x, h0 = _problem(rng, t=17)
    _, grads = _scan_grads(alpha, x, h0, np.zeros_like(x))
    for g in grads:
        assert not g.any()


def test_backward_t1_closed_form():
    alpha = np.array([[[0.3]]])
    x = np.array([[[2.0]]])
    h0 = np.array([[0.7]])
    dh = np.array([[[1.5]]])
    h, (d_alpha, d_x, d_h0) = _scan_grads(alpha, x, h0, dh)
    np.testing.assert_array_equal(h, _fold(alpha, x, h0))
    np.testing.assert_allclose(d_alpha, dh * (h0[..., None] - x))
    np.testing.assert_allclose(d_x, dh * (1 - alpha))
    np.testing.assert_allclose(d_h0, (dh * alpha)[..., 0])


# 300 steps cross a chunk boundary, so the carry enters the gradient
@pytest.mark.parametrize("t", [5, 33, 128, 300])
def test_backward_matches_finite_differences(t):
    rng = np.random.default_rng(t)
    alpha = rng.uniform(0.1, 0.9, size=(1, 2, t))
    x0 = rng.normal(size=(1, 2, t))
    h0 = rng.normal(size=(1, 2))

    def loss_x(xt):
        return nm.mean_all(nm.mul(scan(Tensor(alpha), xt, Tensor(h0)), 1.0) ** 2.0)

    def loss_alpha(at):
        return nm.mean_all(scan(at, Tensor(x0), Tensor(h0)) ** 2.0)

    assert grad_check(loss_x, Tensor(x0), 1e-5) <= 1e-5
    assert grad_check(loss_alpha, Tensor(alpha), 1e-6) <= 1e-5


def test_taped_scan_h0_gradient():
    rng = np.random.default_rng(5)
    for t in (9, 300):
        alpha = rng.uniform(0.1, 0.9, size=(1, 1, t))
        x = rng.normal(size=(1, 1, t))

        def loss_h0(h0):
            flat = nm.reshape(h0, (1, 1))
            return nm.mean_all(scan(Tensor(alpha), Tensor(x), flat) ** 2.0)

        assert grad_check(loss_h0, Tensor(np.array([[0.3]])), 1e-6) <= 1e-6


# ---------------------------------------------------------------------------
# matrix form (test oracle)


def test_matrix_form_matches_serial():
    rng = np.random.default_rng(6)
    alpha, x, h0 = _problem(rng, b=2, c=2, t=32, lo=0.1, hi=0.9)
    diff = np.abs(matrix_form(alpha, x, h0) - _fold(alpha, x, h0))
    assert diff.max() <= 1e-8


def test_matrix_form_is_causal():
    # an impulse at time i must not reach any earlier output: the weight is
    # upper-triangular in (i, j)
    rng = np.random.default_rng(7)
    t = 16
    alpha = rng.uniform(0.1, 0.9, size=(1, 1, t))
    for i in (4, 11):
        x = np.zeros((1, 1, t))
        x[0, 0, i] = 1.0
        h = matrix_form(alpha, x)
        assert not h[0, 0, :i].any()
        assert h[0, 0, i:].any()


def test_matrix_form_guard_band():
    rng = np.random.default_rng(8)
    alpha, x, h0 = _problem(rng, t=256, lo=1e-4, hi=2e-4)
    with pytest.raises(ValueError, match="guard band"):
        matrix_form(alpha, x, h0)


def test_matrix_form_guard_length():
    rng = np.random.default_rng(9)
    alpha, x, h0 = _problem(rng, t=600, lo=0.2, hi=0.8)
    with pytest.raises(ValueError, match="T <= 512"):
        matrix_form(alpha, x, h0)


def test_matrix_form_alpha_min_floor():
    rng = np.random.default_rng(10)
    alpha, x, h0 = _problem(rng, t=8, lo=0.2, hi=0.8)
    with pytest.raises(ValueError, match="stability floor"):
        matrix_form(alpha, x, h0, alpha_min=0.01)
