import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (causal_conv_shift, causal_conv_shift_grads,
                     dense_taps_whole_batch, depthwise_causal_conv,
                     depthwise_conv_shift, depthwise_conv_shift_grads, grad_check)
from spikescan import layers as ly
from spikescan import numerics as nm
from spikescan.numerics import Tape, Tensor


def _fd(f, x0, eps=1e-6):
    return grad_check(f, Tensor(x0), eps)


def test_depthwise_causal_conv_forward():
    # kernel column k-1 weighs the current step; earlier columns look back
    x = np.arange(6.0).reshape(1, 1, 6)
    kernel = np.array([[0.0, 1.0]])  # pure identity on the current step
    out = depthwise_causal_conv(Tensor(x), Tensor(kernel))
    np.testing.assert_array_equal(out.data, x)
    lagged = depthwise_causal_conv(Tensor(x), Tensor(np.array([[1.0, 0.0]])))
    np.testing.assert_array_equal(lagged.data[0, 0], [0, 0, 1, 2, 3, 4])


def test_depthwise_conv_gradients():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(2, 3, 9))
    k0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=3)

    def loss_x(x):
        y = depthwise_causal_conv(x, Tensor(k0), Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_k(k):
        y = depthwise_causal_conv(Tensor(x0), k, Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_b(b):
        y = depthwise_causal_conv(Tensor(x0), Tensor(k0), b)
        return nm.mean_all(nm.mul(y, y))

    assert _fd(loss_x, x0) <= 1e-6
    assert _fd(loss_k, k0) <= 1e-6
    assert _fd(loss_b, b0) <= 1e-6


def test_dense_causal_conv_gradients():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 3, 7))
    w0 = rng.normal(size=(4, 3, 3))
    b0 = rng.normal(size=4)

    def loss_x(x):
        y = nm.causal_conv(x, Tensor(w0), Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_w(w):
        y = nm.causal_conv(Tensor(x0), w, Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    assert _fd(loss_x, x0) <= 1e-6
    assert _fd(loss_w, w0) <= 1e-6


def _rel_err(got, want):
    # largest deviation relative to the largest oracle magnitude
    return float(np.max(np.abs(got - want), initial=0.0)
                 / max(np.max(np.abs(want), initial=0.0), 1e-300))


def _taped_conv(op, x, w, b, g):
    tape = Tape()
    xt, wt, bt = tape.leaf(x), tape.leaf(w), tape.leaf(b)
    y = op(xt, wt, bt)
    tape.backward(y, seed=g)
    return y.data, tape.grad(xt), tape.grad(wt), tape.grad(bt)


def _check_depthwise_against_oracle(rng, B, C, T, k):
    x = rng.normal(size=(B, C, T))
    kern = rng.normal(size=(C, k))
    bias = rng.normal(size=C)
    g = rng.normal(size=(B, C, T))
    out, gx, gk, gb = _taped_conv(depthwise_causal_conv, x, kern, bias, g)
    want_gx, want_gk, want_gb = depthwise_conv_shift_grads(x, kern, g)
    assert np.array_equal(out, depthwise_conv_shift(x, kern, bias))
    assert np.array_equal(gx, want_gx)
    assert _rel_err(gk, want_gk) <= 1e-12
    assert _rel_err(gb, want_gb) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 700),
       st.integers(1, 40), st.integers(1, 9), st.integers(0, 2 ** 31 - 1))
def test_convs_match_shifted_copy_oracles(B, C, T, k, c_out, seed):
    # k > T is drawn too: the taps that fall off the start contribute nothing
    rng = np.random.default_rng(seed)
    _check_depthwise_against_oracle(rng, B, C, T, k)
    x = rng.normal(size=(B, C, T))
    w = rng.normal(size=(c_out, C, k))
    bias = rng.normal(size=c_out)
    g = rng.normal(size=(B, c_out, T))
    got = _taped_conv(nm.causal_conv, x, w, bias, g)
    want = (causal_conv_shift(x, w, bias),) + causal_conv_shift_grads(x, w, g)
    for a, b in zip(got, want):
        assert _rel_err(a, b) <= 1e-12


@pytest.mark.parametrize("B, c_in, c_out, T, k", [
    (7, 6, 48, 128, 8),      # 5 batch rows a block: 5 + a ragged 2
    (1, 6, 48, 128, 8),      # B = 1
    (3, 6, 48, 5, 8),        # k > T: the first taps fall off the start
    (128, 6, 48, 128, 8),    # expansion at the approx shape: 25 blocks + 3
    (128, 48, 6, 128, 8),    # contraction at the approx shape
    (4, 6, 48, 2048, 8),     # one 768 KiB batch row, more than a block
], ids=["ragged", "b1", "k-gt-t", "expand", "contract", "long-rows"])
def test_causal_conv_matches_whole_batch_taps_bytes(B, c_in, c_out, T, k):
    rng = np.random.default_rng(B * 1000 + T)
    x = rng.normal(size=(B, c_in, T))
    w = rng.normal(size=(c_out, c_in, k))
    bias = rng.normal(size=c_out)
    g = rng.normal(size=(B, c_out, T))
    out, gx, _, _ = _taped_conv(nm.causal_conv, x, w, bias, g)
    w_taps = np.ascontiguousarray(np.moveaxis(w, 2, 0))
    want = np.zeros_like(out)
    dense_taps_whole_batch(w_taps, x, want, adjoint=False)
    want += bias[None, :, None]
    want_gx = np.zeros_like(x)
    dense_taps_whole_batch(np.ascontiguousarray(w_taps.transpose(0, 2, 1)), g,
                           want_gx, adjoint=True)
    assert out.tobytes() == want.tobytes()
    assert gx.tobytes() == want_gx.tobytes()


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
def test_dense_taps_scratch_is_one_block(adjoint):
    # 64 x (6 -> 48) x 128: the forward's output is 3 MiB and a block is 5
    # batch rows (240 KiB of product); the adjoint's block is 5 rows of 6
    # channels (30 KiB) against a 384 KiB output
    B, c_in, c_out, T, k = 64, 6, 48, 128, 8
    rng = np.random.default_rng(5)
    w_taps = rng.normal(size=(k, c_out, c_in))
    if adjoint:
        w_taps = np.ascontiguousarray(w_taps.transpose(0, 2, 1))
    src = rng.normal(size=(B, w_taps.shape[2], T))
    dst = np.zeros((B, w_taps.shape[1], T))
    block = nm._block_rows(max(c_in, c_out) * T) * dst[0].nbytes
    assert block <= nm.CONV_BLOCK_BYTES < dst.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nm._dense_taps(w_taps, src, dst, adjoint)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= block + 4096


def test_depthwise_conv_ragged_lane_blocks_match_oracle():
    # 210 lanes of T=1024 make six full 32-lane blocks and a ragged 18-lane one
    assert nm._block_rows(1024) == 32
    _check_depthwise_against_oracle(np.random.default_rng(3), 3, 70, 1024, 32)


def test_conv_gradients_across_lane_blocks(monkeypatch):
    # shrink the block to 4 lanes of T=9 so the 6 lanes split 4 + 2
    monkeypatch.setattr(nm, "CONV_BLOCK_BYTES", 8 * 9 * 4)
    assert nm._block_rows(9) == 4
    test_depthwise_conv_gradients()
    # k > T: the oldest taps never reach the sequence
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(2, 3, 4))
    k0 = rng.normal(size=(3, 6))
    w0 = rng.normal(size=(2, 3, 6))
    assert _fd(lambda x: nm.mean_all(nm.power(
        depthwise_causal_conv(x, Tensor(k0)), 2.0)), x0) <= 1e-6
    assert _fd(lambda k: nm.mean_all(nm.power(
        depthwise_causal_conv(Tensor(x0), k), 2.0)), k0) <= 1e-6
    assert _fd(lambda x: nm.mean_all(nm.power(
        nm.causal_conv(x, Tensor(w0)), 2.0)), x0) <= 1e-6
    assert _fd(lambda w: nm.mean_all(nm.power(
        nm.causal_conv(Tensor(x0), w), 2.0)), w0) <= 1e-6


def test_depthwise_kernel_gradient_one_lane_per_block():
    # T > 32768 puts every lane in a block of its own
    assert nm._block_rows(40000) == 1
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(1, 2, 40000))
    k0 = rng.normal(size=(2, 3))
    assert _fd(lambda k: nm.mean_all(nm.power(
        depthwise_causal_conv(Tensor(x0), k), 2.0)), k0) <= 1e-6


def test_channel_mix_and_bias_gradients():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(2, 3, 5))
    w0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=4)

    def loss(x):
        y = nm.add_channel_bias(nm.channel_mix(Tensor(w0), x), Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_w(w):
        y = nm.channel_mix(w, Tensor(x0))
        return nm.mean_all(nm.mul(y, y))

    assert _fd(loss, x0) <= 1e-6
    assert _fd(loss_w, w0) <= 1e-6


def test_time_slice_gradient():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 2, 6))

    def loss_slice(x):
        return nm.mean_all(nm.time_slice(x, 1, 5) ** 2.0)

    assert _fd(loss_slice, x0) <= 1e-6


def test_column_conv_matches_direct_convolution():
    rng = np.random.default_rng(4)
    b, c_in, c_out, h, t, kh = 2, 2, 3, 5, 4, 3
    x4 = rng.normal(size=(b, c_in, h, t))
    w = rng.normal(size=(c_out, c_in, kh))
    out = ly.column_conv(Tensor(x4.reshape(b, c_in * h, t)), Tensor(w),
                         height=h).data.reshape(b, c_out, h, t)
    want = np.zeros((b, c_out, h, t))
    for y in range(h):
        for dy in range(kh):
            yy = y + dy - kh // 2
            if 0 <= yy < h:
                want[:, :, y, :] += np.einsum("oi,bit->bot", w[:, :, dy],
                                              x4[:, :, yy, :])
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_column_conv_gradients():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(1, 2 * 4, 3))
    w0 = rng.normal(size=(2, 2, 3))
    b0 = rng.normal(size=2)

    def loss_x(x):
        y = ly.column_conv(x, Tensor(w0), Tensor(b0), height=4)
        return nm.mean_all(nm.mul(y, y))

    def loss_w(w):
        y = ly.column_conv(Tensor(x0), w, Tensor(b0), height=4)
        return nm.mean_all(nm.mul(y, y))

    assert _fd(loss_x, x0) <= 1e-6
    assert _fd(loss_w, w0) <= 1e-6


def test_column_pool_and_sum_time_gradients():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(2, 2 * 4, 5))

    def loss_pool(x):
        return nm.mean_all(ly.column_avg_pool(x, 2, 4, 2) ** 2.0)

    def loss_sum(x):
        return nm.mean_all(ly.sum_time(x) ** 2.0)

    assert _fd(loss_pool, x0) <= 1e-6
    assert _fd(loss_sum, x0) <= 1e-6


def test_batch_norm_train_statistics_and_gradients():
    rng = np.random.default_rng(7)
    x0 = rng.normal(loc=2.0, scale=3.0, size=(4, 3, 6))
    g0 = rng.uniform(0.5, 1.5, size=3)
    b0 = rng.normal(size=3)

    y, mean, var = ly.batch_norm_train(Tensor(x0), Tensor(g0), Tensor(b0))
    np.testing.assert_allclose(mean, x0.mean(axis=(0, 2)))
    np.testing.assert_allclose(
        y.data.mean(axis=(0, 2)), b0, atol=1e-12)

    def loss_x(x):
        out, _, _ = ly.batch_norm_train(x, Tensor(g0), Tensor(b0))
        return nm.mean_all(nm.mul(out, nm.add(out, 0.3)))

    def loss_g(g):
        out, _, _ = ly.batch_norm_train(Tensor(x0), g, Tensor(b0))
        return nm.mean_all(nm.mul(out, nm.add(out, 0.3)))

    assert _fd(loss_x, x0) <= 1e-5
    assert _fd(loss_g, g0) <= 1e-6


def test_batch_norm_eval_uses_frozen_stats():
    rng = np.random.default_rng(8)
    x0 = rng.normal(size=(2, 3, 4))
    mean = np.array([0.5, -0.5, 0.0])
    var = np.array([2.0, 1.0, 0.5])
    g = np.ones(3)
    b = np.zeros(3)
    out = ly.batch_norm_eval(Tensor(x0), Tensor(g), Tensor(b), mean, var)
    want = (x0 - mean[None, :, None]) / np.sqrt(var + 1e-5)[None, :, None]
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_softmax_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)

    def loss(z):
        return ly.softmax_cross_entropy(z, labels)

    assert _fd(loss, logits) <= 1e-6


def test_add_channel_bias_rank2_gradient():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=4)

    def loss_b(b):
        return nm.mean_all(nm.add_channel_bias(Tensor(x0), b) ** 2.0)

    assert _fd(loss_b, b0) <= 1e-6


def test_unit_interval_clamp():
    # the sharpened sigmoid pins saturated decays inside (0, 1): at tau = 1
    # sigmoid(800) rounds to 1.0, and at tau = 1/4 sigmoid(-800) ** 4 to 0.0
    out = nm.sharpened_sigmoid(Tensor([-800.0, 0.0, 800.0]), 1.0)
    assert out.data[0] > 0.0
    assert out.data[2] < 1.0
    assert out.data[1] == 0.5
    assert nm.sharpened_sigmoid(Tensor([-800.0]), 0.25).item() > 0.0
