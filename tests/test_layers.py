import numpy as np
import pytest

from spikescan import layers as ly
from spikescan import numerics as nm
from spikescan.numerics import Tape, Tensor, grad_check


def _fd(f, x0, eps=1e-6):
    return grad_check(f, Tensor(x0), eps)


def test_depthwise_causal_conv_forward():
    # kernel column k-1 weighs the current step; earlier columns look back
    x = np.arange(6.0).reshape(1, 1, 6)
    kernel = np.array([[0.0, 1.0]])  # pure identity on the current step
    out = nm.depthwise_causal_conv(Tensor(x), Tensor(kernel))
    np.testing.assert_array_equal(out.data, x)
    lagged = nm.depthwise_causal_conv(Tensor(x), Tensor(np.array([[1.0, 0.0]])))
    np.testing.assert_array_equal(lagged.data[0, 0], [0, 0, 1, 2, 3, 4])


def test_depthwise_conv_gradients():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(2, 3, 9))
    k0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=3)

    def loss_x(x):
        y = nm.depthwise_causal_conv(x, Tensor(k0), Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_k(k):
        y = nm.depthwise_causal_conv(Tensor(x0), k, Tensor(b0))
        return nm.mean_all(nm.mul(y, y))

    def loss_b(b):
        y = nm.depthwise_causal_conv(Tensor(x0), Tensor(k0), b)
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


def test_tile_channels_gradient_sums_rows():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    tiled = nm.tile_channels(w, 3)
    tape.backward(nm.sum_all(tiled))
    np.testing.assert_array_equal(tape.grad(w), [3.0, 3.0])


def test_reverse_and_slice_gradients():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=(2, 2, 6))

    def loss_rev(x):
        return nm.mean_all(nm.mul(nm.reverse_last(x), 2.0) ** 2.0)

    def loss_slice(x):
        return nm.mean_all(nm.time_slice(x, 1, 5) ** 2.0)

    assert _fd(loss_rev, x0) <= 1e-6
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


def test_add_bias_rows_gradient():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=4)

    def loss_b(b):
        return nm.mean_all(ly.add_bias_rows(Tensor(x0), b) ** 2.0)

    assert _fd(loss_b, b0) <= 1e-6


def test_unit_interval_clamp():
    out = nm.unit_interval_clamp(Tensor([0.0, 0.5, 1.0]))
    assert out.data[0] > 0.0
    assert out.data[2] < 1.0
    assert out.data[1] == 0.5
