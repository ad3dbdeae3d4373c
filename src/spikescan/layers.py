"""Taped building blocks for the task models.

These ops work on the rank-3 (batch, channel, time) data model; layers that
conceptually need a fourth axis (convolution and pooling over a spatial
column at every timestep) fold channel and height into the channel axis and
unfold internally.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .numerics import Tensor, _as_tensor, _op


def _unfold(x: np.ndarray, channels: int, height: int) -> np.ndarray:
    b, ch, t = x.shape
    if ch != channels * height:
        raise ShapeMismatch(f"cannot view {ch} channels as {channels}x{height}")
    return x.reshape(b, channels, height, t)


def _height_shift(arr: np.ndarray, offset: int) -> np.ndarray:
    # arr[..., y+offset, :] with zero padding outside the column
    if offset == 0:
        return arr
    out = np.zeros_like(arr)
    if offset > 0:
        out[:, :, :-offset, :] = arr[:, :, offset:, :]
    else:
        out[:, :, -offset:, :] = arr[:, :, :offset, :]
    return out


def column_conv(x, weight, bias=None, height: int | None = None) -> Tensor:
    """Convolution over the folded height axis, applied at every timestep.

    x: (B, c_in*height, T); weight: (c_out, c_in, kh) with kh odd
    (same-padding); bias: (c_out,).  Returns (B, c_out*height, T).
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if weight.data.ndim != 3 or weight.data.shape[2] % 2 == 0:
        raise ShapeMismatch("weight must be (c_out, c_in, odd_kh)")
    c_out, c_in, kh = weight.data.shape
    if height is None:
        raise ValueError("height is required")
    x4 = _unfold(x.data, c_in, height)
    half = kh // 2
    out4 = np.zeros((x4.shape[0], c_out, height, x4.shape[3]), dtype=x.data.dtype)
    for dy in range(kh):
        out4 += np.einsum("oi,biht->boht", weight.data[:, :, dy],
                          _height_shift(x4, dy - half))
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeMismatch("bias must be (c_out,)")
        out4 += bias.data[None, :, None, None]
    out = out4.reshape(x4.shape[0], c_out * height, x4.shape[3])

    def grad_x(g):
        g4 = _unfold(g, c_out, height)
        gx = np.zeros_like(x4)
        for dy in range(kh):
            piece = np.einsum("oi,boht->biht", weight.data[:, :, dy], g4)
            gx += _height_shift(piece, half - dy)
        return gx.reshape(x.data.shape)

    def grad_weight(g):
        g4 = _unfold(g, c_out, height)
        gw = np.empty_like(weight.data)
        for dy in range(kh):
            gw[:, :, dy] = np.einsum("boht,biht->oi", g4,
                                     _height_shift(x4, dy - half))
        return gw

    return _op("column_conv", out, (x, grad_x), (weight, grad_weight),
               (bias, lambda g: np.sum(_unfold(g, c_out, height), axis=(0, 2, 3))))


def column_avg_pool(x, channels: int, height: int, factor: int = 2) -> Tensor:
    """Average-pool the folded height axis by an integer factor."""
    x = _as_tensor(x)
    if height % factor:
        raise ShapeMismatch(f"height {height} not divisible by {factor}")
    x4 = _unfold(x.data, channels, height)
    b, c, h, t = x4.shape
    pooled = x4.reshape(b, c, h // factor, factor, t).mean(axis=3)

    def grad(g):
        g4 = g.reshape(b, c, h // factor, 1, t) / factor
        gx = np.broadcast_to(g4, (b, c, h // factor, factor, t))
        return gx.reshape(x.data.shape).copy()

    return _op("column_avg_pool", pooled.reshape(b, c * (h // factor), t), (x, grad))


def sum_time(x) -> Tensor:
    """Sum over the innermost (time) axis: (B, C, T) -> (B, C)."""
    x = _as_tensor(x)
    return _op("sum_time", np.sum(x.data, axis=-1),
               (x, lambda g: np.broadcast_to(g[..., None], x.data.shape).copy()))


def batch_norm_train(x, gamma, beta, eps: float = 1e-5):
    """Per-channel batch normalization over (batch, time).

    Returns (y, batch_mean, batch_var); the stats are plain arrays for the
    caller's running buffers.  The backward accounts for the dependence of
    the batch statistics on x.
    """
    x = _as_tensor(x)
    gamma = _as_tensor(gamma)
    beta = _as_tensor(beta)
    if x.ndim != 3 or gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeMismatch("batch_norm expects (B, C, T) with (C,) scale/shift")
    mean = x.data.mean(axis=(0, 2))
    var = x.data.var(axis=(0, 2))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None]) * inv[None, :, None]
    out = gamma.data[None, :, None] * xhat + beta.data[None, :, None]

    def grad_x(g):
        gy = g * gamma.data[None, :, None]
        mean_gy = gy.mean(axis=(0, 2))[None, :, None]
        mean_gy_xhat = (gy * xhat).mean(axis=(0, 2))[None, :, None]
        return inv[None, :, None] * (gy - mean_gy - xhat * mean_gy_xhat)

    y = _op("batch_norm", out, (x, grad_x),
            (gamma, lambda g: np.sum(g * xhat, axis=(0, 2))),
            (beta, lambda g: np.sum(g, axis=(0, 2))))
    return y, mean, var


def batch_norm_eval(x, gamma, beta, mean: np.ndarray, var: np.ndarray,
                    eps: float = 1e-5) -> Tensor:
    """Normalization with frozen statistics (inference mode)."""
    x = _as_tensor(x)
    gamma = _as_tensor(gamma)
    beta = _as_tensor(beta)
    inv = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv
    out = scale[None, :, None] * x.data + (beta.data - scale * mean)[None, :, None]
    return _op("batch_norm_eval", out, (x, lambda g: g * scale[None, :, None]))


def softmax_cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of (B, K) logits against integer labels (B,)."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeMismatch("logits must be (B, K)")
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    nll = -np.log(probs[np.arange(n), labels] + 1e-300)

    def grad(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        return grad * (g / n)

    return _op("softmax_cross_entropy", np.array(nll.mean()), (logits, grad))
