"""Taped building blocks for the task models.

These ops work on the rank-3 (batch, channel, time) data model; layers that
conceptually need a fourth axis (convolution and pooling over a spatial
column at every timestep) fold channel and height into the channel axis and
unfold internally.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .numerics import Tensor, _as_tensor, _result, _shared_tape


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
    b_arr = None
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeMismatch("bias must be (c_out,)")
        b_arr = bias.data
        out4 += b_arr[None, :, None, None]
    out = out4.reshape(x4.shape[0], c_out * height, x4.shape[3])

    tape, nodes = _shared_tape(x, weight, bias)
    nx, nw, nb = nodes

    def backward(g):
        g4 = _unfold(g, c_out, height)
        if nx is not None:
            gx = np.zeros_like(x4)
            for dy in range(kh):
                piece = np.einsum("oi,boht->biht", weight.data[:, :, dy], g4)
                gx += _height_shift(piece, half - dy)
            tape._accumulate(nx, gx.reshape(x.data.shape), own=True)
        if nw is not None:
            gw = np.empty_like(weight.data)
            for dy in range(kh):
                gw[:, :, dy] = np.einsum("boht,biht->oi", g4,
                                         _height_shift(x4, dy - half))
            tape._accumulate(nw, gw, own=True)
        if nb is not None:
            tape._accumulate(nb, np.sum(g4, axis=(0, 2, 3)), own=True)

    return _result(out, "column_conv", tape, nodes, backward if tape else None)


def column_avg_pool(x, channels: int, height: int, factor: int = 2) -> Tensor:
    """Average-pool the folded height axis by an integer factor."""
    x = _as_tensor(x)
    if height % factor:
        raise ShapeMismatch(f"height {height} not divisible by {factor}")
    x4 = _unfold(x.data, channels, height)
    b, c, h, t = x4.shape
    pooled = x4.reshape(b, c, h // factor, factor, t).mean(axis=3)
    out = pooled.reshape(b, c * (h // factor), t)
    tape, node = x.tape, x._node

    def backward(g):
        g4 = g.reshape(b, c, h // factor, 1, t) / factor
        gx = np.broadcast_to(g4, (b, c, h // factor, factor, t))
        tape._accumulate(node, gx.reshape(x.data.shape).copy(), own=True)

    return _result(out, "column_avg_pool", tape, (node,), backward if tape else None)


def sum_time(x) -> Tensor:
    """Sum over the innermost (time) axis: (B, C, T) -> (B, C)."""
    x = _as_tensor(x)
    out = np.sum(x.data, axis=-1)
    tape, node = x.tape, x._node

    def backward(g):
        tape._accumulate(node, np.broadcast_to(g[..., None], x.data.shape).copy(),
                         own=True)

    return _result(out, "sum_time", tape, (node,), backward if tape else None)


def add_bias_rows(x, bias) -> Tensor:
    """x[B, F] + bias[F] broadcast over rows."""
    x = _as_tensor(x)
    bias = _as_tensor(bias)
    if x.ndim != 2 or bias.shape != (x.shape[1],):
        raise ShapeMismatch(f"bias rows: x {x.shape} vs bias {bias.shape}")
    out = x.data + bias.data[None, :]
    tape, nodes = _shared_tape(x, bias)
    nx, nb = nodes

    def backward(g):
        if nx is not None:
            tape._accumulate(nx, g, own=False)
        if nb is not None:
            tape._accumulate(nb, np.sum(g, axis=0), own=True)

    return _result(out, "add_bias_rows", tape, nodes, backward if tape else None)


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

    tape, nodes = _shared_tape(x, gamma, beta)
    nx, ng, nb = nodes

    def backward(g):
        if ng is not None:
            tape._accumulate(ng, np.sum(g * xhat, axis=(0, 2)), own=True)
        if nb is not None:
            tape._accumulate(nb, np.sum(g, axis=(0, 2)), own=True)
        if nx is not None:
            gy = g * gamma.data[None, :, None]
            mean_gy = gy.mean(axis=(0, 2))[None, :, None]
            mean_gy_xhat = (gy * xhat).mean(axis=(0, 2))[None, :, None]
            gx = inv[None, :, None] * (gy - mean_gy - xhat * mean_gy_xhat)
            tape._accumulate(nx, gx, own=True)

    y = _result(out, "batch_norm", tape, nodes, backward if tape else None)
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
    tape, node = x.tape, x._node

    def backward(g):
        tape._accumulate(node, g * scale[None, :, None], own=True)

    return _result(out, "batch_norm_eval", tape, (node,), backward if tape else None)


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
    out = np.array(nll.mean())
    tape, node = logits.tape, logits._node

    def backward(g):
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        tape._accumulate(node, grad * (g / n), own=True)

    return _result(out, "softmax_cross_entropy", tape,
                   (node,), backward if tape else None)
