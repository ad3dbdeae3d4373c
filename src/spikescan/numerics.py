"""Dense rank-<=3 arrays with a reverse-mode gradient tape.

Tensors wrap contiguous float64 numpy buffers (float32 via
:func:`set_default_dtype`) shaped batch x channel x time, time innermost.
Every library operation validates finiteness of its result: NaN/Inf raise
:class:`~spikescan.errors.NonFiniteError` instead of propagating.

The tape is append-only; node creation order is the topological order and
``Tape.backward`` walks it strictly in reverse, so a node's gradient is
complete before any of its producers read it.  Non-differentiable spike
functions carry surrogate backward rules (see :class:`Rectangular`,
:class:`ArcTangent`, :class:`StraightThrough`).

Broadcasting is deliberately minimal: scalar-against-array or exactly equal
shapes.  Structured ops (convolutions, channel mixes) handle their own
index bookkeeping internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivisionByZero, NonFiniteError, ShapeMismatch

_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Switch the library to float32 or float64 (the default)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}")
    _DEFAULT_DTYPE = dtype.type


def default_dtype():
    return _DEFAULT_DTYPE


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value produced by '{op}'")


class Tape:
    """Append-only record of operations for reverse-mode differentiation."""

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._ops: list[str] = []
        self._backwards: list[Callable | None] = []
        self._grads: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self._ops)

    def _record(self, op: str, parents: tuple[int, ...],
                backward: Callable | None) -> int:
        if self._backwards is None:
            raise ValueError("tape already differentiated; record on a new tape")
        self._parents.append(parents)
        self._ops.append(op)
        self._backwards.append(backward)
        return len(self._ops) - 1

    def leaf(self, data) -> "Tensor":
        """Register an input/parameter whose gradient will be tracked."""
        t = Tensor(data)
        node = self._record("leaf", (), None)
        return Tensor._attach(t.data, self, node)

    def _accumulate(self, node: int, value: np.ndarray, own: bool) -> None:
        cur = self._grads[node]
        if cur is None:
            self._grads[node] = value if own else value.copy()
        else:
            cur += value

    def backward(self, output: "Tensor", seed: np.ndarray | None = None) -> None:
        """Accumulate d(output)/d(node) into every node's gradient buffer.

        A tape is differentiated once: the recorded backward closures (which
        hold the tape and every array they saved) are released here, so the
        tape and its arrays are freed as soon as the caller drops them.
        """
        if output.tape is not self:
            raise ValueError("output does not belong to this tape")
        if self._backwards is None:
            raise ValueError("tape already differentiated")
        if seed is None:
            if output.data.size != 1:
                raise ValueError("backward from a non-scalar needs a seed gradient")
            seed = np.ones_like(output.data)
        backwards, self._backwards = self._backwards, None
        self._grads = [None] * len(self._ops)
        self._grads[output._node] = np.array(seed, dtype=output.data.dtype)
        for node in range(output._node, -1, -1):
            g = self._grads[node]
            fn = backwards[node]
            if g is None or fn is None:
                continue
            fn(g)

    def grad(self, t: "Tensor") -> np.ndarray | None:
        if t.tape is not self or t._node is None:
            return None
        if not self._grads:
            return None
        return self._grads[t._node]


class Tensor:
    """Immutable dense array of rank <= 3, optionally attached to a tape."""

    __slots__ = ("data", "tape", "_node")

    def __init__(self, data, dtype=None):
        arr = np.ascontiguousarray(data, dtype=dtype or _DEFAULT_DTYPE)
        if arr.ndim > 3:
            raise ShapeMismatch(f"rank {arr.ndim} exceeds the rank-3 data model")
        _ensure_finite(arr, "tensor")
        self.data = arr
        self.tape: Tape | None = None
        self._node: int | None = None

    @classmethod
    def _attach(cls, arr: np.ndarray, tape: Tape | None, node: int | None) -> "Tensor":
        t = object.__new__(cls)
        t.data = arr
        t.tape = tape
        t._node = node
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.tape is None else self.tape.grad(self)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err()

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, taped={self.tape is not None})"

    # operator sugar; all arithmetic routes through the module-level ops
    def __add__(self, other): return add(self, other)
    def __radd__(self, other): return add(self, other)
    def __sub__(self, other): return sub(self, other)
    def __rsub__(self, other): return sub(_as_tensor(other), self)
    def __mul__(self, other): return mul(self, other)
    def __rmul__(self, other): return mul(self, other)
    def __truediv__(self, other): return div(self, other)
    def __pow__(self, exponent): return power(self, exponent)
    def __neg__(self): return mul(self, -1.0)
    def __matmul__(self, other): return matmul(self, other)


def _scalar_err():
    raise ValueError("item() requires a single-element tensor")


def tensor(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=_DEFAULT_DTYPE))


def _binary_operands(a, b, op: str):
    """Resolve (array, array, tape, nodes) for a binary op.

    Only scalar-vs-array and equal-shape pairs are legal; anything else is a
    ShapeMismatch.  Scalars passed as python numbers are untracked constants.
    """
    ta = isinstance(a, Tensor)
    tb = isinstance(b, Tensor)
    da = a.data if ta else np.asarray(a, dtype=_DEFAULT_DTYPE)
    db = b.data if tb else np.asarray(b, dtype=_DEFAULT_DTYPE)
    if da.shape != db.shape and da.size != 1 and db.size != 1:
        raise ShapeMismatch(f"'{op}' needs equal shapes or a scalar, "
                            f"got {da.shape} and {db.shape}")
    tape = None
    for t in (a, b):
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ValueError("operands live on different tapes")
            tape = t.tape
    na = a._node if ta and a.tape is tape and tape is not None else None
    nb = b._node if tb and b.tape is tape and tape is not None else None
    return da, db, tape, na, nb


def _result(arr: np.ndarray, op: str, tape: Tape | None,
            parents: tuple[int, ...], backward: Callable | None) -> Tensor:
    _ensure_finite(arr, op)
    if tape is None or not parents:
        return Tensor._attach(arr, None, None)
    node = tape._record(op, parents, backward)
    return Tensor._attach(arr, tape, node)


def _reduce_to(shape, g: np.ndarray) -> np.ndarray:
    # collapse a full-shape gradient onto a scalar operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Tensor:
    da, db, tape, na, nb = _binary_operands(a, b, "add")
    out = da + db

    def backward(g):
        if na is not None:
            tape._accumulate(na, _reduce_to(da.shape, g), own=da.shape != g.shape)
        if nb is not None:
            tape._accumulate(nb, _reduce_to(db.shape, g), own=db.shape != g.shape)

    return _result(out, "add", tape, tuple(n for n in (na, nb) if n is not None),
                   backward if tape else None)


def sub(a, b) -> Tensor:
    da, db, tape, na, nb = _binary_operands(a, b, "sub")
    out = da - db

    def backward(g):
        if na is not None:
            tape._accumulate(na, _reduce_to(da.shape, g), own=da.shape != g.shape)
        if nb is not None:
            tape._accumulate(nb, _reduce_to(db.shape, -g), own=True)

    return _result(out, "sub", tape, tuple(n for n in (na, nb) if n is not None),
                   backward if tape else None)


def mul(a, b) -> Tensor:
    da, db, tape, na, nb = _binary_operands(a, b, "mul")
    out = da * db

    def backward(g):
        if na is not None:
            tape._accumulate(na, _reduce_to(da.shape, g * db), own=True)
        if nb is not None:
            tape._accumulate(nb, _reduce_to(db.shape, g * da), own=True)

    return _result(out, "mul", tape, tuple(n for n in (na, nb) if n is not None),
                   backward if tape else None)


def div(a, b) -> Tensor:
    da, db, tape, na, nb = _binary_operands(a, b, "div")
    if np.any(db == 0.0):
        raise DivisionByZero("division by zero")
    out = da / db

    def backward(g):
        if na is not None:
            tape._accumulate(na, _reduce_to(da.shape, g / db), own=True)
        if nb is not None:
            tape._accumulate(nb, _reduce_to(db.shape, -g * da / (db * db)), own=True)

    return _result(out, "div", tape, tuple(n for n in (na, nb) if n is not None),
                   backward if tape else None)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # clip the exponent so extreme logits saturate instead of overflowing
    out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500.0, 500.0)))
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, g * out * (1.0 - out), own=True)

    return _result(out, "sigmoid", tape, (node,) if node is not None else (),
                   backward if tape else None)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, g * (a.data > 0.0), own=True)

    return _result(out, "relu", tape, (node,) if node is not None else (),
                   backward if tape else None)


def power(a, exponent: float) -> Tensor:
    """a ** exponent for a scalar exponent (a > 0 unless exponent is integral)."""
    a = _as_tensor(a)
    exponent = float(exponent)
    out = a.data ** exponent
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, g * exponent * a.data ** (exponent - 1.0), own=True)

    return _result(out, "pow", tape, (node,) if node is not None else (),
                   backward if tape else None)


_ELEMENTWISE = {"add": add, "sub": sub, "mul": mul, "div": div,
                "sigmoid": sigmoid, "relu": relu, "pow": power}


def elementwise(op: str, a, b=None) -> Tensor:
    """Dispatch an elementwise op by name (add/sub/mul/div/sigmoid/relu/pow)."""
    try:
        fn = _ELEMENTWISE[op]
    except KeyError:
        raise ValueError(f"unknown elementwise op '{op}'") from None
    return fn(a) if b is None else fn(a, b)


# ---------------------------------------------------------------------------
# reductions and layout


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sum(a.data).reshape(())
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, np.broadcast_to(g, a.data.shape).copy(), own=True)

    return _result(out, "sum", tape, (node,) if node is not None else (),
                   backward if tape else None)


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    out = (np.sum(a.data) / n).reshape(())
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, np.broadcast_to(g / n, a.data.shape).copy(), own=True)

    return _result(out, "mean", tape, (node,) if node is not None else (),
                   backward if tape else None)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out = np.ascontiguousarray(a.data.reshape(shape))
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, g.reshape(a.data.shape), own=False)

    return _result(out, "reshape", tape, (node,) if node is not None else (),
                   backward if tape else None)


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inverse = tuple(np.argsort(axes))
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, np.ascontiguousarray(np.transpose(g, inverse)), own=True)

    return _result(out, "transpose", tape, (node,) if node is not None else (),
                   backward if tape else None)


def time_slice(a, start: int, stop: int) -> Tensor:
    """Slice the innermost (time) axis; backward zero-pads outside the slice."""
    a = _as_tensor(a)
    out = np.ascontiguousarray(a.data[..., start:stop])
    tape, node = a.tape, a._node

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        tape._accumulate(node, full, own=True)

    return _result(out, "time_slice", tape, (node,) if node is not None else (),
                   backward if tape else None)


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions disagree: {a.shape} x {b.shape}")
    tape = a.tape or b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    na = a._node if a.tape is tape else None
    nb = b._node if b.tape is tape else None
    out = a.data @ b.data

    def backward(g):
        if na is not None:
            tape._accumulate(na, g @ b.data.T, own=True)
        if nb is not None:
            tape._accumulate(nb, a.data.T @ g, own=True)

    return _result(out, "matmul", tape, tuple(n for n in (na, nb) if n is not None),
                   backward if tape else None)


# ---------------------------------------------------------------------------
# spike nonlinearities and their surrogate/straight-through backward rules


@dataclass(frozen=True)
class Rectangular:
    """Boxcar surrogate: derivative 1/width on |v| < width/2, else 0."""
    width: float = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")


@dataclass(frozen=True)
class ArcTangent:
    """Arc-tangent surrogate, the ATan form common in direct SNN training
    (e.g. SpikingJelly's surrogate.ATan): derivative
    slope / (2 * (1 + (pi * slope * v / 2)^2)).
    """
    slope: float = 2.0

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("slope must be positive")


@dataclass(frozen=True)
class StraightThrough:
    """Identity backward: the gradient passes through unchanged."""


SurrogateKind = Rectangular | ArcTangent | StraightThrough


def surrogate_grad(sg: SurrogateKind, v: np.ndarray) -> np.ndarray:
    """Surrogate derivative evaluated at v = h - v_th."""
    if isinstance(sg, Rectangular):
        return np.where(np.abs(v) < sg.width / 2.0, 1.0 / sg.width, 0.0)
    if isinstance(sg, ArcTangent):
        z = np.pi * sg.slope * v / 2.0
        return sg.slope / (2.0 * (1.0 + z * z))
    if isinstance(sg, StraightThrough):
        return np.ones_like(v)
    raise TypeError(f"unknown surrogate {sg!r}")


def heaviside(v: np.ndarray) -> np.ndarray:
    """Theta(v) = 1 for v >= 0, else 0."""
    return (v >= 0.0).astype(v.dtype)


def spike_threshold(h, v_th: float, sg: SurrogateKind) -> Tensor:
    """Exact Heaviside of (h - v_th) forward; surrogate derivative backward.

    The forward value depends only on (h, v_th); the surrogate choice shapes
    gradients only.
    """
    h = _as_tensor(h)
    v_th = float(v_th)
    if not np.isfinite(v_th):
        raise ValueError("v_th must be finite")
    v = h.data - v_th
    out = heaviside(v)
    tape, node = h.tape, h._node

    def backward(g):
        tape._accumulate(node, g * surrogate_grad(sg, v), own=True)

    return _result(out, "spike_threshold", tape,
                   (node,) if node is not None else (), backward if tape else None)


def round_half_away(arr: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (0.5 -> 1, -0.5 -> -1)."""
    return np.copysign(np.floor(np.abs(arr) + 0.5), arr)


UNIT_OPEN_LO = 1e-300
UNIT_OPEN_HI = float(np.nextafter(1.0, 0.0))


def unit_interval_clamp(a) -> Tensor:
    """Pin values into the open interval (0, 1) at float resolution.

    Saturated sigmoids round to exactly 0.0 or 1.0 in floating point; decay
    factors must stay strictly inside the interval.  The backward passes
    gradients only where nothing was clamped (the saturated region has
    negligible true gradient anyway).
    """
    a = _as_tensor(a)
    out = np.clip(a.data, UNIT_OPEN_LO, UNIT_OPEN_HI)
    tape, node = a.tape, a._node

    def backward(g):
        mask = (a.data >= UNIT_OPEN_LO) & (a.data <= UNIT_OPEN_HI)
        tape._accumulate(node, g * mask, own=True)

    return _result(out, "unit_interval_clamp", tape,
                   (node,) if node is not None else (), backward if tape else None)


def clip_round(h, n_max: int) -> Tensor:
    """Integer firing: clip(round(h), 0, n_max) with a straight-through backward.

    Rounding is half-away-from-zero.  The straight-through gradient is 1
    wherever the pre-clip (rounded) value already lies in [0, n_max] and 0
    where the clip saturates.
    """
    h = _as_tensor(h)
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    rounded = round_half_away(h.data)
    out = np.clip(rounded, 0.0, float(n_max))
    tape, node = h.tape, h._node

    def backward(g):
        mask = (rounded >= 0.0) & (rounded <= n_max)
        tape._accumulate(node, g * mask, own=True)

    return _result(out, "clip_round", tape, (node,) if node is not None else (),
                   backward if tape else None)


# ---------------------------------------------------------------------------
# causal convolutions and channel mixing (time innermost)


def _shift_right(arr: np.ndarray, lag: int) -> np.ndarray:
    # x_{t-lag} with zero left-padding
    if lag == 0:
        return arr
    out = np.zeros_like(arr)
    out[..., lag:] = arr[..., :-lag]
    return out


def depthwise_causal_conv(x, kernel, bias=None) -> Tensor:
    """Per-channel causal convolution over time.

    x: (B, C, T); kernel: (C, k) with column k-1 weighting the current step
    and column 0 the oldest of the k-window; bias: (C,) or None.  The first
    k-1 steps see an implicit zero history.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 2 or x.shape[1] != kernel.shape[0]:
        raise ShapeMismatch(f"depthwise conv: x {x.shape} vs kernel {kernel.shape}")
    b_arr = None
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (x.shape[1],):
            raise ShapeMismatch(f"bias shape {bias.shape} != ({x.shape[1]},)")
        b_arr = bias.data
    k = kernel.shape[1]
    out = np.zeros_like(x.data)
    for j in range(k):
        lag = k - 1 - j
        out += kernel.data[None, :, j:j + 1] * _shift_right(x.data, lag)
    if b_arr is not None:
        out += b_arr[None, :, None]

    tape = x.tape or kernel.tape or (bias.tape if bias is not None else None)
    nodes = []
    nx = x._node if x.tape is tape and tape is not None else None
    nk = kernel._node if kernel.tape is tape and tape is not None else None
    nb = (bias._node if bias is not None and bias.tape is tape and tape is not None
          else None)
    nodes = tuple(n for n in (nx, nk, nb) if n is not None)

    def backward(g):
        if nx is not None:
            gx = np.zeros_like(x.data)
            for j in range(k):
                lag = k - 1 - j
                if lag == 0:
                    gx += kernel.data[None, :, j:j + 1] * g
                else:
                    gx[..., :-lag] += kernel.data[None, :, j:j + 1] * g[..., lag:]
            tape._accumulate(nx, gx, own=True)
        if nk is not None:
            gk = np.empty_like(kernel.data)
            for j in range(k):
                lag = k - 1 - j
                gk[:, j] = np.sum(g * _shift_right(x.data, lag), axis=(0, 2))
            tape._accumulate(nk, gk, own=True)
        if nb is not None:
            tape._accumulate(nb, np.sum(g, axis=(0, 2)), own=True)

    return _result(out, "depthwise_causal_conv", tape, nodes,
                   backward if tape else None)


def causal_conv(x, weight, bias=None) -> Tensor:
    """Dense causal convolution over time.

    x: (B, C_in, T); weight: (C_out, C_in, k), index k-1 on the current
    step; bias: (C_out,) or None.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim != 3 or weight.data.ndim != 3 or x.shape[1] != weight.data.shape[1]:
        raise ShapeMismatch(f"causal conv: x {x.shape} vs weight {weight.data.shape}")
    b_arr = None
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.data.shape[0],):
            raise ShapeMismatch("bias shape does not match output channels")
        b_arr = bias.data
    k = weight.data.shape[2]
    out = np.zeros((x.shape[0], weight.data.shape[0], x.shape[2]),
                   dtype=x.data.dtype)
    for j in range(k):
        lag = k - 1 - j
        out += np.einsum("oi,bit->bot", weight.data[:, :, j],
                         _shift_right(x.data, lag))
    if b_arr is not None:
        out += b_arr[None, :, None]

    tape = x.tape or weight.tape or (bias.tape if bias is not None else None)
    nx = x._node if x.tape is tape and tape is not None else None
    nw = weight._node if weight.tape is tape and tape is not None else None
    nb = (bias._node if bias is not None and bias.tape is tape and tape is not None
          else None)
    nodes = tuple(n for n in (nx, nw, nb) if n is not None)

    def backward(g):
        if nx is not None:
            gx = np.zeros_like(x.data)
            for j in range(k):
                lag = k - 1 - j
                piece = np.einsum("oi,bot->bit", weight.data[:, :, j], g)
                if lag == 0:
                    gx += piece
                else:
                    gx[..., :-lag] += piece[..., lag:]
            tape._accumulate(nx, gx, own=True)
        if nw is not None:
            gw = np.empty_like(weight.data)
            for j in range(k):
                lag = k - 1 - j
                gw[:, :, j] = np.einsum("bot,bit->oi", g, _shift_right(x.data, lag))
            tape._accumulate(nw, gw, own=True)
        if nb is not None:
            tape._accumulate(nb, np.sum(g, axis=(0, 2)), own=True)

    return _result(out, "causal_conv", tape, nodes, backward if tape else None)


def channel_mix(w, x) -> Tensor:
    """Apply a (D, C) matrix across the channel axis of (B, C, T) data."""
    w = _as_tensor(w)
    x = _as_tensor(x)
    if w.ndim != 2 or x.ndim != 3 or w.shape[1] != x.shape[1]:
        raise ShapeMismatch(f"channel mix: w {w.shape} vs x {x.shape}")
    out = np.einsum("dc,bct->bdt", w.data, x.data)
    tape = w.tape or x.tape
    nw = w._node if w.tape is tape and tape is not None else None
    nx = x._node if x.tape is tape and tape is not None else None
    nodes = tuple(n for n in (nw, nx) if n is not None)

    def backward(g):
        if nw is not None:
            tape._accumulate(nw, np.einsum("bdt,bct->dc", g, x.data), own=True)
        if nx is not None:
            tape._accumulate(nx, np.einsum("dc,bdt->bct", w.data, g), own=True)

    return _result(out, "channel_mix", tape, nodes, backward if tape else None)


def tile_channels(w, channels: int) -> Tensor:
    """Broadcast a shared (k,) weight row to (channels, k); backward sums rows."""
    w = _as_tensor(w)
    if w.ndim != 1:
        raise ShapeMismatch("tile_channels expects a rank-1 weight")
    out = np.tile(w.data[None, :], (channels, 1))
    tape, node = w.tape, w._node

    def backward(g):
        tape._accumulate(node, np.sum(g, axis=0), own=True)

    return _result(out, "tile_channels", tape, (node,) if node is not None else (),
                   backward if tape else None)


def reverse_last(a) -> Tensor:
    """Reverse the innermost axis."""
    a = _as_tensor(a)
    out = np.ascontiguousarray(a.data[..., ::-1])
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, np.ascontiguousarray(g[..., ::-1]), own=True)

    return _result(out, "reverse_last", tape, (node,) if node is not None else (),
                   backward if tape else None)


def add_channel_bias(x, bias) -> Tensor:
    """x[B, C, T] + bias[C] broadcast over batch and time."""
    x = _as_tensor(x)
    bias = _as_tensor(bias)
    if x.ndim != 3 or bias.shape != (x.shape[1],):
        raise ShapeMismatch(f"channel bias: x {x.shape} vs bias {bias.shape}")
    out = x.data + bias.data[None, :, None]
    tape = x.tape or bias.tape
    nx = x._node if x.tape is tape and tape is not None else None
    nb = bias._node if bias.tape is tape and tape is not None else None
    nodes = tuple(n for n in (nx, nb) if n is not None)

    def backward(g):
        if nx is not None:
            tape._accumulate(nx, g, own=False)
        if nb is not None:
            tape._accumulate(nb, np.sum(g, axis=(0, 2)), own=True)

    return _result(out, "add_channel_bias", tape, nodes, backward if tape else None)


# ---------------------------------------------------------------------------
# gradient verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    f must map a tensor to a scalar and be smooth at x; callers keep x away
    from surrogate kinks by a margin of at least eps.
    """
    tape = Tape()
    xt = tape.leaf(x.data)
    y = f(xt)
    if y.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    tape.backward(y)
    g_tape = tape.grad(xt)
    if g_tape is None:
        g_tape = np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    g_fd = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - eps
        lo = f(Tensor(bumped.reshape(x.shape))).item()
        g_fd[i] = (hi - lo) / (2.0 * eps)
    g_fd = g_fd.reshape(x.shape)
    denom = np.maximum(1.0, np.abs(g_fd))
    return float(np.max(np.abs(g_fd - g_tape) / denom))
