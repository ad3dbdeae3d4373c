"""Dense rank-<=3 arrays with a reverse-mode gradient tape.

Tensors wrap float64 numpy buffers shaped batch x channel x time.  Ops
make them contiguous, time innermost, except the spikes of the LIF and
the DSN (and the DSN's membranes): (B, C, T) views of the time-major
memory their block kernels write.
Every library operation validates finiteness of its result: NaN/Inf raise
:class:`~spikescan.errors.NonFiniteError` instead of propagating.

The tape is append-only; node creation order is the topological order and
``Tape.backward`` walks it strictly in reverse, so a node's gradient is
complete before any of its producers read it.  Non-differentiable spike
functions carry surrogate backward rules (see :class:`Rectangular`,
:class:`ArcTangent`, :class:`StraightThrough`).

The ops here are elementwise arithmetic, sums, reshape, time_slice,
matmul, the spike functions, the decay, the dense causal conv and the
channel mix and bias.  The depthwise causal taps are raw kernels with no op
of their own; ``neurons.psn_membrane`` runs them.

Every taped op, here and in ``layers`` and ``neurons``, records through
one path, ``_op``: the op computes its forward value and states, per
input, how the output gradient maps to that input's gradient; ``_op``
builds the one backward closure that puts them on the tape.  Three
recorders stay apart on purpose: ``scan.scan``, whose one adjoint scan
yields all three of its gradients at once; ``neurons._dsn_taped``, the
DSN's serial fold taped as one membrane op and its fire, whose time-major
backward yields the input and weight gradients together and keeps only H,
sigma and the fire's one-byte mask; and the reference ops the tests keep
as oracles.

Broadcasting is deliberately minimal: scalar-against-array or exactly equal
shapes.  Structured ops (convolutions, channel mixes) handle their own
index bookkeeping internally.

The dynamic-decay neuron's taped op and serial step share one raw kernel
per stage: ``decay_chain`` (decay) and ``fire_counts`` (integer fire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivisionByZero, NonFiniteError, ShapeMismatch

def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite value produced by '{op}'")


def _constant(value: float) -> np.ndarray:
    c = np.array(value)
    c.flags.writeable = False
    return c


# Scalar operands of the kernels the serial steps run, as read-only 0-d
# float64 arrays: a ufunc converts a Python float operand on every call,
# about a third of a call at 16 lanes (0.9 against 1.3 us, 2-core Xeon).
_ZERO, _HALF, _ONE, _EXP_CAP, _UNIT_LO, _UNIT_HI = (
    _constant(v) for v in (0.0, 0.5, 1.0, 500.0, 1e-300, np.nextafter(1.0, 0.0)))


class Tape:
    """Append-only record of operations for reverse-mode differentiation."""

    def __init__(self):
        self._ops: list[str] = []
        self._backwards: list[Callable | None] = []
        self._grads: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self._ops)

    def _record(self, op: str, parents: tuple[int, ...],
                backward: Callable | None) -> int:
        # parents (the taped inputs' nodes) is not kept: each backward
        # closure already holds the nodes it feeds
        if self._backwards is None:
            raise ValueError("tape already differentiated; record on a new tape")
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

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float64)
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


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _shared_tape(*operands):
    """(tape, nodes) for the operands of one op.

    ``tape`` is the tape every taped operand lives on (None if none is
    taped); ``nodes`` holds each operand's node on it, None for constants,
    untaped tensors and absent (None) operands.  Operands on two different
    tapes raise ValueError: an op records on one tape, so the other
    operand's gradient would be lost.
    """
    tape = None
    for t in operands:
        if isinstance(t, Tensor) and t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ValueError("operands live on different tapes")
            tape = t.tape
    return tape, tuple(t._node if isinstance(t, Tensor) else None for t in operands)


def _binary_operands(a, b, op: str):
    """The (array, array) operands of a binary op.

    Only scalar-vs-array and equal-shape pairs are legal; anything else is a
    ShapeMismatch.  Scalars passed as python numbers are untracked constants.
    """
    da = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    db = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    if da.shape != db.shape and da.size != 1 and db.size != 1:
        raise ShapeMismatch(f"'{op}' needs equal shapes or a scalar, "
                            f"got {da.shape} and {db.shape}")
    return da, db


def _result(arr: np.ndarray, op: str, tape: Tape | None,
            parents: tuple[int | None, ...], backward: Callable | None) -> Tensor:
    """Wrap an op's output, recording it on the tape when it has a parent
    there (``None`` entries in ``parents`` are untaped operands)."""
    _ensure_finite(arr, op)
    parents = tuple(p for p in parents if p is not None)
    if tape is None or not parents:
        return Tensor._attach(arr, None, None)
    node = tape._record(op, parents, backward)
    return Tensor._attach(arr, tape, node)


def _op(op: str, out: np.ndarray, *operands) -> Tensor:
    """Wrap ``out``, the forward value of ``op``, and record its backward.

    Each operand is an ``(input, grad)`` pair: ``grad(g)`` maps the output
    gradient g to that input's gradient, and runs only when the input is
    taped.  A returned gradient becomes the input's buffer on the tape,
    except one that may share memory with g (a pass-through such as ``add``
    or ``reshape``): g is the output's own buffer, so the tape keeps a copy.
    """
    tape, nodes = _shared_tape(*(x for x, _ in operands))
    grads = tuple(grad for _, grad in operands)

    def backward(g):
        for node, grad in zip(nodes, grads):
            if node is not None:
                value = grad(g)
                tape._accumulate(node, value, not np.may_share_memory(value, g))

    return _result(out, op, tape, nodes, backward)


def _reduce_to(shape, g: np.ndarray) -> np.ndarray:
    # collapse a full-shape gradient onto a scalar operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Tensor:
    da, db = _binary_operands(a, b, "add")
    return _op("add", da + db, (a, lambda g: _reduce_to(da.shape, g)),
               (b, lambda g: _reduce_to(db.shape, g)))


def sub(a, b) -> Tensor:
    da, db = _binary_operands(a, b, "sub")
    return _op("sub", da - db, (a, lambda g: _reduce_to(da.shape, g)),
               (b, lambda g: _reduce_to(db.shape, -g)))


def mul(a, b) -> Tensor:
    da, db = _binary_operands(a, b, "mul")
    return _op("mul", da * db, (a, lambda g: _reduce_to(da.shape, g * db)),
               (b, lambda g: _reduce_to(db.shape, g * da)))


def div(a, b) -> Tensor:
    da, db = _binary_operands(a, b, "div")
    if np.any(db == 0.0):
        raise DivisionByZero("division by zero")
    return _op("div", da / db, (a, lambda g: _reduce_to(da.shape, g / db)),
               (b, lambda g: _reduce_to(db.shape, -g * da / (db * db))))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _op("relu", np.maximum(a.data, 0.0), (a, lambda g: g * (a.data > 0.0)))


def power(a, exponent: float) -> Tensor:
    """a ** exponent for a scalar exponent (a > 0 unless exponent is integral)."""
    a = _as_tensor(a)
    exponent = float(exponent)
    return _op("pow", a.data ** exponent,
               (a, lambda g: g * exponent * a.data ** (exponent - 1.0)))


# ---------------------------------------------------------------------------
# reductions and layout


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _op("sum", np.sum(a.data).reshape(()),
               (a, lambda g: np.broadcast_to(g, a.data.shape).copy()))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _op("mean", (np.sum(a.data) / n).reshape(()),
               (a, lambda g: np.broadcast_to(g / n, a.data.shape).copy()))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = np.ascontiguousarray(a.data.reshape(tuple(shape)))
    return _op("reshape", out, (a, lambda g: g.reshape(a.data.shape)))


def time_slice(a, start: int, stop: int) -> Tensor:
    """Slice the innermost (time) axis; backward zero-pads outside the slice."""
    a = _as_tensor(a)

    def grad(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return full

    return _op("time_slice", np.ascontiguousarray(a.data[..., start:stop]), (a, grad))


# ---------------------------------------------------------------------------
# matrix product


def matmul(a, b) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("matmul expects rank-2 operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions disagree: {a.shape} x {b.shape}")
    return _op("matmul", a.data @ b.data, (a, lambda g: g @ b.data.T),
               (b, lambda g: a.data.T @ g))


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
    return _op("spike_threshold", heaviside(v),
               (h, lambda g: g * surrogate_grad(sg, v)))


def fire_counts(h: np.ndarray, n_max) -> tuple[np.ndarray, np.ndarray]:
    """(rounded, counts) of the integer fire clip(round(h), 0, n_max), for
    ``clip_round``, the DSN's step and fold and the approx readouts alike.
    Rounding is half away from zero, as trunc(h + copysign(0.5, h)).  The
    clip keeps a -0.0 count; as the ndarray method it costs 1 us at 16
    lanes (np.clip: 2.4), and a masked store of the negative counts, 5x as
    much on 4x256x1024 arrays."""
    rounded = np.copysign(_HALF, h)
    np.add(rounded, h, out=rounded)
    np.trunc(rounded, out=rounded)
    return rounded, rounded.clip(_ZERO, n_max)


def clip_round(h, n_max: int) -> Tensor:
    """Integer firing (``fire_counts``), straight-through backward: 1 where
    the rounded value lies in [0, n_max], 0 where the clip saturates."""
    h = _as_tensor(h)
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    rounded, out = fire_counts(h.data, n_max)
    unclipped = rounded == out  # one byte an element, not the float64 rounded
    return _op("clip_round", out, (h, lambda g: g * unclipped))


def decay_chain(npre: np.ndarray, exponent, power: np.ndarray | None = None,
                alpha: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, power, alpha) of the decay sigmoid(pre) ** exponent, for
    ``sharpened_sigmoid``, the DSN's fold (``neurons._dsn_fold``), its
    ``step`` and the approx bank alike.

    npre holds -pre and becomes sigma in place: min(-pre, 500) saturates
    extreme logits (1 + exp(-500) rounds to 1.0), then exp, +1, reciprocal.
    power and alpha are ``_pinned_power``'s, written into the buffers given
    (alpha may be power itself, pinned in place)."""
    np.minimum(npre, _EXP_CAP, out=npre)
    np.exp(npre, out=npre)
    np.add(npre, _ONE, out=npre)
    np.divide(_ONE, npre, out=npre)
    return (npre,) + _pinned_power(npre, exponent, power, alpha)


def _pinned_power(sigma: np.ndarray, exponent, power: np.ndarray | None = None,
                 alpha: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(power, alpha): sigma ** exponent, and that power pinned into
    (1e-300, 1 - ulp), as a decay must stay strictly inside (0, 1) where a
    saturated sigmoid rounds to 0.0 or 1.0.  Written into the buffers given;
    alpha may be power itself."""
    power = np.power(sigma, exponent, out=power)
    alpha = np.maximum(power, _UNIT_LO, out=alpha)
    np.minimum(alpha, _UNIT_HI, out=alpha)
    return power, alpha


def sharpened_sigmoid(pre, tau: float) -> Tensor:
    """Decays sigmoid(pre) ** (1/tau) in (0, 1) (``decay_chain``).  The
    backward passes gradients only where the pin left the power unmoved,
    then applies e sigma ** (e - 1) and sigma (1 - sigma); it keeps sigma
    and that one-byte mask, not the power."""
    pre = _as_tensor(pre)
    exponent = 1.0 / float(tau)
    sigma, power, alpha = decay_chain(np.negative(pre.data), exponent)
    unpinned = power == alpha

    def grad(g):
        g = g * unpinned * exponent
        g *= sigma ** (exponent - 1.0)
        g *= sigma
        g *= 1.0 - sigma
        return g

    return _op("sharpened_sigmoid", alpha, (pre, grad))


# ---------------------------------------------------------------------------
# causal convolutions and channel mixing (time innermost)


# Bytes of one lane block of the depthwise taps: the block's input, output
# and product rows (3 x 256 KiB) stay in a core's 2 MiB L2 while all k taps
# pass over them (``BENCH_shared_taps.json``).  It also sizes the batch
# blocks of ``_dense_taps`` (swept in its docstring), the sub-blocks of
# ``Neuron._advance`` (``neurons._sub_blocks``) and the step sums that
# reduce (``neurons._ordered_sum``, swept in ``BENCH_step_sums.json``).
CONV_BLOCK_BYTES = 2 ** 18


def _block_rows(T: int) -> int:
    # lanes of T float64 steps per block; one lane when a lane alone is larger
    return max(1, CONV_BLOCK_BYTES // (8 * max(T, 1)))


def _add_shifted(dst: np.ndarray, prod: np.ndarray, lag: int, adjoint: bool) -> None:
    """dst[..., t] += prod[..., t - lag] (adjoint: prod[..., t + lag]).

    dst and prod are C-contiguous with time innermost.  The add runs as one
    flat add over all rows, shifted by lag; the lag steps of each prod row
    that would land in the next row (the previous one, for the adjoint) are
    zeroed first, so they add +0.0.  That leaves every element unchanged
    provided dst never holds -0.0, which holds for a sum that starts at
    +0.0 under round-to-nearest.
    """
    d, flat = dst.reshape(-1), prod.reshape(-1)
    n = d.size - lag
    if adjoint:
        prod[..., :lag] = 0.0
        np.add(d[:n], flat[lag:], out=d[:n])
    else:
        prod[..., prod.shape[-1] - lag:] = 0.0
        np.add(d[lag:], flat[:n], out=d[lag:])


def _depthwise_taps(src: np.ndarray, kern: np.ndarray, dst: np.ndarray,
                    adjoint: bool) -> None:
    """Add the k causal taps of src into zero-filled dst (adjoint: the
    anti-causal mirror), block by block.

    src, dst: (L, T) lanes, dst C-contiguous.  kern, entry k-1 on lag 0,
    comes in one of two forms, told apart by its shape: a (k,) kernel that
    every lane shares, each tap a scalar multiply, or (L, k) per-lane rows,
    each tap a multiply by a (rows, 1) kernel column.  Either way every
    element gets the same product, so the two give the same bits.  Taps run
    j = 0..k-1 on every element.

    Lanes go in blocks of ``CONV_BLOCK_BYTES // (8*T)`` (at least one); in
    a block each tap multiplies them by its kernel entry into one reused
    buffer and adds that into dst shifted by its lag (``_add_shifted``), so
    every output element sees the additions of a serial step's window sum
    in the same order.  ``BENCH_shared_taps.json`` holds the block-size
    sweep of both forms.
    """
    n, T = src.shape
    k = kern.shape[-1]
    rows = _block_rows(T)
    tmp = np.empty((min(rows, n), T))
    for r0 in range(0, n, rows):
        s = src[r0:r0 + rows]
        # taps[j]: a scalar, or the (rows, 1) kernel column of the block
        taps = kern if kern.ndim == 1 else kern[r0:r0 + rows].T[:, :, None]
        prod = tmp[:s.shape[0]]
        for j in range(max(0, k - T), k):
            np.multiply(s, taps[j], out=prod)
            _add_shifted(dst[r0:r0 + rows], prod, k - 1 - j, adjoint)


def _depthwise_kernel_grad(g: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    # (L, k): per-lane sum over t of g_t x_{t-lag}, block by block
    n, T = x.shape
    rows = _block_rows(T)
    gk = np.zeros((n, k))
    for r0 in range(0, n, rows):
        gb, xb = g[r0:r0 + rows], x[r0:r0 + rows]
        for j in range(max(0, k - T), k):
            lag = k - 1 - j
            gk[r0:r0 + rows, j] = np.einsum("lt,lt->l", gb[:, lag:], xb[:, :T - lag])
    return gk


def _dense_taps(w_taps: np.ndarray, src: np.ndarray, dst: np.ndarray,
                adjoint: bool) -> None:
    """Add sum over taps of w_taps[j] @ (src lagged by k-1-j) into zero-filled
    dst (adjoint: lagged the other way), block by block.

    w_taps: (k, O, I); src: (B, I, T); dst: (B, O, T), C-contiguous.  The
    batch goes in blocks of ``_block_rows(max(I, O) * T)`` rows (at least
    one), so a block's src, product and dst rows fit the
    ``CONV_BLOCK_BYTES`` budget of the depthwise taps.  In a block each tap
    is one BLAS matmul per batch row into one reused buffer, added into dst
    shifted by its lag (``_add_shifted``): every output element sees the
    same GEMM and the same tap order as a whole-batch pass, so the bytes do
    not change.  Measured on a 2-core Xeon, float64, one BLAS thread, k=8,
    forward/adjoint in ms (median over 9 processes of each one's median of
    15 calls) for the whole batch at once, then blocks of 64 KiB, 128 KiB,
    256 KiB, 512 KiB and 1 MiB:

    * 128x(6->48)x128: 15.2/5.4; 14.3/12.0, 9.5/6.7, 7.9/5.5, 8.2/4.7 and
      10.6/4.9;
    * 128x(48->6)x128: 5.6/12.4; 12.1/10.9, 7.6/9.3, 5.0/8.0, 4.2/7.9 and
      4.0/10.3;
    * 4x(6->48)x2048, one 768 KiB batch row a block at every size:
      6.5/2.9; 3.9/2.1, 4.1/1.8, 4.3/1.8, 4.5/1.9 and 4.3/1.9.

    Small blocks pay one matmul call per tap and block; past 256 KiB the
    48-channel side falls out of L2.  The six sum to 48.0 ms whole and
    32.5 at 256 KiB (31.5 at 512 KiB, within the noise).  A direction with
    a 6-channel output gains nothing, as its whole output already fits L2:
    in alternating processes the 6->48 adjoint took 6.0 against 4.9 ms
    whole and the 48->6 forward 5.6 against 5.3 (the approx bank never
    runs that adjoint, as its input is untaped).
    """
    k = w_taps.shape[0]
    B, _, T = dst.shape
    rows = _block_rows(max(src.shape[1], dst.shape[1]) * T)
    tmp = np.empty((min(rows, B),) + dst.shape[1:])
    for b0 in range(0, B, rows):
        s, d = src[b0:b0 + rows], dst[b0:b0 + rows]
        prod = tmp[:s.shape[0]]
        for j in range(max(0, k - T), k):
            np.matmul(w_taps[j], s, out=prod)
            _add_shifted(d, prod, k - 1 - j, adjoint)


def causal_conv(x, weight, bias=None) -> Tensor:
    """Dense causal convolution over time.

    x: (B, C_in, T); weight: (C_out, C_in, k), index k-1 on the current
    step; bias: (C_out,) or None.

    The forward and the input gradient run ``_dense_taps``: a block of
    batch rows at a time, each tap one BLAS matmul of its (C_out, C_in)
    weight slice (transposed for the gradient) into one block-sized buffer,
    added into the output shifted by the tap's lag.  The weight gradient of
    tap j is sum_b g[b, :, lag:] @ x[b, :, :T-lag].T over the whole batch.
    At the approx task's k=8 convs (2-core Xeon, float64, one BLAS thread,
    median of 9 processes each), the 6 -> 48 forward at batch 128 x T=128
    takes 8.5 ms and the 48 -> 6 input gradient 7.5 ms, against 13.9 and
    12.4 ms for whole-batch taps into an output-sized buffer;
    ``_dense_taps`` gives the block sweep.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim != 3 or weight.data.ndim != 3 or x.shape[1] != weight.data.shape[1]:
        raise ShapeMismatch(f"causal conv: x {x.shape} vs weight {weight.data.shape}")
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (weight.data.shape[0],):
            raise ShapeMismatch("bias shape does not match output channels")
    B, _, T = x.shape
    c_out, _, k = weight.data.shape
    w_taps = np.ascontiguousarray(np.moveaxis(weight.data, 2, 0))  # (k, O, I)
    out = np.zeros((B, c_out, T), dtype=x.data.dtype)
    _dense_taps(w_taps, x.data, out, adjoint=False)
    if bias is not None:
        out += bias.data[None, :, None]

    def grad_x(g):
        gx = np.zeros_like(x.data)
        _dense_taps(np.ascontiguousarray(w_taps.transpose(0, 2, 1)), g, gx,
                    adjoint=True)
        return gx

    def grad_weight(g):
        gw = np.zeros_like(weight.data)
        for j in range(max(0, k - T), k):
            lag = k - 1 - j
            gw[:, :, j] = np.matmul(g[..., lag:],
                                    x.data[..., :T - lag].swapaxes(1, 2)).sum(0)
        return gw

    return _op("causal_conv", out, (x, grad_x), (weight, grad_weight),
               (bias, lambda g: np.sum(g, axis=(0, 2))))


def channel_mix(w, x) -> Tensor:
    """Apply a (D, C) matrix across the channel axis of (B, C, T) data."""
    w = _as_tensor(w)
    x = _as_tensor(x)
    if w.ndim != 2 or x.ndim != 3 or w.shape[1] != x.shape[1]:
        raise ShapeMismatch(f"channel mix: w {w.shape} vs x {x.shape}")
    return _op("channel_mix", np.einsum("dc,bct->bdt", w.data, x.data),
               (w, lambda g: np.einsum("bdt,bct->dc", g, x.data)),
               (x, lambda g: np.einsum("dc,bdt->bct", w.data, g)))


def add_channel_bias(x, bias) -> Tensor:
    """x[B, C] or x[B, C, T] + bias[C] broadcast over batch (and time)."""
    x = _as_tensor(x)
    bias = _as_tensor(bias)
    if x.ndim not in (2, 3) or bias.shape != (x.shape[1],):
        raise ShapeMismatch(f"channel bias: x {x.shape} vs bias {bias.shape}")
    axes = (0,) if x.ndim == 2 else (0, 2)
    out = x.data + bias.data.reshape((-1,) + (1,) * (x.ndim - 2))
    return _op("add_channel_bias", out, (x, lambda g: g),
               (bias, lambda g: np.sum(g, axis=axes)))
