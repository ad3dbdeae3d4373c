"""Parallel evaluation of the input-dependent recurrence H_t = a_t H_{t-1} + (1-a_t) x_t.

One route computes it: the taped :func:`scan`, built on the raw-array core
:func:`linear_scan` for h_t = a_t h_{t-1} + b_t.  Its one caller in the
program is the approx bank's decay model (``tasks.approx.ApproxModel``);
the neurons run exact serial folds, time-major both ways, whose H the
scan's reassociated sums can miss by a few ulps.  The core is a two-stage
chunked scan (Martin & Cundy 2018, "Parallelizing linear recurrent neural
nets over sequence length"):

1. time is cut into fixed 256-step chunks, and every chunk is folded from a
   zero start, vectorized across lanes and chunks;
2. a left fold over the ceil(T/256) chunk summaries (the product of a and the
   local end value of each chunk) gives each chunk its incoming carry, which
   is then spread over the chunk through the running products of a.

Layout.  The chunked stages run on a chunk-position-major (chunk, chunks,
lanes) copy of a and of b: row j holds step j of every chunk of every lane,
so each fold step is one contiguous multiply-add over all of them.  The
same row loop keeps the running products of a (what ``cumprod`` along a
chunk gives, in the same order), and the combine prods * carry + local is
two contiguous in-place passes.  Only the copies into that layout and the
one back to (lanes, T) move data across axes, and they go tile by tile: a
tile is min(lanes, ``TILE_LANES``) lanes by ``TILE_BYTES`` / (8 x that)
steps (at most one chunk), so the strided side of each copy stays in cache
instead of touching one page per element as a whole-array transpose does.
Measured on a 2-core Xeon, float64, ``linear_scan`` forward plus backward
(median of 9) with 64-lane tiles of 8, 16, 32 and 64 KiB:

* 4x256x1024 (16, 32, 64 and 128 steps a tile): 55, 44, 37 and 37 ms;
* 1x16x32768 (16 lanes by 64, 128, 256 and 256 steps): 29, 24, 24 and
  24 ms;
* 1250x8x128 (16, 32, 64 and 128 steps): 73, 61, 55 and 53 ms.

128 KiB (whole chunks at 64 lanes) and 32- or 128-lane tiles were within
noise of 64 KiB at 64 lanes or slower.

The copy back has its own tile, ``BACK_TILE_BYTES``: it reads rows of the
chunk-major buffer that lie a power of two apart at these shapes, which a
64 KiB tile walks with more cache conflicts than the copy in does.
Measured as above, the copy back alone (median of 15-25, tiles interleaved
in one process) for (lanes, KiB) tiles of (64, 64), (64, 32), (64, 16) and
(32, 16):

* 1024 lanes x 1024 steps: 9.4-11.3, 4.7-5.3, 6.0 and 4.9-6.9 ms;
* 16 x 32768: 2.0, 1.6, 2.2 and 2.2 ms;
* 10000 x 128: 5.3-6.1, 5.7-7.2, 7.7 and 6.4-8.2 ms;
* 4096 x 256: 6.0-6.3, 3.1-4.1, 3.6 and 4.0-5.2 ms.

Only the tile shape changed, so every element is copied as before.  The
sweep of ``BACK_TILE_BYTES`` at the approx bank's shapes and these is in
``BENCH_back_tile.json``.

The carry fold is a Python loop over the chunks, which at the sizes this
library runs (at most a few hundred chunks) needs no parallel-prefix sweep.

The backward pass differentiates the recurrence through its adjoint
g_t = dH_t + a_{t+1} g_{t+1}: the same scan run from the end of time, with
the coefficient read one step ahead and the part chunk at the front, so
that every chunk boundary, running product and carry rounds as a forward
scan of the reversed arrays would.  It costs the same O(B*C*T) work as the
forward and makes no reversed copy.

The reduction order in every stage is fixed, so repeated runs are
bit-identical.  The plain step-by-step fold, the explicit T x T matrix form
and the same chunked scan on whole-array ``moveaxis`` copies live in the
tests as the oracles this route is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .numerics import Tensor, _as_tensor, _result, _shared_tape

CHUNK = 256
# a transposed tile: at most TILE_LANES lanes, TILE_BYTES in all into the
# chunk-major layout and BACK_TILE_BYTES back out of it
TILE_LANES = 64
TILE_BYTES = 2 ** 16
# Bytes of a tile of the copy back (BENCH_back_tile.json).
BACK_TILE_BYTES = 2 ** 15


def _tiles(lanes, steps, chunk, nc, head, shift, nbytes=TILE_BYTES):
    """(rows, chunk, lanes; steps) index pairs of the tiles of ``nbytes``
    that carry a (lanes, steps) array into the chunk-major layout and back."""
    width = min(lanes, TILE_LANES)
    depth = min(chunk, nbytes // (8 * width))
    lead = chunk - head
    for l0 in range(0, lanes, width):
        ls = slice(l0, l0 + width)
        for c in range(nc):
            start = c * chunk - lead
            lo, hi = max(start, 0), min(start + chunk, steps - shift)
            for t0 in range(lo, hi, depth):
                t1 = min(t0 + depth, hi)
                yield (slice(t0 - start, t1 - start), c, ls,
                       slice(t0 + shift, t1 + shift))


def _to_chunks(src, chunk, nc, head, shift, fill):
    """buf[j, c, l] = src[l, c*chunk + j - (chunk - head) + shift]; fill
    where that step lies outside [0, T) or its source beyond T."""
    lanes, steps = src.shape
    buf = np.empty((chunk, nc, lanes), src.dtype)
    lead = chunk - head
    if lead:
        buf[:lead, 0] = fill
    end = steps - shift - (nc - 1) * chunk + lead
    if end < chunk:
        buf[end:, nc - 1] = fill
    for rows, c, ls, ts in _tiles(lanes, steps, chunk, nc, head, shift):
        buf[rows, c, ls] = src[ls, ts].T
    return buf


def linear_scan(a: np.ndarray, b: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """Chunked two-stage scan of h_t = a_t h_{t-1} + b_t (raw-array core)."""
    shape, T = b.shape, b.shape[-1]
    if T == 0:
        return np.empty_like(b)
    h = _chunked_scan(a.reshape(-1, T), b.reshape(-1, T), h0.reshape(-1), False)
    return h.reshape(shape)


def _chunked_scan(a, b, h0, reverse, out=None):
    """h_t = a_t h_{t-1} + b_t over (lanes, T) arrays from h_{-1} = h0, or
    with ``reverse`` h_t = a_{t+1} h_{t+1} + b_t from h_T = h0 (a_T = 1,
    unless a holds a T-th step past b's, as a tile cut from a longer scan
    does), written into ``out`` when given.

    The reverse scan folds every chunk from its end and puts the part chunk
    at the front, so each chunk, its products and its carry round as in the
    forward scan of the reversed arrays.
    """
    lanes, T = b.shape
    chunk = min(CHUNK, T)
    nc = -(-T // chunk)
    head = T - (nc - 1) * chunk if reverse else chunk
    coef = _to_chunks(a, chunk, nc, head, int(reverse), 1.0)
    local = _to_chunks(b, chunk, nc, head, 0, 0.0)
    # one row per step of every chunk of every lane: the fold from zero
    # turns local into the chunk-local scan and coef into the running
    # products of a, both in place
    acc = np.zeros((nc, lanes), b.dtype)
    tmp, prod = np.empty_like(acc), np.ones_like(acc)
    mul, add = np.multiply, np.add
    for a_j, b_j in (zip(coef[::-1], local[::-1]) if reverse
                     else zip(coef, local)):
        mul(a_j, acc, tmp)
        acc = add(tmp, b_j, b_j)
        prod = mul(prod, a_j, a_j)
    # chunk c maps its incoming h to prod * h + acc, its last row folded
    order = range(nc - 1, -1, -1) if reverse else range(nc)
    carries = np.empty((nc, lanes), b.dtype)
    carries[order[0]] = h0
    for prev, c in zip(order, order[1:]):
        carries[c] = prod[prev] * carries[prev] + acc[prev]
    np.multiply(coef, carries, out=coef)
    np.add(coef, local, out=local)
    if out is None:
        out = np.empty_like(b)
    for rows, c, ls, ts in _tiles(lanes, T, chunk, nc, head, 0,
                                  nbytes=BACK_TILE_BYTES):
        out[ls, ts] = local[rows, c, ls].T
    return out


def _backward_arrays(alpha: np.ndarray, x: np.ndarray, h0: np.ndarray,
                     H: np.ndarray, dH: np.ndarray):
    # the adjoint g_t = dH_t + alpha_{t+1} g_{t+1} is the reverse scan
    shape, T = alpha.shape, alpha.shape[-1]
    alpha, x, H, dH = (v.reshape(-1, T) for v in (alpha, x, H, dH))
    g = _chunked_scan(alpha, dH, np.zeros(alpha.shape[0], alpha.dtype), True)
    d_alpha = np.empty_like(g)
    np.subtract(h0.reshape(-1), x[:, 0], out=d_alpha[:, 0])
    np.subtract(H[:, :-1], x[:, 1:], out=d_alpha[:, 1:])
    np.multiply(g, d_alpha, out=d_alpha)
    d_x = np.subtract(1.0, alpha)
    np.multiply(g, d_x, out=d_x)
    d_h0 = g[:, 0] * alpha[:, 0]
    return d_alpha.reshape(shape), d_x.reshape(shape), d_h0.reshape(shape[:-1])


def scan(alpha, x, h0=None) -> Tensor:
    """Taped scan of (B, C, T) decays and inputs from the (B, C) start h0
    (zeros when omitted): chunked forward, adjoint-scan backward.

    Gradients flow to alpha, x and (when given) h0.
    """
    alpha = _as_tensor(alpha)
    x = _as_tensor(x)
    h0_t = _as_tensor(h0) if h0 is not None else None
    if alpha.ndim != 3 or alpha.shape != x.shape:
        raise ShapeMismatch(f"alpha {alpha.shape} and x {x.shape} must match")
    h0_arr = (h0_t.data if h0_t is not None
              else np.zeros(alpha.shape[:2], dtype=alpha.data.dtype))
    if h0_arr.shape != alpha.shape[:2]:
        raise ShapeMismatch(f"h0 {h0_arr.shape} != {alpha.shape[:2]}")
    tape, nodes = _shared_tape(alpha, x, h0_t)
    b = np.subtract(1.0, alpha.data)
    out = linear_scan(alpha.data, np.multiply(b, x.data, out=b), h0_arr)

    def backward(g):
        for node, grad in zip(nodes, _backward_arrays(alpha.data, x.data, h0_arr,
                                                       out, g)):
            if node is not None:
                tape._accumulate(node, grad, own=True)

    return _result(out, "scan", tape, nodes, backward if tape else None)
