"""Spiking neuron models with dual serial/parallel execution.

Every kind sits behind one interface, :class:`Neuron`: ``step`` for serial
inference with bounded state, ``advance`` for the same inference a (B, C, T)
block at a time, ``trace`` for serial (S, H) trajectories, ``forward`` for
taped training over a whole (B, C, T) sequence, ``sequence`` for the
offline map of a whole sequence, and ``weights``/``with_weights`` for the
trainable tensors.  :func:`make_neuron` is the one place that maps a kind
name to a model; the CLI (bench included) and the tasks all build through
it.
``Neuron._advance`` is the one multi-frame serial path, behind both
``advance`` and ``trace`` for every kind that can step: for LIF/IF the
block kernel ``_lif_fold``, a few whole-row ufuncs a frame from
``FLOAT_LOOP_LANES`` lanes on and a Python-float loop per lane below, and
for DSN and sliding PSN a cache-sized sub-block of frames at a time, each
equal to the fold of ``step`` bit for bit.  The taped ``forward`` of LIF/IF
and of the DSN is that same fold plus a reverse-time backward, so its
spikes are the step fold's by construction; the PSN family's is
``psn_membrane``, whose sums add in the step's order.  A leaky LIF fold of
few lanes over many frames, its BPTT, and the DSN's H recurrence and its
adjoint run parallel over time: every time block at once from a guessed
start, then repaired from the block before until it merges with its first
run bit for bit (``_merge_blocks``), which a decay makes happen within
about as many frames as its powers take to fall below 2^-53
(``_time_blocks`` plans the blocks from beta, or from the DSN's own
decays).  A DSN or PSN step sums its window in one multiply and one
in-order reduce (``_ordered_sum``).  Full and masked PSN have no serial
mode: their ``step``, ``advance`` and ``trace`` raise StepUnavailable.
Folding ``step`` over time and calling ``sequence`` produce the same spikes
wherever both exist.

Models:

* ``LifNeuron`` -- leaky (or non-leaky) integrate-and-fire with hard, soft
  or no reset.  ``step`` is its single-step definition, and ``_lif_fold``
  its one block kernel, equal to the fold of ``step`` bit for bit, with
  per-lane betas: the trace, the taped training pass (that kernel forward,
  reverse-time BPTT backward), ``sequence`` of the reset-free variants
  and the approx task's targets, a bank of channels as lanes of one call
  per reset mode, all run it.  With a leak, the kernel's frame loops run
  time blocks side by side (``_time_blocks``).
* ``DsnNeuron`` -- reset-free neuron whose decay is produced per step from
  the last k inputs by a depthwise causal convolution and a sharpened
  sigmoid; fires integer spikes clip(round(H), 0, N).  Serial via an
  O(C*k) window of the last k-1 inputs; a sequence runs the time-major
  fold ``_dsn_fold``, whose H recurrence runs over time blocks
  (``_dsn_membranes``), and training tapes that fold (``_dsn_taped``) with
  a time-major reverse pass (``_dsn_bptt``).
* ``PsnNeuron`` -- the learnable time-by-time weight family: full (dense,
  non-causal), masked (banded lower-triangular) and sliding (k shared
  weights).  Full/masked are locked to their training length and raise
  LengthMismatch elsewhere; sliding accepts any length and can step.
  Parallel via ``psn_membrane``, one taped op for every variant: a product
  with W's transposed view (full/masked) or the depthwise causal taps of
  the k weights (sliding), with no T x T copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import (LengthMismatch, NonFiniteError, ParallelUnavailable, ShapeMismatch,
                     StepUnavailable)
from .numerics import (_ONE, _ZERO, SurrogateKind, Rectangular, Tensor, heaviside,
                       surrogate_grad)
from .scan import TILE_LANES

HARD, SOFT, NONE = "hard", "soft", "none"
_RESETS = (HARD, SOFT, NONE)


# ---------------------------------------------------------------------------
# classical integrate-and-fire


@dataclass(frozen=True)
class NeuronConfig:
    """Parameters of a classical neuron.

    beta is the decay factor 1 - 1/tau_m and is ignored for the pure
    accumulator (leak='if').  v_th is positive and finite, v_reset finite.
    """

    beta: float = 0.5
    v_th: float = 1.0
    v_reset: float = 0.0
    reset_mode: str = HARD
    leak: str = "lif"

    def __post_init__(self):
        if self.leak not in ("lif", "if"):
            raise ValueError(f"leak must be 'lif' or 'if', got {self.leak!r}")
        if self.leak == "lif" and not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1) for a leaky neuron")
        if not 0 < self.v_th < math.inf:
            raise ValueError("v_th must be positive and finite")
        if not math.isfinite(self.v_reset):
            raise ValueError("v_reset must be finite")
        if self.reset_mode not in _RESETS:
            raise ValueError(f"reset_mode must be one of {_RESETS}")

    @classmethod
    def lif(cls, tau_m: float, reset_mode: str = HARD, v_th: float = 1.0,
            v_reset: float = 0.0) -> "NeuronConfig":
        return cls(beta=1.0 - 1.0 / tau_m, v_th=v_th, v_reset=v_reset,
                   reset_mode=reset_mode, leak="lif")

    @classmethod
    def integrate_fire(cls, reset_mode: str = HARD, v_th: float = 1.0,
                       v_reset: float = 0.0) -> "NeuronConfig":
        return cls(beta=0.0, v_th=v_th, v_reset=v_reset,
                   reset_mode=reset_mode, leak="if")


def _lif_fold(frames: np.ndarray, v: np.ndarray, cfg: NeuronConfig, beta=None):
    """(H, S, V): ``LifNeuron.step`` folded over (T, ...) frames from the
    membrane v, bit for bit, with H and S time-major (T, *v.shape).

    The one multi-frame LIF/IF path.  beta (default ``cfg.beta``) may be an
    array that broadcasts over v's lanes, with the frames broadcast to those
    lanes too: a (C,) vector of betas runs C channels of one (n, 1) signal
    as n x C lanes; ``cfg`` gives the leak, threshold and reset.  The drive
    (1 - beta) x (x for IF) is one op over the whole block, into the buffer
    that S = [H >= v_th] overwrites in one op after the fold; in between
    runs the frame loop, ``_lif_membranes``.  Where that loop cuts time
    into blocks (``_time_blocks``), the drive and H buffers run on to a
    whole number of blocks, through frames of zero drive past T whose H is
    dropped.  The final membrane V is the reset of the last H
    (``_lif_reset``).  ``step`` fires on heaviside(H - v_th), the same test
    for a finite v_th: a difference of two floats rounds to zero only when
    they are equal (subnormals are kept), never across zero, and NaN fails
    both.  Frames of shape (T, B, C) are gathered a tile of lanes at a
    time (``_gather``), any other shape broadcast.  Non-finite frames raise
    NonFiniteError.  V owns its memory, and v is not modified.
    """
    T = frames.shape[0]
    if cfg.leak == "lif":
        beta = cfg.beta if beta is None else np.asarray(beta, dtype=float)
    blocks, n = _time_blocks(T, v.size, cfg, beta)
    drive = np.empty((blocks * n,) + v.shape)
    live = drive[:T]
    if frames.ndim == 3 and frames.shape == live.shape:
        _gather(live, frames)
    else:
        live[...] = frames
    drive[T:] = 0.0
    _finite_input(live)
    if cfg.leak == "lif":
        np.multiply(drive, np.subtract(_ONE, beta), out=drive)
        beta = (nm._constant(beta) if np.ndim(beta) == 0
                else np.broadcast_to(beta, v.shape).reshape(-1))
    h_all = np.empty(drive.shape)
    h = h_all[:T]
    _lif_membranes(drive, h_all, v, cfg, beta, blocks, False)
    overflowed = cfg.reset_mode == HARD and bool(np.isposinf(h).any())
    if overflowed:
        _lif_membranes(drive, h_all, v, cfg, beta, blocks, True)
    v = _reset_copy(h[-1:].reshape(v.shape), cfg, overflowed) if T else np.array(v, dtype=float)
    return h, np.greater_equal(h, nm._constant(cfg.v_th), out=live), v


def _lif_membranes(drive: np.ndarray, h_all: np.ndarray, v: np.ndarray,
                   cfg: NeuronConfig, beta, blocks: int, overflowed: bool) -> None:
    """The frame loop of ``_lif_fold``: H into h_all from the drive and the
    membrane v, each element rounded as in ``step``, on one of three routes.

    * Below ``FLOAT_LOOP_LANES`` lanes, where a frame's few ufunc calls
      would cost more than its arithmetic: a loop on Python floats per
      lane (``_float_membranes``).
    * One block from there on: ``_lif_frames``, a few ufuncs a frame over
      the row of all lanes.
    * Several blocks (leaky neurons only, ``_time_blocks``): the frame axis
      is cut into that many blocks of equal length, and the same loop runs
      frame j of every block as one (blocks x lanes) row, block 0 from v
      and the others from v as a guess; ``_merge_blocks`` then repairs
      each block from the end state of the one before it until H agrees
      bit for bit.  A frame's H and V depend only on the V before it and
      that frame's drive, so a block whose H agrees with its repair at one
      frame is exact from there on, and a block that started from an exact
      state is exact throughout: the result equals the one-block loop in
      every case.  A leak shrinks a wrong start by beta each frame until
      it is rounded away, so blocks agree after about as many frames as
      beta^n takes to fall below 2^-53.  Without a leak (IF) a wrong start
      is never forgotten, so IF keeps one block.
    """
    frames, lanes = drive.shape[0], v.size
    v = np.array(v, dtype=float).reshape(-1)
    if lanes < FLOAT_LOOP_LANES:
        drive, h_all = drive.reshape(frames, lanes), h_all.reshape(frames, lanes)
        betas = np.broadcast_to(_ONE if cfg.leak == "if" else beta, v.shape).tolist()
        for i, b in enumerate(betas):
            h_all[:, i] = _float_membranes(drive[:, i].tolist(), v.item(i), b, cfg)
        return
    run = _lif_frames(cfg, beta, overflowed)
    drive, h_all = (a.reshape(blocks, -1, lanes).swapaxes(0, 1) for a in (drive, h_all))
    if blocks == 1:
        run([drive[:, 0]], h_all[:, 0], v)
    else:
        _merge_blocks(run, [drive], h_all, v, lambda h: _reset_copy(h, cfg, overflowed))


def _lif_reset(cfg: NeuronConfig, overflowed: bool):
    """reset(h, v, tmp, mask) -> V, the membrane after H = h, written into v
    (h itself without reset), with tmp and mask scratch of h's shape.

    Each selects, per lane, between two values that round as the step's
    do: soft reset's H - v_th S is H - v_th where H fires and H - 0.0 = H
    elsewhere, and hard reset's H (1 - S) + v_reset S is H + v_reset 0.0
    elsewhere (which turns a -0.0 membrane into +0.0 when v_reset is not
    negative, as the step does) and H 0.0 + v_reset where H fires.  For a
    finite H that is the constant 0.0 + v_reset; the one firing H that is
    not finite, +inf, gives NaN, so ``_lif_fold`` reruns a hard-reset block
    in which H overflowed with ``overflowed`` set, which computes
    H 0.0 + v_reset.
    """
    v_th, v_reset = nm._constant(cfg.v_th), nm._constant(cfg.v_reset)
    kept, fired = nm._constant(cfg.v_reset * 0.0), nm._constant(0.0 + cfg.v_reset)
    if cfg.reset_mode == NONE:
        return lambda h, v, tmp, mask: h
    if cfg.reset_mode == SOFT:
        def soft(h, v, tmp, mask):
            np.less(h, v_th, out=mask)
            np.subtract(h, v_th, out=v)
            np.copyto(v, h, where=mask)
            return v
        return soft

    def hard(h, v, tmp, mask):
        np.greater_equal(h, v_th, out=mask)
        np.add(h, kept, out=v)
        if overflowed:
            np.copyto(v, np.add(np.multiply(h, _ZERO, out=tmp), v_reset, out=tmp), where=mask)
        else:
            np.copyto(v, fired, where=mask)
        return v
    return hard


def _reset_copy(h: np.ndarray, cfg: NeuronConfig, overflowed: bool) -> np.ndarray:
    """The membrane after H = h (``_lif_reset``) in memory of its own."""
    v = _lif_reset(cfg, overflowed)(h, np.empty(h.shape), np.empty(h.shape),
                                    np.empty(h.shape, dtype=bool))
    return v.copy() if v is h else v


def _lif_frames(cfg: NeuronConfig, beta, overflowed: bool):
    """run([drive], h_all, v) -> V: H_t = beta V + drive_t (V + x_t for
    IF), never in place, into each row of h_all, then V = the reset of H_t
    (``_lif_reset``), from v over the frame axis of rows of any shape; v is
    overwritten."""
    reset, leaky = _lif_reset(cfg, overflowed), cfg.leak == "lif"

    def run(ins, h_all, v):
        tmp, mask = np.empty(v.shape), np.empty(v.shape, dtype=bool)
        for d, h in zip(ins[0], h_all):
            if leaky:
                np.add(np.multiply(beta, v, out=tmp), d, out=h)
            else:
                np.add(v, d, out=h)
            v = reset(h, v, tmp, mask)
        return v
    return run


def _float_membranes(drive: list, v: float, beta: float, cfg: NeuronConfig) -> list:
    """H of one lane of ``_lif_membranes`` on Python floats, IEEE doubles
    rounded once per operation as each ufunc is.  H_t = beta V + drive_t,
    with beta 1.0 for IF (1.0 V is V, bit for bit); a hard reset of a
    firing H is H 0.0 + v_reset, the step's own form, which is 0.0 + v_reset
    for a finite H and NaN for +inf, so the +inf rerun repeats the same
    values."""
    v_th, v_reset, kept, reset = cfg.v_th, cfg.v_reset, cfg.v_reset * 0.0, cfg.reset_mode
    hs = []
    for d in drive:
        h = beta * v + d
        hs.append(h)
        if reset == NONE:
            v = h
        elif reset == SOFT:
            v = h if h < v_th else h - v_th
        else:
            v = h * 0.0 + v_reset if h >= v_th else h + kept
    return hs


def _time_blocks(T: int, lanes: int, cfg: NeuronConfig | None, decay,
                 max_lanes: float = math.inf) -> tuple[int, int]:
    """(blocks, frames per block) a frame loop cuts T frames of ``lanes``
    lanes into, planned from the fold's slowest decay: the largest beta of
    a LIF/IF neuron with config ``cfg``, or for the DSN (cfg None) the
    geometric mean decay of the lane that forgets least.  (1, T), the plain
    loop, where fewer than ``BLOCK_MIN_COUNT`` blocks fit, for IF or a LIF
    outside [``FLOAT_LOOP_LANES``, max_lanes) lanes, and where the decay
    rounds to 1 (a lane that never forgets would never merge).  Otherwise
    a block is at least ``BLOCK_MARGIN`` times the frames in which the
    decay's powers fall below 2^-53, a frame of all blocks holds at most
    ``BLOCK_ROW`` elements (which bounds the lanes too), and the blocks are
    lengthened to cover T with fewer padding frames than blocks."""
    if cfg is not None and (cfg.leak != "lif" or not FLOAT_LOOP_LANES <= lanes < max_lanes):
        return 1, T
    top = float(np.max(decay))
    if top >= 1.0:
        return 1, T
    forget = 53.0 / -math.log2(top) if top > 0.0 else 1.0
    blocks = min(T // max(MERGE_CHECK_FRAMES, math.ceil(BLOCK_MARGIN * forget)),
                 BLOCK_ROW // lanes)
    return (blocks, -(-T // blocks)) if blocks >= BLOCK_MIN_COUNT else (1, T)


def _merge_blocks(run, ins: list, out: np.ndarray, start, carry,
                  repairs: float = math.inf) -> int:
    """``run`` folded over time blocks, speculated in parallel and repaired
    until they merge, bit for bit as one fold over the blocks in order.

    ins and out are (n, blocks, ...) views, frame j of every block in row
    j.  run(ins, out, state) -> state folds the frame axis of its views
    from state, which it may overwrite; carry(rows) is the state that
    follows out rows, a block's last.  Block 0 runs from start, and so do
    the others, as a guess.  Each repair pass reruns the blocks after the
    first one not known exact, each from the carry of the block before,
    ``MERGE_CHECK_FRAMES`` frames at a time, and stops at the first checked
    frame whose out agrees bit for bit with the last pass in every block:
    each frame's state follows from the state before it and that frame's
    inputs alone, so from there on the blocks are exact.  A pass that ends
    without agreeing still leaves its first block exact, since that block
    started from an exact state, and the next pass starts after it.
    Returns how many leading blocks are exact: all of them, unless
    ``repairs`` passes end without agreeing.
    """
    n, blocks = out.shape[:2]
    state = np.empty(out.shape[1:])
    state[...] = start
    run(ins, out, state)
    redo = np.empty((n, blocks - 1) + out.shape[2:])
    for first in range(1, blocks):
        if first > repairs:
            return first
        later = [a[:, first:] for a in ins]
        new, state = redo[:, :blocks - first], carry(out[-1, first - 1:-1])
        for j in range(0, n, MERGE_CHECK_FRAMES):
            k = min(j + MERGE_CHECK_FRAMES, n)
            state = run([a[j:k] for a in later], new[j:k], state)
            if np.array_equal(new[k - 1].view(np.int64), out[k - 1, first:].view(np.int64)):
                out[:k, first:] = new[:k]
                return blocks
        out[:, first:] = new
    return blocks


def _lif_bptt(cfg: NeuronConfig, sg: SurrogateKind, s: np.ndarray, h: np.ndarray,
              g: np.ndarray) -> np.ndarray:
    """dL/dx from dL/dS, with the surrogate standing in for dS/dH.

    Every array is time-major, (T, B, C), so each reverse step reads and
    writes whole (B, C) rows of the memory ``_lif_fold`` wrote.
    dL/dH_t = g_t sg'_t + dL/dV_t dV_t/dH_t, where dV/dH is
    (1 - s) + (v_reset - h) sg' for hard reset, 1 - v_th sg' for soft reset
    and 1 without reset; dL/dV_{t-1} and dL/dx_t are dL/dH_t scaled by
    beta and 1 - beta (both 1 for the pure accumulator).

    dL/dH is built in place in the buffer of g sg', one multiply-add a step
    (the step's leak multiply first for LIF), and scaled by 1 - beta once
    after the loop; the x1 multiplies of no reset and of IF are skipped,
    since they change no bits.  The reverse loop takes the routes of
    ``_lif_membranes`` in reverse time: per lane on Python floats
    (``_float_bptt``), on whole rows (``_bptt_frames``), or, where
    ``_time_blocks`` cuts time, on rows of reverse-time blocks through
    ``_merge_blocks``, from a copy of g sg' padded with zeros past frame 0.
    There the state is dL/dV and the merge test is on dL/dH: two blocks
    whose dL/dH agree at a frame agree at every earlier one.  The leak
    scales a wrong start by beta each frame, times the dV/dH gains; IF has
    no leak and keeps one block.  ``tests/oracles.lif_bptt`` is the
    per-step form this equals bit for bit.
    """
    sgp = surrogate_grad(sg, np.subtract(h, cfg.v_th))
    dh = np.multiply(g, sgp, out=np.empty(h.shape))
    if cfg.reset_mode == HARD:
        dv_dh = np.subtract(cfg.v_reset, h)
        np.multiply(dv_dh, sgp, out=dv_dh)
        np.add(np.subtract(_ONE, s, out=sgp), dv_dh, out=dv_dh)
    elif cfg.reset_mode == SOFT:
        dv_dh = np.subtract(_ONE, np.multiply(cfg.v_th, sgp, out=sgp), out=sgp)
    else:
        dv_dh = None
    leaky = cfg.leak == "lif"
    T, lanes = h.shape[0], math.prod(h.shape[1:])
    blocks, n = _time_blocks(T, lanes, cfg, cfg.beta, BPTT_BLOCK_MAX_LANES)
    rows = [a.reshape(T, lanes)[::-1] for a in (dh, dv_dh) if a is not None]  # reverse time
    if lanes < FLOAT_LOOP_LANES:
        gains = rows[1] if len(rows) > 1 else np.ones(rows[0].shape)
        for i in range(lanes):
            rows[0][:, i] = _float_bptt(rows[0][:, i].tolist(), gains[:, i].tolist(),
                                        cfg.beta if leaky else 1.0)
    else:
        leak = nm._constant(cfg.beta) if leaky else None
        run = _bptt_frames(leak)
        if blocks == 1:
            run(rows, rows[0], np.zeros(lanes))
        else:
            pads = [np.zeros((blocks * n, lanes)) for _ in rows]
            for pad, a in zip(pads, rows):
                pad[:T] = a
            out = np.empty(pads[0].shape)
            _merge_blocks(run, [p.reshape(blocks, n, lanes).swapaxes(0, 1) for p in pads],
                          out.reshape(blocks, n, lanes).swapaxes(0, 1), _ZERO,
                          lambda d: np.multiply(d, leak))
            rows[0][...] = out[:T]
    if leaky:
        np.multiply(dh, nm._constant(1.0 - cfg.beta), out=dh)
    return dh


def _bptt_frames(leak):
    """run([dh, dv_dh], out, dv) -> dL/dV: dL/dH_t = dh_t + dL/dV_t dv_dh_t
    (+ dL/dV_t without a dv_dh, for no reset) into each row of out, in
    place over a copy of dh unless out is dh, then dL/dV_{t-1} =
    leak dL/dH_t (dL/dH_t itself for IF, leak None), from dv over the
    frame axis of rows of any shape; dv is overwritten."""
    def run(ins, out, dv):
        if ins[0] is not out:
            np.copyto(out, ins[0])
        term = np.empty(dv.shape)
        gains = ins[1] if len(ins) > 1 else [None] * len(out)
        for q, o in zip(gains, out):
            np.add(o, dv if q is None else np.multiply(dv, q, out=term), out=o)
            if leak is None:
                dv = o
            else:
                np.multiply(o, leak, out=dv)
        return dv
    return run


def _float_bptt(dh: list, dv_dh: list, leak: float) -> list:
    """dL/dH of one lane in reverse time on Python floats: dh_t +
    dL/dV_t dV_t/dH_t, then dL/dV_{t-1} = leak dL/dH_t, with dV/dH 1.0
    without reset and leak 1.0 for IF (1.0 y is y, bit for bit)."""
    dv, out = 0.0, []
    for d, q in zip(dh, dv_dh):
        d = d + dv * q
        out.append(d)
        dv = d * leak
    return out


# ---------------------------------------------------------------------------
# dynamic-decay neuron


@dataclass(frozen=True)
class DsnParams:
    """Weights of the decay generator plus firing hyperparameters.

    conv_kernel is (C, k) with column k-1 applied to the current input;
    channel_mix, when present, mixes decay pre-activations across channels
    before the sigmoid.  tau sharpens the sigmoid (alpha = sigmoid(.)^(1/tau))
    and n_max caps the integer spike count.
    """

    conv_kernel: Tensor
    conv_bias: Tensor | None = None
    channel_mix: Tensor | None = None
    tau: float = 0.25
    n_max: int = 4

    def __post_init__(self):
        if self.conv_kernel.ndim != 2:
            raise ShapeMismatch("conv_kernel must be (C, k)")
        c = self.conv_kernel.shape[0]
        if self.conv_bias is not None and self.conv_bias.shape != (c,):
            raise ShapeMismatch("conv_bias must be (C,)")
        if self.channel_mix is not None and self.channel_mix.shape != (c, c):
            raise ShapeMismatch("channel_mix must be (C, C)")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def channels(self) -> int:
        return self.conv_kernel.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.conv_kernel.shape[1]

    @cached_property
    def _step_operands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays the serial step reads every call: -kernel as (k, 1, C)
        columns, oldest tap first; -bias as (1, C), or 0.0; and n_max.  It
        sums the negated pre-activation ``decay_chain`` takes, which is exact
        (negation commutes with every rounding)."""
        bias = _ZERO if self.conv_bias is None else -self.conv_bias.data[None, :]
        return (-self.conv_kernel.data.T[:, None, :], bias,
                nm._constant(float(self.n_max)))

    @classmethod
    def init(cls, channels: int, k: int = 4, tau: float = 0.25, n_max: int = 4,
             bias: bool = True, mix: bool = False,
             seed: int | np.random.Generator = 0) -> "DsnParams":
        # fan-in uniform init; bias starts at zero, mix at identity.  A
        # Generator seed is drawn from in place (default_rng returns it).
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(k)
        kernel = Tensor(rng.uniform(-bound, bound, size=(channels, k)))
        return cls(
            conv_kernel=kernel,
            conv_bias=nm.zeros((channels,)) if bias else None,
            channel_mix=Tensor(np.eye(channels)) if mix else None,
            tau=tau, n_max=n_max)


@dataclass(slots=True)
class DsnState:
    """Streaming state: membrane potential (B, C) and the last k-1 inputs.

    window is tap-major (k-1, B, C), oldest first, as ``PsnNeuron``'s state
    is, so a step shifts it in one contiguous copy.
    """

    h: np.ndarray
    window: np.ndarray

    @classmethod
    def zeros(cls, batch: int, channels: int, kernel_size: int) -> "DsnState":
        return cls(h=np.zeros((batch, channels)),
                   window=np.zeros((kernel_size - 1, batch, channels)))


def _finite_input(x: np.ndarray) -> None:
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NonFiniteError("non-finite input")


# Lanes below which the LIF/IF kernel loops on Python floats (BENCH_lif_narrow.json).
FLOAT_LOOP_LANES = 8
# Lanes below which a leaky BPTT runs time blocks (BENCH_lif_blocks.json).
BPTT_BLOCK_MAX_LANES = 64
# Elements a frame of the time-block loop holds at most (BENCH_lif_blocks.json).
BLOCK_ROW = 1024
# Fewest blocks worth a speculative pass (BENCH_lif_blocks.json).
BLOCK_MIN_COUNT = 6
# Block length over the frames in which beta^n falls below 2^-53 (BENCH_lif_blocks.json).
BLOCK_MARGIN = 1.5
# Frames between two merge checks of a repair pass (BENCH_lif_blocks.json).
MERGE_CHECK_FRAMES = 8
# Lanes below which the DSN's H recurrence runs time blocks (BENCH_dsn_blocks.json).
DSN_BLOCK_MAX_LANES = 96
# Frames from which a DSN sub-block plans time blocks (BENCH_dsn_blocks.json).
DSN_BLOCK_MIN_FRAMES = 256
# Repair passes of a DSN sub-block before the rest runs in order (BENCH_dsn_blocks.json).
DSN_REPAIR_PASSES = 2


def _ordered_sum(a: np.ndarray, b: np.ndarray, shape: tuple,
                 from_zero: bool = False) -> np.ndarray:
    """sum over j of a[j] * b[j] of the given shape ((B, C) for a step,
    (n, B, C) for a block of n frames), added in the order j = 0, 1, ...

    That is the order in which the depthwise taps (oldest first) add in
    ``psn_membrane``, so a PSN step reproduces ``sequence`` bit for bit,
    and the DSN's step and its sub-block fold both sum their taps and mix
    through it (``_dsn_pre``).  ``psn_membrane`` starts from +0.0, as
    ``from_zero`` does; otherwise the sum starts from the first term,
    which changes only the sign of an all -0.0 sum.
    Equal-rank operands (a step's) whose terms fit ``CONV_BLOCK_BYTES``
    take one multiply into C-ordered terms and one ``np.add.reduce`` over
    their outermost axis: numpy runs it terms outside, elements inside, so
    each element adds its terms in order.  An innermost term axis numpy
    sums pairwise, so one-element terms run ``np.add.accumulate``, and the
    multiply asks for C order (under 'K' the mix's transposed operand puts
    the term axis innermost).  Larger terms (faster so,
    ``BENCH_step_sums.json``) and unequal ranks (a block's) run a loop.
    """
    if a.ndim == b.ndim and 8 * len(a) * math.prod(shape) <= nm.CONV_BLOCK_BYTES:
        terms = np.multiply(a, b, order="C")
        if math.prod(shape) > 1:
            return np.add.reduce(terms, axis=0, initial=0.0 if from_zero else None)
        acc = np.add.accumulate(terms, axis=0, out=terms)[-1]
    else:
        acc, term = np.multiply(a[0], b[0]), np.empty(shape)
        for j in range(1, a.shape[0]):
            np.multiply(a[j], b[j], out=term)
            np.add(acc, term, out=acc)
    if from_zero:
        np.add(acc, _ZERO, out=acc)  # S + 0.0 has the bits of the sum from +0.0
    return acc


def _dsn_pre(params: DsnParams, window: np.ndarray, mixed: bool = True) -> np.ndarray:
    """The negated pre-activation (..., C) from a tap-major (k, ..., C)
    window, oldest first: (k, B, C) for a step, a (k, n, B, C) view for n
    frames of a sub-block.  The taps, then the bias, then (``mixed``) the
    channel mix, each summed in order (``_ordered_sum``); the negation is
    exact, and ``numerics.decay_chain`` takes it so."""
    shape = window.shape[1:]
    taps, bias, _ = params._step_operands
    npre = _ordered_sum(window, taps, shape)
    np.add(npre, bias, out=npre)
    if mixed and params.channel_mix is not None:
        npre = _ordered_sum(params.channel_mix.data.T[:, None, :],
                            np.moveaxis(npre, -1, 0)[..., None], shape)
    return npre


def _block_frames(x, lanes: tuple) -> np.ndarray:
    """The time-major (T, B, C) view of a (B, C, T) block whose (B, C)
    must equal the state's lanes."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[:2] != lanes:
        raise ShapeMismatch(f"expected a (B, C, T) block with (B, C) = {lanes}, "
                            f"got shape {x.shape}")
    return x.transpose(2, 0, 1)


def _sub_block_frames(B: int, C: int) -> int:
    """Frames of one sub-block of (B, C) lanes: ``numerics.CONV_BLOCK_BYTES
    // (8 B C)``, at least one (``BENCH_advance.json``)."""
    return max(1, nm.CONV_BLOCK_BYTES // max(8 * B * C, 1))


def _sub_blocks(window: np.ndarray, frames: np.ndarray, reverse: bool = False):
    """Walk (T, B, C) frames a sub-block at a time behind a tap-major
    (m, B, C) window of the frames before them, oldest first; from the
    last sub-block back with ``reverse``.

    Yields (t, taps) per sub-block of n frames from frame t on: taps is a
    read-only (m + 1, n, B, C) view of [window | frames] whose row j holds,
    for each frame, the input m - j frames back, the layout of a step's
    window, so taps[-1] is the frames themselves as float64.  The view
    lives in one buffer that the next sub-block reuses, and a non-finite
    frame raises NonFiniteError.

    Frames are gathered into that buffer by ``_gather``: time-major frames
    (as ``eval_serial`` passes them) in one copy, the time-major view of
    lane-major input ``TILE_LANES`` lanes at a time.  Copied whole, that
    view reads each frame from B*C lanes a page apart; a tile's 64 lanes
    stay in cache for all n frames (``BENCH_dsn_eval_route.json``).
    Sub-blocks are ``_sub_block_frames`` long.
    """
    m = window.shape[0]
    T, B, C = frames.shape
    n = _sub_block_frames(B, C)
    buf = np.empty((m + min(n, T), B, C))
    strides = (buf.strides[0],) + buf.strides
    starts = range(0, T, n)
    for t in reversed(starts) if reverse else starts:
        stop = min(t + n, T)
        if t and not reverse:
            buf[:m] = buf[n:n + m]  # the last m frames of the sub-block before
            lo = t
        else:  # the window's frames still in reach, then frames from lo
            lo = max(t - m, 0)
            buf[:m - t + lo] = window[t - lo:]
        _gather(buf[m - t + lo:m + stop - t], frames[lo:stop])
        block = buf[m:m + stop - t]
        _finite_input(block)
        yield t, np.lib.stride_tricks.as_strided(buf, (m + 1,) + block.shape, strides,
                                                 writeable=False)


def _gather(out: np.ndarray, frames: np.ndarray) -> None:
    """out[...] = frames, for (n, B, C) frames and a C-contiguous out.

    Frames whose lanes lie apart in memory (a time-major view of lane-major
    (B, C, T) input) are copied ``TILE_LANES`` lanes at a time, so the lines
    and pages a tile reads serve all n frames; frames that are already
    time-major are copied whole.  A size-1 B or C (whose stride numpy may
    set to anything) merges with the other into one lane axis; left apart,
    10,000 lanes of one channel took 10,000 copies, about 20 ms."""
    n, B, C = frames.shape
    if 1 in (B, C) or frames.strides[1] == C * frames.strides[2]:  # one lane axis
        frames, out = frames.reshape(n, 1, B * C), out.reshape(n, 1, B * C)
    if frames.strides[2] == frames.itemsize:
        out[...] = frames
        return
    for b in range(frames.shape[1]):
        for l0 in range(0, frames.shape[2], TILE_LANES):
            out[:, b, l0:l0 + TILE_LANES] = frames[:, b, l0:l0 + TILE_LANES]


def _last_frames(older: np.ndarray, frames: np.ndarray, m: int) -> np.ndarray:
    """A float64 copy of the last m frames of [older | frames], tap-major."""
    T = frames.shape[0]
    return np.concatenate((older[older.shape[0] - max(m - T, 0):],
                           frames[max(T - m, 0):]), dtype=float)


def _dsn_plan(alpha: np.ndarray) -> tuple[int, int]:
    """(blocks, frames per block) of the H recurrence over a sub-block's
    (n, B, C) decays: below ``DSN_BLOCK_MAX_LANES`` lanes, from
    ``DSN_BLOCK_MIN_FRAMES`` frames on, ``_time_blocks`` plans them from the
    lane that forgets least (``_least_forgetting``); (1, n) elsewhere."""
    n, lanes = alpha.shape[0], math.prod(alpha.shape[1:])
    if n >= DSN_BLOCK_MIN_FRAMES and 0 < lanes < DSN_BLOCK_MAX_LANES:
        return _time_blocks(n, lanes, None, _least_forgetting(alpha))
    return 1, n


def _dsn_membranes(alpha: np.ndarray, b: np.ndarray, h: np.ndarray,
                   plan: tuple[int, int]) -> np.ndarray:
    """H_t = alpha_t H_{t-1} + b_t over the (n, B, C) frames of a sub-block
    from the (B, C) membrane h, written into alpha; returns the last H.

    The decays depend on the input window alone, never on H, so before the
    fold they tell how soon each lane forgets a wrong start: ``plan`` is
    ``_dsn_plan``'s, and where it has more than one block they run through
    ``_merge_blocks`` on contiguous copies of alpha and b whose row j is
    frame j of every block.  H_t depends only on H_{t-1}, alpha_t and b_t,
    so a block whose H agrees bit for bit with its repair at one frame is
    exact from there on: the result equals the plain loop (``_dsn_frames``
    in place of alpha) in every case, and only the cost depends on the
    decays and the plan.  A lane that never
    forgets (alpha at 1 - ulp) could never merge; its mean decay rounds to 1
    or asks for blocks longer than the sub-block, so the plain loop runs.
    Where a lane forgets only at frames far apart (a latch cleared by rare
    markers), blocks may not merge; after ``DSN_REPAIR_PASSES`` passes the
    frames after the exact blocks run the plain loop.
    """
    n, lanes = alpha.shape[0], h.size
    blocks, m = plan
    if blocks == 1:
        return _dsn_frames([alpha, b], alpha, h)
    ins = [_block_rows(a.reshape(n, lanes), blocks, m) for a in (alpha, b)]
    out = np.empty(ins[0].shape)
    exact = _merge_blocks(_dsn_frames, ins, out, h.reshape(-1), lambda rows: rows,
                          DSN_REPAIR_PASSES)
    done = min(exact * m, n)
    q, r = divmod(done, m)
    by_block, h_all = out.swapaxes(0, 1), alpha.reshape(n, lanes)
    h_all[:q * m].reshape(q, m, lanes)[...] = by_block[:q]
    if r:
        h_all[q * m:] = by_block[q, :r]
    if done < n:  # the frames after the exact blocks, in order
        return _dsn_frames([alpha[done:], b[done:]], alpha[done:], alpha[done - 1])
    return alpha[-1]


def _dsn_frames(ins: list, out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """run([alpha, b], out, h) -> H: H_t = alpha_t H_{t-1}, then + b_t, the
    step's own two ufuncs, into each row of out, in place over a copy of
    alpha unless out is alpha, from h over the frame axis of rows of any
    shape; h is not written."""
    if ins[0] is not out:
        np.copyto(out, ins[0])
    for o, b in zip(out, ins[1]):
        o *= h
        o += b
        h = o
    return h


def _least_forgetting(alpha: np.ndarray) -> float:
    """The largest per-lane geometric mean of (n, ...) decays, 2 to the
    mean of log2 alpha over the frames, each log at least -53: a frame
    whose decay is below 2^-53 forgets a start whole, and counted deeper, a
    rare one would pull the mean of a lane that holds its state between
    such frames down as far as a lane that forgets every frame."""
    n = alpha.shape[0]
    logs = np.maximum(np.log2(alpha), -53.0).reshape(n, -1)
    return 2.0 ** (float(np.max(np.ones(n) @ logs)) / n)


def _block_rows(a: np.ndarray, blocks: int, m: int) -> np.ndarray:
    """A C-contiguous (m, blocks, ...) copy of (n, ...) frames cut into
    blocks of m: row j holds frame j of every block, zeros past frame n."""
    rows = np.zeros((m, blocks) + a.shape[1:])
    by_block = rows.swapaxes(0, 1)
    q, r = divmod(len(a), m)
    by_block[:q] = a[:q * m].reshape((q, m) + a.shape[1:])
    if r:
        by_block[q, :r] = a[q * m:]
    return rows


def _dsn_fold(params: DsnParams, state: DsnState, frames: np.ndarray,
              h_out: np.ndarray | None = None, sigma: np.ndarray | None = None,
              unclipped: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, list]:
    """(S, last H, plans): ``DsnNeuron.step`` folded over (T, B, C) frames
    from ``state`` a sub-block at a time (``_sub_blocks``), S time-major,
    with each sub-block's time-block plan; H, sigma and the fire's one-byte
    mask (the rounded H left unclipped) go into the time-major buffers
    given.  Every stage but H_t = alpha_t H_{t-1} + b_t (``_dsn_membranes``)
    runs over the whole sub-block with the step's own kernels, so each
    element rounds as in ``step``.  Finite frames whose pre-activation
    overflows raise NonFiniteError (one test per sub-block), not a
    RuntimeWarning.
    """
    s, plans = np.empty(frames.shape), []
    h, e, n_max = state.h, 1.0 / params.tau, params._step_operands[2]
    with np.errstate(over="ignore", invalid="ignore"):
        for t, taps in _sub_blocks(state.window, frames):
            npre = _dsn_pre(params, taps)
            nm._ensure_finite(npre, "dsn pre-activation")
            alpha = nm.decay_chain(npre, e)[2]  # npre now holds sigma
            rows = slice(t, t + len(alpha))
            if sigma is not None:
                sigma[rows] = npre
            b = np.subtract(_ONE, alpha, out=npre)
            np.multiply(b, taps[-1], out=b)
            plans.append(_dsn_plan(alpha))
            h = _dsn_membranes(alpha, b, h, plans[-1])  # H in place of alpha
            if h_out is not None:
                h_out[rows] = alpha
            if unclipped is None:
                s[rows] = nm.fire_counts(alpha, n_max)[1]
            else:
                rounded, s[rows] = nm.fire_counts(alpha, n_max)
                np.equal(rounded, s[rows], out=unclipped[rows])
    return s, h, plans


def _dsn_taped(params: DsnParams, x) -> tuple[Tensor, Tensor, np.ndarray]:
    """(S, H, sigma) of the taped DSN pass over (B, C, T) input x from rest.

    The forward is ``_dsn_fold``, so S and H equal ``trace``'s bit for bit;
    it keeps H, sigma and the fire's one-byte mask, all time-major.  H is
    one taped op, ``dsn_membrane``, whose backward (``_dsn_bptt``) yields
    the input and weight gradients together; S is ``clip_round`` on it,
    straight through where the mask is set.  Both come back as (B, C, T)
    views of time-major memory, untaped where neither x nor a weight is.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=float)
    if data.ndim != 3 or data.shape[1] != params.channels:
        raise ShapeMismatch(f"expected (B, {params.channels}, T) input, "
                            f"got shape {data.shape}")
    frames = data.transpose(2, 0, 1)
    h, sigma = np.empty(frames.shape), np.empty(frames.shape)
    unclipped = np.empty(frames.shape, dtype=bool)
    state = DsnState.zeros(data.shape[0], data.shape[1], params.kernel_size)
    s, _, plans = _dsn_fold(params, state, frames, h, sigma, unclipped)
    s, h_bct = s.transpose(1, 2, 0), h.transpose(1, 2, 0)
    tape, nodes = nm._shared_tape(x, params.conv_kernel, params.conv_bias,
                                  params.channel_mix)
    if tape is None:
        return Tensor._attach(s, None, None), Tensor._attach(h_bct, None, None), sigma

    def backward(g):
        grads = _dsn_bptt(params, frames, h, sigma, g.transpose(2, 0, 1), plans,
                          [node is not None for node in nodes])
        for node, grad in zip(nodes, grads):
            if node is not None:
                tape._accumulate(node, grad, own=True)

    def fire_backward(g):  # straight through where unclipped, time-major
        gh = np.empty(frames.shape)
        _gather(gh, g.transpose(2, 0, 1))
        np.multiply(gh, unclipped, out=gh)
        tape._accumulate(hn, gh.transpose(1, 2, 0), own=True)

    hn = tape._record("dsn_membrane", tuple(n for n in nodes if n is not None), backward)
    sn = tape._record("clip_round", (hn,), fire_backward)
    return Tensor._attach(s, tape, sn), Tensor._attach(h_bct, tape, hn), sigma


def _dsn_bptt(params: DsnParams, frames: np.ndarray, h: np.ndarray, sigma: np.ndarray,
              g: np.ndarray, plans: list, wanted: list) -> tuple:
    """(dL/dx, dL/dkernel, dL/dbias, dL/dmix) from g = dL/dH of the pass
    ``_dsn_fold`` made over (T, B, C) frames with these time-block
    ``plans``, None where ``wanted`` is False; dL/dx is a (B, C, T) view of
    time-major memory.

    The fold's sub-blocks are walked from the last one back.  In each, the
    adjoint A_t = g_t + alpha_{t+1} A_{t+1} runs through ``_dsn_membranes``
    on reversed rows from the A of the sub-block after, over the time
    blocks the forward planned (its decays are the adjoint's, one frame
    apart); the decays are sigma's pinned powers.  The rest runs over the
    sub-block's tap-major frames: the pin's mask and the chain
    e power (1 - sigma) (e sigma^(e-1) sigma), the mix's adjoint (its
    channels added in order), the weight gradients (summed over the
    sub-blocks), and dL/dx_t = (1 - alpha_t) A_t plus the conv adjoint, its
    taps added in order j = 0..k-1 over this sub-block's pre-activation
    gradients and the first k-1 of the one after.
    ``tests/oracles.dsn_bptt`` equals dL/dx bit for bit.
    """
    want_x, want_k, want_b, want_w = wanted
    T, B, C = frames.shape
    k, e, mix = params.kernel_size, 1.0 / params.tau, params.channel_mix
    m, n = k - 1, min(_sub_block_frames(B, C), T)
    kern = params.conv_kernel.data.T[:, None, :]  # (k, 1, C), tap j on lag k-1-j
    dx = np.empty(frames.shape) if want_x else None
    gk, gb = np.zeros((k, C)), np.zeros(C)
    gw = np.zeros((C, C)) if want_w else None
    gs, coef, scan_dx = (np.empty((n, B, C)) for _ in range(3))
    power, alpha = np.empty((n + 1, B, C)), np.empty((n + 1, B, C))
    unpinned = np.empty((n, B, C), dtype=bool)
    dpre = np.empty((n + m, B, C))  # a sub-block's, then the k-1 after it
    later, carry = np.zeros((m, B, C)), np.zeros((B, C))
    for (t0, taps), plan in zip(_sub_blocks(np.zeros((m, B, C)), frames, reverse=True),
                                reversed(plans)):
        w = taps.shape[1]
        t1, on = t0 + w, min(t0 + w + 1, T) - t0  # on: one decay past t1
        _gather(gs[:w], g[t0:t1])
        p, a = nm._pinned_power(sigma[t0:t0 + on], e, power[:on], alpha[:on])
        c = coef[:w]  # row i: alpha_{t+1} for t = t1-1-i
        c[0] = a[w] if on > w else _ONE
        c[1:] = a[w - 1:0:-1]
        carry = _dsn_membranes(c, gs[:w][::-1], carry, plan).copy()
        adj = c[::-1]  # A over the sub-block, in time order
        d = dpre[:w]
        first = 1 if t0 == 0 else 0  # H before frame 0 is 0
        np.subtract(h[t0 - 1 + first:t1 - 1], taps[-1, first:], out=d[first:])
        if first:
            np.subtract(_ZERO, taps[-1, 0], out=d[0])
        np.multiply(adj, d, out=d)  # dL/dalpha
        if want_x:  # the scan's dL/dx
            sx = np.subtract(_ONE, a[:w], out=scan_dx[:w])
            np.multiply(adj, sx, out=sx)
        np.equal(p[:w], a[:w], out=unpinned[:w])
        np.multiply(d, unpinned[:w], out=d)
        np.multiply(d, e, out=d)
        np.multiply(d, p[:w], out=d)  # e sigma^(e-1) sigma = e power
        np.multiply(d, np.subtract(_ONE, sigma[t0:t1], out=p[:w]), out=d)
        if mix is not None:
            if want_w:  # pre-activation = -(negated), so subtract
                gw -= d.reshape(-1, C).T @ _dsn_pre(params, taps, False).reshape(-1, C)
            d[...] = _ordered_sum(mix.data[:, None, :], np.moveaxis(d, -1, 0)[..., None],
                                  d.shape)
        if want_b:
            gb += np.add.reduce(d.reshape(-1, C), axis=0)
        if want_k:
            for j in range(k):
                gk[j] += np.einsum("ic,ic->c", taps[j].reshape(-1, C), d.reshape(-1, C))
        if want_x:
            dpre[w:w + m] = later
            ahead = np.lib.stride_tricks.as_strided(
                dpre, (k, w, B, C), (dpre.strides[0],) + dpre.strides)[::-1]
            np.add(sx, _ordered_sum(ahead, kern, (w, B, C)), out=dx[t0:t1])
            later[...] = dpre[:m]
    return (dx.transpose(1, 2, 0) if want_x else None,
            np.ascontiguousarray(gk.T) if want_k else None, gb if want_b else None, gw)


def dsn_forward_parallel(params: DsnParams, x) -> tuple[Tensor, Tensor, Tensor]:
    """Whole-sequence forward: (S, H, alpha), S and H taped as
    ``DsnNeuron.forward`` tapes them (``_dsn_taped``), and alpha the
    untaped decays of the pass, sigma's pinned powers, for callers that
    inspect them."""
    s, h, sigma = _dsn_taped(params, x)
    alpha = nm._pinned_power(sigma, 1.0 / params.tau)[1]
    return s, h, Tensor._attach(alpha.transpose(1, 2, 0), None, None)


# ---------------------------------------------------------------------------
# PSN family


@dataclass(frozen=True)
class PsnParams:
    """Learnable time-by-time weights.

    variant 'full' keeps a dense (T, T) matrix and is non-causal; 'masked'
    bands it to the k sub-diagonals at or below the main diagonal; 'sliding'
    shares k weights across time (weight[0] multiplies the current input,
    weight[j] the input j steps back).
    """

    weight: Tensor
    variant: str = "full"
    k: int | None = None
    t_train: int | None = None

    def __post_init__(self):
        if self.variant not in ("full", "masked", "sliding"):
            raise ValueError(f"unknown PSN variant {self.variant!r}")
        if self.variant == "sliding":
            if self.weight.ndim != 1:
                raise ShapeMismatch("sliding PSN weight must be rank 1")
        else:
            w = self.weight
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ShapeMismatch("full/masked PSN weight must be square")
            if self.t_train != w.shape[0]:
                raise ValueError("t_train must equal the weight size")
            if self.variant == "masked":
                if not self.k or not 1 <= self.k <= w.shape[0]:
                    raise ValueError("masked PSN needs 1 <= k <= T")
                if any(np.any(v, where=where)
                       for v, where in _outside_band_parts(w.data, self.k)):
                    raise ValueError("masked PSN weight has entries outside its band")

    @property
    def non_causal(self) -> bool:
        return self.variant == "full"

    @classmethod
    def full(cls, weight) -> "PsnParams":
        weight = nm._as_tensor(weight)
        return cls(weight=weight, variant="full", t_train=weight.shape[0])

    @classmethod
    def masked(cls, weight, k: int) -> "PsnParams":
        weight = nm._as_tensor(weight)
        if weight.ndim != 2:
            raise ShapeMismatch("full/masked PSN weight must be square")
        masked = _zero_outside_band(weight.data.copy(), k)
        return cls(weight=Tensor(masked), variant="masked", k=k,
                   t_train=weight.shape[0])

    @classmethod
    def sliding(cls, weights) -> "PsnParams":
        weights = nm._as_tensor(weights)
        return cls(weight=weights, variant="sliding", k=weights.shape[0])

    @classmethod
    def init_decay(cls, variant: str, t_train: int | None = None,
                   k: int | None = None, beta: float = 0.5) -> "PsnParams":
        """Deterministic geometric-decay initialization (the linear-expansion
        pattern W_ij = beta^(i-j) (1-beta) on the causal part)."""
        if variant == "sliding":
            if not k:
                raise ValueError("sliding PSN needs k")
            w = beta ** np.arange(k) * (1.0 - beta)
            return cls.sliding(w)
        if not t_train:
            raise ValueError("full/masked PSN needs t_train")
        # row i is powers[T-1-i:2T-1-i] of powers = [beta^(T-1), ..., beta^0,
        # T-1 zeros]: beta^(i-j) at j <= i and 0 beyond, so no T x T array
        # but W itself is built
        powers = np.zeros(2 * t_train - 1)
        powers[:t_train] = beta ** np.arange(t_train - 1, -1, -1)
        rows = np.lib.stride_tricks.sliding_window_view(powers, t_train)[::-1]
        w = np.multiply(rows, 1.0 - beta, out=np.empty((t_train, t_train)))
        if variant == "masked":
            return cls.masked(w, k or t_train)
        return cls.full(w)


# Rows per block in which a masked PSN's band check and band mask walk a
# T x T matrix, so neither makes a T x T temporary.
BAND_ROWS = 64


def _outside_band_parts(a: np.ndarray, k: int):
    """(view, where) over the entries of square a outside the band
    j in (i - k, i], ``BAND_ROWS`` rows at a time: where is True for the
    columns past a block's diagonal square or before the square where its
    band ends, else the triangle of that square outside the band."""
    t = a.shape[0]
    for r0 in range(0, t, BAND_ROWS):
        r1 = min(r0 + BAND_ROWS, t)
        lo, hi = max(r0 - k + 1, 0), max(r1 - k + 1, 0)
        rows, i = a[r0:r1], np.arange(r0, r1)[:, None]
        yield rows[:, r1:], True
        yield rows[:, r0:r1], np.arange(r0, r1) > i
        yield rows[:, :lo], True
        yield rows[:, lo:hi], np.arange(lo, hi) <= i - k


def _zero_outside_band(a: np.ndarray, k: int) -> np.ndarray:
    # a times the band's 0/1 mask, in place: -0.0 where a < 0 lies outside
    for v, where in _outside_band_parts(a, k):
        np.multiply(v, 0.0, out=v, where=where)
    return a


def psn_forward(params: PsnParams, x, v_th: float = 1.0,
                sg: SurrogateKind = Rectangular()) -> Tensor:
    """Spikes of a PSN-family neuron on (B, C, T) input: the threshold of
    its membrane, one taped ``psn_membrane`` op (``_psn_membrane``).

    Full/masked variants demand T == t_train; the LengthMismatch they raise
    elsewhere is the executable form of their timestep-coupled parameters.
    """
    return nm.spike_threshold(_psn_membrane(params, x), v_th, sg)


def _psn_membrane(params: PsnParams, x) -> Tensor:
    """Membrane H of a PSN-family neuron over (B, C, T) input as one taped
    op, ``psn_membrane``, on its B*C lanes.

    Full/masked: H = lanes @ W.T on W's transposed view, dx = g @ W and
    dW = g.T @ lanes, times the band for masked PSN (whose W ``PsnParams``
    keeps zero outside it, so the forward needs no mask).  Sliding: the
    depthwise causal taps of the lag-indexed weights reversed (current step
    last), one (k,) kernel that every lane shares; dx from the adjoint taps
    of that kernel, and dW the per-lane kernel gradient summed over the
    batch, the channels, reversed.
    """
    x = nm._as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    b, c, t = x.shape
    n, w = b * c, params.weight.data
    lanes = np.ascontiguousarray(x.data.reshape(n, t))
    if params.variant == "sliding":
        k = w.shape[0]
        kern = w[::-1].copy()
        h = np.zeros((n, t))
        nm._depthwise_taps(lanes, kern, h, adjoint=False)

        def grad_x(g):
            gx = np.zeros((n, t))
            nm._depthwise_taps(g, kern, gx, adjoint=True)
            return gx

        def grad_w(g):
            gk = nm._depthwise_kernel_grad(g, lanes, k).reshape(b, c, k)
            return np.ascontiguousarray(gk.sum(axis=0).sum(axis=0)[::-1])
    else:
        if t != params.t_train:
            raise LengthMismatch(
                f"{params.variant} PSN built for T={params.t_train}, got T={t}")
        h = lanes @ w.T

        def grad_x(g):
            return g @ w

        def grad_w(g):
            gw = g.T @ lanes
            return _zero_outside_band(gw, params.k) if params.variant == "masked" else gw

    return nm._op("psn_membrane", h.reshape(b, c, t),
                  (x, lambda g: grad_x(g.reshape(n, t)).reshape(b, c, t)),
                  (params.weight, lambda g: grad_w(g.reshape(n, t))))


# ---------------------------------------------------------------------------
# the shared interface


class Neuron:
    """One neuron kind behind the interface every caller uses.

    * ``init_state``/``step`` -- serial inference: one (B, C) input frame in,
      (spikes, membrane, new state) out, with state that does not grow in t;
    * ``advance`` -- the same inference for a (B, C, T) block: (spikes, new
      state) equal to folding ``step`` from the given state, bit for bit, so
      blocks of any length may follow each other or single steps;
    * ``trace`` -- (S, H) arrays over (B, C, T) input with serial semantics,
      for the property checkers: ``advance`` from ``init_state``, membranes
      kept.  Both run ``_advance``, and both raise StepUnavailable for a
      kind without a serial mode (full and masked PSN);
    * ``forward`` -- taped spikes over (B, C, T) input, the training path:
      for a kind that can step, its ``_advance`` fold plus a reverse-time
      backward, so its spikes are ``trace``'s;
    * ``sequence`` -- the offline map of a whole sequence: ``forward`` where
      ``supports_parallel``, otherwise ParallelUnavailable (the DSN's
      ``forward`` keeps nothing for a backward on untaped input);
    * ``weights``/``with_weights`` -- the named trainable tensors, and the
      same neuron (hyperparameters unchanged) over given tensors, taped or
      not, so a training loop can leaf them onto its tape;
    * ``long_control_bound``/``short_control_lanes`` -- the kind-specific
      parts of the control checkers in ``props``: the claimed membrane
      bound, and the input lanes the short-control search runs through
      ``trace``.

    Folding ``step`` and calling ``sequence`` give bit-identical spikes
    wherever both exist.
    """

    name = "neuron"
    supports_step = True
    supports_parallel = True
    n_max = 1  # largest spike count one step can emit
    channels: int | None = None  # the input width it is built for; None: any
    t_train: int | None = None  # the one length it accepts; None: any

    def init_state(self, batch: int, channels: int):
        raise NotImplementedError

    def step(self, state, x_t: np.ndarray):
        """(spike, membrane, new_state) for one input frame (B, C)."""
        raise NotImplementedError

    def state_size(self, state) -> int:
        """Bytes of per-lane state; must not grow with t for online updatability."""
        return state.nbytes

    def long_control_bound(self, c_bound: float) -> float | None:
        """Claimed membrane bound under inputs |x| <= c_bound; None where the
        membrane is expected to diverge."""
        raise ValueError(f"long control undefined for {self.name}")

    def short_control_lanes(self, delta: int, trials: int,
                            rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """(x, lead): (lanes, C, lead + delta) inputs for the short-control
        search.  The first ``lead`` frames drive H to v_th or above, and the
        last ``delta`` frames are each below v_th/delta.  A one-frame lead-in
        forces H from rest, so every lane must reach v_th; a longer one
        searches, and only the lanes that reach it count as trials."""
        raise ValueError(f"short control undefined for {self.name}")

    def weights(self) -> dict[str, Tensor]:
        return {}

    def with_weights(self, weights: dict[str, Tensor]) -> "Neuron":
        return self

    def forward(self, x) -> Tensor:
        """Taped spikes for (B, C, T) input."""
        raise NotImplementedError

    def sequence(self, x) -> Tensor:
        """Offline-parallel spikes for (B, C, T) input."""
        if not self.supports_parallel:
            raise ParallelUnavailable(f"{self.name}: no parallel path registered")
        return self.forward(x)

    def trace(self, x: np.ndarray):
        """(S, H) over a (B, C, T) input: ``_advance`` from ``init_state``."""
        if x.ndim != 3:
            raise ShapeMismatch(f"expected (B, C, T) input, got shape {x.shape}")
        s, h, _ = self._advance(self.init_state(x.shape[0], x.shape[1]), x, True)
        return s.transpose(1, 2, 0), h.transpose(1, 2, 0)

    def advance(self, state, x: np.ndarray):
        """(spikes, new_state) for a (B, C, T) block from ``state``: the fold
        of ``step`` from that state, so a stream may be cut into blocks of
        any length, interleaved with ``step``.  The spikes are a (B, C, T)
        view of time-major memory, and the state passed in is not modified.
        """
        s, _, state = self._advance(state, x, False)
        return s.transpose(1, 2, 0), state

    def _advance(self, state, x: np.ndarray, membranes: bool):
        """(spikes, membranes or None, final state) over a (B, C, T) block
        from ``state``, spikes and membranes time-major (T, B, C): the one
        multi-frame serial path, behind ``trace`` and ``advance``, equal to
        the fold of ``step`` bit for bit.  Every kind that can step defines
        it."""
        raise NotImplementedError


class LifNeuron(Neuron):
    """Classical stepper; ``sequence`` only in the reset-free linear case.

    ``step`` is the single-step definition; ``_advance``, behind ``trace``
    and ``advance``, runs the block kernel ``_lif_fold``, which equals the
    fold of ``step`` bit for bit.  ``forward``, the taped training pass, runs
    that kernel forward and BPTT (``_lif_bptt``) backward, and ``sequence``
    is ``forward`` for the variants without reset (``supports_parallel``).
    """

    def __init__(self, cfg: NeuronConfig, sg: SurrogateKind = Rectangular()):
        self.cfg = cfg
        self.sg = sg
        self.name = f"{cfg.leak}-{cfg.reset_mode}"
        self.supports_parallel = cfg.reset_mode == NONE
        self.v_th = cfg.v_th

    def init_state(self, batch: int, channels: int) -> np.ndarray:
        return np.zeros((batch, channels))

    def step(self, state, x_t):
        """Charge, fire, reset: (spike, pre-reset membrane H, membrane V)."""
        x = np.asarray(x_t, dtype=float)
        if x.shape != state.shape:
            raise ShapeMismatch(f"x_t {x.shape} vs state {state.shape}")
        cfg = self.cfg
        h = state + x if cfg.leak == "if" else cfg.beta * state + (1.0 - cfg.beta) * x
        s = heaviside(h - cfg.v_th)
        if cfg.reset_mode == HARD:
            return s, h, h * (1.0 - s) + cfg.v_reset * s
        if cfg.reset_mode == SOFT:
            return s, h, h - cfg.v_th * s
        return s, h, h

    def _advance(self, state, x, membranes: bool):
        """``_lif_fold`` over the block's time-major frames from the (B, C)
        membrane state, with this neuron's config (timed against the step
        fold in ``BENCH_lif_fold.json``, ``BENCH_lif_narrow.json`` and
        ``BENCH_lif_blocks.json``)."""
        h, s, v = _lif_fold(_block_frames(x, state.shape), state, self.cfg)
        return s, h if membranes else None, v

    def forward(self, x) -> Tensor:
        """Taped spikes over (B, C, T) input, recorded as ``lif_sequence``.

        The forward is ``trace``; the backward is BPTT (:func:`_lif_bptt`)
        over the time-major memory the kernel wrote, with dL/dS viewed the
        same way, so neither direction makes a transposed copy.
        """
        x = nm._as_tensor(x)
        s, h = self.trace(x.data)
        cfg, sg = self.cfg, self.sg

        def grad(g):
            return _lif_bptt(cfg, sg, s.transpose(2, 0, 1), h.transpose(2, 0, 1),
                             g.transpose(2, 0, 1)).transpose(1, 2, 0)

        return nm._op("lif_sequence", s, (x, grad))

    def long_control_bound(self, c_bound: float) -> float | None:
        # leak alone bounds the convex update, and hard reset can pin
        # v_reset; a pure accumulator is bounded (at C + v_th) by hard reset
        cfg = self.cfg
        if cfg.reset_mode == HARD:
            return max(c_bound, cfg.v_reset) if cfg.leak == "lif" else c_bound + cfg.v_th
        return c_bound if cfg.leak == "lif" else None

    def short_control_lanes(self, delta: int, trials: int,
                            rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """One forcing frame that puts H at a target in [v_th, 10 v_th], then
        the window: boundary cases, soft-reset killers, then random lanes."""
        cfg = self.cfg
        v_th, beta = cfg.v_th, cfg.beta
        cap = (v_th / delta) * (1.0 - 1e-6)
        targets = [v_th, 10.0 * v_th]
        smalls = [np.full(delta, cap), np.full(delta, cap)]
        # adversarial lane from the soft-reset analysis of a pure accumulator
        targets.append((delta + 1) * v_th - delta * cap + 0.1 * v_th)
        smalls.append(np.full(delta, cap))
        # adversarial lane for leaky soft reset: the recursion bound
        # sum_{i=0..delta} beta^-i * v_th (with zero window inputs)
        if cfg.leak == "lif" and beta > 0.0:
            bound = v_th * float(np.sum(beta ** -np.arange(delta + 1)))
            targets.append(bound + 0.1 * v_th)
            smalls.append(np.zeros(delta))
        n_rand = max(0, trials - len(targets))
        targets.extend(rng.uniform(v_th, 10.0 * v_th, size=n_rand))
        smalls.extend(rng.uniform(0.0, cap, size=(n_rand, delta)))
        targets, smalls = np.asarray(targets), np.asarray(smalls)
        x1 = targets
        if cfg.leak == "lif":
            x1 = targets / (1.0 - beta)
            # rounding in (1-beta)*x1 can land one ulp under the boundary target
            for _ in range(3):
                low = (1.0 - beta) * x1 < targets
                if not np.any(low):
                    break
                x1 = np.where(low, np.nextafter(x1, np.inf), x1)
        return np.concatenate([x1[:, None], smalls], axis=1)[:, None, :], 1


class DsnNeuron(Neuron):
    """Dynamic-decay neuron: one time-major fold for inference and training.

    ``step`` and ``_advance`` (the sub-block fold ``_dsn_fold``) are serial
    inference, whose H recurrence runs over time blocks where the decays
    forget a start soon enough.  ``forward`` tapes that fold where the
    input or a weight is taped (``_dsn_taped``: ``dsn_membrane``, then
    ``clip_round``, with the time-major backward ``_dsn_bptt``) and runs
    ``advance`` from ``init_state`` elsewhere, with the same spikes either
    way; ``sequence`` is ``forward``.
    """

    def __init__(self, params: DsnParams):
        self.params = params
        self.channels = params.channels
        self.name = "dsn"
        self.v_th = 1.0  # integer firing threshold between counts

    @property
    def n_max(self) -> int:
        return self.params.n_max

    def init_state(self, batch: int, channels: int) -> DsnState:
        if channels != self.params.channels:
            raise ShapeMismatch(
                f"neuron built for {self.params.channels} channels, got {channels}")
        return DsnState.zeros(batch, channels, self.params.kernel_size)

    def step(self, state: DsnState, x_t):
        """Serial inference step: advance the window, decay, fire.

        Returns the integer spikes, H and the new state; the state passed in
        is never modified, and a non-finite frame raises NonFiniteError.

        Tap order: the window is shifted oldest first, and the pre-activation
        is the sum over taps j = 0 (oldest) .. k-1 (current) of
        kernel[:, j] * x_{t-k+1+j}, added in that order, then the bias,
        then the channel mix in channel order, as the sub-block fold adds
        them (``_dsn_pre``, ``_ordered_sum``: one reduce up to 32,768
        terms, k B C, or B C^2 for the mix).  Decay and fire are the fold's
        own kernels (``numerics.decay_chain``, ``fire_counts``), so spikes
        and decays equal ``sequence`` bit for bit (timed in
        ``BENCH_step_sums.json``).  A finite frame whose pre-activation
        overflows only warns here (RuntimeWarning), where ``_advance``
        raises NonFiniteError.
        """
        x = np.asarray(x_t, dtype=float)
        if x.shape != state.h.shape:
            raise ShapeMismatch(f"x_t {x.shape} vs state {state.h.shape}")
        window = np.concatenate((state.window, x[None]))
        x = window[-1]  # contiguous
        _finite_input(x)
        alpha = nm.decay_chain(_dsn_pre(self.params, window), 1.0 / self.params.tau)[2]
        h = np.multiply(alpha, state.h)
        np.subtract(_ONE, alpha, out=alpha)
        np.multiply(alpha, x, out=alpha)
        np.add(h, alpha, out=h)
        s = nm.fire_counts(h, self.params._step_operands[2])[1]
        return s, h, DsnState(h=h, window=window[1:])

    def _advance(self, state: DsnState, x, membranes: bool):
        """``step`` folded over a (B, C, T) block, a sub-block at a time
        (``_dsn_fold``), so spikes, membranes and state equal the step
        fold's bit for bit at any block length.  The returned state owns
        its memory (timed in ``BENCH_advance.json`` and
        ``BENCH_dsn_blocks.json``).
        """
        frames = _block_frames(x, state.h.shape)
        h_out = np.empty(frames.shape) if membranes else None
        s, h, _ = _dsn_fold(self.params, state, frames, h_out)
        window = _last_frames(state.window, frames, self.params.kernel_size - 1)
        return s, h_out, DsnState(h=h.copy(), window=window)

    def weights(self) -> dict[str, Tensor]:
        p = self.params
        named = {"kernel": p.conv_kernel, "bias": p.conv_bias, "mix": p.channel_mix}
        return {name: w for name, w in named.items() if w is not None}

    def with_weights(self, weights: dict[str, Tensor]) -> "DsnNeuron":
        return DsnNeuron(replace(self.params, conv_kernel=weights["kernel"],
                                 conv_bias=weights.get("bias"),
                                 channel_mix=weights.get("mix")))

    def forward(self, x) -> Tensor:
        """Spikes over (B, C, T) input: with the input or a weight taped,
        the taped pass (``_dsn_taped``); otherwise the (B, C, T) view of
        the time-major spikes of ``advance`` from ``init_state``, with
        nothing kept for a backward."""
        if nm._shared_tape(x, *self.weights().values())[0] is not None:
            return _dsn_taped(self.params, x)[0]
        data = np.asarray(x.data if isinstance(x, Tensor) else x)
        if data.ndim != 3:
            raise ShapeMismatch(f"expected (B, {self.channels}, T) input, "
                                f"got shape {data.shape}")
        s, _ = self.advance(self.init_state(data.shape[0], data.shape[1]), data)
        return Tensor._attach(s, None, None)

    def state_size(self, state: DsnState) -> int:
        return state.h.nbytes + state.window.nbytes

    def long_control_bound(self, c_bound: float) -> float:
        # from H = 0, each step mixes H convexly with an input in [-C, C]
        return max(0.0, c_bound)

    def short_control_lanes(self, delta: int, trials: int,
                            rng: np.random.Generator) -> tuple[np.ndarray, int]:
        """ceil(trials / C) rows of 3 standard-normal lead-in frames, a burst
        in [v_th, 50 v_th] and the window, so ``trials`` counts lanes."""
        shape = (-(-trials // self.channels), self.channels)
        cap = (self.v_th / delta) * (1.0 - 1e-6)
        lead_in = rng.normal(size=shape + (3,))
        burst = rng.uniform(self.v_th, 50.0 * self.v_th, size=shape + (1,))
        window = rng.uniform(0.0, cap, size=shape + (delta,))
        return np.concatenate([lead_in, burst, window], axis=-1), 4


class PsnNeuron(Neuron):
    """Full, masked or sliding PSN behind the shared interface."""

    def __init__(self, params: PsnParams, v_th: float = 1.0,
                 sg: SurrogateKind = Rectangular()):
        self.params = params
        self.v_th = v_th
        self.sg = sg
        self.name = {"full": "psn", "masked": "masked-psn",
                     "sliding": "sliding-psn"}[params.variant]
        self.supports_step = params.variant == "sliding"
        self.t_train = params.t_train

    def _require_step(self) -> None:
        if not self.supports_step:
            raise StepUnavailable(
                f"{self.name}: weights are coupled to absolute timesteps")

    def init_state(self, batch: int, channels: int) -> np.ndarray:
        self._require_step()
        k = self.params.weight.shape[0]
        return np.zeros((k, batch, channels))

    def step(self, state, x_t):
        """Shift the window, take its weighted sum, fire.

        The state is the last k inputs, tap-major (k, B, C) and oldest
        first; it is not modified.  A non-finite frame raises
        NonFiniteError.

        Tap order: the membrane is the sum over taps j = 0 (oldest) .. k-1
        (current) of weight[k-1-j] * x_{t-k+1+j}, added in that order from
        +0.0 (``_ordered_sum``, a reduce up to 1024 lanes of 32 taps), the
        order of the depthwise taps that ``sequence`` runs, and it fires on
        H >= v_th, as heaviside(H - v_th) does (``_lif_fold``), so membranes
        and spikes equal it bit for bit (timed in ``BENCH_step_sums.json``).
        """
        x = np.asarray(x_t, dtype=float)
        if x.shape != state.shape[1:]:
            raise ShapeMismatch(f"x_t {x.shape} vs state {state.shape[1:]}")
        _finite_input(x)
        window = np.concatenate((state[1:], x[None]))
        h = self._window_sum(window)
        return (h >= self.v_th).astype(float), h, window

    def _advance(self, state, x, membranes: bool):
        """``step`` folded over a (B, C, T) block: the window sums of a
        whole sub-block of time-major frames at once (``_sub_blocks``), in
        the step's tap order, so spikes, membranes and state equal the step
        fold's bit for bit at any block length.  The returned state owns its
        memory; full and masked PSN raise StepUnavailable."""
        self._require_step()
        frames = _block_frames(x, state.shape[1:])
        s = np.empty(frames.shape)
        h_out = np.empty(frames.shape) if membranes else None
        for t, taps in _sub_blocks(state[1:], frames):
            h = self._window_sum(taps)
            if membranes:
                h_out[t:t + len(h)] = h
            s[t:t + len(h)] = heaviside(h - self.v_th)
        return s, h_out, _last_frames(state, frames, state.shape[0])

    def _window_sum(self, window: np.ndarray) -> np.ndarray:
        """Membranes from a tap-major (k, ..., B, C) window of inputs, oldest
        first, summed as the depthwise taps of ``psn_membrane`` sum them."""
        taps = self.params.weight.data[::-1, None, None]  # lag order -> window order
        return _ordered_sum(window, taps, window.shape[1:], from_zero=True)

    def weights(self) -> dict[str, Tensor]:
        return {"weight": self.params.weight}

    def with_weights(self, weights: dict[str, Tensor]) -> "PsnNeuron":
        return PsnNeuron(replace(self.params, weight=weights["weight"]),
                         self.v_th, self.sg)

    def forward(self, x) -> Tensor:
        return psn_forward(self.params, x, self.v_th, self.sg)


# ---------------------------------------------------------------------------
# the registry: the one place that maps a kind name to a model


def make_neuron(kind: str, channels: int = 1, t_train: int | None = None,
                k: int | None = None, seed: int | np.random.Generator = 0,
                sg: SurrogateKind = Rectangular()) -> Neuron:
    """Build a neuron by registry name with its default weights.

    ``lif`` is short for ``lif-hard``.  k is the PSN weight window (default
    32, at most t_train); the DSN kernel has 4 taps drawn from ``seed``,
    which may be a Generator that a caller keeps drawing from.  sg is the
    surrogate of the binary-spike neurons.
    """
    kind = kind.lower()
    classical = {
        "lif": NeuronConfig.lif(2.0, HARD),
        "lif-hard": NeuronConfig.lif(2.0, HARD),
        "lif-soft": NeuronConfig.lif(2.0, SOFT),
        "lif-none": NeuronConfig.lif(2.0, NONE),
        "if-hard": NeuronConfig.integrate_fire(HARD),
        "if-soft": NeuronConfig.integrate_fire(SOFT),
        "if-none": NeuronConfig.integrate_fire(NONE),
    }
    if kind in classical:
        return LifNeuron(classical[kind], sg)
    if kind == "dsn":
        return DsnNeuron(DsnParams.init(channels, seed=seed))
    if kind == "sliding-psn":
        return PsnNeuron(PsnParams.init_decay("sliding", k=k or 32), sg=sg)
    if kind in ("psn", "masked-psn"):
        if not t_train:
            raise ValueError(f"{kind} needs t_train")
        variant = "full" if kind == "psn" else "masked"
        return PsnNeuron(PsnParams.init_decay(variant, t_train=t_train,
                                              k=k or min(32, t_train)), sg=sg)
    raise ValueError(f"unknown neuron kind {kind!r}")


NEURON_KINDS = ("lif-hard", "lif-soft", "lif-none", "if-hard", "if-soft",
                "if-none", "psn", "masked-psn", "sliding-psn", "dsn")
