"""Spiking neuron models with dual serial/parallel execution.

Every kind sits behind one interface, :class:`Neuron`: ``step`` for serial
inference with bounded state, ``trace`` for serial (S, H) trajectories,
``forward`` for taped training over a whole (B, C, T) sequence,
``sequence`` for the offline parallel map, and ``weights``/``with_weights``
for the trainable tensors.  :func:`make_neuron` is the one place that maps
a kind name to a model; the CLI (bench included) and the tasks all build
through it.  Folding ``step`` over time and calling ``sequence`` produce
the same spikes wherever both exist.

Models:

* ``LifNeuron`` -- leaky (or non-leaky) integrate-and-fire with hard, soft
  or no reset.  Trains through the taped :func:`lif_sequence` (serial
  forward, reverse-time BPTT backward); only the no-reset variant, a linear
  recurrence, has a parallel path, through the scan.
* ``DsnNeuron`` -- reset-free neuron whose decay is produced per step from
  the last k inputs by a depthwise causal convolution and a sharpened
  sigmoid; fires integer spikes clip(round(H), 0, N).  Parallel via the
  scan, serial via an O(C*k) window of the last k-1 inputs.
* ``PsnNeuron`` -- the learnable time-by-time weight family: full (dense,
  non-causal), masked (banded lower-triangular) and sliding (k shared
  weights).  Full/masked are locked to their training length and raise
  LengthMismatch elsewhere; sliding accepts any length and can step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import (LengthMismatch, NonFiniteError, ParallelUnavailable, ShapeMismatch,
                     StepUnavailable)
from .numerics import SurrogateKind, Rectangular, Tensor, heaviside, surrogate_grad
from .scan import linear_scan, scan

HARD, SOFT, NONE = "hard", "soft", "none"
_RESETS = (HARD, SOFT, NONE)


# ---------------------------------------------------------------------------
# classical integrate-and-fire


@dataclass(frozen=True)
class NeuronConfig:
    """Parameters of a classical neuron.

    beta is the decay factor 1 - 1/tau_m and is ignored for the pure
    accumulator (leak='if').
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
        if self.v_th <= 0:
            raise ValueError("v_th must be positive")
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


def _charge(cfg: NeuronConfig, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    if cfg.leak == "if":
        return v + x
    return cfg.beta * v + (1.0 - cfg.beta) * x


def _reset(cfg: NeuronConfig, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    if cfg.reset_mode == HARD:
        return h * (1.0 - s) + cfg.v_reset * s
    if cfg.reset_mode == SOFT:
        return h - cfg.v_th * s
    return h


def lif_trace(cfg: NeuronConfig, x: np.ndarray):
    """Raw-array fold over time returning (S, H, V) arrays of shape (B, C, T).

    Arithmetic is expression-for-expression identical to ``LifNeuron.step``,
    so the two agree bit-exactly.
    """
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    s_out = np.empty_like(x)
    h_out = np.empty_like(x)
    v_out = np.empty_like(x)
    v = np.zeros(x.shape[:2], dtype=x.dtype)
    for t in range(x.shape[-1]):
        h = _charge(cfg, v, x[..., t])
        s = heaviside(h - cfg.v_th)
        v = _reset(cfg, h, s)
        s_out[..., t], h_out[..., t], v_out[..., t] = s, h, v
    return s_out, h_out, v_out


def lif_sequence(cfg: NeuronConfig, x,
                 sg: SurrogateKind = Rectangular()) -> tuple[Tensor, Tensor, Tensor]:
    """Charge-fire-reset over the time axis of (B, C, T) input as one taped op.

    Returns (spikes, pre-reset trace H, post-reset trace V).  The forward is
    :func:`lif_trace`; the spikes are taped when x is, and their backward is
    BPTT in reverse over the saved H and S (:func:`_lif_bptt`).  The traces
    are plain arrays for the control-property checkers.
    """
    x = nm._as_tensor(x)
    s, h, v = lif_trace(cfg, x.data)
    tape, node = x.tape, x._node

    def backward(g):
        tape._accumulate(node, _lif_bptt(cfg, sg, s, h, g), own=True)

    spikes = nm._result(s, "lif_sequence", tape, (node,), backward if tape else None)
    return spikes, Tensor(h), Tensor(v)


def _lif_bptt(cfg: NeuronConfig, sg: SurrogateKind, s: np.ndarray, h: np.ndarray,
              g: np.ndarray) -> np.ndarray:
    """dL/dx from dL/dS, with the surrogate standing in for dS/dH.

    dL/dH_t = g_t sg'_t + dL/dV_t dV_t/dH_t, where dV/dH is
    (1 - s) + (v_reset - h) sg' for hard reset, 1 - v_th sg' for soft reset
    and 1 without reset; dL/dV_{t-1} and dL/dx_t are dL/dH_t scaled by
    beta and 1 - beta (both 1 for the pure accumulator).
    """
    sgp = surrogate_grad(sg, h - cfg.v_th)
    if cfg.reset_mode == HARD:
        dv_dh = (1.0 - s) + (cfg.v_reset - h) * sgp
    elif cfg.reset_mode == SOFT:
        dv_dh = 1.0 - cfg.v_th * sgp
    else:
        dv_dh = np.ones_like(h)
    leak, gain = (1.0, 1.0) if cfg.leak == "if" else (cfg.beta, 1.0 - cfg.beta)
    direct = g * sgp
    gx = np.empty_like(h)
    dv = np.zeros(h.shape[:2], dtype=h.dtype)
    for t in range(h.shape[-1] - 1, -1, -1):
        dh = direct[..., t] + dv * dv_dh[..., t]
        gx[..., t] = dh * gain
        dv = dh * leak
    return gx


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
        columns, oldest tap first; -bias as (1, C), or 0.0; and n_max.

        The step sums the negated pre-activation, which is exact (negation
        commutes with every rounding), so its sigmoid needs no negation of
        its own.
        """
        bias = _ZERO if self.conv_bias is None else -self.conv_bias.data[None, :]
        return (-self.conv_kernel.data.T[:, None, :], bias,
                _constant(float(self.n_max)))

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

    def state_dict(self) -> dict[str, np.ndarray]:
        d = {"conv_kernel": self.conv_kernel.data,
             "tau": np.array([self.tau]), "n_max": np.array([float(self.n_max)])}
        if self.conv_bias is not None:
            d["conv_bias"] = self.conv_bias.data
        if self.channel_mix is not None:
            d["channel_mix"] = self.channel_mix.data
        return d

    @classmethod
    def from_state_dict(cls, d: dict[str, np.ndarray]) -> "DsnParams":
        return cls(conv_kernel=Tensor(d["conv_kernel"]),
                   conv_bias=Tensor(d["conv_bias"]) if "conv_bias" in d else None,
                   channel_mix=Tensor(d["channel_mix"]) if "channel_mix" in d else None,
                   tau=float(d["tau"][0]), n_max=int(d["n_max"][0]))


@dataclass(slots=True)
class DsnState:
    """Streaming state: membrane potential (B, C) and the last k-1 inputs.

    window is (B, C, k-1), oldest first.  ``dsn_step`` returns it as a view
    of tap-major (k-1, B, C) memory, so the next step shifts it in one
    contiguous copy; any layout is accepted.
    """

    h: np.ndarray
    window: np.ndarray

    @classmethod
    def zeros(cls, batch: int, channels: int, kernel_size: int) -> "DsnState":
        return cls(h=np.zeros((batch, channels)),
                   window=np.zeros((kernel_size - 1, batch, channels)).transpose(1, 2, 0))


def _constant(value: float) -> np.ndarray:
    c = np.array(value)
    c.flags.writeable = False
    return c


# Scalar operands of the serial steps as read-only 0-d float64 arrays: a
# ufunc converts a Python float operand on every call, which costs about a
# third of a call at 16 lanes (0.9 against 1.3 us, 2-core Xeon).
_ZERO, _HALF, _ONE, _EXP_CAP = (_constant(v) for v in (0.0, 0.5, 1.0, 500.0))
_UNIT_LO, _UNIT_HI = _constant(nm.UNIT_OPEN_LO), _constant(nm.UNIT_OPEN_HI)


def _finite_input(x: np.ndarray) -> None:
    if np.count_nonzero(np.isfinite(x)) != x.size:
        raise NonFiniteError("non-finite input")


# Lanes (B*C) from which a serial step forms an ordered sum as a loop of
# row-wise multiply-adds instead of one multiply and one accumulate.  The
# accumulate walks its terms lane by lane, so its cost grows with lanes x
# terms; the loop costs two ufunc calls per term.  Measured per ``step`` on
# a 2-core Xeon, float64, one BLAS thread, median of 5 folds, accumulate
# against loop, in us:
#
# * dsn (k=4): 16 lanes 19 vs 35, 64 lanes 18 vs 20, 256 lanes 35 vs 41,
#   512 lanes 54 vs 50, 1024 lanes 65 vs 61;
# * sliding-psn (k=32): 16 lanes 16 vs 83, 64 lanes 18 vs 57, 256 lanes 54
#   vs 82, 512 lanes 124 vs 85, 1024 lanes 228 vs 120.
STEP_LOOP_LANES = 512


def _ordered_sum(a: np.ndarray, b: np.ndarray, shape: tuple) -> np.ndarray:
    """sum over j of a[j] * b[j], a (B, C)-shaped sum added in the order
    j = 0, 1, ... of the leading axis.

    That is the order in which ``depthwise_causal_conv`` adds its taps
    (oldest first) into each output element and in which the taped
    ``channel_mix`` adds its channels, so every partial sum rounds as it
    does there and a step reproduces ``sequence`` bit for bit.  Those ops
    start from +0.0; this sum starts from the first term, which changes
    only the sign of a sum whose every term is -0.0 (adding +0.0 to the
    result undoes that).  Below ``STEP_LOOP_LANES`` lanes the sum is one
    multiply and one in-place ``np.add.accumulate`` down the leading axis;
    from there on it is a loop of row-wise multiply-adds.
    """
    if shape[0] * shape[1] < STEP_LOOP_LANES:
        terms = np.multiply(a, b)
        np.add.accumulate(terms, axis=0, out=terms)
        return terms[-1]
    acc, term = np.multiply(a[0], b[0]), np.empty(shape)
    for j in range(1, a.shape[0]):
        np.multiply(a[j], b[j], out=term)
        np.add(acc, term, out=acc)
    return acc


def _dsn_decay(params: DsnParams, window: np.ndarray) -> np.ndarray:
    """Decays (B, C) from a tap-major (k, B, C) window, oldest first.

    This is the arithmetic of ``dsn_alpha_sequence`` at one step, run in
    place on the negated pre-activation (``DsnParams._step_operands``):
    unit_interval_clamp(sigmoid(pre) ** (1/tau)).  The taped sigmoid takes
    exp(-clip(pre, -500, 500)); here the exponent is min(-pre, 500), which
    differs only where pre > 500, and there both exponentials are below
    1e-217, so 1 + exp rounds to 1.0 either way.  The clamp is
    np.maximum/np.minimum, which agree with np.clip on a power (never -0.0).
    """
    shape = window.shape[1:]
    taps, bias, _ = params._step_operands
    npre = _ordered_sum(window, taps, shape)
    np.add(npre, bias, out=npre)
    if params.channel_mix is not None:
        npre = _ordered_sum(params.channel_mix.data.T[:, None, :], npre.T[:, :, None],
                            shape)
    np.minimum(npre, _EXP_CAP, out=npre)
    np.exp(npre, out=npre)
    np.add(npre, _ONE, out=npre)
    np.divide(_ONE, npre, out=npre)
    npre **= 1.0 / params.tau
    np.maximum(npre, _UNIT_LO, out=npre)
    return np.minimum(npre, _UNIT_HI, out=npre)


def dsn_dynamic_decay(params: DsnParams, x_window) -> Tensor:
    """Decay for one step from the last k inputs (oldest first, current last).

    Windows at the start of a sequence are zero-left-padded.  The result is
    strictly inside (0, 1).
    """
    x_window = nm._as_tensor(x_window)
    k = params.kernel_size
    if x_window.ndim != 3 or x_window.shape[1:] != (params.channels, k):
        raise ShapeMismatch(f"window must be (B, {params.channels}, {k})")
    return Tensor(_dsn_decay(params, x_window.data.transpose(2, 0, 1)))


def dsn_step(params: DsnParams, state: DsnState, x_t) -> tuple[np.ndarray, DsnState]:
    """Serial inference step: advance the window, decay, fire.

    Returns the integer spike array (B, C) and the new state; the state
    passed in is never modified, and a non-finite frame raises
    NonFiniteError.

    Tap order: the window is shifted oldest first, and the pre-activation
    is the sum over taps j = 0 (oldest) .. k-1 (current) of
    kernel[:, j] * x_{t-k+1+j}, added in that order (``_ordered_sum``), then
    the bias, then the channel mix in channel order.  That is the order in
    which ``depthwise_causal_conv`` and ``channel_mix`` add, so spikes,
    membranes and decays equal ``dsn_serial_trace``, and spikes and decays
    equal ``sequence``, bit for bit.  The decay chain runs in place.

    Measured per ``Neuron.step`` call on a 2-core Xeon, float64, one BLAS
    thread, kinds interleaved, median of 11 runs (``BENCH_serial_step.json``),
    at 1x16 and 4x256 lanes:

    * lif-hard: 11.6 and 20 us;
    * dsn (k=4): 28 and 70 us, from 58 and 108 us with a Python loop over
      taps, a Tensor-wrapped window and np.clip; 2.4x lif-hard at 1x16;
    * sliding-psn (k=32): 17 and 133 us, from 106 and 193 us with a Python
      loop over taps; 1.5x lif-hard at 1x16.
    """
    x = x_t.data if isinstance(x_t, Tensor) else np.asarray(x_t, dtype=state.h.dtype)
    if x.shape != state.h.shape:
        raise ShapeMismatch(f"x_t {x.shape} vs state {state.h.shape}")
    window = np.concatenate((state.window.transpose(2, 0, 1), x[None]))
    x = window[-1]  # contiguous
    _finite_input(x)
    alpha = _dsn_decay(params, window)
    h = np.multiply(alpha, state.h)
    np.subtract(_ONE, alpha, out=alpha)
    np.multiply(alpha, x, out=alpha)
    np.add(h, alpha, out=h)
    # clip(round_half_away(h), 0, n_max) as clip_round takes it: h + 0.5
    # away from zero, truncated, is round_half_away(h); negative counts
    # become +0.0 and a -0.0 stays, as np.clip leaves it
    s = np.copysign(_HALF, h)
    np.add(s, h, out=s)
    np.trunc(s, out=s)
    np.minimum(s, params._step_operands[2], out=s)
    s[s < _ZERO] = 0.0
    return s, DsnState(h=h, window=window[1:].transpose(1, 2, 0))


def dsn_alpha_sequence(params: DsnParams, x) -> Tensor:
    """All decays for a (B, C, T) sequence via the batched causal conv."""
    pre = nm.depthwise_causal_conv(x, params.conv_kernel, params.conv_bias)
    if params.channel_mix is not None:
        pre = nm.channel_mix(params.channel_mix, pre)
    return nm.unit_interval_clamp(nm.power(nm.sigmoid(pre), 1.0 / params.tau))


def dsn_forward_parallel(params: DsnParams, x) -> tuple[Tensor, Tensor, Tensor]:
    """Whole-sequence forward: conv -> sharpened sigmoid -> scan -> integer fire.

    Returns (S, H, alpha), gradient-tracked end to end when x or the
    parameters are taped.
    """
    x = nm._as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    alpha = dsn_alpha_sequence(params, x)
    h = scan(alpha, x)
    s = nm.clip_round(h, params.n_max)
    return s, h, alpha


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
                bad = ~_band_mask(w.shape[0], self.k)
                if np.any(w.data[bad] != 0.0):
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
        masked = weight.data * _band_mask(weight.shape[0], k)
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
        # beta^lag only on the causal part: negative lags would overflow
        lag = np.arange(t_train)[:, None] - np.arange(t_train)[None, :]
        w = np.power(beta, lag, out=np.zeros((t_train, t_train)), where=lag >= 0)
        w *= 1.0 - beta
        if variant == "masked":
            return cls.masked(w, k or t_train)
        return cls.full(w)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight.data}


def _band_mask(t: int, k: int) -> np.ndarray:
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    return (j <= i) & (j > i - k)


def psn_forward(params: PsnParams, x, v_th: float = 1.0,
                sg: SurrogateKind = Rectangular()) -> Tensor:
    """Spikes of a PSN-family neuron on (B, C, T) input.

    Full/masked variants demand T == t_train; the LengthMismatch they raise
    elsewhere is the executable form of their timestep-coupled parameters.
    """
    return nm.spike_threshold(_psn_membrane(params, x), v_th, sg)


def _psn_membrane(params: PsnParams, x) -> Tensor:
    x = nm._as_tensor(x)
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    b, c, t = x.shape
    if params.variant == "sliding":
        # weights are indexed by lag (0 = current); conv kernels put the
        # current step last, so reverse
        kernel = nm.tile_channels(nm.reverse_last(params.weight), c)
        return nm.depthwise_causal_conv(x, kernel)
    if t != params.t_train:
        raise LengthMismatch(
            f"{params.variant} PSN built for T={params.t_train}, got T={t}")
    weight = params.weight
    if params.variant == "masked":
        # taped band mask: entries outside the band get no gradient
        weight = nm.mul(weight, Tensor(_band_mask(t, params.k)))
    flat = nm.reshape(x, (b * c, t))
    h2 = nm.matmul(flat, nm.transpose(weight, (1, 0)))
    return nm.reshape(h2, (b, c, t))


# ---------------------------------------------------------------------------
# the shared interface


class Neuron:
    """One neuron kind behind the interface every caller uses.

    * ``init_state``/``step`` -- serial inference: one (B, C) input frame in,
      (spikes, membrane, new state) out, with state that does not grow in t;
    * ``trace`` -- (S, H) arrays over (B, C, T) input with serial semantics,
      for the property checkers; by default the fold of ``step``;
    * ``forward`` -- taped spikes over (B, C, T) input, the training path;
    * ``sequence`` -- the offline parallel map: ``forward`` where
      ``supports_parallel``, otherwise ParallelUnavailable;
    * ``weights``/``with_weights`` -- the named trainable tensors, and the
      same neuron (hyperparameters unchanged) over given tensors, taped or
      not, so a training loop can leaf them onto its tape.

    Folding ``step`` and calling ``sequence`` give bit-identical spikes
    wherever both exist.
    """

    name = "neuron"
    supports_step = True
    supports_parallel = True
    n_max = 1  # largest spike count one step can emit
    channels: int | None = None  # the input width it is built for; None: any

    def init_state(self, batch: int, channels: int):
        raise NotImplementedError

    def step(self, state, x_t: np.ndarray):
        """(spike, membrane, new_state) for one input frame (B, C)."""
        raise NotImplementedError

    def state_size(self, state) -> int:
        """Bytes of per-lane state; must not grow with t for online updatability."""
        return state.nbytes

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
        """(S, H) arrays over a (B, C, T) input: the fold of ``step``."""
        return self._fold(x, membranes=True)

    def serial_fold(self, x: np.ndarray) -> np.ndarray:
        """Spikes from folding ``step`` over time; the membranes are not kept."""
        return self._fold(x, membranes=False)[0]

    def _fold(self, x: np.ndarray, membranes: bool):
        _finite_input(x)
        frames = np.ascontiguousarray(x.transpose(2, 0, 1))  # (T, B, C)
        state = self.init_state(x.shape[0], x.shape[1])
        s_out = np.empty_like(frames)
        h_out = np.empty_like(frames) if membranes else None
        for t in range(frames.shape[0]):
            s_out[t], h, state = self.step(state, frames[t])
            if membranes:
                h_out[t] = h
        s_out = s_out.transpose(1, 2, 0)
        return (s_out, h_out.transpose(1, 2, 0)) if membranes else (s_out, None)


class LifNeuron(Neuron):
    """Classical stepper; trains through the taped :func:`lif_sequence`, and
    is parallel only in the reset-free linear case."""

    def __init__(self, cfg: NeuronConfig, sg: SurrogateKind = Rectangular()):
        self.cfg = cfg
        self.sg = sg
        self.name = f"{cfg.leak}-{cfg.reset_mode}"
        self.supports_parallel = cfg.reset_mode == NONE
        self.v_th = cfg.v_th

    def init_state(self, batch: int, channels: int) -> np.ndarray:
        return np.zeros((batch, channels))

    def step(self, state, x_t):
        h = _charge(self.cfg, state, np.asarray(x_t))
        s = heaviside(h - self.cfg.v_th)
        return s, h, _reset(self.cfg, h, s)

    def forward(self, x) -> Tensor:
        return lif_sequence(self.cfg, x, self.sg)[0]

    def sequence(self, x) -> Tensor:
        if not self.supports_parallel:
            raise ParallelUnavailable(
                f"{self.name}: reset couples steps; no parallel path registered")
        x = nm._as_tensor(x)
        cfg = self.cfg
        zeros = np.zeros(x.shape[:2], dtype=x.data.dtype)
        if cfg.leak == "if":
            a, b = np.ones_like(x.data), x.data
        else:
            a, b = np.full_like(x.data, cfg.beta), (1.0 - cfg.beta) * x.data
        h = linear_scan(a, b, zeros)
        return nm.spike_threshold(Tensor(h), cfg.v_th, self.sg)

    def trace(self, x: np.ndarray):
        _finite_input(x)
        s, h, _ = lif_trace(self.cfg, x)
        return s, h


class DsnNeuron(Neuron):
    """Dynamic-decay neuron: scan-parallel training, windowed serial inference."""

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
        s, new_state = dsn_step(self.params, state, x_t)
        return s, new_state.h, new_state

    def weights(self) -> dict[str, Tensor]:
        p = self.params
        named = {"kernel": p.conv_kernel, "bias": p.conv_bias, "mix": p.channel_mix}
        return {name: w for name, w in named.items() if w is not None}

    def with_weights(self, weights: dict[str, Tensor]) -> "DsnNeuron":
        return DsnNeuron(replace(self.params, conv_kernel=weights["kernel"],
                                 conv_bias=weights.get("bias"),
                                 channel_mix=weights.get("mix")))

    def forward(self, x) -> Tensor:
        return dsn_forward_parallel(self.params, x)[0]

    def state_size(self, state: DsnState) -> int:
        return state.h.nbytes + state.window.nbytes


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

    def init_state(self, batch: int, channels: int) -> np.ndarray:
        if not self.supports_step:
            raise StepUnavailable(
                f"{self.name}: weights are coupled to absolute timesteps")
        k = self.params.weight.shape[0]
        return np.zeros((k, batch, channels))

    def step(self, state, x_t):
        """Shift the window, take its weighted sum, fire.

        The state is the last k inputs, tap-major (k, B, C) and oldest
        first; it is not modified.  A non-finite frame raises
        NonFiniteError.

        Tap order: the membrane is the sum over taps j = 0 (oldest) .. k-1
        (current) of weight[k-1-j] * x_{t-k+1+j}, added in that order from
        +0.0 (``_ordered_sum``), the order of the depthwise conv that
        ``sequence`` runs, so membranes and spikes equal it bit for bit.

        Measured as for ``dsn_step`` (k=32): 17 us at 1x16 and 133 us at
        4x256 lanes, from 106 and 193 us with a Python loop over taps,
        against 11.6 and 20 us for lif-hard.
        """
        x = np.asarray(x_t, dtype=float)
        _finite_input(x)
        window = np.empty_like(state)
        window[:-1] = state[1:]
        window[-1] = x
        taps = self.params.weight.data[::-1, None, None]  # lag order -> window order
        h = _ordered_sum(window, taps, x.shape)
        np.add(h, _ZERO, out=h)  # the conv's sum starts at +0.0
        s = heaviside(h - self.v_th)
        return s, h, window

    def weights(self) -> dict[str, Tensor]:
        return {"weight": self.params.weight}

    def with_weights(self, weights: dict[str, Tensor]) -> "PsnNeuron":
        return PsnNeuron(replace(self.params, weight=weights["weight"]),
                         self.v_th, self.sg)

    def forward(self, x) -> Tensor:
        return psn_forward(self.params, x, self.v_th, self.sg)

    def trace(self, x: np.ndarray):
        _finite_input(x)
        h = _psn_membrane(self.params, x).data
        return heaviside(h - self.v_th), h


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
