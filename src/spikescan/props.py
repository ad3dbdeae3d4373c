"""Executable checkers for the membrane-control properties.

Two control notions are checked on live neurons:

* short control: once the membrane reaches the threshold, a window of
  delta sub-threshold inputs (each below v_th/delta) must bring it back
  under threshold by the end of the window;
* long control: inputs bounded by C must keep the membrane bounded for all
  time (with a model-specific bound), or provably diverge when the model
  lacks the property.

Each check has one body for every kind and runs the live neuron through
its public API; the kind-specific parts are the ``Neuron`` methods
``short_control_lanes`` (adversarial plus random lanes) and
``long_control_bound``.  Failing verdicts carry a witness whose replay
through the public neuron API reproduces the violation exactly; the
checkers replay before returning.

``check_conditions_table`` probes the structural requirements for parallel
training with serial inference -- prefix summarizability, online
updatability, offline parallelizability -- and reproduces the published
feature matrix for the implemented neurons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (LengthMismatch, ParallelUnavailable, ReplayMismatch,
                     StepUnavailable)
from .neurons import Neuron
from .numerics import Tape, Tensor

DEFAULT_TRIALS = 10_000
DIVERGENCE_STEPS = 100_000
# a run is declared divergent once H exceeds this multiple of max(v_th, C);
# it is reached quickly under any super-threshold constant drive
DIVERGENCE_FACTOR = 1e4
# frames per block of the divergence run's block path
DIVERGENCE_BLOCK = 1024


@dataclass
class Witness:
    """A concrete violating run: inputs, observed membrane trace, first bad step."""

    inputs: np.ndarray
    trace: np.ndarray
    violated_t: int
    note: str = ""
    channel: int | None = None  # the violating channel of a multi-channel lane

    def to_dict(self) -> dict:
        d = {"inputs": self.inputs.tolist(),
             "trace": self.trace.tolist(),
             "violated_t": int(self.violated_t),
             "note": self.note}
        if self.channel is not None:
            d["channel"] = self.channel
        return d


@dataclass
class ControlVerdict:
    neuron: str
    prop: str
    holds: bool
    trials: int
    witness: Witness | None = None
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"neuron": self.neuron, "property": self.prop,
                "holds": self.holds, "trials": self.trials,
                "witness": self.witness.to_dict() if self.witness else None,
                "detail": self.detail}


# ---------------------------------------------------------------------------
# short control


def check_short_control(neuron: Neuron, delta: int,
                        trials: int = DEFAULT_TRIALS,
                        rng_seed: int = 0) -> ControlVerdict:
    """Search for a window of sub-threshold inputs that fails to tame a
    super-threshold membrane within delta steps.

    The lanes come from ``neuron.short_control_lanes`` and run through
    ``neuron.trace``; a lane whose H reached v_th by the end of its lead-in
    is a trial, and a trial still at or above v_th at the last step is a
    violation (ties count).  A one-frame lead-in that misses v_th raises
    ReplayMismatch, as does a witness whose replay disagrees.
    """
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    x, lead = neuron.short_control_lanes(delta, trials, rng)
    v_th = neuron.v_th
    _, h = neuron.trace(x)
    reached = h[..., lead - 1] >= v_th
    if lead == 1 and not np.all(reached):
        raise ReplayMismatch(f"{neuron.name}: forcing step failed to reach threshold")
    bad = np.argwhere(reached & (h[..., -1] >= v_th))
    verdict = ControlVerdict(neuron=neuron.name, prop="short-control",
                             holds=bad.size == 0, trials=int(np.count_nonzero(reached)),
                             detail={"delta": delta, "v_th": v_th})
    if bad.size:
        last = np.arange(x.shape[-1]) == x.shape[-1] - 1
        verdict.witness = _replay_witness(
            neuron, "short-control", x[bad[0][0]],
            lambda h: last & (h >= v_th) & (h[:, lead - 1:lead] >= v_th),
            lambda h: f"H after the {delta}-step window is {h[-1]:.6g} >= v_th={v_th}")
    return verdict


def _replay_witness(neuron: Neuron, prop: str, lane: np.ndarray, violated,
                    note) -> Witness:
    """The witness of one (C, T) input lane, replayed through ``trace``.

    ``violated(h)`` marks the frames of the replayed (C, T) membranes that
    break ``prop``.  The witness is the first channel with a marked frame,
    at its first marked frame, described by ``note(h_c)``; a multi-channel
    witness keeps the lane's inputs and names its channel.  A replay
    without a violation raises ReplayMismatch.
    """
    _, h = neuron.trace(lane[None])
    over = violated(h[0])
    if not np.any(over):
        raise ReplayMismatch(f"{neuron.name}: {prop} witness failed to replay")
    ch = int(np.argmax(over.any(axis=1)))
    t, trace = int(np.argmax(over[ch])), h[0, ch]
    if lane.shape[0] == 1:
        return Witness(inputs=lane[0], trace=trace, violated_t=t, note=note(trace))
    return Witness(inputs=lane, trace=trace, violated_t=t,
                   note=f"channel {ch}: {note(trace)}", channel=ch)


# ---------------------------------------------------------------------------
# long control


def check_long_control(neuron: Neuron, c_bound: float, T: int = 128,
                       trials: int = DEFAULT_TRIALS, rng_seed: int = 0,
                       divergence_factor: float = DIVERGENCE_FACTOR,
                       max_steps: int = DIVERGENCE_STEPS) -> ControlVerdict:
    """Bounded inputs in, bounded membrane out -- or a diverging witness.

    Random |x| <= c_bound sequences plus the adversarial constant x = c_bound
    are checked against the model's claimed bound
    (``Neuron.long_control_bound``).  Models without a bound
    (soft-reset accumulators, reset-free neurons) are driven by the constant
    input until the membrane passes divergence_factor * max(v_th, c_bound).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    bound = neuron.long_control_bound(c_bound)
    v_th = neuron.v_th
    if bound is None:
        return _check_divergence(neuron, c_bound, divergence_factor, max_steps)

    tol = 1e-9 * max(1.0, abs(bound))
    channels = neuron.channels or 1
    done = 0
    first_witness = None
    # the adversarial constant rides along as lane 0 of the first chunk
    while done < trials:
        lanes = min(2048, trials - done)
        x = rng.uniform(-c_bound, c_bound, size=(lanes, channels, T))
        if done == 0:
            x[0] = c_bound
        _, h = neuron.trace(x)
        over = h > bound + tol
        if np.any(over):
            lane = int(np.argmax(over.any(axis=(1, 2))))
            first_witness = _replay_witness(
                neuron, "long-control", x[lane], lambda h: h > bound + tol,
                lambda _: f"H exceeded claimed bound {bound}")
            done += lanes
            break
        done += lanes
    return ControlVerdict(neuron=neuron.name, prop="long-control",
                          holds=first_witness is None, trials=done,
                          witness=first_witness,
                          detail={"c_bound": c_bound, "claimed_bound": bound,
                                  "v_th": v_th, "T": T})


def _check_divergence(neuron: Neuron, c_bound: float, divergence_factor: float,
                      max_steps: int) -> ControlVerdict:
    """Drive channel 0 with constant c_bound until H passes the bar or
    max_steps frames have run, ``DIVERGENCE_BLOCK`` frames at a time through
    the neuron's block path (``Neuron._advance``), which equals stepping it
    frame by frame.  The run stops at the first crossing, inside its block;
    the witness keeps the last 256 membranes up to and including it."""
    channels = neuron.channels or 1
    bar = divergence_factor * max(neuron.v_th, c_bound)
    state = neuron.init_state(1, channels)
    drive = np.full((1, channels, max(0, min(DIVERGENCE_BLOCK, max_steps))), c_bound)
    keep = 256  # witness keeps only the trailing membrane values
    tail = np.empty(0)
    crossed = None
    steps = 0
    while steps < max_steps and crossed is None:
        _, h, state = neuron._advance(state, drive[..., :max_steps - steps], True)
        h = h[:, 0, 0]  # time-major
        over = np.flatnonzero(h > bar)
        if over.size:
            crossed = steps + int(over[0])
            h = h[:over[0] + 1]
        tail = np.concatenate((tail, h))[-keep:]
        steps += h.size
    holds = crossed is None
    witness = None
    if not holds:
        witness = Witness(inputs=np.array([c_bound]), trace=tail,
                          violated_t=crossed,
                          note=f"H passed {bar:.3g} after {steps} steps of "
                               f"constant input {c_bound} (trace holds the "
                               f"last {tail.size} values)")
    return ControlVerdict(neuron=neuron.name, prop="long-control",
                          holds=holds, trials=1, witness=witness,
                          detail={"c_bound": c_bound, "claimed_bound": None,
                                  "divergence_bar": bar, "steps": steps})


# ---------------------------------------------------------------------------
# structural conditions for parallel training with serial inference


def _sequence_or_none(neuron: Neuron, x: Tensor):
    try:
        return neuron.sequence(x).data
    except (LengthMismatch, ParallelUnavailable):
        return None


def _eval_spikes(neuron: Neuron, x: np.ndarray):
    """Spikes in the neuron's primary evaluation mode, or None if the length
    is rejected."""
    if neuron.supports_parallel:
        return _sequence_or_none(neuron, Tensor(x))
    try:
        s, _ = neuron.trace(x)
        return s
    except LengthMismatch:
        return None


def check_conditions_table(neuron: Neuron, rng_seed: int = 0) -> dict[str, bool]:
    """Probe the three structural conditions on a live neuron.

    condition1: spikes on a prefix match spikes on the prefix extended by an
    arbitrary suffix (and the neuron accepts both lengths at all);
    condition2: a step mode exists whose per-step state does not grow with t
    and whose fold matches ``trace``, the block path (``Neuron._advance``);
    condition3: an offline sequence evaluation exists and (when a step mode
    exists too) its spikes match ``trace``'s.  Its input is a leaf of a
    throwaway tape, so ``sequence`` runs the taped op (``forward``, the
    training pass) at any width, not the untaped ``advance``, and the
    condition compares that op's spikes with ``trace``.
    """
    rng = np.random.default_rng(rng_seed)
    t_full = neuron.t_train or 32
    channels = neuron.channels or 3
    x = rng.normal(size=(2, channels, t_full)) * 2.0
    prefix = t_full // 2

    s_pref = _eval_spikes(neuron, x[..., :prefix])
    s_full = _eval_spikes(neuron, x)
    condition1 = (s_pref is not None and s_full is not None
                  and np.array_equal(s_full[..., :prefix], s_pref))

    condition2 = False
    if neuron.supports_step:
        try:
            state = neuron.init_state(2, channels)
            sizes = set()
            fold = np.empty((2, channels, t_full))
            for t in range(t_full):
                s, _, state = neuron.step(state, x[..., t])
                fold[..., t] = s
                sizes.add(neuron.state_size(state))
            s_trace, _ = neuron.trace(x)
            condition2 = len(sizes) == 1 and np.array_equal(fold, s_trace)
        except (StepUnavailable, LengthMismatch):
            condition2 = False

    condition3 = False
    if neuron.supports_parallel:
        s_par = _sequence_or_none(neuron, Tape().leaf(x))
        if s_par is not None:
            if neuron.supports_step:
                condition3 = np.array_equal(s_par, neuron.trace(x)[0])
            else:
                condition3 = True

    return {"condition1": condition1, "condition2": condition2,
            "condition3": condition3}


# the published feature matrix for the neurons implemented here
EXPECTED_CONDITIONS: dict[str, dict[str, bool]] = {
    "lif-hard": {"condition1": True, "condition2": True, "condition3": False},
    "lif-soft": {"condition1": True, "condition2": True, "condition3": False},
    "psn": {"condition1": False, "condition2": False, "condition3": True},
    "masked-psn": {"condition1": False, "condition2": False, "condition3": True},
    "sliding-psn": {"condition1": True, "condition2": True, "condition3": True},
    "dsn": {"condition1": True, "condition2": True, "condition3": True},
}

# which way each control property is expected to come out, per neuron
EXPECTED_CONTROL: dict[str, dict[str, bool]] = {
    "if-hard": {"short-control": True, "long-control": True},
    "if-soft": {"short-control": False, "long-control": False},
    "lif-hard": {"short-control": True, "long-control": True},
    "lif-soft": {"short-control": False, "long-control": True},
    "if-none": {"long-control": False},
    "lif-none": {"long-control": True},
    # measured on the untrained default neuron the CLI builds (3 channels,
    # seed 0), whose channel 2 keeps firing through the window: in a DSN,
    # short control is a property of trained decays, not of the kind
    "dsn": {"short-control": False, "long-control": True},
}
