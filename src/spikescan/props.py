"""Executable checkers for the membrane-control properties.

Two control notions are checked on live neurons:

* short control: once the membrane reaches the threshold, a window of
  delta sub-threshold inputs (each below v_th/delta) must bring it back
  under threshold by the end of the window;
* long control: inputs bounded by C must keep the membrane bounded for all
  time (with a model-specific bound), or provably diverge when the model
  lacks the property.

Each check combines deterministic adversarial lanes with randomized search.
Failing verdicts carry a witness whose replay through the public neuron API
reproduces the violation exactly; the checkers replay before returning.

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
from .neurons import DsnNeuron, LifNeuron, Neuron
from .numerics import Tensor

DEFAULT_TRIALS = 10_000
DIVERGENCE_STEPS = 100_000
# a run is declared divergent once H exceeds this multiple of max(v_th, C);
# it is reached quickly under any super-threshold constant drive
DIVERGENCE_FACTOR = 1e4


@dataclass
class Witness:
    """A concrete violating run: inputs, observed membrane trace, first bad step."""

    inputs: np.ndarray
    trace: np.ndarray
    violated_t: int
    alphas: np.ndarray | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {"inputs": self.inputs.tolist(),
             "trace": self.trace.tolist(),
             "violated_t": int(self.violated_t),
             "note": self.note}
        if self.alphas is not None:
            d["alphas"] = self.alphas.tolist()
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


def soft_reset_lemma_margin(delta: int, m: int) -> int:
    """Integer-exact sign witness for delta + m/delta - m >= 1.

    Returns delta^2 + m - m*delta - delta, which is >= 0 iff the inequality
    holds (delta > 0).
    """
    return delta * delta + m - m * delta - delta


def construct_soft_reset_counterexample(delta: int, v_th: float,
                                        small_inputs) -> np.ndarray:
    """Input sequence defeating short control of a soft-reset accumulator.

    A leading burst just above (delta+1)*v_th - sum(small_inputs) keeps an
    integrate-and-fire neuron with soft reset firing through the whole
    window, so the membrane is still at or above threshold at its end.
    """
    smalls = np.asarray(small_inputs, dtype=np.float64)
    if smalls.shape != (delta,):
        raise ValueError(f"need exactly {delta} small inputs")
    if np.any(smalls >= v_th / delta):
        raise ValueError("small inputs must each be below v_th/delta")
    burst = (delta + 1) * v_th - float(np.sum(smalls)) + 0.1 * v_th
    return np.concatenate([[burst], smalls])


def _forcing_input(neuron: LifNeuron, target: np.ndarray) -> np.ndarray:
    """First-step input driving the pre-reset membrane to the target value."""
    cfg = neuron.cfg
    if cfg.leak == "if":
        return target
    return target / (1.0 - cfg.beta)


def _short_control_lanes(neuron: LifNeuron, delta: int, trials: int,
                         rng: np.random.Generator, v_th: float):
    """(targets, smalls) stacked lanes: boundary cases, soft-reset killers,
    then randomized search."""
    eps = 1e-6
    cap = (v_th / delta) * (1.0 - eps)
    targets = [v_th, 10.0 * v_th]
    smalls = [np.full(delta, cap), np.full(delta, cap)]
    # adversarial lane from the soft-reset analysis of a pure accumulator
    targets.append((delta + 1) * v_th - delta * cap + 0.1 * v_th)
    smalls.append(np.full(delta, cap))
    # adversarial lane for leaky soft reset: the recursion bound
    # sum_{i=0..delta} beta^-i * v_th (with zero window inputs)
    beta = neuron.cfg.beta
    if neuron.cfg.leak == "lif" and beta > 0.0:
        bound = v_th * float(np.sum(beta ** -np.arange(delta + 1)))
        targets.append(bound + 0.1 * v_th)
        smalls.append(np.zeros(delta))
    n_rand = max(0, trials - len(targets))
    targets.extend(rng.uniform(v_th, 10.0 * v_th, size=n_rand))
    smalls.extend(rng.uniform(0.0, cap, size=(n_rand, delta)))
    return np.asarray(targets), np.asarray(smalls)


def check_short_control(neuron: Neuron, delta: int,
                        trials: int = DEFAULT_TRIALS,
                        rng_seed: int = 0) -> ControlVerdict:
    """Search for a window of sub-threshold inputs that fails to tame a
    super-threshold membrane within delta steps."""
    if delta < 1:
        raise ValueError("delta must be a positive integer")
    rng = np.random.default_rng(rng_seed)
    if isinstance(neuron, DsnNeuron):
        return _check_short_control_dsn(neuron, delta, trials, rng)
    if not isinstance(neuron, LifNeuron):
        raise ValueError(f"short control undefined for {neuron.name}")

    v_th = neuron.cfg.v_th
    targets, smalls = _short_control_lanes(neuron, delta, trials, rng, v_th)
    x1 = _forcing_input(neuron, targets)
    # rounding in (1-beta)*x1 can land one ulp under the boundary target
    if neuron.cfg.leak == "lif":
        for _ in range(3):
            low = (1.0 - neuron.cfg.beta) * x1 < targets
            if not np.any(low):
                break
            x1 = np.where(low, np.nextafter(x1, np.inf), x1)
    x = np.concatenate([x1[:, None], smalls], axis=1)[:, None, :]  # (lanes, 1, delta+1)
    _, h = neuron.trace(x)
    h = h[:, 0, :]
    if not np.all(h[:, 0] >= v_th):
        raise ReplayMismatch(f"{neuron.name}: forcing step failed to reach threshold")
    bad = np.flatnonzero(h[:, -1] >= v_th)  # ties count as violations
    verdict = ControlVerdict(neuron=neuron.name, prop="short-control",
                             holds=bad.size == 0, trials=len(targets),
                             detail={"delta": delta, "v_th": v_th})
    if bad.size:
        lane = int(bad[0])
        replay_x = x[lane:lane + 1]
        _, replay_h = neuron.trace(replay_x)
        if not replay_h[0, 0, -1] >= v_th:
            raise ReplayMismatch(f"{neuron.name}: short-control witness failed to replay")
        verdict.witness = Witness(
            inputs=replay_x[0, 0], trace=replay_h[0, 0], violated_t=delta,
            note=f"H after the {delta}-step window is "
                 f"{replay_h[0, 0, -1]:.6g} >= v_th={v_th}")
    return verdict


def _check_short_control_dsn(neuron: DsnNeuron, delta: int, trials: int,
                             rng: np.random.Generator) -> ControlVerdict:
    """Dynamic decay controls through its decay value: whenever the first
    window decay sits below the alpha-window threshold, the membrane is tamed
    in one step and convexity keeps it down.  The check drives the charge
    recurrence with admissible decay schedules directly."""
    v_th = neuron.v_th
    eps = 1e-6
    cap = (v_th / delta) * (1.0 - eps)
    h0s = np.concatenate([[v_th, 10.0 * v_th],
                          rng.uniform(v_th, 10.0 * v_th, size=max(0, trials - 2))])
    n = h0s.size
    xs = rng.uniform(0.0, cap, size=(n, delta))
    xs[0] = cap
    xs[1] = cap
    thresholds = alpha_window_condition(h0s, xs[:, 0], v_th)
    alphas = rng.uniform(0.0, 1.0, size=(n, delta))
    alphas[:, 0] = thresholds * rng.uniform(0.1, 1.0 - eps, size=n)
    alphas[1, 0] = thresholds[1] * (1.0 - eps)  # boundary: nearly at the window
    h = h0s.copy()
    trace = np.empty((n, delta))
    for i in range(delta):
        h = alphas[:, i] * h + (1.0 - alphas[:, i]) * xs[:, i]
        trace[:, i] = h
    bad = np.flatnonzero(h >= v_th)
    verdict = ControlVerdict(neuron=neuron.name, prop="short-control",
                             holds=bad.size == 0, trials=n,
                             detail={"delta": delta, "v_th": v_th,
                                     "protocol": "alpha-window schedule"})
    if bad.size:
        lane = int(bad[0])
        verdict.witness = Witness(inputs=xs[lane], trace=trace[lane],
                                  violated_t=delta, alphas=alphas[lane])
    return verdict


def alpha_window_condition(h_prev, x_t, v_th):
    """Decay threshold (v_th - x_t)/(h_prev - x_t) below which one dynamic
    decay step pulls the membrane under threshold.

    Requires h_prev > x_t; at h_prev = v_th the threshold is 1 (any valid
    decay works).
    """
    h_prev = np.asarray(h_prev, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    if np.any(h_prev <= x_t):
        raise ValueError("condition vacuous: h_prev must exceed x_t")
    out = (v_th - x_t) / (h_prev - x_t)
    return out if out.ndim else float(out)


def alpha_duration_schedule(h_start: float, inputs, v_th: float,
                            duration: int) -> np.ndarray:
    """Decay schedule keeping the membrane at or above threshold for exactly
    ``duration`` steps of the window, then dropping it below.

    Steps before the drop take the midpoint between the window threshold and
    1; the drop step takes half the threshold.  Afterwards any decay keeps
    the membrane down, so 0.5 is used.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    delta = inputs.size
    if not 1 <= duration <= delta:
        raise ValueError("duration must lie in [1, delta]")
    if h_start < v_th:
        raise ValueError("schedule needs a super-threshold start")
    alphas = np.empty(delta)
    h = float(h_start)
    for i in range(delta):
        if h > inputs[i]:
            thr = alpha_window_condition(h, inputs[i], v_th)
        else:
            thr = 1.0
        if i < duration - 1:
            a = (min(thr, 1.0) + 1.0) / 2.0
        elif i == duration - 1:
            a = thr / 2.0
        else:
            a = 0.5
        h = a * h + (1.0 - a) * inputs[i]
        alphas[i] = a
    return alphas


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
            lane = int(np.argwhere(over.any(axis=(1, 2)))[0][0])
            t_bad = int(np.argwhere(over[lane].any(axis=0))[0][0])
            replay_x = x[lane:lane + 1]
            _, replay_h = neuron.trace(replay_x)
            if not np.any(replay_h > bound + tol):
                raise ReplayMismatch(f"{neuron.name}: long-control witness failed to replay")
            first_witness = Witness(inputs=replay_x[0, 0], trace=replay_h[0, 0],
                                    violated_t=t_bad,
                                    note=f"H exceeded claimed bound {bound}")
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
    channels = neuron.channels or 1
    bar = divergence_factor * max(neuron.v_th, c_bound)
    state = neuron.init_state(1, channels)
    x_t = np.full((1, channels), c_bound)
    keep = 256  # witness keeps only the trailing membrane values
    tail = np.empty(keep)
    crossed = None
    steps = 0
    for t in range(max_steps):
        _, h, state = neuron.step(state, x_t)
        tail[t % keep] = h[0, 0]
        steps = t + 1
        if h[0, 0] > bar:
            crossed = t
            break
    holds = crossed is None
    witness = None
    if not holds:
        n = min(steps, keep)
        trace = tail[:n] if steps <= keep else np.roll(tail, -(steps % keep))[:n]
        witness = Witness(inputs=np.array([c_bound]), trace=trace,
                          violated_t=crossed,
                          note=f"H passed {bar:.3g} after {steps} steps of "
                               f"constant input {c_bound} (trace holds the "
                               f"last {n} values)")
    return ControlVerdict(neuron=neuron.name, prop="long-control",
                          holds=holds, trials=1, witness=witness,
                          detail={"c_bound": c_bound, "claimed_bound": None,
                                  "divergence_bar": bar, "steps": steps})


# ---------------------------------------------------------------------------
# structural conditions for parallel training with serial inference


def _sequence_or_none(neuron: Neuron, x: np.ndarray):
    try:
        return neuron.sequence(Tensor(x)).data
    except (LengthMismatch, ParallelUnavailable):
        return None


def _eval_spikes(neuron: Neuron, x: np.ndarray):
    """Spikes in the neuron's primary evaluation mode, or None if the length
    is rejected."""
    if neuron.supports_parallel:
        return _sequence_or_none(neuron, x)
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
    and whose fold matches the sequence trace; condition3: an offline
    sequence evaluation exists and (when a step mode exists too) matches the
    step fold.
    """
    rng = np.random.default_rng(rng_seed)
    t_lock = getattr(getattr(neuron, "params", None), "t_train", None)
    t_full = t_lock if t_lock else 32
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
        s_par = _sequence_or_none(neuron, x)
        if s_par is not None:
            if neuron.supports_step:
                condition3 = np.array_equal(s_par, neuron.serial_fold(x))
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
    "dsn": {"short-control": True, "long-control": True},
}
