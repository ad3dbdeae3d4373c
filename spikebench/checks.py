"""Correctness checks, written apart from the program.

The check round runs once per process, before the timed rounds, and each
check is one counted operation.  The oracles here are plain numpy loops
over the published recurrences; none of them calls the program code they
check.  The check round also records the references every timed sample is
compared with.
"""

from __future__ import annotations

import math
import sys
import traceback

import numpy as np

from phases import (DSN_CHECK_CHANNELS, ApproxPhase, CheckPhase, EvalPhase,
                    ExtrapolatePhase, InferStream, SetupPhase, TrainPhase,
                    property_suite, run_bench, spike_digest, suite_summary)
from workloads import Inputs, inputs_digest

V_TH = 1.0
EXTRAP_FACTOR = 2.0   # long-T loss must lie within this factor of the train-T loss
GRAD_TOL = 1e-6
SCAN_TOL = 1e-10
SERIAL_TOL = 1e-9

# the paper's feature matrix: (prefix summarizable, online updatable,
# offline parallelizable)
FEATURE_MATRIX = {
    "lif-hard": (True, True, False),
    "lif-soft": (True, True, False),
    "psn": (False, False, True),
    "masked-psn": (False, False, True),
    "sliding-psn": (True, True, True),
    "dsn": (True, True, True),
}


# The one failure expected today: check_short_control on a live DSN draws
# admissible decays instead of evaluating the neuron, so it reports short
# control held while the live search finds violating channels whose
# witnesses replay through ``step``.
KNOWN_DSN_FAULT = "props._check_short_control_dsn never evaluates the neuron"


def excused(op: dict) -> bool:
    """A failed operation that fails for the known program fault alone."""
    return (not op["ok"] and isinstance(op["detail"], dict)
            and op["detail"].get("known_fault") == KNOWN_DSN_FAULT)


class Ledger:
    """Named pass/fail operations; an exception inside a check fails it."""

    def __init__(self):
        self.ops: list[dict] = []

    def run(self, name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        self.ops.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"check {name} failed: {detail}", file=sys.stderr)


# ---------------------------------------------------------------------------
# oracles


def plain_lif_hard(x: np.ndarray, beta: float = 0.5) -> np.ndarray:
    """Hard-reset LIF spikes, tau_m = 2 (beta = 0.5), v_th = 1, v_reset = 0."""
    s_out = np.empty_like(x)
    v = np.zeros(x.shape[:2], dtype=x.dtype)
    for t in range(x.shape[-1]):
        h = beta * v + (1.0 - beta) * x[..., t]
        s = (h >= V_TH).astype(x.dtype)
        v = np.where(s > 0, 0.0, h)
        s_out[..., t] = s
    return s_out


def dsn_alpha(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, tau: float):
    """alpha_t = sigmoid(sum_j kernel[:, j] x_{t-k+1+j} + bias)^(1/tau), in (0, 1)."""
    k = kernel.shape[1]
    pre = np.zeros_like(x)
    for j in range(k):
        lag = k - 1 - j
        if lag:
            pre[..., lag:] += kernel[None, :, j, None] * x[..., :-lag]
        else:
            pre += kernel[None, :, j, None] * x
    pre += bias[None, :, None]
    sig = 1.0 / (1.0 + np.exp(-np.clip(pre, -500.0, 500.0)))
    return np.clip(sig ** (1.0 / tau), 1e-300, np.nextafter(1.0, 0.0))


def dsn_membrane(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """H_t = alpha_t H_{t-1} + (1 - alpha_t) x_t from H_{-1} = 0."""
    h = np.zeros(x.shape[:2])
    out = np.empty_like(x)
    for t in range(x.shape[-1]):
        h = alpha[..., t] * h + (1.0 - alpha[..., t]) * x[..., t]
        out[..., t] = h
    return out


def live_short_control_search(neuron, lanes: int = 1024, delta: int = 4):
    """Channels of a DSN neuron whose membrane stays at or above threshold
    through ``delta`` sub-threshold inputs after reaching it.

    Lanes: 3 random lead-in steps, a burst in [1, 50], then ``delta`` inputs
    below v_th/delta, drawn from a fixed seed.  Returns the violating
    channels and, for each, the input of its first violating lane.
    """
    channels = neuron.params.channels
    rng = np.random.default_rng(0)
    lead = rng.normal(size=(lanes, channels, 3))
    burst = rng.uniform(1.0, 50.0, size=(lanes, channels, 1))
    small = rng.uniform(0.0, V_TH / delta, size=(lanes, channels, delta))
    x = np.concatenate([lead, burst, small], axis=-1)
    _, h = neuron.trace(x)
    bad = (h[..., 3] >= V_TH) & (h[..., -1] >= V_TH)
    found = {}
    for lane, ch in zip(*np.nonzero(bad)):
        found.setdefault(int(ch), int(lane))
    chans = sorted(found)
    return chans, {c: x[found[c]] for c in chans}


def step_fold(neuron, x: np.ndarray):
    """(spikes, membranes) from folding ``neuron.step`` over time."""
    state = neuron.init_state(x.shape[0], x.shape[1])
    s_out, h_out = np.empty_like(x), np.empty_like(x)
    for t in range(x.shape[-1]):
        s, h, state = neuron.step(state, x[..., t])
        s_out[..., t], h_out[..., t] = s, h
    return s_out, h_out


# ---------------------------------------------------------------------------
# the check round


def count_backward_calls(fn):
    """Run fn and count ``Tape.backward`` calls it makes."""
    from spikescan import numerics

    orig = numerics.Tape.backward
    calls = [0]

    def counting(tape, *args, **kwargs):
        calls[0] += 1
        return orig(tape, *args, **kwargs)

    numerics.Tape.backward = counting
    try:
        result = fn()
    finally:
        numerics.Tape.backward = orig
    return result, calls[0]


def check_setup(ledger: Ledger, phase: SetupPhase, inputs: Inputs):
    """A fresh interpreter builds the same inputs from the seed."""
    def op():
        phase.reference = inputs_digest(inputs)
        _, digest = phase.probe()
        return digest == phase.reference, {"probe": digest, "here": phase.reference}
    ledger.run("setup.inputs_from_seed", op)


def check_train(ledger: Ledger, phase: TrainPhase, spikes_of):
    """bench.json's spike digest against a ``step`` fold over the same input."""
    def op():
        (code, _, digest), passes = count_backward_calls(
            lambda: run_bench(phase.kind, phase.length, phase.w, phase.seed,
                              phase.out_dir))
        phase.passes = passes
        phase.reference = spike_digest(spikes_of())
        ok = code == 0 and passes > 0 and digest == phase.reference
        return ok, {"exit": code, "passes": passes, "bench": digest,
                    "step_fold": phase.reference}
    ledger.run(f"train.digest.{phase.kind}", op)


def check_gradient(ledger: Ledger, inputs: Inputs):
    """Taped DSN gradient of sum(H * w) against central differences."""
    from spikescan import numerics as nm
    from spikescan.neurons import DsnParams, dsn_forward_parallel
    from spikescan.numerics import Tape, Tensor

    def op():
        params = inputs.neurons["dsn"].params
        x = np.ascontiguousarray(inputs.x[:1, :4, :64])
        kernel = params.conv_kernel.data[:4].copy()
        bias = params.conv_bias.data[:4].copy()
        w = inputs.grad_weights

        tape = Tape()
        xt, kt, bt = tape.leaf(x), tape.leaf(kernel), tape.leaf(bias)
        _, h, _ = dsn_forward_parallel(DsnParams(conv_kernel=kt, conv_bias=bt), xt)
        tape.backward(nm.sum_all(nm.mul(h, Tensor(w))))
        gx, gk = tape.grad(xt), tape.grad(kt)

        def loss(xv, kv):
            _, hv, _ = dsn_forward_parallel(
                DsnParams(conv_kernel=Tensor(kv), conv_bias=Tensor(bias)), xv)
            return float(np.sum(hv.data * w))

        eps = 1e-6
        worst = 0.0
        for coord in inputs.grad_coords:
            hi, lo = x.copy(), x.copy()
            hi[coord] += eps
            lo[coord] -= eps
            fd = (loss(hi, kernel) - loss(lo, kernel)) / (2 * eps)
            worst = max(worst, abs(fd - gx[coord]) / max(1.0, abs(fd)))
        for coord in ((0, 3), (3, 1)):
            hi, lo = kernel.copy(), kernel.copy()
            hi[coord] += eps
            lo[coord] -= eps
            fd = (loss(x, hi) - loss(x, lo)) / (2 * eps)
            worst = max(worst, abs(fd - gk[coord]) / max(1.0, abs(fd)))
        return worst < GRAD_TOL, {"max_rel_err": worst}
    ledger.run("train.gradcheck.dsn", op)


def check_eval(ledger: Ledger, phase: EvalPhase):
    from spikescan.neurons import dsn_forward_parallel

    def op():
        params = phase.neuron.params
        s, h, _ = dsn_forward_parallel(params, phase.x)
        alpha = dsn_alpha(phase.x, params.conv_kernel.data, params.conv_bias.data,
                          params.tau)
        err = float(np.max(np.abs(h.data - dsn_membrane(phase.x, alpha))))
        phase.reference = phase.neuron.sequence(phase.x).data
        ok = err <= SCAN_TOL and np.array_equal(phase.reference, s.data)
        return ok, {"max_abs_err": err}
    ledger.run("eval.scan_oracle.dsn", op)


def check_infer(ledger: Ledger, stream: InferStream, kind: str):
    """A whole stream of ``step`` against ``sequence`` (or the plain LIF loop)."""
    def op():
        if kind == "lif-hard":
            stream.reference = plain_lif_hard(stream.x)
        else:
            stream.reference = stream.neuron.sequence(stream.x).data
        stream.t, stream.state = 0, None
        stream.fold = stream.advance(stream.x.shape[-1])
        mismatched = int(np.count_nonzero(stream.fold != stream.reference))
        return mismatched == 0, {"mismatched": mismatched}
    ledger.run(f"infer.step_vs_sequence.{kind}", op)


def check_approx(ledger: Ledger, phase: ApproxPhase):
    state = {}

    def run():
        state["trained"] = phase.run()
        state["untrained"] = phase.run(epochs=0)
        phase.reference = phase.summary(state["trained"])
        return True, None

    ledger.run("approx.run", run)
    for i, mode in enumerate(("binary", "integer")):
        def op(i=i):
            trained = state["trained"][i]
            untrained = state["untrained"][i]
            losses = trained.epoch_losses
            ok = (losses[-1] < losses[0]
                  and trained.average_accuracy > untrained.average_accuracy)
            return ok, {"epoch_losses": losses,
                        "accuracy": trained.average_accuracy,
                        "untrained_accuracy": untrained.average_accuracy}
        ledger.run(f"approx.learns.{mode}", op)


def check_extrapolate(ledger: Ledger, phase: ExtrapolatePhase, inputs: Inputs):
    from spikescan.numerics import Tensor
    from spikescan.tasks import extrapolate

    e = phase.w.extrapolate
    state = {}

    def run():
        models = []
        base = extrapolate._SequenceModel

        class Recording(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        extrapolate._SequenceModel = Recording
        try:
            res = phase.run()
        finally:
            extrapolate._SequenceModel = base
        state["res"], state["model"] = res, models[-1]
        phase.reference = (res.train_losses, res.eval_losses)
        return True, None

    ledger.run("extrapolate.run", run)

    def serial_matches_parallel():
        model = state["model"]
        serial = model.eval_serial(inputs.extrap_x)
        parallel = model.loss(Tensor(inputs.extrap_x)).item()
        return abs(serial - parallel) <= SERIAL_TOL, {"serial": serial,
                                                     "parallel": parallel}

    def long_bounded():
        losses = state["res"].eval_losses
        short, long_ = losses[e["train_T"]], losses[e["long_T"]]
        ok = (math.isfinite(long_) and short > 0
              and 1 / EXTRAP_FACTOR <= long_ / short <= EXTRAP_FACTOR)
        return ok, {"train_T_loss": short, "long_T_loss": long_}

    ledger.run("extrapolate.serial_vs_parallel", serial_matches_parallel)
    ledger.run("extrapolate.long_T_bounded", long_bounded)


def _replays_short(neuron, witness) -> bool:
    _, h = neuron.trace(np.asarray(witness.inputs, dtype=float)[None, None, :])
    return bool(h[0, 0, -1] >= V_TH and np.array_equal(h[0, 0], witness.trace))


def _replays_divergence(neuron, verdict) -> bool:
    steps, c = verdict.detail["steps"], verdict.detail["c_bound"]
    state = neuron.init_state(1, 1)
    trace = np.empty(steps)
    for t in range(steps):
        _, h, state = neuron.step(state, np.full((1, 1), c))
        trace[t] = h[0, 0]
    tail = verdict.witness.trace
    return bool(trace[-1] > verdict.detail["divergence_bar"]
                and np.array_equal(trace[-tail.size:], tail))


def check_properties(ledger: Ledger, phase: CheckPhase):
    from spikescan import make_neuron

    state = {}

    def run():
        state["v"] = property_suite(phase.w, phase.seed)
        phase.reference = suite_summary(state["v"])
        return True, None

    ledger.run("check.run", run)
    v = state.get("v", {})

    def short_fails():
        verdict = v["short.if-soft"]
        ok = (not verdict.holds and verdict.witness is not None
              and _replays_short(make_neuron("if-soft"), verdict.witness))
        return ok, {"holds": verdict.holds}

    def holds(name):
        return lambda: (v[name].holds, {"holds": v[name].holds,
                                        "trials": v[name].trials})

    def diverges():
        verdict = v["long.if-soft"]
        ok = (not verdict.holds and verdict.witness is not None
              and _replays_divergence(make_neuron("if-soft"), verdict))
        return ok, {"holds": verdict.holds, "steps": verdict.detail.get("steps")}

    ledger.run("check.short_control.if-soft.fails", short_fails)
    ledger.run("check.short_control.lif-hard.holds", holds("short.lif-hard"))
    ledger.run("check.long_control.if-soft.diverges", diverges)
    for kind in ("lif-hard", "lif-soft", "lif-none", "dsn"):
        ledger.run(f"check.long_control.{kind}.bounded", holds(f"long.{kind}"))
    for kind, expected in FEATURE_MATRIX.items():
        def table(kind=kind, expected=expected):
            got = v[f"conditions.{kind}"]
            row = (got["condition1"], got["condition2"], got["condition3"])
            return row == expected, {"got": row, "paper": expected}
        ledger.run(f"check.conditions.{kind}", table)

    def dsn_cross_check():
        # the checker's verdict against a live search on the same neuron
        neuron = make_neuron("dsn", channels=DSN_CHECK_CHANNELS, seed=0)
        verdict = v["short.dsn"]
        channels, lanes = live_short_control_search(neuron)
        for ch, x in lanes.items():
            _, h = step_fold(neuron, x[None])
            if not (h[0, ch, 3] >= V_TH and h[0, ch, -1] >= V_TH):
                return False, {"error": f"live witness for channel {ch} did not replay"}
        detail = {"checker_holds": verdict.holds, "live_violating_channels": channels}
        if verdict.holds and channels:
            detail["known_fault"] = KNOWN_DSN_FAULT
        return verdict.holds == (not channels), detail
    ledger.run("check.short_control.dsn.live", dsn_cross_check)


def check_round(inputs: Inputs, phases: dict) -> Ledger:
    ledger = Ledger()
    check_setup(ledger, phases["setup"], inputs)
    for kind in ("dsn", "sliding-psn", "lif-hard"):
        check_infer(ledger, phases[f"infer.{kind}"], kind)
    for kind in ("dsn", "sliding-psn"):
        check_train(ledger, phases[f"train.{kind}"],
                    lambda kind=kind: phases[f"infer.{kind}"].fold)
    check_train(ledger, phases["train.lif"],
                lambda: step_fold(inputs.neurons["lif-hard"], inputs.x_lif)[0])
    check_gradient(ledger, inputs)
    check_eval(ledger, phases["eval.dsn"])
    check_approx(ledger, phases["approx"])
    check_extrapolate(ledger, phases["extrapolate"], inputs)
    check_properties(ledger, phases["check"])
    return ledger
