"""Timed phases.  Each ``sample()`` does one fixed unit of work through the
program's user-facing entry point and returns (value, ok): a rate in
million lane-steps per second or a wall time in seconds, and whether the
outputs equal the references the check round recorded."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import Inputs, Workload


RUN_PY = Path(__file__).resolve().parent / "run.py"


class SetupPhase:
    """Set-up in a fresh interpreter: ``run.py --setup-probe`` imports the
    program and builds this run's inputs, then prints the seconds from its
    first line to ready inputs and the digest of the inputs it built."""

    name = "setup"
    metric = "setup_s"

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.reference = None  # digest of this process's inputs

    def probe(self):
        done = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", self.w.name,
             "--seed", str(self.seed), "--seconds", "0", "--setup-probe"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        seconds, digest = done.stdout.split()[-2:]
        return float(seconds), digest

    def sample(self):
        seconds, digest = self.probe()
        return seconds, digest == self.reference


def run_bench(kind: str, length: int, w: Workload, seed: int, out_dir: Path):
    """``spikescan bench`` for one neuron and length, run in this process.

    Returns (exit code, wall seconds, spike digest from bench.json).
    """
    from spikescan import cli

    args = ["bench", "--neurons", kind, "--lengths", str(length),
            "--batch", str(w.batch), "--channels", str(w.channels),
            "--reps", "1", "--seed", str(seed),
            "--out", str(out_dir)]
    code = 0
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            cli.cli.main(args, prog_name="spikescan", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - start
    bench = json.loads((out_dir / "bench.json").read_text())
    return code, wall, bench["digests"][kind][str(length)]


def spike_digest(spikes: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(spikes).tobytes()).hexdigest()


class TrainPhase:
    """Taped forward+backward passes through ``spikescan bench``.

    The rate counts every pass of the call (its warm-ups too) against the
    call's wall time; ``passes`` is counted once, in the check round.
    """

    def __init__(self, kind: str, length: int, w: Workload, seed: int, out_dir: Path):
        self.name = f"train.{kind}"
        self.metric = f"train_rate.{kind}"
        self.kind, self.length, self.w, self.seed = kind, length, w, seed
        self.out_dir = out_dir
        self.passes = None
        self.reference = None  # spike digest of the step fold

    def sample(self):
        code, wall, digest = run_bench(self.kind, self.length, self.w, self.seed,
                                       self.out_dir)
        steps = self.passes * self.w.batch * self.w.channels * self.length
        return steps / wall / 1e6, code == 0 and digest == self.reference


class EvalPhase:
    """Untaped whole-sequence ``DsnNeuron.sequence``."""

    name = "eval.dsn"
    metric = "eval_rate.dsn"

    def __init__(self, w: Workload, inputs: Inputs):
        self.w, self.x = w, inputs.x
        self.neuron = inputs.neurons["dsn"]
        self.reference = None

    def sample(self):
        start = time.perf_counter()
        for _ in range(self.w.eval_reps):
            s = self.neuron.sequence(self.x)
        wall = time.perf_counter() - start
        ok = np.array_equal(s.data, self.reference)
        return self.w.eval_reps * self.x.size / wall / 1e6, ok


# The host's speed for per-step Python loops swings by up to 1.8x for
# tens of seconds at a time, longer than a run.  Inference and property-check
# samples are such loops, so each is scaled by a reference loop of the same
# kind (REFERENCE_STEPS steps of a 16-lane leaky integrate-and-fire update)
# timed just before and just after it, to the host speed at which the
# reference takes REFERENCE_S.
REFERENCE_STEPS = 2000
REFERENCE_S = 0.0125


def reference_loop_s() -> float:
    v, x = np.zeros(16), np.linspace(-2.0, 2.0, 16)
    start = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        h = 0.5 * v + 0.5 * x
        s = (h >= 1.0).astype(float)
        v = h * (1.0 - s)
    return time.perf_counter() - start


def timed_at_reference_speed(fn):
    """(result, wall seconds, host slowdown against the reference speed)."""
    before = reference_loop_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = reference_loop_s()
    return result, wall, (before + after) / 2 / REFERENCE_S


class InferStream:
    """Streaming ``Neuron.step`` over the shared input, wrapping at its end.

    Each sample advances the stream by a fixed number of steps and compares
    the spikes with the reference sequence of the check round.  ``raw``
    keeps the rates before scaling to the reference speed.
    """

    def __init__(self, kind: str, w: Workload, inputs: Inputs):
        self.name = f"infer.{kind}"
        self.metric = "infer_rate." + ("lif" if kind == "lif-hard" else kind)
        self.neuron = inputs.neurons[kind]
        self.x = inputs.x
        self.steps = w.infer_steps[kind]
        self.reference = None
        self.t = 0
        self.state = None
        self.raw = []

    def advance(self, steps: int) -> np.ndarray:
        neuron, x = self.neuron, self.x
        b, c, length = x.shape
        out = np.empty((b, c, steps), dtype=x.dtype)
        state, t = self.state, self.t
        if state is None:
            state = neuron.init_state(b, c)
        for i in range(steps):
            s, _, state = neuron.step(state, x[..., t])
            out[..., i] = s
            t += 1
            if t == length:
                t, state = 0, neuron.init_state(b, c)
        self.state, self.t = state, t
        return out

    def _expected(self, start: int, steps: int) -> np.ndarray:
        idx = (start + np.arange(steps)) % self.x.shape[-1]
        return self.reference[..., idx]

    def sample(self):
        start_t = self.t
        out, wall, slowdown = timed_at_reference_speed(lambda: self.advance(self.steps))
        ok = np.array_equal(out, self._expected(start_t, self.steps))
        b, c, _ = self.x.shape
        rate = self.steps * b * c / wall / 1e6
        self.raw.append(rate)
        return rate * slowdown, ok


APPROX_EPOCHS = 3
DSN_CHECK_CHANNELS = 8


class ApproxPhase:
    """``run_approx_experiment`` in binary and integer mode: train plus test."""

    name = "approx"
    metric = "approx_s"

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.reference = None

    def run(self, epochs=None):
        from spikescan.tasks import TrainConfig
        from spikescan.tasks.approx import run_approx_experiment

        a = self.w.approx
        cfg = TrainConfig(epochs=APPROX_EPOCHS if epochs is None else epochs,
                          batch_size=a["batch_size"], seed=self.seed)
        return [run_approx_experiment("a", cfg=cfg, n_train=a["n_train"],
                                      n_test=a["n_test"], integer=integer, T=a["T"])
                for integer in (False, True)]

    @staticmethod
    def summary(results):
        return [(r.epoch_losses, r.average_accuracy) for r in results]

    def sample(self):
        start = time.perf_counter()
        results = self.run()
        wall = time.perf_counter() - start
        return wall, self.summary(results) == self.reference


class ExtrapolatePhase:
    """``run_extrapolation`` for DSN: train at a short T, serial eval at a long T."""

    name = "extrapolate"
    metric = "extrapolate_s"

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.reference = None

    def run(self):
        from spikescan.tasks import TrainConfig
        from spikescan.tasks.extrapolate import run_extrapolation

        e = self.w.extrapolate
        cfg = TrainConfig(lr=2e-3, epochs=e["epochs"], batch_size=e["batch_size"],
                          seed=self.seed)
        return run_extrapolation("dsn", train_T=e["train_T"],
                                 eval_Ts=(e["train_T"], e["long_T"]), cfg=cfg,
                                 n_train=e["n_train"], n_eval=e["n_eval"],
                                 channels=e["channels"])

    def sample(self):
        start = time.perf_counter()
        res = self.run()
        wall = time.perf_counter() - start
        return wall, (res.train_losses, res.eval_losses) == self.reference


def property_suite(w: Workload, seed: int) -> dict:
    """The property checks timed by ``check_s``; returns verdicts by name."""
    from spikescan import make_neuron
    from spikescan.props import (check_conditions_table, check_long_control,
                                 check_short_control)

    c = w.check
    out = {}
    for kind in ("if-soft", "lif-hard"):
        out[f"short.{kind}"] = check_short_control(
            make_neuron(kind), 4, trials=c["short_trials"], rng_seed=seed)
    out["short.dsn"] = check_short_control(
        make_neuron("dsn", channels=DSN_CHECK_CHANNELS, seed=0), 4)
    for kind in ("if-soft", "lif-hard", "lif-soft", "lif-none"):
        out[f"long.{kind}"] = check_long_control(
            make_neuron(kind), 2.0, T=c["long_T"], trials=c["long_trials"],
            rng_seed=seed)
    out["long.dsn"] = check_long_control(
        make_neuron("dsn", channels=DSN_CHECK_CHANNELS, seed=seed), 2.0,
        T=c["long_T"], trials=c["dsn_trials"], rng_seed=seed)
    for kind in ("lif-hard", "lif-soft", "psn", "masked-psn", "sliding-psn", "dsn"):
        out[f"conditions.{kind}"] = check_conditions_table(
            make_neuron(kind, channels=4, t_train=c["psn_t_train"], seed=seed),
            rng_seed=seed)
    return out


def suite_summary(verdicts: dict):
    return {name: (v if isinstance(v, dict) else (v.holds, v.trials))
            for name, v in verdicts.items()}


def suite_lanes(verdicts: dict) -> int:
    return sum(v.trials for v in verdicts.values() if not isinstance(v, dict))


class CheckPhase:
    """The control-property and conditions-table checkers, timed at the
    reference speed; ``raw`` keeps the measured wall times."""

    name = "check"
    metric = "check_s"

    def __init__(self, w: Workload, seed: int):
        self.w, self.seed = w, seed
        self.reference = None
        self.lanes = 0
        self.raw = []

    def sample(self):
        verdicts, wall, slowdown = timed_at_reference_speed(
            lambda: property_suite(self.w, self.seed))
        self.lanes = suite_lanes(verdicts)
        self.raw.append(wall)
        return wall / slowdown, suite_summary(verdicts) == self.reference
