"""The two workloads and the inputs they are built from.

A lane is one (batch, channel) pair.  ``wide`` runs many lanes over a
moderate length, so every array is several times the per-core L2 and the
elementwise and convolution passes are bandwidth-bound.  ``long`` runs few
lanes over the paper's 16k-30k step regime, where per-call overhead, the
scan's carry stage and the per-step cost of serial inference dominate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    # taped training passes through ``spikescan bench`` and the serial
    # inference streams share one (batch, channels, length) input
    batch: int
    channels: int
    length: int
    lif_length: int           # the taped LIF fold is quadratic in T today
    eval_reps: int            # ``DsnNeuron.sequence`` calls per eval sample
    infer_steps: dict         # neuron kind -> ``step`` calls per sample
    approx: dict              # run_approx_experiment arguments
    extrapolate: dict         # run_extrapolation arguments
    check: dict               # property-check sizes


WORKLOADS = {
    "wide": Workload(
        name="wide", batch=4, channels=256, length=1024, lif_length=128,
        eval_reps=1,
        infer_steps={"dsn": 1024, "sliding-psn": 512, "lif-hard": 4096},
        approx={"n_train": 256, "n_test": 64, "batch_size": 128, "T": 128},
        extrapolate={"channels": 128, "train_T": 128, "long_T": 1024,
                     "n_train": 64, "n_eval": 16, "epochs": 2, "batch_size": 32},
        check={"short_trials": 10_000, "long_trials": 10_000, "long_T": 128,
               "dsn_trials": 1250, "psn_t_train": 32}),
    "long": Workload(
        name="long", batch=1, channels=16, length=32768, lif_length=2048,
        eval_reps=2,
        infer_steps={"dsn": 2048, "sliding-psn": 1024, "lif-hard": 8192},
        approx={"n_train": 8, "n_test": 4, "batch_size": 4, "T": 2048},
        extrapolate={"channels": 16, "train_T": 2048, "long_T": 30000,
                     "n_train": 8, "n_eval": 4, "epochs": 1, "batch_size": 4},
        check={"short_trials": 16, "long_trials": 16, "long_T": 4096,
               "dsn_trials": 2, "psn_t_train": 1024}),
}

STREAM_KINDS = ("dsn", "sliding-psn", "lif-hard")


@dataclass
class Inputs:
    x: np.ndarray          # (B, C, T): ``bench`` input for dsn/sliding-psn, inference stream
    x_lif: np.ndarray      # (B, C, T_lif): ``bench`` input for lif
    neurons: dict          # stream kind -> Neuron
    grad_weights: np.ndarray
    grad_coords: list
    extrap_x: np.ndarray   # (n_eval, 1, train_T) serial-vs-parallel probe


def bench_input(seed: int, shape) -> np.ndarray:
    """The input ``spikescan bench --seed`` draws for a (B, C, T) shape."""
    return np.random.default_rng(seed).normal(size=shape)


def build_inputs(w: Workload, seed: int) -> Inputs:
    """Every input of a run, from ``seed`` alone."""
    from spikescan import make_neuron

    x = bench_input(seed, (w.batch, w.channels, w.length))
    x_lif = bench_input(seed, (w.batch, w.channels, w.lif_length))
    neurons = {kind: make_neuron(kind, channels=w.channels, seed=seed)
               for kind in STREAM_KINDS}
    rng = np.random.default_rng(seed + 1)
    grad_weights = rng.normal(size=(1, 4, 64))
    grad_coords = [tuple(int(v) for v in rng.integers((1, 4, 64)))
                   for _ in range(3)]
    e = w.extrapolate
    extrap_x = rng.normal(size=(e["n_eval"], 1, e["train_T"]))
    return Inputs(x=x, x_lif=x_lif, neurons=neurons, grad_weights=grad_weights,
                  grad_coords=grad_coords, extrap_x=extrap_x)


def inputs_digest(inputs: Inputs) -> str:
    """SHA-256 over the input arrays and the DSN's seeded kernel and bias
    (the other neurons draw nothing from the seed)."""
    h = hashlib.sha256()
    dsn = inputs.neurons["dsn"].params
    arrays = [inputs.x, inputs.x_lif, inputs.grad_weights, inputs.extrap_x,
              np.asarray(inputs.grad_coords), dsn.conv_kernel.data,
              dsn.conv_bias.data]
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()
