"""Fitting a dynamic-decay neuron bank to classical neuron membranes.

Six target channels (hard and soft reset, three membrane time constants
each, threshold 1) process the same input signal; a bank of dynamic-decay
neurons is trained with MSE on the pre-reset membrane potential and scored
by spike firing accuracy: the fraction of test timesteps whose predicted
spike equals the target neuron's spike.

The decay generator is wider than the inference-path one: an expansion
causal conv, ReLU, contraction causal conv, then the sharpened sigmoid
(k = expand = 8, tau = 0.5).

The integer variant fits only the soft-reset channels; the membrane targets
are unchanged, and both sides are read out as integer spike counts
clip(round(H), 0, N) instead of the binary threshold.  Matches are counted
by exact count equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import numerics as nm
from ..neurons import NeuronConfig, lif_trace
from ..numerics import Tensor, heaviside, round_half_away
from ..scan import scan
from .datasets import gen_dataset_a, gen_dataset_b, split_train_test
from .training import Param, TrainConfig, fit, leaves

HARD_TAUS = ((("hard", 4.0 / 3.0)), ("hard", 2.0), ("hard", 4.0))
SOFT_TAUS = (("soft", 4.0 / 3.0), ("soft", 2.0), ("soft", 4.0))


@dataclass(frozen=True)
class ApproxTarget:
    """The target channel bank: (reset_mode, tau_m) pairs at threshold 1."""

    channels: tuple = HARD_TAUS + SOFT_TAUS
    v_th: float = 1.0

    @classmethod
    def soft_only(cls) -> "ApproxTarget":
        return cls(channels=SOFT_TAUS)


def target_traces(target: ApproxTarget, signal: np.ndarray,
                  integer: bool = False, n_max: int = 4):
    """Membranes and spikes of every target channel on (n, 1, T) signals.

    Returns (H, S) of shape (n, C, T).  The integer readout quantizes the
    same pre-reset membrane the binary variant thresholds; soft reset is a
    precondition because counts above 1 presuppose subtractive semantics.
    """
    n, _, T = signal.shape
    C = len(target.channels)
    h_all = np.empty((n, C, T))
    s_all = np.empty((n, C, T))
    for c, (reset_mode, tau_m) in enumerate(target.channels):
        if integer and reset_mode != "soft":
            raise ValueError("integer readout is defined for soft reset only")
        cfg = NeuronConfig.lif(tau_m, reset_mode, v_th=target.v_th)
        s3, h3, _ = lif_trace(cfg, signal)
        h_all[:, c, :] = h3[:, 0, :]
        if integer:
            s_all[:, c, :] = np.clip(round_half_away(h3[:, 0, :]), 0.0,
                                     float(n_max))
        else:
            s_all[:, c, :] = s3[:, 0, :]
    return h_all, s_all


class ApproxModel:
    """Dynamic-decay bank with an expand/contract conv decay generator."""

    def __init__(self, channels: int = 6, k: int = 8, expand: int = 8,
                 tau: float = 0.5, seed: int = 0):
        self.channels = channels
        self.k = k
        self.expand = expand
        self.tau = tau
        rng = np.random.default_rng(seed)
        wide = channels * expand
        up_bound = 1.0 / np.sqrt(channels * k)
        down_bound = 1.0 / np.sqrt(wide * k)
        self.params = [
            Param("w_up", rng.uniform(-up_bound, up_bound, (wide, channels, k))),
            Param("b_up", np.zeros(wide)),
            Param("w_down", rng.uniform(-down_bound, down_bound, (channels, wide, k))),
            Param("b_down", np.zeros(channels)),
        ]

    def param_count(self) -> int:
        return sum(p.value.size for p in self.params)

    def forward(self, x: Tensor, tape=None) -> tuple[Tensor, Tensor]:
        """(H, alpha) for (B, C, T) input; taped when a tape is given."""
        w = leaves(self.params, tape)
        pre = nm.causal_conv(x, w["w_up"], w["b_up"])
        hidden = nm.relu(pre)
        mixed = nm.causal_conv(hidden, w["w_down"], w["b_down"])
        alpha = nm.power(nm.sigmoid(mixed), 1.0 / self.tau)
        h = scan(alpha, x)
        return h, alpha


@dataclass
class ApproxResult:
    dataset: str
    integer: bool
    channel_specs: list[tuple[str, float]]
    per_channel_accuracy: list[float]
    average_accuracy: float
    epoch_losses: list[float] = field(default_factory=list)
    accuracy_at: dict[int, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"dataset": self.dataset, "integer": self.integer,
                "channels": [{"reset": r, "tau_m": t} for r, t in self.channel_specs],
                "per_channel_accuracy": self.per_channel_accuracy,
                "average_accuracy": self.average_accuracy,
                "epoch_losses": self.epoch_losses,
                "accuracy_at": {str(k): v for k, v in self.accuracy_at.items()}}


def _spike_accuracy(model: ApproxModel, x: np.ndarray, s_target: np.ndarray,
                    integer: bool, n_max: int, v_th: float) -> np.ndarray:
    h_pred, _ = model.forward(Tensor(x))
    if integer:
        s_pred = np.clip(round_half_away(h_pred.data), 0.0, float(n_max))
    else:
        s_pred = heaviside(h_pred.data - v_th)
    return np.mean(s_pred == s_target, axis=(0, 2))


def run_approx_experiment(dataset: str = "a", targets: ApproxTarget | None = None,
                          cfg: TrainConfig | None = None, n_train: int = 2000,
                          n_test: int = 200, integer: bool = False,
                          n_max: int = 4, T: int = 128,
                          eval_at: tuple[int, ...] = ()) -> ApproxResult:
    """Train the dynamic-decay bank and report per-channel spike accuracy.

    dataset 'a' draws n_train + n_test Gaussian signals (10:1 by default);
    dataset 'b' always uses the full 800-sample grid with a 10% random test
    split.  eval_at lists epochs after which test accuracy is also recorded.
    """
    cfg = cfg or TrainConfig()
    if targets is None:
        targets = ApproxTarget.soft_only() if integer else ApproxTarget()
    channels = len(targets.channels)

    if dataset == "a":
        signal = gen_dataset_a(n_train + n_test, T=T, seed=cfg.seed).data
        train_sig, test_sig = signal[:n_train], signal[n_train:]
    elif dataset == "b":
        data, _ = gen_dataset_b(seed=cfg.seed, T=T)
        train_idx, test_idx = split_train_test(data.shape[0], 0.1, cfg.seed)
        train_sig, test_sig = data.data[train_idx], data.data[test_idx]
    else:
        raise ValueError(f"unknown dataset {dataset!r}")

    h_train, _ = target_traces(targets, train_sig, integer, n_max)
    _, s_test = target_traces(targets, test_sig, integer, n_max)
    x_train = np.repeat(train_sig, channels, axis=1)
    x_test = np.repeat(test_sig, channels, axis=1)

    model = ApproxModel(channels=channels, seed=cfg.seed)

    def batch_loss(idx, tape):
        h_pred, _ = model.forward(Tensor(x_train[idx]), tape)
        diff = nm.sub(h_pred, Tensor(h_train[idx]))
        return nm.mean_all(nm.mul(diff, diff))

    result = ApproxResult(dataset=dataset, integer=integer,
                          channel_specs=list(targets.channels),
                          per_channel_accuracy=[], average_accuracy=0.0)
    epochs = fit(model.params, x_train.shape[0], cfg, batch_loss)
    for epoch, loss in enumerate(epochs, start=1):
        result.epoch_losses.append(loss)
        if epoch in eval_at:
            acc = _spike_accuracy(model, x_test, s_test, integer, n_max, targets.v_th)
            result.accuracy_at[epoch] = float(np.mean(acc))

    acc = _spike_accuracy(model, x_test, s_test, integer, n_max, targets.v_th)
    result.per_channel_accuracy = [float(a) for a in acc]
    result.average_accuracy = float(np.mean(acc))
    result.accuracy_at[cfg.epochs] = result.average_accuracy
    return result
