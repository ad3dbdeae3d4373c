"""Length extrapolation: train short in parallel, infer long serially.

A one-layer autoregressor (linear encoder, spiking neuron, linear decoder)
is trained on stationary wave mixtures to predict the next value.  Neurons
with bounded online state (dynamic decay, sliding PSN) then run serial
inference on sequences far longer than the training length; the
length-locked PSN variants raise LengthMismatch instead, which the result
records verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import numerics as nm
from ..errors import LengthMismatch
from ..neurons import make_neuron
from ..numerics import Tensor
from .datasets import gen_wave_mixtures
from .training import Param, TrainConfig, fit, leaves

# the serial-capable kinds first, then the length-locked ones
EXTRAP_KINDS = ("dsn", "sliding-psn", "psn", "masked-psn")


@dataclass
class ExtrapolationResult:
    neuron: str
    train_T: int
    train_losses: list[float]
    eval_losses: dict[int, float] = field(default_factory=dict)
    eval_errors: dict[int, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"neuron": self.neuron, "train_T": self.train_T,
                "train_losses": self.train_losses,
                "eval_losses": {str(k): v for k, v in self.eval_losses.items()},
                "eval_errors": {str(k): v for k, v in self.eval_errors.items()}}


class _SequenceModel:
    """enc (1 -> C) -> neuron -> dec (C -> 1), next-value prediction."""

    def __init__(self, neuron_kind: str, channels: int, train_T: int,
                 k: int | None = None, seed: int = 0):
        if neuron_kind not in EXTRAP_KINDS:
            raise ValueError(f"extrapolation covers {EXTRAP_KINDS}, got {neuron_kind}")
        self.kind = neuron_kind
        self.channels = channels
        rng = np.random.default_rng(seed)
        c = channels
        self.params = [
            Param("enc_w", rng.uniform(-1.0, 1.0, (c, 1))),
            Param("enc_b", rng.uniform(-0.5, 0.5, c)),
            Param("dec_w", rng.uniform(-1.0 / c, 1.0 / c, (1, c))),
            Param("dec_b", np.zeros(1)),
        ]
        # k is the PSN weight window; the DSN draws its kernel from rng
        self.neuron = make_neuron(neuron_kind, channels=c, t_train=train_T, k=k,
                                  seed=rng)
        self.params += [Param(name, w.data)
                        for name, w in self.neuron.weights().items()]

    def _neuron(self, w):
        return self.neuron.with_weights({name: w[name] for name in self.neuron.weights()})

    def forward(self, x: Tensor, tape=None) -> Tensor:
        """Predicted next values, shape (B, 1, T)."""
        w = leaves(self.params, tape)
        h = nm.add_channel_bias(nm.channel_mix(w["enc_w"], x), w["enc_b"])
        s = self._neuron(w).forward(h)
        return nm.add_channel_bias(nm.channel_mix(w["dec_w"], s), w["dec_b"])

    def loss(self, x: Tensor, tape=None) -> Tensor:
        pred = self.forward(x, tape)
        diff = nm.sub(nm.time_slice(pred, 0, x.shape[-1] - 1),
                      nm.time_slice(x, 1, x.shape[-1]))
        return nm.mean_all(nm.mul(diff, diff))

    # -- serial inference ---------------------------------------------------

    def eval_serial(self, x: np.ndarray) -> float:
        """Stepwise next-value loss on (B, 1, T) input of any length.

        Every frame is encoded in one elementwise op, the neuron's ``step``
        is folded over time (``serial_fold``) and the spikes are decoded
        after the fold, as one (B, C) @ (C,) product per step in time-major
        order, which rounds as a product per step does.
        """
        if not self.neuron.supports_step:
            raise LengthMismatch(f"{self.kind} has no serial mode")
        vals = {p.name: p.value for p in self.params}
        neuron = self._neuron(leaves(self.params, None))
        # (T, B, C) frames, viewed as (B, C, T): the fold steps along T
        frames = vals["enc_w"][:, 0] * x[:, 0, :].T[:, :, None] + vals["enc_b"]
        s = neuron.serial_fold(frames.transpose(1, 2, 0))
        s = np.ascontiguousarray(s.transpose(2, 0, 1))
        preds = np.ascontiguousarray((s @ vals["dec_w"][0] + vals["dec_b"][0]).T)
        return float(np.mean((preds[:, :-1] - x[:, 0, 1:]) ** 2))


def run_extrapolation(neuron_kind: str, train_T: int = 256,
                      eval_Ts: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
                      cfg: TrainConfig | None = None, n_train: int = 192,
                      n_eval: int = 64, channels: int = 16) -> ExtrapolationResult:
    """Train at train_T, then evaluate at each requested length.

    Serial-capable neurons are evaluated stepwise; length-locked neurons are
    evaluated in sequence mode, so any T != train_T lands in eval_errors as
    a LengthMismatch record.
    """
    cfg = cfg or TrainConfig(lr=2e-3, epochs=15, batch_size=32)
    model = _SequenceModel(neuron_kind, channels, train_T, seed=cfg.seed)
    x_train = gen_wave_mixtures(n_train, train_T, seed=cfg.seed).data
    losses = fit(model.params, n_train, cfg,
                 lambda idx, tape: model.loss(Tensor(x_train[idx]), tape))
    result = ExtrapolationResult(neuron=neuron_kind, train_T=train_T,
                                 train_losses=list(losses))

    for eval_T in eval_Ts:
        x_eval = gen_wave_mixtures(n_eval, eval_T, seed=cfg.seed + 7).data
        try:
            if model.neuron.supports_step:
                result.eval_losses[eval_T] = model.eval_serial(x_eval)
            else:
                result.eval_losses[eval_T] = model.loss(Tensor(x_eval)).item()
        except LengthMismatch as exc:
            result.eval_errors[eval_T] = f"LengthMismatch: {exc}"
    return result
