"""Sequential-pixel classification on procedurally generated shapes.

Images are fed column by column (timestep = image width) through a
downscaled conv-norm-neuron stack; spike counts over time feed a linear
classifier.  The task is a relative-ordering smoke test across neuron
kinds, not a benchmark reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import layers as ly
from .. import numerics as nm
from ..neurons import make_neuron
from ..numerics import ArcTangent, Tensor
from .datasets import gen_shape_images
from .training import Param, TrainConfig, fit, leaves

PIXEL_KINDS = ("lif", "sliding-psn", "dsn")


@dataclass
class PixelResult:
    neuron: str
    accuracy: float
    train_losses: list[float] = field(default_factory=list)
    firing_rates: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"neuron": self.neuron, "accuracy": self.accuracy,
                "train_losses": self.train_losses,
                "firing_rates": self.firing_rates}


class _BatchNorm:
    def __init__(self, name: str, channels: int, shift: float = 0.0):
        self.gamma = Param(f"{name}_gamma", np.ones(channels))
        # a positive shift starts membranes near the firing threshold
        self.beta = Param(f"{name}_beta", np.full(channels, shift))
        self.mean = np.zeros(channels)
        self.var = np.ones(channels)
        self.momentum = 0.9

    def __call__(self, x, w, training: bool):
        g, b = w[self.gamma.name], w[self.beta.name]
        if training:
            y, mean, var = ly.batch_norm_train(x, g, b)
            self.mean = self.momentum * self.mean + (1 - self.momentum) * mean
            self.var = self.momentum * self.var + (1 - self.momentum) * var
            return y
        return ly.batch_norm_eval(x, g, b, self.mean, self.var)


class PixelModel:
    """Two column-conv blocks with spiking neurons and a spike-count head."""

    def __init__(self, neuron_kind: str, size: int = 16, width: int = 8,
                 k: int = 8, seed: int = 0):
        if neuron_kind not in PIXEL_KINDS:
            raise ValueError(f"pixel task covers {PIXEL_KINDS}, got {neuron_kind}")
        self.size = size
        self.width = width
        rng = np.random.default_rng(seed)
        h1, h2 = size, size // 2
        self.heights = (h1, h2)
        self.neuron_channels = (width * h1, width * h2)
        feat = width * h2
        self.params = [
            Param("conv1", rng.uniform(-1.0, 1.0, (width, 1, 3)) / np.sqrt(3)),
            Param("conv1_b", np.zeros(width)),
            Param("conv2", rng.uniform(-1.0, 1.0, (width, width, 3)) / np.sqrt(3 * width)),
            Param("conv2_b", np.zeros(width)),
            Param("head_w", rng.uniform(-1.0, 1.0, (feat, 4)) / np.sqrt(feat)),
            Param("head_b", np.zeros(4)),
        ]
        # k is the PSN weight window; a heavy-tailed surrogate keeps
        # sub-threshold units trainable
        self.neurons = [make_neuron(neuron_kind, channels=c, k=k, seed=rng,
                                    sg=ArcTangent(2.0))
                        for c in self.neuron_channels]
        # binary spikes need the shift; integer counts already fire from H = 0.5
        shift = 0.5 if self.neurons[0].n_max == 1 else 0.0
        self.bn1 = _BatchNorm("bn1", width * h1, shift)
        self.bn2 = _BatchNorm("bn2", width * h2, shift)
        self.params += [self.bn1.gamma, self.bn1.beta,
                        self.bn2.gamma, self.bn2.beta]
        for i, neuron in enumerate(self.neurons, start=1):
            self.params += [Param(f"n{i}_{name}", w.data)
                            for name, w in neuron.weights().items()]

    def _neuron(self, idx: int, w, x: Tensor) -> Tensor:
        neuron = self.neurons[idx - 1]
        mine = {name: w[f"n{idx}_{name}"] for name in neuron.weights()}
        return neuron.with_weights(mine).forward(x)

    def forward(self, x: Tensor, tape=None, training: bool = False,
                collect=None) -> Tensor:
        w = leaves(self.params, tape)
        h1, h2 = self.heights
        y = ly.column_conv(x, w["conv1"], w["conv1_b"], height=h1)
        y = self.bn1(y, w, training)
        s1 = self._neuron(1, w, y)
        y = ly.column_avg_pool(s1, self.width, h1, 2)
        y = ly.column_conv(y, w["conv2"], w["conv2_b"], height=h2)
        y = self.bn2(y, w, training)
        s2 = self._neuron(2, w, y)
        if collect is not None:
            collect["block1"] = s1.data
            collect["block2"] = s2.data
        feats = ly.sum_time(s2)
        return ly.add_bias_rows(nm.matmul(feats, w["head_w"]), w["head_b"])

    def spike_traces(self, x: np.ndarray) -> dict[str, np.ndarray]:
        traces: dict[str, np.ndarray] = {}
        self.forward(Tensor(x), training=False, collect=traces)
        return traces

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        logits = self.forward(Tensor(x), training=False)
        return float(np.mean(np.argmax(logits.data, axis=1) == labels))


def run_pixel_task(neuron_kind: str, cfg: TrainConfig | None = None,
                   n_train_per_class: int = 100, n_test_per_class: int = 25,
                   size: int = 16) -> PixelResult:
    """Train the downscaled stack with the chosen neuron; report accuracy."""
    cfg = cfg or TrainConfig(lr=2e-3, epochs=12, batch_size=64)
    imgs, labels = gen_shape_images(n_train_per_class + n_test_per_class,
                                    size=size, seed=cfg.seed)
    n_test = 4 * n_test_per_class
    x_test, y_test = imgs[:n_test], labels[:n_test]
    x_train, y_train = imgs[n_test:], labels[n_test:]

    model = PixelModel(neuron_kind, size=size, seed=cfg.seed)

    def batch_loss(idx, tape):
        logits = model.forward(Tensor(x_train[idx]), tape, training=True)
        return ly.softmax_cross_entropy(logits, y_train[idx])

    losses = list(fit(model.params, len(y_train), cfg, batch_loss))
    result = PixelResult(neuron=neuron_kind, train_losses=losses,
                         accuracy=model.accuracy(x_test, y_test))
    traces = model.spike_traces(x_test)
    result.firing_rates = {k: float(np.mean(v)) for k, v in traces.items()}
    return result
