"""The one training loop, :func:`fit`, and its parts: Adam, the cosine lr
schedule, and parameters read through :func:`leaves`; a task supplies a
batch loss.

Training is deterministic given (config, seed): parameter init, batch order
and every update are driven by seeded generators, and gradient accumulation
order is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..numerics import Tape, Tensor


# Adam's moment decays and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Training settings: Adam at a peak lr that follows a cosine decay
    over every step of every epoch."""

    lr: float = 1e-2
    epochs: int = 30
    batch_size: int = 128
    seed: int = 0


def cosine_lr(step: int, total_steps: int, peak: float) -> float:
    if total_steps <= 1:
        return peak
    frac = min(step, total_steps - 1) / (total_steps - 1)
    return peak * 0.5 * (1.0 + math.cos(math.pi * frac))


class Param:
    """A named persistent array re-leafed onto a fresh tape every step."""

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self._leaf: Tensor | None = None

    def leaf(self, tape: Tape) -> Tensor:
        self._leaf = tape.leaf(self.value)
        return self._leaf

    def grad(self, tape: Tape) -> np.ndarray | None:
        return tape.grad(self._leaf) if self._leaf is not None else None


class Adam:
    """Adam over a list of Params."""

    def __init__(self, params: list[Param]):
        self.params = params
        self.t = 0
        self._m = {p.name: np.zeros_like(p.value) for p in params}
        self._v = {p.name: np.zeros_like(p.value) for p in params}

    def step(self, tape: Tape, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for p in self.params:
            g = p.grad(tape)
            if g is None:
                continue
            m = self._m[p.name]
            v = self._v[p.name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.value -= lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled minibatch index arrays covering [0, n)."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def leaves(params: list[Param], tape: Tape | None) -> dict[str, Tensor]:
    """The params by name: leaves on ``tape``, or plain tensors without one."""
    if tape is None:
        return {p.name: Tensor(p.value) for p in params}
    return {p.name: p.leaf(tape) for p in params}


def fit(params: list[Param], n: int, cfg: TrainConfig, batch_loss):
    """Adam on n samples, batches from ``default_rng(cfg.seed + 1)``; yields
    each epoch's mean loss, and runs the next epoch only when asked.

    ``batch_loss(idx, tape)`` is the scalar loss of samples ``idx`` on ``tape``.
    """
    opt = Adam(params)
    rng = np.random.default_rng(cfg.seed + 1)
    total = cfg.epochs * -(-n // cfg.batch_size)
    step = 0
    for _ in range(cfg.epochs):
        running = 0.0
        for idx in batch_indices(n, cfg.batch_size, rng):
            tape = Tape()
            loss = batch_loss(idx, tape)
            tape.backward(loss)
            opt.step(tape, cosine_lr(step, total, cfg.lr))
            running += loss.item() * len(idx)
            step += 1
        yield running / n
