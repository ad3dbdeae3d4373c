"""Reference implementations kept only as test oracles.

``dsn_serial_trace`` is the DSN recurrence written out step by step with the
arithmetic inlined; ``lif_step_fold`` is the per-step taped LIF fold
(time_slice -> reshape -> charge/fire/reset on the tape, one frame at a
time) that the taped sequence op replaced.
"""

import numpy as np

from spikescan import numerics as nm
from spikescan.errors import ShapeMismatch
from spikescan.neurons import DsnState, dsn_dynamic_decay
from spikescan.numerics import Tensor, round_half_away


def dsn_serial_trace(params, x: np.ndarray):
    """Step-fold oracle returning (S, H, alpha) arrays for (B, C, T) input."""
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    state = DsnState.zeros(x.shape[0], x.shape[1], params.kernel_size, x.dtype)
    s_out = np.empty_like(x)
    h_out = np.empty_like(x)
    a_out = np.empty_like(x)
    for t in range(x.shape[-1]):
        window = np.concatenate([state.window, x[..., t:t + 1]], axis=-1)
        alpha = dsn_dynamic_decay(params, Tensor(window)).data
        h = alpha * state.h + (1.0 - alpha) * x[..., t]
        s_out[..., t] = np.clip(round_half_away(h), 0.0, float(params.n_max))
        h_out[..., t] = h
        a_out[..., t] = alpha
        state = DsnState(h=h, window=window[..., 1:])
    return s_out, h_out, a_out


def lif_step_fold(cfg, x: Tensor, sg) -> list[Tensor]:
    """(B, C) spike tensors, one per step, from the per-step taped fold."""
    b, c, steps = x.shape
    v = nm.zeros((b, c))
    frames = []
    for t in range(steps):
        x_t = nm.reshape(nm.time_slice(x, t, t + 1), (b, c))
        if cfg.leak == "if":
            h = v + x_t
        else:
            h = nm.mul(v, cfg.beta) + nm.mul(x_t, 1.0 - cfg.beta)
        s = nm.spike_threshold(h, cfg.v_th, sg)
        if cfg.reset_mode == "hard":
            v = nm.mul(h, nm.sub(1.0, s)) + nm.mul(s, cfg.v_reset)
        elif cfg.reset_mode == "soft":
            v = h - nm.mul(s, cfg.v_th)
        else:
            v = h
        frames.append(s)
    return frames
