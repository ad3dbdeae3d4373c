"""Reference implementations kept only as test oracles.

``scan_fold`` is the recurrence h_t = a_t h_{t-1} + b_t as a plain left
fold, and ``matrix_form`` the same scan (with b_t = (1 - a_t) x_t) as one
explicit T x T weight per lane; the chunked ``spikescan.scan`` is checked
against both within a tolerance.  ``scan_moveaxis`` and
``scan_moveaxis_grads`` are that chunked scan and its adjoint computed on
whole-array ``moveaxis`` and reversed copies, which ``spikescan.scan`` must
match bit for bit.  ``dsn_dynamic_decay`` is one step's decay from a
(B, C, k) window through the serial step's own decay kernel, and
``dsn_serial_trace`` is the DSN recurrence written out step by step with
the arithmetic inlined on top of it, and ``dsn_op_chain`` the taped DSN
pass as the separate conv (``depthwise_causal_conv``, the taped depthwise
causal conv no program path records any more), mix, sigmoid and scan ops,
whose spikes and decays the taped serial fold ``neurons._dsn_taped`` must
match bit for bit and whose weight gradients within rounding;
``dsn_bptt`` is that fold's backward as a per-frame reverse loop on fresh
arrays, which the sub-block ``neurons._dsn_bptt`` must match bit for bit
in dx and within rounding in the weight gradients; ``psn_dense`` is the PSN
membrane and its gradients as dense
numpy on one T x T matrix (``band_mask`` for masked PSN, the Toeplitz band
of the k weights for sliding PSN), which ``neurons.psn_membrane`` must
match within rounding; ``lif_step_fold`` is the per-step taped LIF fold (time_slice ->
reshape -> charge/fire/reset on the tape, one frame at a time) that the
taped sequence op replaced, and ``lif_bptt`` that op's backward as the
per-step reverse loop on fresh arrays, which the in-place
``neurons._lif_bptt`` must match bit for bit.  ``depthwise_conv_shift``
and ``causal_conv_shift`` are the two causal convolutions written as one
zero-padded shifted copy of the input per tap, with their adjoints
(``*_grads``) in the same form; ``dense_taps_whole_batch`` is the dense
conv's taps as one whole-batch matmul per tap into an output-sized buffer,
which the batch-blocked ``numerics._dense_taps`` must match bit for bit.
``round_half_away`` is the integer fire's rounding written as
floor(|x| + 0.5) with the sign put back, and
``sigmoid_power_clamp`` is the sharpened-sigmoid decay as the three taped
ops it used to be (sigmoid, power, unit-interval clamp, each with its own
backward), which ``numerics.fire_counts`` and ``numerics.sharpened_sigmoid``
must match bit for bit.  ``grad_check`` is the central-difference oracle
every taped gradient is checked against.  ``soft_reset_lemma_margin``,
``construct_soft_reset_counterexample``, ``alpha_window_condition`` and
``alpha_duration_schedule`` are the short-control analysis (the soft-reset
lemma and decay schedules that tame a dynamic-decay membrane) the tests
check by hand.  ``step_fold`` is a neuron's ``step`` folded over time, one
frame at a time: ``Neuron._advance``, the block path behind ``trace`` and
``advance`` (for LIF/IF the kernel ``neurons._lif_fold``), must equal it
bit for bit.  ``eval_serial_fold`` is the
extrapolation model's serial eval through that fold, which its eval through
``Neuron.advance`` must match exactly.
"""

from typing import Callable

import numpy as np

from spikescan import numerics as nm
from spikescan.errors import ShapeMismatch
from spikescan.neurons import _dsn_pre
from spikescan.numerics import Tape, Tensor
from spikescan.scan import scan
from spikescan.tasks.training import leaves

UNIT_OPEN_LO = 1e-300
UNIT_OPEN_HI = float(np.nextafter(1.0, 0.0))


def scan_fold(a: np.ndarray, b: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """h_t = a_t h_{t-1} + b_t from h0, one step at a time along the last axis."""
    out = np.empty_like(b)
    h = h0
    for t in range(a.shape[-1]):
        h = a[..., t] * h + b[..., t]
        out[..., t] = h
    return out


def matrix_form(alpha: np.ndarray, x: np.ndarray, h0: np.ndarray | None = None,
                alpha_min: float = 0.05) -> np.ndarray:
    """H_t = alpha_t H_{t-1} + (1 - alpha_t) x_t via the explicit T x T weight
    W_ij = (prod a)(1 - a_i).

    Builds W from the cumulative product P and mask M (upper-triangular in
    (i, j)) and returns X W + P h0.  The factorization divides by the running
    product, which under- or overflows for long sequences or decays near 0/1,
    so it refuses (ValueError) beyond T = 512 or outside
    [alpha_min, 1 - alpha_min], and alpha_min may not go below 0.05.
    """
    if alpha_min < 0.05:
        raise ValueError("alpha_min below the 0.05 stability floor")
    T = alpha.shape[-1]
    if T > 512:
        raise ValueError(f"matrix form limited to T <= 512, got {T}")
    if np.any(alpha < alpha_min) or np.any(alpha > 1.0 - alpha_min):
        raise ValueError(f"decay outside the [{alpha_min}, {1 - alpha_min}] guard band")
    if h0 is None:
        h0 = np.zeros(alpha.shape[:2])
    prods = np.cumprod(alpha, axis=-1)
    rows = (1.0 - alpha) / prods
    mask = np.triu(np.ones((T, T)))
    w = rows[..., :, None] * prods[..., None, :] * mask
    out = np.einsum("bci,bcij->bcj", x, w) + prods * h0[..., None]
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix form produced a non-finite value")
    return out


def dsn_dynamic_decay(params, x_window) -> Tensor:
    """Decay for one step from the last k inputs (oldest first, current last).

    Windows at the start of a sequence are zero-left-padded.  The result is
    strictly inside (0, 1).
    """
    x_window = nm._as_tensor(x_window)
    k = params.kernel_size
    if x_window.ndim != 3 or x_window.shape[1:] != (params.channels, k):
        raise ShapeMismatch(f"window must be (B, {params.channels}, {k})")
    npre = _dsn_pre(params, x_window.data.transpose(2, 0, 1))
    return Tensor(nm.decay_chain(npre, 1.0 / params.tau)[2])


def dsn_serial_trace(params, x: np.ndarray):
    """Step-fold oracle returning (S, H, alpha) arrays for (B, C, T) input."""
    if x.ndim != 3:
        raise ShapeMismatch("expected (B, C, T) input")
    # (B, C, k-1) window of the last inputs, oldest first
    window = np.zeros(x.shape[:2] + (params.kernel_size - 1,))
    h = np.zeros(x.shape[:2])
    s_out = np.empty_like(x)
    h_out = np.empty_like(x)
    a_out = np.empty_like(x)
    for t in range(x.shape[-1]):
        window = np.concatenate([window, x[..., t:t + 1]], axis=-1)
        alpha = dsn_dynamic_decay(params, Tensor(window)).data
        h = alpha * h + (1.0 - alpha) * x[..., t]
        s_out[..., t] = np.clip(round_half_away(h), 0.0, float(params.n_max))
        h_out[..., t] = h
        a_out[..., t] = alpha
        window = window[..., 1:]
    return s_out, h_out, a_out


def dsn_bptt(params, x: np.ndarray, g: np.ndarray):
    """(dx, dkernel, dbias, dmix) of a DSN pass over (B, C, T) input x from
    rest, given g = dL/dH, as a per-frame reverse loop on fresh (B, C)
    arrays (dmix None without a mix).

    The forward is the step's window a frame at a time: sigma from the
    negated pre-activation, its pinned power the decay, H = alpha H +
    (1 - alpha) x.  In reverse, the adjoint A = alpha_{t+1} A + g_t (1.0
    after the last frame), dL/dalpha = A (H_{t-1} - x_t), then the pin's
    mask and the chain e power (1 - sigma), product by product (the power
    sigma^e standing in for sigma^(e-1) sigma);
    a channel mix's adjoint adds its channels in order, from the first.
    dx_t = (1 - alpha_t) A_t + sum_j kernel[:, j] dpre_{t+k-1-j}, the taps
    added in order j = 0..k-1 from the first.  The weight gradients are
    sums over the frames and the batch."""
    B, C, T = x.shape
    k, e, mix = params.kernel_size, 1.0 / params.tau, params.channel_mix
    kern = params.conv_kernel.data
    window = np.zeros((k - 1, B, C))
    sigma, alpha, h, pre = (np.empty((T, B, C)) for _ in range(4))
    state = np.zeros((B, C))
    for t in range(T):
        window = np.concatenate((window, x[None, :, :, t]))
        npre = _dsn_pre(params, window)
        pre[t] = -_dsn_pre(params, window, mixed=False)
        sigma[t], _, alpha[t] = nm.decay_chain(npre, e)
        state = alpha[t] * state + (1.0 - alpha[t]) * x[..., t]
        h[t] = state
        window = window[1:]
    dx, dpre = np.empty((T, B, C)), np.zeros((T + k - 1, B, C))
    dk, db, dw = np.zeros((C, k)), np.zeros(C), np.zeros((C, C))
    adj = np.zeros((B, C))
    for t in range(T - 1, -1, -1):
        coef = alpha[t + 1] if t + 1 < T else np.ones((B, C))
        adj = coef * adj + g[..., t]
        d = adj * ((h[t - 1] if t else np.zeros((B, C))) - x[..., t])
        power = sigma[t] ** e
        d = d * (power == np.minimum(np.maximum(power, UNIT_OPEN_LO), UNIT_OPEN_HI))
        d = d * e
        d = d * power
        d = d * (1.0 - sigma[t])
        if mix is not None:
            dw += d.T @ pre[t]
            acc = mix.data[0] * d[:, :1]
            for c in range(1, C):
                acc = acc + mix.data[c] * d[:, c:c + 1]
            d = acc
        db += d.sum(axis=0)
        for j in range(k):
            lag = k - 1 - j
            if t >= lag:
                dk[:, j] += (d * x[..., t - lag]).sum(axis=0)
        dpre[t] = d
        conv = kern[:, 0] * dpre[t + k - 1]
        for j in range(1, k):
            conv = conv + kern[:, j] * dpre[t + k - 1 - j]
        dx[t] = (1.0 - alpha[t]) * adj + conv
    return dx.transpose(1, 2, 0), dk, db, (None if mix is None else dw)


def depthwise_causal_conv(x, kernel, bias=None) -> Tensor:
    """Per-channel causal convolution over time, as a taped op.

    x: (B, C, T); kernel: (C, k) with column k-1 weighting the current step
    and column 0 the oldest of the k-window; bias: (C,) or None.  The first
    k-1 steps see an implicit zero history.  The B*C lanes run through
    ``numerics._depthwise_taps`` (its adjoint for the input gradient) and
    ``numerics._depthwise_kernel_grad`` summed over the batch, the kernels
    the sliding PSN's ``psn_membrane`` runs.
    """
    x = nm._as_tensor(x)
    kernel = nm._as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 2 or x.shape[1] != kernel.shape[0]:
        raise ShapeMismatch(f"depthwise conv: x {x.shape} vs kernel {kernel.shape}")
    if bias is not None:
        bias = nm._as_tensor(bias)
        if bias.shape != (x.shape[1],):
            raise ShapeMismatch(f"bias shape {bias.shape} != ({x.shape[1]},)")
    B, C, T = x.shape
    k = kernel.shape[1]
    lanes = x.data.reshape(B * C, T)
    kern = np.tile(kernel.data, (B, 1))  # lane b*C + c uses channel c's row
    out = np.zeros(x.shape)
    nm._depthwise_taps(lanes, kern, out.reshape(B * C, T), adjoint=False)
    if bias is not None:
        out += bias.data[None, :, None]

    def grad_x(g):
        gx = np.zeros(x.shape)
        nm._depthwise_taps(g.reshape(B * C, T), kern, gx.reshape(B * C, T),
                           adjoint=True)
        return gx

    def grad_kernel(g):
        gk = nm._depthwise_kernel_grad(g.reshape(B * C, T), lanes, k)
        return gk.reshape(B, C, k).sum(axis=0)

    return nm._op("depthwise_causal_conv", out, (x, grad_x), (kernel, grad_kernel),
                  (bias, lambda g: np.sum(g, axis=(0, 2))))


def dsn_op_chain(params, x) -> tuple[Tensor, Tensor, Tensor]:
    """(S, H, alpha) of a (B, C, T) input through the separate taped ops the
    taped serial fold ``neurons._dsn_taped`` replaced: depthwise causal
    conv (+ bias), channel mix, sharpened sigmoid, scan, then
    ``clip_round``.  The fold's spikes and decays must equal this chain's
    bit for bit, and its gradients within rounding: the scan's H differs
    from the fold's by a few ulps."""
    pre = depthwise_causal_conv(x, params.conv_kernel, params.conv_bias)
    if params.channel_mix is not None:
        pre = nm.channel_mix(params.channel_mix, pre)
    alpha = nm.sharpened_sigmoid(pre, params.tau)
    h = scan(alpha, x)
    return nm.clip_round(h, params.n_max), h, alpha


def band_mask(t: int, k: int) -> np.ndarray:
    """The T x T bool band j in (i - k, i] of a masked PSN, built whole."""
    i = np.arange(t)[:, None]
    j = np.arange(t)[None, :]
    return (j <= i) & (j > i - k)


def psn_dense(variant: str, weight: np.ndarray, x: np.ndarray, g: np.ndarray,
              k: int | None = None):
    """(H, dx, dW) of a PSN membrane over (B, C, T) input x, with output
    gradient g, as dense numpy on one T x T matrix D = W * band: H = x D^T,
    dx = g D and dD = (g^T x) * band over the B*C lanes.  Full PSN's band is
    all of D and masked PSN's ``band_mask(T, k)``; sliding PSN's D is the
    Toeplitz band D[i, j] = w[i - j] for 0 <= i - j < k, whose weight
    gradient sums dD along each of those diagonals."""
    t = x.shape[-1]
    if variant == "sliding":
        k = weight.shape[0]
        lag = np.arange(t)[:, None] - np.arange(t)[None, :]
        band = (lag >= 0) & (lag < k)
        dense = np.where(band, weight[np.clip(lag, 0, k - 1)], 0.0)
    elif variant == "masked":
        band = band_mask(t, k)
        dense = weight * band
    else:
        band = np.ones((t, t), dtype=bool)
        dense = weight
    lanes, g_lanes = x.reshape(-1, t), g.reshape(-1, t)
    h = (lanes @ dense.T).reshape(x.shape)
    dx = (g_lanes @ dense).reshape(x.shape)
    d_dense = (g_lanes.T @ lanes) * band
    if variant == "sliding":
        return h, dx, np.array([np.trace(d_dense, offset=-lag) for lag in range(k)])
    return h, dx, d_dense


def step_fold(neuron, x: np.ndarray, state=None):
    """(S, H, state) from folding ``neuron.step`` over (B, C, T) input one
    frame at a time, from ``state`` (default: ``init_state``)."""
    if state is None:
        state = neuron.init_state(x.shape[0], x.shape[1])
    s_out = np.empty(x.shape)
    h_out = np.empty(x.shape)
    for t in range(x.shape[-1]):
        s_out[..., t], h_out[..., t], state = neuron.step(state, x[..., t])
    return s_out, h_out, state


def eval_serial_fold(model, x: np.ndarray) -> float:
    """``_SequenceModel.eval_serial`` with the neuron's ``step`` folded over
    time (``step_fold``): every frame is encoded in one elementwise op and
    the spikes are decoded after the fold, as one (B, C) @ (C,) product per
    step in time-major order."""
    vals = {p.name: p.value for p in model.params}
    neuron = model._neuron(leaves(model.params, None))
    # (T, B, C) frames, viewed as (B, C, T): the fold steps along T
    frames = vals["enc_w"][:, 0] * x[:, 0, :].T[:, :, None] + vals["enc_b"]
    s = step_fold(neuron, frames.transpose(1, 2, 0))[0]
    s = np.ascontiguousarray(s.transpose(2, 0, 1))
    preds = np.ascontiguousarray((s @ vals["dec_w"][0] + vals["dec_b"][0]).T)
    return float(np.mean((preds[:, :-1] - x[:, 0, 1:]) ** 2))


def round_half_away(arr: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero (0.5 -> 1, -0.5 -> -1)."""
    return np.copysign(np.floor(np.abs(arr) + 0.5), arr)


def sigmoid(a) -> Tensor:
    a = nm._as_tensor(a)
    # clip the exponent so extreme logits saturate instead of overflowing
    out = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500.0, 500.0)))
    tape, node = a.tape, a._node

    def backward(g):
        tape._accumulate(node, g * out * (1.0 - out), own=True)

    return nm._result(out, "sigmoid", tape, (node,), backward if tape else None)


def unit_interval_clamp(a) -> Tensor:
    """Pin values into the open interval (0, 1); gradients pass only where
    nothing was clamped."""
    a = nm._as_tensor(a)
    out = np.clip(a.data, UNIT_OPEN_LO, UNIT_OPEN_HI)
    tape, node = a.tape, a._node

    def backward(g):
        mask = (a.data >= UNIT_OPEN_LO) & (a.data <= UNIT_OPEN_HI)
        tape._accumulate(node, g * mask, own=True)

    return nm._result(out, "unit_interval_clamp", tape,
                      (node,), backward if tape else None)


def sigmoid_power_clamp(pre, tau: float) -> Tensor:
    """unit_interval_clamp(sigmoid(pre) ** (1/tau)) as three taped ops."""
    return unit_interval_clamp(nm.power(sigmoid(pre), 1.0 / tau))


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


def lif_bptt(cfg, sg, s: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dL/dx from dL/dS of a LIF/IF fold, per step on fresh arrays: the
    time-major (T, B, C) BPTT that ``neurons._lif_bptt`` runs in place."""
    sgp = nm.surrogate_grad(sg, h - cfg.v_th)
    if cfg.reset_mode == "hard":
        dv_dh = (1.0 - s) + (cfg.v_reset - h) * sgp
    elif cfg.reset_mode == "soft":
        dv_dh = 1.0 - cfg.v_th * sgp
    else:
        dv_dh = np.ones_like(h)
    leak, gain = (1.0, 1.0) if cfg.leak == "if" else (cfg.beta, 1.0 - cfg.beta)
    direct = g * sgp
    gx = np.empty_like(h)
    dv = np.zeros(h.shape[1:], dtype=h.dtype)
    for t in range(h.shape[0] - 1, -1, -1):
        dh = direct[t] + dv * dv_dh[t]
        gx[t] = dh * gain
        dv = dh * leak
    return gx


def shift_right(arr: np.ndarray, lag: int) -> np.ndarray:
    """x_{t-lag} along the last axis, with zero left-padding."""
    out = np.zeros_like(arr)
    if lag < arr.shape[-1]:
        out[..., lag:] = arr[..., :arr.shape[-1] - lag]
    return out


def depthwise_conv_shift(x: np.ndarray, kernel: np.ndarray,
                         bias: np.ndarray | None = None) -> np.ndarray:
    """(B, C, T) depthwise causal conv; kernel (C, k), column k-1 on lag 0."""
    k = kernel.shape[1]
    out = np.zeros_like(x)
    for j in range(k):
        out += kernel[None, :, j:j + 1] * shift_right(x, k - 1 - j)
    if bias is not None:
        out += bias[None, :, None]
    return out


def depthwise_conv_shift_grads(x: np.ndarray, kernel: np.ndarray,
                               g: np.ndarray):
    """(gx, gkernel, gbias) of depthwise_conv_shift for output gradient g."""
    k = kernel.shape[1]
    T = x.shape[-1]
    gx = np.zeros_like(x)
    gk = np.empty_like(kernel)
    for j in range(k):
        lag = k - 1 - j
        if lag < T:
            gx[..., :T - lag] += kernel[None, :, j:j + 1] * g[..., lag:]
        gk[:, j] = np.sum(g * shift_right(x, lag), axis=(0, 2))
    return gx, gk, np.sum(g, axis=(0, 2))


def causal_conv_shift(x: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray | None = None) -> np.ndarray:
    """(B, C_in, T) dense causal conv; weight (C_out, C_in, k)."""
    k = weight.shape[2]
    out = np.zeros((x.shape[0], weight.shape[0], x.shape[2]))
    for j in range(k):
        out += np.einsum("oi,bit->bot", weight[:, :, j], shift_right(x, k - 1 - j))
    if bias is not None:
        out += bias[None, :, None]
    return out


def causal_conv_shift_grads(x: np.ndarray, weight: np.ndarray, g: np.ndarray):
    """(gx, gweight, gbias) of causal_conv_shift for output gradient g."""
    k = weight.shape[2]
    T = x.shape[-1]
    gx = np.zeros_like(x)
    gw = np.empty_like(weight)
    for j in range(k):
        lag = k - 1 - j
        piece = np.einsum("oi,bot->bit", weight[:, :, j], g)
        if lag < T:
            gx[..., :T - lag] += piece[..., lag:]
        gw[:, :, j] = np.einsum("bot,bit->oi", g, shift_right(x, lag))
    return gx, gw, np.sum(g, axis=(0, 2))


def dense_taps_whole_batch(w_taps: np.ndarray, src: np.ndarray, dst: np.ndarray,
                           adjoint: bool) -> None:
    """Add sum over taps of w_taps[j] @ (src lagged by k-1-j) into zero-filled
    dst (adjoint: lagged the other way), one whole-batch BLAS matmul per tap
    into one output-sized buffer."""
    k = w_taps.shape[0]
    tmp = np.empty(dst.shape)
    for j in range(max(0, k - src.shape[-1]), k):
        np.matmul(w_taps[j], src, out=tmp)
        nm._add_shifted(dst, tmp, k - 1 - j, adjoint)


def scan_moveaxis(a: np.ndarray, b: np.ndarray, h0: np.ndarray) -> np.ndarray:
    """h_t = a_t h_{t-1} + b_t by the two-stage chunked scan, folding on
    whole-array ``moveaxis`` copies: the end-padded chunks are folded from
    zero with the chunk position leading, then a left fold over the chunk
    summaries gives each chunk its carry, spread as prods * carry + local."""
    T = a.shape[-1]
    lanes = a.shape[:-1]
    chunk = min(256, max(T, 1))
    nc = -(-T // chunk)
    pad = nc * chunk - T
    if pad:
        a = np.concatenate([a, np.ones(lanes + (pad,), a.dtype)], axis=-1)
        b = np.concatenate([b, np.zeros(lanes + (pad,), b.dtype)], axis=-1)
    ac = a.reshape(lanes + (nc, chunk))
    bc = b.reshape(lanes + (nc, chunk))
    prods = np.cumprod(ac, axis=-1)
    ac_t = np.ascontiguousarray(np.moveaxis(ac, -1, 0))
    bc_t = np.ascontiguousarray(np.moveaxis(bc, -1, 0))
    local_t = np.empty_like(bc_t)
    acc = np.zeros(lanes + (nc,), dtype=b.dtype)
    for j in range(chunk):
        acc = ac_t[j] * acc + bc_t[j]
        local_t[j] = acc
    local = np.moveaxis(local_t, 0, -1)
    sa, sb = prods[..., -1], local_t[-1]
    carries = np.empty_like(sb)
    h = h0
    for i in range(nc):
        carries[..., i] = h
        h = sa[..., i] * h + sb[..., i]
    out = prods * carries[..., None] + local
    return np.ascontiguousarray(out.reshape(lanes + (nc * chunk,))[..., :T])


def scan_moveaxis_grads(alpha: np.ndarray, x: np.ndarray, h0: np.ndarray,
                        H: np.ndarray, dH: np.ndarray):
    """(d_alpha, d_x, d_h0) of H = scan(alpha, x, h0) for upstream dH: the
    adjoint g_t = dH_t + alpha_{t+1} g_{t+1} as ``scan_moveaxis`` over
    reversed copies of the arrays."""
    a_rev = alpha[..., ::-1]
    shifted = np.concatenate(
        [np.ones(a_rev.shape[:-1] + (1,), a_rev.dtype), a_rev[..., :-1]], axis=-1)
    zeros = np.zeros(alpha.shape[:-1], dtype=alpha.dtype)
    g = scan_moveaxis(shifted, np.ascontiguousarray(dH[..., ::-1]), zeros)[..., ::-1]
    h_prev = np.concatenate([h0[..., None], H[..., :-1]], axis=-1)
    d_alpha = g * (h_prev - x)
    d_x = g * (1.0 - alpha)
    d_h0 = g[..., 0] * alpha[..., 0]
    return np.ascontiguousarray(d_alpha), np.ascontiguousarray(d_x), d_h0


# ---------------------------------------------------------------------------
# short-control analysis: the soft-reset lemma and dynamic-decay schedules


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


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    f must map a tensor to a scalar and be smooth at x; callers keep x away
    from surrogate kinks by a margin of at least eps.
    """
    tape = Tape()
    xt = tape.leaf(x.data)
    y = f(xt)
    if y.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    tape.backward(y)
    g_tape = tape.grad(xt)
    if g_tape is None:
        g_tape = np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    g_fd = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = f(Tensor(bumped.reshape(x.shape))).item()
        bumped[i] = flat[i] - eps
        lo = f(Tensor(bumped.reshape(x.shape))).item()
        g_fd[i] = (hi - lo) / (2.0 * eps)
    g_fd = g_fd.reshape(x.shape)
    denom = np.maximum(1.0, np.abs(g_fd))
    return float(np.max(np.abs(g_fd - g_tape) / denom))
