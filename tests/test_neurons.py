import warnings

import numpy as np
import pytest

from oracles import dsn_serial_trace, lif_step_fold, matrix_form
from spikescan import neurons
from spikescan import numerics as nm
from spikescan.errors import LengthMismatch, NonFiniteError, ShapeMismatch
from spikescan.neurons import (NEURON_KINDS, DsnNeuron, DsnParams, DsnState,
                               LifNeuron, Neuron, NeuronConfig, PsnNeuron,
                               PsnParams, dsn_dynamic_decay, dsn_forward_parallel,
                               dsn_step, lif_sequence, lif_trace, make_neuron,
                               psn_forward)
from spikescan.numerics import ArcTangent, Rectangular, Tensor


def test_lif_step_hand_evaluated():
    neuron = LifNeuron(NeuronConfig(beta=0.5, v_th=1.0, reset_mode="hard"))
    s, _, v = neuron.step(neuron.init_state(1, 2), np.array([[2.0, 0.6]]))
    np.testing.assert_array_equal(s, [[1.0, 0.0]])
    # hard reset clears the firing lane, keeps the other at H
    np.testing.assert_allclose(v, [[0.0, 0.3]])
    # the taped sequence op over that one step agrees
    s_seq, _, v_seq = lif_sequence(neuron.cfg, Tensor([[[2.0], [0.6]]]))
    assert s_seq.shape == (1, 2, 1)
    np.testing.assert_array_equal(s_seq.data[..., 0], s)
    np.testing.assert_array_equal(v_seq.data[..., 0], v)


def test_if_soft_burst_spikes_four_steps():
    cfg = NeuronConfig.integrate_fire("soft")
    x = np.zeros((1, 1, 6))
    x[0, 0, 0] = 4.0
    s, h, _ = lif_trace(cfg, x)
    np.testing.assert_array_equal(s[0, 0], [1, 1, 1, 1, 0, 0])
    np.testing.assert_array_equal(h[0, 0], [4, 3, 2, 1, 0, 0])


def test_zero_input_stays_silent():
    cfg = NeuronConfig(beta=0.5, reset_mode="soft")
    s, h, v = lif_trace(cfg, np.zeros((2, 3, 10)))
    assert not s.any() and not h.any() and not v.any()


def test_no_reset_if_accumulates_linearly():
    cfg = NeuronConfig.integrate_fire("none")
    x = np.full((1, 1, 8), 0.5)
    _, h, _ = lif_trace(cfg, x)
    np.testing.assert_allclose(h[0, 0], 0.5 * np.arange(1, 9))


def test_beta_zero_is_memoryless():
    cfg = NeuronConfig(beta=0.0, reset_mode="hard")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, 12))
    _, h, _ = lif_trace(cfg, x)
    np.testing.assert_array_equal(h, x)


def test_sequence_matches_step_fold_bit_exactly():
    cfg = NeuronConfig(beta=0.25, v_th=1.0, reset_mode="soft")
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 40)) * 2.0
    s_seq, h_seq, v_seq = lif_sequence(cfg, Tensor(x))
    neuron = LifNeuron(cfg)
    state = neuron.init_state(2, 3)
    for t in range(40):
        s, h, state = neuron.step(state, x[..., t])
        np.testing.assert_array_equal(s, s_seq.data[..., t])
        np.testing.assert_array_equal(h, h_seq.data[..., t])
        np.testing.assert_array_equal(state, v_seq.data[..., t])


def test_config_validation():
    with pytest.raises(ValueError):
        NeuronConfig(beta=1.0)
    with pytest.raises(ValueError):
        NeuronConfig(beta=0.5, v_th=0.0)
    with pytest.raises(ValueError):
        NeuronConfig(beta=0.5, reset_mode="bounce")


# ---------------------------------------------------------------------------
# dynamic decay


def test_decay_of_zero_preactivation():
    params = DsnParams(conv_kernel=nm.zeros((3, 4)), conv_bias=nm.zeros((3,)),
                       tau=1.0)
    alpha = dsn_dynamic_decay(params, nm.zeros((2, 3, 4)))
    np.testing.assert_allclose(alpha.data, 0.5)


def test_decay_sharpening_power():
    params = DsnParams(conv_kernel=nm.zeros((1, 4)), conv_bias=nm.zeros((1,)),
                       tau=0.25)
    alpha = dsn_dynamic_decay(params, nm.zeros((1, 1, 4)))
    np.testing.assert_allclose(alpha.data, 0.5 ** 4)


def test_decay_strictly_inside_unit_interval():
    rng = np.random.default_rng(2)
    params = DsnParams.init(channels=5, seed=0)
    window = Tensor(rng.normal(size=(4, 5, 4)) * 50.0)
    alpha = dsn_dynamic_decay(params, window).data
    assert np.all(alpha > 0.0) and np.all(alpha < 1.0)


def test_dsn_step_degenerate_decay_tracks_input():
    # a hugely negative bias drives the decay to zero: H_t = x_t
    params = DsnParams(conv_kernel=nm.zeros((2, 4)),
                       conv_bias=Tensor([-2000.0, -2000.0]))
    state = DsnState.zeros(1, 2, 4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x_t = rng.normal(size=(1, 2)) * 3.0
        s, state = dsn_step(params, state, x_t)
        np.testing.assert_array_equal(state.h, x_t)
        np.testing.assert_array_equal(
            s, np.clip(nm.round_half_away(x_t), 0, 4))


def test_dsn_long_control_bound():
    rng = np.random.default_rng(4)
    params = DsnParams.init(channels=3, seed=1)
    c_max = 2.5
    x = rng.uniform(0.0, c_max, size=(2, 3, 200))
    _, h, _ = dsn_serial_trace(params, x)
    assert h.max() <= c_max


def test_dsn_serial_equals_parallel():
    rng = np.random.default_rng(5)
    params = DsnParams.init(channels=4, k=4, seed=2)
    x = rng.normal(size=(2, 4, 1024)) * 2.0
    s_ser, h_ser, a_ser = dsn_serial_trace(params, x)
    # the neuron's own trace is the step fold, equal to the oracle bit for bit
    s_trace, h_trace = DsnNeuron(params).trace(x)
    np.testing.assert_array_equal(s_trace, s_ser)
    np.testing.assert_array_equal(h_trace, h_ser)
    s_par, h_par, a_par = dsn_forward_parallel(params, Tensor(x))
    np.testing.assert_array_equal(a_ser, a_par.data)
    assert np.max(np.abs(h_ser - h_par.data)) <= 1e-10
    np.testing.assert_array_equal(s_ser, s_par.data)


def test_dsn_t1_reduces_to_step():
    rng = np.random.default_rng(6)
    params = DsnParams.init(channels=2, seed=3)
    x = rng.normal(size=(1, 2, 1))
    s_par, h_par, _ = dsn_forward_parallel(params, Tensor(x))
    s_step, state = dsn_step(params, DsnState.zeros(1, 2, 4), x[..., 0])
    np.testing.assert_array_equal(s_par.data[..., 0], s_step)
    np.testing.assert_allclose(h_par.data[..., 0], state.h, atol=1e-14)


def test_dsn_matches_matrix_form_oracle():
    # tau = 1 keeps the decays inside the matrix-form guard band
    rng = np.random.default_rng(7)
    params = DsnParams.init(channels=3, k=4, tau=1.0, seed=4)
    x = rng.normal(size=(2, 3, 32)) * 0.5
    _, h_par, alpha = dsn_forward_parallel(params, Tensor(x))
    h_mat = matrix_form(alpha.data, x)
    assert np.max(np.abs(h_par.data - h_mat)) <= 1e-8


def test_dsn_streaming_state_is_bounded():
    params = DsnParams.init(channels=2, k=4, seed=5)
    neuron = DsnNeuron(params)
    state = neuron.init_state(1, 2)
    sizes = set()
    rng = np.random.default_rng(8)
    for _ in range(50):
        _, _, state = neuron.step(state, rng.normal(size=(1, 2)))
        sizes.add(neuron.state_size(state))
    assert len(sizes) == 1
    assert state.window.shape[-1] == params.kernel_size - 1


@pytest.mark.parametrize("loop_lanes", [10 ** 9, 1], ids=["accumulate", "loop"])
def test_step_sums_match_sequence_in_both_forms(monkeypatch, loop_lanes):
    # the step's ordered sums (taps, and channels of a mix) as one accumulate
    # and as a loop over terms; both must round as the taped ops do
    monkeypatch.setattr(neurons, "STEP_LOOP_LANES", loop_lanes)
    rng = np.random.default_rng(24)
    c = 6
    base = DsnParams.init(channels=c, k=5, seed=8)
    params = DsnParams(conv_kernel=base.conv_kernel,
                       conv_bias=Tensor(rng.normal(size=c)),
                       channel_mix=Tensor(rng.normal(size=(c, c)) / np.sqrt(c)),
                       tau=0.5, n_max=3)
    x = rng.normal(size=(2, c, 300)) * 2.0
    s_par, _, a_par = dsn_forward_parallel(params, Tensor(x))
    s_fold = DsnNeuron(params).serial_fold(x)
    assert 0.1 < np.mean(s_fold > 0) < 0.9
    np.testing.assert_array_equal(s_fold, s_par.data)
    _, _, a_ser = dsn_serial_trace(params, x)
    np.testing.assert_array_equal(a_ser, a_par.data)
    sliding = PsnNeuron(PsnParams.sliding(Tensor(rng.normal(size=37))))
    s_step, h_step = Neuron.trace(sliding, x)
    s_conv, h_conv = sliding.trace(x)
    assert s_step.tobytes() == s_conv.tobytes()
    assert h_step.tobytes() == h_conv.tobytes()
    # negative weights over zeros: every term is -0.0, the conv's sum +0.0
    negative = PsnNeuron(PsnParams.sliding(Tensor(-np.ones(4))))
    zeros = np.zeros((2, 3, 6))
    assert Neuron.trace(negative, zeros)[1].tobytes() == negative.trace(zeros)[1].tobytes()


def test_dsn_params_validation():
    with pytest.raises(ValueError):
        DsnParams(conv_kernel=nm.zeros((2, 4)), tau=0.0)
    with pytest.raises(ValueError):
        DsnParams(conv_kernel=nm.zeros((2, 4)), n_max=0)
    with pytest.raises(ShapeMismatch):
        DsnParams(conv_kernel=nm.zeros((2, 4)), conv_bias=nm.zeros((3,)))


def test_enhanced_dsn_channel_mix_identity_is_noop():
    rng = np.random.default_rng(9)
    base = DsnParams.init(channels=3, seed=6)
    mixed = DsnParams(conv_kernel=base.conv_kernel, conv_bias=base.conv_bias,
                      channel_mix=Tensor(np.eye(3)), tau=base.tau,
                      n_max=base.n_max)
    x = rng.normal(size=(1, 3, 20))
    _, h_a, _ = dsn_forward_parallel(base, Tensor(x))
    _, h_b, _ = dsn_forward_parallel(mixed, Tensor(x))
    np.testing.assert_allclose(h_a.data, h_b.data, atol=1e-12)


# ---------------------------------------------------------------------------
# PSN family


def test_sliding_delta_kernel_is_instantaneous_threshold():
    params = PsnParams.sliding(Tensor([1.0, 0.0, 0.0]))
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 15)) * 2.0
    s = psn_forward(params, Tensor(x), v_th=1.0)
    np.testing.assert_array_equal(s.data, (x >= 1.0).astype(float))


def test_full_psn_rejects_other_lengths():
    params = PsnParams.init_decay("full", t_train=16)
    with pytest.raises(LengthMismatch):
        psn_forward(params, Tensor(np.zeros((1, 1, 17))))
    with pytest.raises(LengthMismatch):
        psn_forward(params, Tensor(np.zeros((1, 1, 8))))


def test_masked_equals_full_on_lower_triangular_weight():
    rng = np.random.default_rng(11)
    t = 12
    w = np.tril(rng.normal(size=(t, t)))
    full = PsnParams.full(Tensor(w))
    masked = PsnParams.masked(Tensor(w), k=t)
    x = Tensor(rng.normal(size=(2, 2, t)))
    np.testing.assert_array_equal(psn_forward(full, x).data,
                                  psn_forward(masked, x).data)


def test_full_psn_depends_on_future_inputs():
    rng = np.random.default_rng(12)
    t = 10
    params = PsnParams.full(Tensor(rng.normal(size=(t, t))))
    x = rng.normal(size=(1, 1, t))
    x2 = x.copy()
    x2[0, 0, -1] += 3.0  # change only the last step
    s1 = psn_forward(params, Tensor(x)).data
    s2 = psn_forward(params, Tensor(x2)).data
    assert not np.array_equal(s1[..., :-1], s2[..., :-1])


def test_masked_psn_is_causal():
    rng = np.random.default_rng(13)
    t = 10
    params = PsnParams.init_decay("masked", t_train=t, k=4)
    x = rng.normal(size=(1, 1, t))
    x2 = x.copy()
    x2[0, 0, -1] += 3.0
    s1 = psn_forward(params, Tensor(x)).data
    s2 = psn_forward(params, Tensor(x2)).data
    np.testing.assert_array_equal(s1[..., :-1], s2[..., :-1])


def test_masked_band_enforced():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(8, 8))
    params = PsnParams.masked(Tensor(w), k=3)
    dense = params.weight.data
    for i in range(8):
        for j in range(8):
            inside = (j <= i) and (j > i - 3)
            if not inside:
                assert dense[i, j] == 0.0


def test_full_psn_flag_and_sliding_step_matches_sequence():
    full = PsnParams.init_decay("full", t_train=8)
    assert full.non_causal
    sliding = PsnNeuron(PsnParams.init_decay("sliding", k=5))
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 3, 30))
    np.testing.assert_array_equal(sliding.serial_fold(x),
                                  sliding.sequence(Tensor(x)).data)


def test_sliding_psn_window_matches_step_fold_and_banded_matrix():
    # random weights past lag 32 matter, so a dropped or shifted tap shows
    rng = np.random.default_rng(17)
    k, T = 37, 300
    w = rng.normal(size=k)
    x = rng.normal(size=(2, 3, T))
    sliding = PsnNeuron(PsnParams.sliding(Tensor(w)))
    s = sliding.sequence(Tensor(x)).data
    assert 0.1 < s.mean() < 0.9
    np.testing.assert_array_equal(s, sliding.serial_fold(x))
    lag = np.arange(T)[:, None] - np.arange(T)[None, :]
    toeplitz = np.where((lag >= 0) & (lag < k), w[np.clip(lag, 0, k - 1)], 0.0)
    banded = PsnNeuron(PsnParams.masked(Tensor(toeplitz), k))
    h = sliding.trace(x)[1]
    h_band = banded.trace(x)[1]
    assert np.max(np.abs(h - h_band)) <= 1e-12 * np.max(np.abs(h_band))


# ---------------------------------------------------------------------------
# nonlinearity witnesses


def test_reset_introduces_nonlinearity():
    cfg = NeuronConfig(beta=0.5, v_th=1.0, reset_mode="hard")
    x = np.array([[[1.2, 0.4]]])
    y = np.array([[[1.2, 0.4]]])
    _, h_x, _ = lif_trace(cfg, x)
    _, h_y, _ = lif_trace(cfg, y)
    _, h_xy, _ = lif_trace(cfg, x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) > 0.1


def test_no_reset_is_linear():
    cfg = NeuronConfig(beta=0.5, v_th=1.0, reset_mode="none")
    rng = np.random.default_rng(16)
    x = rng.normal(size=(1, 2, 30))
    y = rng.normal(size=(1, 2, 30))
    _, h_x, _ = lif_trace(cfg, x)
    _, h_y, _ = lif_trace(cfg, y)
    _, h_xy, _ = lif_trace(cfg, x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) <= 1e-12


def test_dynamic_decay_is_nonlinear():
    params = DsnParams.init(channels=2, seed=7)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(1, 2, 20))
    y = rng.normal(size=(1, 2, 20))
    _, h_x, _ = dsn_serial_trace(params, x)
    _, h_y, _ = dsn_serial_trace(params, y)
    _, h_xy, _ = dsn_serial_trace(params, x + y)
    assert np.max(np.abs(h_xy - (h_x + h_y))) > 1e-3


def test_make_neuron_registry():
    for kind in ("lif-hard", "if-soft", "dsn", "sliding-psn"):
        neuron = make_neuron(kind, channels=2, t_train=16)
        assert neuron.name == kind if kind != "dsn" else True
    with pytest.raises(ValueError):
        make_neuron("unknown-kind")
    with pytest.raises(ValueError):
        make_neuron("psn")  # needs t_train


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_channels_is_fixed_only_for_dsn(kind):
    neuron = make_neuron(kind, channels=5, t_train=16)
    assert neuron.channels == (5 if kind == "dsn" else None)
    assert neuron.with_weights(neuron.weights()).channels == neuron.channels


def test_lif_none_gains_parallel_path():
    neuron = make_neuron("lif-none")
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 2, 50))
    s_par = neuron.sequence(Tensor(x)).data
    np.testing.assert_array_equal(s_par, neuron.serial_fold(x))


# ---------------------------------------------------------------------------
# the taped LIF sequence op and the registry-wide interface


def _lif_cfg(leak: str, reset: str) -> NeuronConfig:
    if leak == "if":
        return NeuronConfig.integrate_fire(reset)
    return NeuronConfig.lif(2.0, reset)


def _fold_input_grad(cfg, x, w, sg):
    """Spikes and dL/dx of L = sum(w * S) through the per-step taped fold."""
    tape = nm.Tape()
    xt = tape.leaf(x)
    frames = lif_step_fold(cfg, xt, sg)
    loss = nm.sum_all(nm.mul(frames[0], Tensor(w[..., 0])))
    for t in range(1, len(frames)):
        loss = loss + nm.sum_all(nm.mul(frames[t], Tensor(w[..., t])))
    tape.backward(loss)
    return np.stack([f.data for f in frames], axis=-1), tape.grad(xt)


@pytest.mark.parametrize("sg", [Rectangular(), ArcTangent()], ids=["rect", "atan"])
@pytest.mark.parametrize("reset", ["hard", "soft", "none"])
@pytest.mark.parametrize("leak", ["lif", "if"])
def test_lif_sequence_gradient_matches_step_fold(leak, reset, sg):
    cfg = _lif_cfg(leak, reset)
    rng = np.random.default_rng(21)
    for steps in (1, 7, 64):
        x = rng.normal(size=(2, 3, steps)) * 1.5
        w = rng.normal(size=x.shape)
        tape = nm.Tape()
        xt = tape.leaf(x)
        s, _, _ = lif_sequence(cfg, xt, sg)
        tape.backward(nm.sum_all(nm.mul(s, Tensor(w))))
        s_fold, g_fold = _fold_input_grad(cfg, x, w, sg)
        np.testing.assert_array_equal(s.data, s_fold)
        scale = max(1.0, float(np.max(np.abs(g_fold))))
        assert np.max(np.abs(tape.grad(xt) - g_fold)) <= 1e-12 * scale


def _taped_forward(neuron, x, w):
    """Spikes and dL/dx of L = sum(w * S) through ``with_weights(...).forward``."""
    tape = nm.Tape()
    leaves = {name: tape.leaf(t.data) for name, t in neuron.weights().items()}
    xt = tape.leaf(x)
    rebuilt = neuron.with_weights(leaves)
    assert rebuilt.weights() == leaves  # every given tensor is used as is
    s = rebuilt.forward(xt)
    tape.backward(nm.sum_all(nm.mul(s, Tensor(w))))
    return s.data, tape.grad(xt)


def _central_differences(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += eps
        lo[idx] -= eps
        g[idx] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_registry_forward_matches_trace_and_gradient(kind):
    rng = np.random.default_rng(22)
    steps = 16
    neuron = make_neuron(kind, channels=3, t_train=steps, k=5, seed=1)
    x = rng.normal(size=(2, 3, steps)) * 2.0
    w = rng.normal(size=x.shape)
    s, gx = _taped_forward(neuron, x, w)
    s_trace, h = neuron.trace(x)
    np.testing.assert_array_equal(s, s_trace)
    if neuron.supports_step:
        np.testing.assert_array_equal(s, neuron.serial_fold(x))
    if neuron.supports_parallel:
        # reset-free: S = g(H(x)) with H smooth in x, so the taped gradient is
        # the membrane's Jacobian applied to w * g'(H), with g' the surrogate
        # (binary spikes) or the straight-through mask (integer counts)
        if neuron.n_max == 1:
            fire_grad = nm.surrogate_grad(neuron.sg, h - neuron.v_th)
        else:
            r = nm.round_half_away(h)
            fire_grad = ((r >= 0.0) & (r <= neuron.n_max)).astype(float)
        v = w * fire_grad
        ref = _central_differences(lambda xv: float(np.sum(v * neuron.trace(xv)[1])), x)
        assert np.max(np.abs(gx - ref)) <= 1e-6 * max(1.0, float(np.max(np.abs(ref))))
    else:
        _, g_fold = _fold_input_grad(neuron.cfg, x, w, neuron.sg)
        assert np.max(np.abs(gx - g_fold)) <= 1e-12 * max(1.0, float(np.max(np.abs(g_fold))))


def test_masked_psn_gradient_stays_in_band():
    rng = np.random.default_rng(23)
    neuron = make_neuron("masked-psn", channels=2, t_train=12, k=3)
    tape = nm.Tape()
    wt = tape.leaf(neuron.weights()["weight"].data)
    s = neuron.with_weights({"weight": wt}).forward(Tensor(rng.normal(size=(2, 2, 12)) * 2.0))
    tape.backward(nm.sum_all(s))
    g = tape.grad(wt)
    i, j = np.indices(g.shape)
    band = (j <= i) & (j > i - 3)
    assert not g[~band].any()
    assert g[band].any()


def test_init_decay_long_lengths_fill_only_the_causal_part():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masked = PsnParams.init_decay("masked", t_train=2048, k=32).weight.data
        full = PsnParams.init_decay("full", t_train=2048).weight.data
    i, j = np.indices(full.shape)
    lag = i - j
    assert not full[lag < 0].any()
    assert not masked[(lag < 0) | (lag >= 32)].any()
    np.testing.assert_array_equal(full[lag == 0], 0.5)
    np.testing.assert_array_equal(masked[lag == 31], 0.5 ** 32)
    # lengths the old full-matrix formula handled keep their exact weights
    small = PsnParams.init_decay("full", t_train=64).weight.data
    i, j = np.indices(small.shape)
    np.testing.assert_array_equal(small, np.where(j <= i, 0.5 ** (i - j) * 0.5, 0.0))


# ---------------------------------------------------------------------------
# the serial step contract


def _state_arrays(state):
    if isinstance(state, DsnState):
        return [state.h, state.window]
    return [state]


STEP_KINDS = [k for k in NEURON_KINDS if make_neuron(k, t_train=16).supports_step]


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_step_is_a_function_of_its_state(kind):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    rng = np.random.default_rng(25)
    state = neuron.init_state(2, 3)
    for _ in range(7):  # a state that is not all zeros
        _, _, state = neuron.step(state, rng.normal(size=(2, 3)) * 2.0)
    before = [a.copy() for a in _state_arrays(state)]
    x_t = rng.normal(size=(2, 3)) * 2.0
    first = neuron.step(state, x_t)
    second = neuron.step(state, x_t)
    for a, b in zip(_state_arrays(state), before):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(first[:2] + tuple(_state_arrays(first[2])),
                    second[:2] + tuple(_state_arrays(second[2]))):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_non_finite_input_is_rejected(kind, bad):
    neuron = make_neuron(kind, channels=3, t_train=16, k=5, seed=2)
    x = np.random.default_rng(26).normal(size=(2, 3, 16))
    x[1, 2, 9] = bad
    with pytest.raises(NonFiniteError):
        neuron.trace(x)
    if neuron.supports_step:
        with pytest.raises(NonFiniteError):
            neuron.serial_fold(x)


@pytest.mark.parametrize("kind", ["dsn", "sliding-psn"])
def test_non_finite_frame_is_rejected_by_step(kind):
    neuron = make_neuron(kind, channels=3, k=5, seed=2)
    state = neuron.init_state(1, 3)
    _, _, state = neuron.step(state, np.ones((1, 3)))
    with pytest.raises(NonFiniteError):
        neuron.step(state, np.array([[0.0, np.nan, 1.0]]))
