import json

import numpy as np
import pytest

from spikescan.errors import ReplayMismatch, SpikescanError
from spikescan.neurons import DsnParams, DsnNeuron, LifNeuron, make_neuron
from spikescan.props import (EXPECTED_CONDITIONS, EXPECTED_CONTROL,
                             alpha_duration_schedule, alpha_window_condition,
                             check_conditions_table, check_long_control,
                             check_short_control,
                             construct_soft_reset_counterexample,
                             soft_reset_lemma_margin)

TRIALS = 3000  # unit-scale; the acceptance suite runs the full 10k


# ---------------------------------------------------------------------------
# short control


@pytest.mark.parametrize("kind", ["if-hard", "lif-hard"])
@pytest.mark.parametrize("delta", [1, 4, 16])
def test_hard_reset_has_short_control(kind, delta):
    verdict = check_short_control(make_neuron(kind), delta, TRIALS, rng_seed=0)
    assert verdict.holds
    assert verdict.witness is None
    assert verdict.trials >= TRIALS


@pytest.mark.parametrize("kind", ["if-soft", "lif-soft"])
def test_soft_reset_lacks_short_control(kind):
    verdict = check_short_control(make_neuron(kind), 4, TRIALS, rng_seed=0)
    assert not verdict.holds
    assert verdict.witness is not None


def test_short_control_witness_replays_exactly(tmp_path):
    neuron = make_neuron("if-soft")
    verdict = check_short_control(neuron, 4, TRIALS, rng_seed=0)
    w = verdict.witness
    _, h = neuron.trace(w.inputs[None, None, :])
    np.testing.assert_array_equal(h[0, 0], w.trace)
    assert h[0, 0, -1] >= 1.0  # the violation itself
    # and the verdict serializes
    json.dumps(verdict.to_dict())


def test_dsn_short_control_under_window_condition():
    neuron = DsnNeuron(DsnParams.init(channels=1, seed=0))
    verdict = check_short_control(neuron, 4, TRIALS, rng_seed=0)
    assert verdict.holds


def test_counterexample_matches_hand_value():
    x = construct_soft_reset_counterexample(4, 1.0, np.full(4, 0.2))
    assert x[0] == pytest.approx(4.3)
    np.testing.assert_array_equal(x[1:], 0.2)


def test_counterexample_keeps_soft_accumulator_firing():
    x = construct_soft_reset_counterexample(4, 1.0, np.full(4, 0.2))
    neuron = make_neuron("if-soft")
    s, h = neuron.trace(x[None, None, :])
    assert s[0, 0].sum() >= 4  # at least four consecutive spikes
    assert np.all(s[0, 0, :4] == 1.0)
    assert h[0, 0, -1] >= 1.0


def test_counterexample_one_step_case():
    x = construct_soft_reset_counterexample(1, 1.0, np.zeros(1))
    assert x[0] > 2.0


def test_hard_reset_stops_after_one_step_on_same_input():
    x = construct_soft_reset_counterexample(4, 1.0, np.full(4, 0.2))
    neuron = make_neuron("if-hard")
    s, _ = neuron.trace(x[None, None, :])
    np.testing.assert_array_equal(s[0, 0], [1, 0, 0, 0, 0])


def test_counterexample_input_validation():
    with pytest.raises(ValueError):
        construct_soft_reset_counterexample(4, 1.0, np.full(4, 0.3))


# ---------------------------------------------------------------------------
# long control


def test_lif_hard_bounded_by_c():
    verdict = check_long_control(make_neuron("lif-hard"), 3.0, T=96,
                                 trials=TRIALS, rng_seed=0)
    assert verdict.holds
    assert verdict.detail["claimed_bound"] == 3.0


def test_if_hard_bounded_by_c_plus_threshold():
    verdict = check_long_control(make_neuron("if-hard"), 2.0, T=96,
                                 trials=TRIALS, rng_seed=0)
    assert verdict.holds
    assert verdict.detail["claimed_bound"] == 3.0


def test_lif_soft_bounded_by_c():
    verdict = check_long_control(make_neuron("lif-soft"), 2.0, T=96,
                                 trials=TRIALS, rng_seed=0)
    assert verdict.holds


def test_if_soft_diverges_under_constant_drive():
    verdict = check_long_control(make_neuron("if-soft"), 2.0, rng_seed=0)
    assert not verdict.holds
    assert verdict.detail["steps"] <= 100_000
    w = verdict.witness
    assert w is not None
    # constant drive at C: H_t = t*C - (t-1)*v_th grows linearly
    t = verdict.detail["steps"]
    assert w.trace[-1] == pytest.approx(t * 2.0 - (t - 1) * 1.0)


def test_if_none_diverges():
    verdict = check_long_control(make_neuron("if-none"), 2.0, rng_seed=0)
    assert not verdict.holds


def test_dsn_long_control_bound_max_zero_c():
    neuron = DsnNeuron(DsnParams.init(channels=2, seed=1))
    verdict = check_long_control(neuron, 2.0, T=96, trials=TRIALS, rng_seed=0)
    assert verdict.holds
    assert verdict.detail["claimed_bound"] == 2.0


def test_dsn_convex_interval_bound():
    # inputs in [m, M] keep the membrane inside [min(0, m), max(0, M)]
    from oracles import dsn_serial_trace
    rng = np.random.default_rng(0)
    params = DsnParams.init(channels=3, seed=2)
    for m, M in ((-2.0, 3.0), (0.5, 1.5), (-4.0, -1.0)):
        x = rng.uniform(m, M, size=(2, 3, 300))
        _, h, _ = dsn_serial_trace(params, x)
        assert h.max() <= max(0.0, M) + 1e-12
        assert h.min() >= min(0.0, m) - 1e-12


def test_long_control_witness_replays():
    # force a violation by checking an impossible bound: a no-reset leaky
    # neuron against c/10
    neuron = make_neuron("lif-none")
    verdict = check_long_control(neuron, 0.1, T=64, trials=500, rng_seed=0)
    assert verdict.holds  # bound c is honest for leaky no-reset
    bad = check_long_control(make_neuron("lif-soft"), 2.0, T=64,
                             trials=500, rng_seed=0)
    assert bad.holds


# ---------------------------------------------------------------------------
# the alpha window condition and duration schedules


def test_alpha_window_threshold_value():
    thr = alpha_window_condition(4.0, 0.0, 1.0)
    assert thr == pytest.approx(0.25)
    h = 0.2 * 4.0 + (1 - 0.2) * 0.0  # alpha below the window tames in one step
    assert h < 1.0


def test_alpha_window_boundary():
    assert alpha_window_condition(1.0, 0.0, 1.0) == pytest.approx(1.0)


def test_alpha_window_vacuous():
    with pytest.raises(ValueError):
        alpha_window_condition(0.5, 0.5, 1.0)


@pytest.mark.parametrize("duration", [1, 2, 4])
def test_duration_schedule_controls_influence_window(duration):
    delta = 4
    v_th = 1.0
    rng = np.random.default_rng(duration)
    inputs = rng.uniform(0.0, v_th / delta, size=delta)
    h = 4.0
    alphas = alpha_duration_schedule(h, inputs, v_th, duration)
    trace = []
    for a, x in zip(alphas, inputs):
        h = a * h + (1 - a) * x
        trace.append(h)
    trace = np.asarray(trace)
    assert np.all(trace[:duration - 1] >= v_th)
    assert np.all(trace[duration - 1:] < v_th)


def test_duration_schedule_full_window():
    # duration = delta: at or above threshold through the window, below after
    delta = 6
    inputs = np.full(delta, 0.1)
    alphas = alpha_duration_schedule(8.0, inputs, 1.0, delta)
    h = 8.0
    for i, (a, x) in enumerate(zip(alphas, inputs)):
        h_prev = h
        h = a * h + (1 - a) * x
        if i < delta - 1:
            assert h >= 1.0
    assert h < 1.0
    del h_prev


class _ShiftingReplay(LifNeuron):
    """A classical neuron whose reported membrane moves between trace calls."""

    def __init__(self, kind: str, offsets):
        super().__init__(make_neuron(kind).cfg)
        self.offsets = list(offsets)

    def trace(self, x):
        s, h = super().trace(x)
        return s, h + self.offsets.pop(0)


@pytest.mark.parametrize("check, kind, offsets", [
    (lambda n: check_short_control(n, 4, 200, rng_seed=0), "lif-hard", [-100.0]),
    (lambda n: check_short_control(n, 4, 200, rng_seed=0), "if-soft", [0.0, -100.0]),
    (lambda n: check_long_control(n, 2.0, T=16, trials=50, rng_seed=0), "lif-hard",
     [100.0, 0.0]),
], ids=["short-forcing", "short-witness", "long-witness"])
def test_replay_disagreement_raises(check, kind, offsets):
    assert issubclass(ReplayMismatch, SpikescanError)
    with pytest.raises(ReplayMismatch):
        check(_ShiftingReplay(kind, offsets))


# ---------------------------------------------------------------------------
# structural conditions table


@pytest.mark.parametrize("kind", list(EXPECTED_CONDITIONS))
def test_conditions_table_matches_published_rows(kind):
    neuron = make_neuron(kind, channels=3, t_train=32, k=8)
    assert check_conditions_table(neuron) == EXPECTED_CONDITIONS[kind]


def test_expected_control_registry_consistent():
    for kind, props in EXPECTED_CONTROL.items():
        neuron = make_neuron(kind, channels=1)
        for prop, expected in props.items():
            if prop == "short-control":
                verdict = check_short_control(neuron, 4, 500, rng_seed=0)
            else:
                verdict = check_long_control(neuron, 2.0, T=64, trials=500,
                                             rng_seed=0)
            assert verdict.holds == expected, (kind, prop)


# ---------------------------------------------------------------------------
# the soft-reset lemma, checked exhaustively in integer arithmetic


def test_lemma_exhaustive_up_to_64():
    for delta in range(1, 65):
        for m in range(1, delta + 1):
            assert soft_reset_lemma_margin(delta, m) >= 0
    # equality exactly at m = delta
    assert soft_reset_lemma_margin(5, 5) == 0
    assert soft_reset_lemma_margin(5, 4) > 0
