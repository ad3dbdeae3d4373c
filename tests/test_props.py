import hashlib
import json

import numpy as np
import pytest

from spikescan import neurons
from spikescan.errors import ReplayMismatch, SpikescanError
from spikescan.neurons import (NEURON_KINDS, DsnParams, DsnNeuron, LifNeuron,
                               make_neuron)
from spikescan.numerics import Tensor
from spikescan.props import (EXPECTED_CONDITIONS, EXPECTED_CONTROL,
                             check_conditions_table, check_long_control,
                             check_short_control)

from oracles import (alpha_duration_schedule, alpha_window_condition,
                     construct_soft_reset_counterexample, soft_reset_lemma_margin)

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


# sha256 of json.dumps(verdict.to_dict(), sort_keys=True) for
# check_short_control(make_neuron(kind), delta, 500, rng_seed=0), recorded
# with the LIF-only lane builder and forcing input; they pin lanes,
# witnesses, notes and trial counts bit for bit
SHORT_CONTROL_DIGESTS = {
    ("if-hard", 1): "b15ff7bdd476b86c05e56494db880f686187e28edfcd0df6108445eec01a8917",
    ("if-hard", 4): "05ec18c4de4187488706e42a6c1e4f3fbd4a78dbc66f03f846f63720d9593b6a",
    ("if-hard", 16): "b2a6b73390f0f5a014d221d5eea9ba78975b69b1ee8d1b1fe5173ded6e32983a",
    ("if-soft", 1): "3be0265c59eba85c66847d5534123b14547cd580680de8dd8d797c5df13fa2e5",
    ("if-soft", 4): "dcafd45a89bae95cfdd9da650a24a1463de65872ce088092485e4f0d0db386a1",
    ("if-soft", 16): "b38f171629a1897cd09abbd5ccc3ecff6e22d3be2275b26bceadac5aedb23ea4",
    ("lif-hard", 1): "9d534d205d134855ef360dd623f7731a6fdc54b768711f6ff7a3a25572cb69f1",
    ("lif-hard", 4): "64890662ea12007431ec3289429a7ea5367303e68c933f0fd265aeb4922d5d12",
    ("lif-hard", 16): "a1f065ffdd6233ea22e001f8691c0d22c009db274acd2dfb84127470dff5c17e",
    ("lif-soft", 1): "8ed306a8dac7d6c516741957c987a0f08a163b770c51ea09bcdb8f7131e1e482",
    ("lif-soft", 4): "8ba19d8b1247db3e465d6e4cf3a65e305fe7f36fdcd8388f9ba24d72d9604b5a",
    ("lif-soft", 16): "1702642e42f9e9ee99b7f8688bed68857e35656556eed9104c2333059a4435c9",
}


@pytest.mark.parametrize("kind, delta", list(SHORT_CONTROL_DIGESTS))
def test_classical_short_control_verdicts_match_golden_digest(kind, delta):
    verdict = check_short_control(make_neuron(kind), delta, 500, rng_seed=0)
    blob = json.dumps(verdict.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SHORT_CONTROL_DIGESTS[kind, delta]


def _digest(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON of each checker's output on the DSN and the
# sliding PSN, recorded while ``trace`` was still the fold of ``step``; they
# pin the block path's witnesses, trial counts and table rows bit for bit
DSN_SHORT_CONTROL_DIGESTS = {
    (1, 1): "b3ed02513e3f8326b2a9137c5f84817ab1dc41dcc744f39ae0425472f7c3bde5",
    (1, 4): "4d812deb635627e18501ef5febc69fca5fc0a392e95187efa2cfa7ad84427e95",
    (3, 1): "fc4a16d29da7d107d3dfb4844597998e1056ff2b7f86fbc7e55a74e9daaa33e2",
    (3, 4): "00252be9c26285b1d1640c7089eded33a4814451caee938530eca2378edd7508",
    (8, 1): "ef3fab9db02f32758c7c988ef8307b22f11a156a5b691326078abae275fcb194",
    (8, 4): "1350536cf06583402458a2f6607edc2f905902a8565b7aad4b0f1d59bfdf9e8c",
}
DSN_LONG_CONTROL_DIGEST = "6b952b677f84e90b8aeac4c3c954b3ec3be8a2d7d65a309933666af3b618bf65"
CONDITIONS_DIGESTS = {
    "dsn": "135d31cf50ec05a86c676a48aaab0ab0a8cfbf5040e578aa2fb86d6bcf48506d",
    "sliding-psn": "135d31cf50ec05a86c676a48aaab0ab0a8cfbf5040e578aa2fb86d6bcf48506d",
}


@pytest.mark.parametrize("channels, delta", list(DSN_SHORT_CONTROL_DIGESTS))
def test_dsn_short_control_verdicts_match_golden_digest(channels, delta):
    neuron = make_neuron("dsn", channels=channels, seed=0)
    verdict = check_short_control(neuron, delta, 1000, rng_seed=0)
    assert _digest(verdict.to_dict()) == DSN_SHORT_CONTROL_DIGESTS[channels, delta]


def test_dsn_long_control_verdict_matches_golden_digest():
    neuron = make_neuron("dsn", channels=3, seed=0)
    verdict = check_long_control(neuron, 2.0, T=4096, trials=64, rng_seed=0)
    assert _digest(verdict.to_dict()) == DSN_LONG_CONTROL_DIGEST


@pytest.mark.parametrize("kind", list(CONDITIONS_DIGESTS))
def test_block_path_conditions_tables_match_golden_digest(kind):
    neuron = make_neuron(kind, channels=3, t_train=32, k=8)
    assert _digest(check_conditions_table(neuron)) == CONDITIONS_DIGESTS[kind]


def test_dsn_short_control_under_window_condition():
    neuron = DsnNeuron(DsnParams.init(channels=1, seed=0))
    verdict = check_short_control(neuron, 4, TRIALS, rng_seed=0)
    assert verdict.holds


def test_live_dsn_short_control_fails_with_replaying_witness():
    neuron = make_neuron("dsn", channels=8, seed=0)
    verdict = check_short_control(neuron, 4, rng_seed=0)
    assert not verdict.holds
    w = verdict.witness
    assert w.inputs.shape == (8, 8)  # (C, lead-in 3 + burst 1 + window 4)
    assert w.channel in (2, 7) and f"channel {w.channel}" in w.note
    assert w.violated_t == 7
    assert np.all(w.inputs[:, -4:] < neuron.v_th / 4)
    assert w.to_dict()["channel"] == w.channel
    _, h = neuron.trace(w.inputs[None])
    np.testing.assert_array_equal(h[0, w.channel], w.trace)
    assert h[0, w.channel, 3] >= neuron.v_th and h[0, w.channel, -1] >= neuron.v_th
    # the same through the fold of ``step``
    state = neuron.init_state(1, 8)
    for t in range(w.inputs.shape[1]):
        _, h_t, state = neuron.step(state, w.inputs[None, :, t])
    assert h_t[0, w.channel] == w.trace[-1]


def test_short_control_holds_on_input_tracking_dsn():
    # zero kernel, bias -50: alpha = sigmoid(-50)^4 ~ 1e-87, so H = x
    # exactly and every burst reaches threshold, every window drops below
    params = DsnParams(conv_kernel=Tensor(np.zeros((3, 4))),
                       conv_bias=Tensor(np.full(3, -50.0)))
    verdict = check_short_control(DsnNeuron(params), 4, 1000, rng_seed=0)
    assert verdict.holds
    assert verdict.trials == 334 * 3  # ceil(1000 / 3) rows of 3 lanes


@pytest.mark.parametrize("kind", ["psn", "masked-psn", "sliding-psn"])
def test_short_control_undefined_for_psn_family(kind):
    neuron = make_neuron(kind, channels=2, t_train=16)
    with pytest.raises(ValueError, match="short control undefined"):
        check_short_control(neuron, 4, 100, rng_seed=0)


def test_short_control_has_one_body_for_every_kind():
    import inspect

    from spikescan import props
    assert not hasattr(props, "_check_short_control_dsn")
    assert "isinstance(neuron" not in inspect.getsource(props)


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


# _digest of check_long_control(make_neuron(kind), c_bound, rng_seed=0,
# **kwargs) for the kinds whose membrane diverges, with (holds, steps,
# violated_t), recorded while the divergence check called ``step`` once a
# frame.  if-none at C = 1 climbs by exactly 1 a step, so a divergence
# factor f crosses at step floor(f) + 1: before, at and after a 1024-frame
# boundary, and with max_steps one short of the crossing and at it
DIVERGENCE_DIGESTS = [
    ("if-soft", 2.0, {}, (False, 20000, 19999),
     "5f1d93de2a3f8cea44b8a6827126c930cdd5f28f158c7b1dec61544973b0d824"),
    ("if-none", 2.0, {}, (False, 10001, 10000),
     "65a489fd58ac0a6f38b920f3a1cb66a8c63485bc227e8bc13df6edcf777c43c6"),
    ("if-soft", 2.0, {"max_steps": 1000}, (True, 1000, None),
     "483f600540a261eadde543a559ce47fa0213de4040c54d6bd619b4d6fd62bc9e"),
    ("if-none", 1.0, {"divergence_factor": 100.0}, (False, 101, 100),
     "310d9d7dedd390be2ec7dffb341c1861ff8e9394f2aba42e6aea8c4d736ea31d"),
    ("if-none", 1.0, {"divergence_factor": 1023.5}, (False, 1024, 1023),
     "28bdffd9e99ca97e3db2116a8b0d6a3f3c8b77ad7bb9455ce41dba32aad255ee"),
    ("if-none", 1.0, {"divergence_factor": 1024.5}, (False, 1025, 1024),
     "33ce53788b771e656fb6a343a88eee21f914020ee377043d7194a231f2d1d02d"),
    ("if-none", 1.0, {"divergence_factor": 1023.5, "max_steps": 1024},
     (False, 1024, 1023),
     "28bdffd9e99ca97e3db2116a8b0d6a3f3c8b77ad7bb9455ce41dba32aad255ee"),
    ("if-none", 1.0, {"divergence_factor": 1023.5, "max_steps": 1023},
     (True, 1023, None),
     "06301070ca7919a9d9103dc1a73023f3a1915fd5938195fb79a9e1376e0f3732"),
]


@pytest.mark.parametrize("kind, c_bound, kwargs, outcome, digest", DIVERGENCE_DIGESTS,
                         ids=lambda v: v if isinstance(v, str) and len(v) < 20 else None)
def test_divergence_verdicts_match_golden_digest(kind, c_bound, kwargs, outcome, digest):
    verdict = check_long_control(make_neuron(kind), c_bound, rng_seed=0, **kwargs)
    w = verdict.witness
    assert (verdict.holds, verdict.detail["steps"], w and w.violated_t) == outcome
    assert _digest(verdict.to_dict()) == digest


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


# claimed bounds at C = 2 (v_th = 1, v_reset = 0); None: expected to diverge
CLAIMED_LONG_BOUNDS = {"lif-hard": 2.0, "lif-soft": 2.0, "lif-none": 2.0,
                       "if-hard": 3.0, "if-soft": None, "if-none": None,
                       "dsn": 2.0}


@pytest.mark.parametrize("kind", NEURON_KINDS)
def test_long_control_bound_is_claimed_by_the_neuron(kind):
    neuron = make_neuron(kind, channels=2, t_train=16)
    if kind in CLAIMED_LONG_BOUNDS:
        assert neuron.long_control_bound(2.0) == CLAIMED_LONG_BOUNDS[kind]
    else:
        with pytest.raises(ValueError, match="long control undefined"):
            check_long_control(neuron, 2.0, T=8, trials=4)


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


class _ClaimsHalf(DsnNeuron):
    """A DSN that claims its membrane stays at or below 0.5."""

    def long_control_bound(self, c_bound):
        return 0.5


def test_long_control_witness_names_the_violating_channel():
    # channel 0's decay saturates at 1, so its membrane stays near 0; only
    # channel 1 (decay 1/16) can pass the bound
    neuron = _ClaimsHalf(DsnParams(conv_kernel=Tensor(np.zeros((2, 4))),
                                   conv_bias=Tensor(np.array([800.0, 0.0]))))
    verdict = check_long_control(neuron, 2.0, T=16, trials=50, rng_seed=0)
    w = verdict.witness
    assert not verdict.holds
    assert w.channel == 1 and w.note.startswith("channel 1: ")
    assert w.inputs.shape == (2, 16)
    _, h = neuron.trace(w.inputs[None])
    np.testing.assert_array_equal(h[0, 1], w.trace)
    assert w.trace[w.violated_t] > 0.5 >= np.max(w.trace[:w.violated_t], initial=0.0)


@pytest.mark.parametrize("check", [
    lambda: check_long_control(make_neuron("lif-hard"), 2.0, T=16, trials=0),
    lambda: check_short_control(make_neuron("dsn", channels=3), 4, trials=0),
], ids=["long", "short"])
def test_checkers_refuse_no_trials(check):
    # a checker that tries nothing cannot fail, so its verdict would be vacuous
    with pytest.raises(ValueError, match="trials"):
        check()


# ---------------------------------------------------------------------------
# structural conditions table


@pytest.mark.parametrize("kind", list(EXPECTED_CONDITIONS))
def test_conditions_table_matches_published_rows(kind):
    neuron = make_neuron(kind, channels=3, t_train=32, k=8)
    assert check_conditions_table(neuron) == EXPECTED_CONDITIONS[kind]


class _LateBlocks(DsnNeuron):
    """A DSN whose block path returns every spike one frame late."""

    def _advance(self, state, x, membranes):
        s, h, state = super()._advance(state, x, membranes)
        return np.roll(s, 1, axis=0), h, state  # time-major


def test_conditions_table_fails_a_block_path_unlike_step():
    # at T = 16 and 32 untaped ``sequence`` runs the block path too, so the
    # rolled spikes also break condition 1's prefix equality
    neuron = _LateBlocks(make_neuron("dsn", channels=3, seed=0).params)
    table = check_conditions_table(neuron)
    assert table == {"condition1": False, "condition2": False, "condition3": False}


def test_condition3_runs_the_parallel_pass_at_any_width(monkeypatch):
    # 2 x 32 channels make 64 lanes, where untaped ``sequence`` runs the
    # same block path as ``trace``: the probe must take the taped pass,
    # ``_dsn_taped``, and spikes perturbed there alone break condition 3
    neuron = make_neuron("dsn", channels=32)
    taped = neurons._dsn_taped
    calls = []

    def spy(*args):
        calls.append(args)
        return taped(*args)

    monkeypatch.setattr(neurons, "_dsn_taped", spy)
    assert check_conditions_table(neuron)["condition3"]
    assert calls

    def perturbed(*args):
        s, h, sigma = taped(*args)
        return Tensor._attach(s.data + 1.0, s.tape, s._node), h, sigma

    monkeypatch.setattr(neurons, "_dsn_taped", perturbed)
    table = check_conditions_table(neuron)
    assert table == {"condition1": True, "condition2": True, "condition3": False}


def test_expected_control_registry_consistent():
    # each neuron as ``spikescan props`` builds it, so the table, the CLI and
    # this test describe the same neuron
    for kind, props in EXPECTED_CONTROL.items():
        neuron = make_neuron(kind, channels=3, t_train=32)
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
