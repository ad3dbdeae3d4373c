import hashlib
import json

import numpy as np
import pytest

from spikescan import numerics as nm
from spikescan.errors import NonFiniteError
from spikescan.numerics import Tensor
from spikescan.tasks import TrainConfig
from spikescan.tasks.approx import (ApproxModel, ApproxTarget,
                                    run_approx_experiment, target_traces)
from spikescan.tasks.datasets import (dataset_b_specs, gen_dataset_a,
                                      gen_dataset_b, gen_shape_images,
                                      gen_wave_mixtures, render_signal,
                                      split_train_test)
from spikescan.tasks.extrapolate import _SequenceModel, run_extrapolation
from spikescan.tasks.pixel import run_pixel_task
from spikescan.tasks.training import Adam, Param, cosine_lr, fit


# ---------------------------------------------------------------------------
# dataset A


def test_dataset_a_statistics():
    data = gen_dataset_a(11000, seed=0).data
    assert data.shape == (11000, 1, 128)
    assert abs(data.mean() - 1.0) <= 0.05
    assert abs(data.std() - 2.0) <= 0.05


def test_dataset_a_bit_reproducible():
    a = gen_dataset_a(50, seed=7).data
    b = gen_dataset_a(50, seed=7).data
    assert a.tobytes() == b.tobytes()
    c = gen_dataset_a(50, seed=8).data
    assert a.tobytes() != c.tobytes()


def test_dataset_a_zero_sigma():
    data = gen_dataset_a(3, sigma=0.0, mu=1.0, seed=0).data
    np.testing.assert_array_equal(data, np.ones_like(data))


def test_dataset_a_validates_n():
    with pytest.raises(ValueError):
        gen_dataset_a(0)


# ---------------------------------------------------------------------------
# dataset B


def test_dataset_b_grid_cardinalities():
    specs = dataset_b_specs()
    kinds = [s.kind for s in specs]
    assert len(specs) == 800
    for kind in ("sine", "sigmoid", "step", "poisson"):
        assert kinds.count(kind) == 200


def test_dataset_b_emits_800_sequences():
    data, kinds = gen_dataset_b(seed=0)
    assert data.shape == (800, 1, 128)
    assert len(kinds) == 800


def test_sine_formula_at_origin():
    # first sine spec is amplitude -2, offset -2, 5 cycles
    specs = dataset_b_specs()
    first = specs[0]
    assert first.kind == "sine" and first.params == (-2.0, -2.0, 5.0)
    rng = np.random.default_rng(0)
    sig = render_signal(first, rng)
    assert sig[0] == pytest.approx(-2.0)  # A*sin(0) + B


def test_step_with_zero_edge_is_constant():
    specs = [s for s in dataset_b_specs()
             if s.kind == "step" and s.params[1] == 0.0]
    assert specs
    rng = np.random.default_rng(0)
    for spec in specs:
        sig = render_signal(spec, rng)
        np.testing.assert_array_equal(sig, spec.params[0])


def test_poisson_threshold_one_is_silent():
    specs = [s for s in dataset_b_specs()
             if s.kind == "poisson" and s.params[1] == 1.0]
    assert len(specs) == 5 * 8
    rng = np.random.default_rng(0)
    for spec in specs[:8]:
        # a uniform draw below 1 never clears the threshold
        assert not render_signal(spec, rng).any()


def test_split_train_test_partition():
    train, test = split_train_test(100, 0.1, seed=0)
    assert len(test) == 10 and len(train) == 90
    assert not set(train) & set(test)


# ---------------------------------------------------------------------------
# approximation model and experiment


def test_approx_param_count():
    model = ApproxModel(channels=6, k=8, expand=8)
    assert model.param_count() == 8 * 6 * 48 * 2 + 48 + 6


def test_zero_weights_give_quarter_decay():
    model = ApproxModel(channels=2, tau=0.5, seed=0)
    for p in model.params:
        p.value[:] = 0.0
    _, alpha = model.forward(Tensor(np.zeros((1, 2, 10))))
    np.testing.assert_allclose(alpha.data, 0.25)  # sigmoid(0)^(1/0.5)


def test_forward_on_zeros_is_silent():
    model = ApproxModel(channels=2, seed=0)
    h, _ = model.forward(Tensor(np.zeros((1, 2, 16))))
    np.testing.assert_array_equal(h.data, 0.0)


def test_target_traces_binary_vs_integer():
    sig = gen_dataset_a(4, seed=0).data
    h_b, s_b = target_traces(ApproxTarget(), sig)
    assert set(np.unique(s_b)) <= {0.0, 1.0}
    h_i, s_i = target_traces(ApproxTarget.soft_only(), sig, integer=True)
    np.testing.assert_array_equal(h_i, h_b[:, 3:, :])  # same membranes
    assert s_i.max() <= 4 and np.all(s_i == np.round(s_i))
    with pytest.raises(ValueError):
        target_traces(ApproxTarget(), sig, integer=True)


def test_approx_training_reduces_loss_and_is_deterministic():
    cfg = TrainConfig(epochs=2, seed=0)
    r1 = run_approx_experiment("a", cfg=cfg, n_train=120, n_test=40)
    r2 = run_approx_experiment("a", cfg=cfg, n_train=120, n_test=40)
    assert r1.epoch_losses[-1] < r1.epoch_losses[0]
    assert r1.epoch_losses == r2.epoch_losses
    assert r1.per_channel_accuracy == r2.per_channel_accuracy
    assert len(r1.per_channel_accuracy) == 6


def test_approx_dataset_b_path():
    cfg = TrainConfig(epochs=1, seed=0)
    res = run_approx_experiment("b", cfg=cfg)
    assert res.dataset == "b"
    assert 0.0 <= res.average_accuracy <= 1.0


# ---------------------------------------------------------------------------
# training machinery


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 1e-2) == pytest.approx(1e-2)
    assert cosine_lr(99, 100, 1e-2) == pytest.approx(0.0, abs=1e-9)


def test_adam_decoupled_weight_decay():
    cfg = TrainConfig(lr=0.1, weight_decay=0.5, epochs=1)
    p = Param("w", np.array([2.0]))
    opt = Adam([p], cfg)
    tape = nm.Tape()
    leaf = p.leaf(tape)
    tape.backward(nm.sum_all(nm.mul(leaf, 0.0)))  # zero gradient
    opt.step(tape, lr=0.1)
    # pure decay: w -= lr * wd * w
    assert p.value[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


# ---------------------------------------------------------------------------
# extrapolation


def test_wave_mixtures_are_stationary_in_scale():
    short = gen_wave_mixtures(16, 256, seed=0).data
    long = gen_wave_mixtures(16, 2048, seed=0).data
    assert abs(np.std(short) - np.std(long)) < 0.1


def test_locked_psn_raises_off_length():
    cfg = TrainConfig(lr=2e-3, epochs=1, batch_size=16, seed=0)
    res = run_extrapolation("psn", train_T=32, eval_Ts=(32, 64), cfg=cfg,
                            n_train=32, n_eval=8)
    assert 32 in res.eval_losses
    assert "LengthMismatch" in res.eval_errors[64]


def _train(model, n: int, T: int, cfg: TrainConfig) -> list[float]:
    """Train a sequence model through ``fit`` on wave mixtures of length T."""
    x = gen_wave_mixtures(n, T, seed=cfg.seed).data
    return list(fit(model.params, n, cfg,
                    lambda idx, tape: model.loss(Tensor(x[idx]), tape)))


def test_masked_psn_stays_banded_through_training():
    cfg = TrainConfig(lr=2e-3, epochs=2, batch_size=16, seed=0)
    model = _SequenceModel("masked-psn", channels=4, train_T=16, k=4, seed=0)
    w = next(p for p in model.params if p.name == "weight")
    start = w.value.copy()
    assert len(_train(model, 16, 16, cfg)) == 2
    assert not np.array_equal(w.value, start)  # the band itself did train
    i, j = np.indices(w.value.shape)
    assert not w.value[(j > i) | (j <= i - 4)].any()


def test_serial_eval_equals_parallel_loss_at_train_length():
    cfg = TrainConfig(lr=2e-3, epochs=2, batch_size=16, seed=0)
    x = gen_wave_mixtures(8, 64, seed=11).data
    for kind in ("dsn", "sliding-psn"):
        model = _SequenceModel(kind, channels=8, train_T=64, seed=cfg.seed)
        start = [p.value.copy() for p in model.params]
        losses = _train(model, 32, 64, cfg)
        assert losses[-1] < losses[0]
        # every weight, the neuron's included, left its initial value
        for p, before in zip(model.params, start):
            assert not np.array_equal(p.value, before), (kind, p.name)
        parallel = model.loss(Tensor(x)).item()
        assert abs(parallel - model.eval_serial(x)) <= 1e-8, kind


def test_sliding_psn_serial_matches_parallel_loss():
    model = _SequenceModel("sliding-psn", channels=8, train_T=64, seed=0)
    x = gen_wave_mixtures(6, 64, seed=3).data
    assert abs(model.loss(Tensor(x)).item() - model.eval_serial(x)) <= 1e-8


# ---------------------------------------------------------------------------
# pixel task


def test_pixel_shapes_dataset():
    imgs, labels = gen_shape_images(10, seed=0)
    assert imgs.shape == (40, 16, 16)
    assert sorted(np.unique(labels)) == [0, 1, 2, 3]
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0
    counts = np.bincount(labels)
    np.testing.assert_array_equal(counts, [10, 10, 10, 10])


def test_untrained_pixel_model_near_chance():
    cfg = TrainConfig(epochs=0, seed=0)
    res = run_pixel_task("dsn", cfg, n_train_per_class=10, n_test_per_class=25)
    assert 0.05 <= res.accuracy <= 0.5


def test_pixel_task_deterministic():
    cfg = TrainConfig(lr=3e-3, epochs=1, batch_size=32, seed=0)
    r1 = run_pixel_task("sliding-psn", cfg, n_train_per_class=15,
                        n_test_per_class=10)
    r2 = run_pixel_task("sliding-psn", cfg, n_train_per_class=15,
                        n_test_per_class=10)
    assert r1.accuracy == r2.accuracy
    assert r1.train_losses == r2.train_losses


# ---------------------------------------------------------------------------
# the shared training loop

# one sha256 over the ``to_dict()`` outputs below, recorded while each task
# still ran a training loop of its own
TASK_DIGEST = "86b0ecaeda43e311b320c226f1d787da39593e68cee13151eb1a4ab24806d439"


def test_task_outputs_match_golden_digest():
    outs = [run_approx_experiment("a", cfg=TrainConfig(epochs=2, seed=0),
                                  n_train=120, n_test=40, integer=integer,
                                  eval_at=(1,)).to_dict()
            for integer in (False, True)]
    cfg = TrainConfig(lr=2e-3, epochs=2, batch_size=16, seed=0)
    outs += [run_extrapolation(kind, train_T=64, eval_Ts=(64, 256), cfg=cfg,
                               n_train=32, n_eval=8, channels=8).to_dict()
             for kind in ("dsn", "sliding-psn", "psn")]
    cfg = TrainConfig(lr=3e-3, epochs=1, batch_size=32, seed=0)
    outs += [run_pixel_task(kind, cfg, n_train_per_class=15,
                            n_test_per_class=10).to_dict()
             for kind in ("lif", "dsn")]
    blob = json.dumps(outs, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TASK_DIGEST


def test_fit_yields_one_mean_loss_per_epoch_and_resumes_on_demand():
    p = Param("w", np.array([3.0]))
    x = np.arange(5.0)
    seen = []

    def batch_loss(idx, tape):
        seen.append(sorted(idx))
        leaf = p.leaf(tape)
        diff = nm.sub(nm.mul(leaf, Tensor(x[idx])), Tensor(x[idx]))
        return nm.mean_all(nm.mul(diff, diff))

    cfg = TrainConfig(lr=0.1, epochs=3, batch_size=2, seed=0)
    epochs = fit([p], 5, cfg, batch_loss)
    assert seen == []  # nothing trains until the first epoch is asked for
    first = next(epochs)
    assert len(seen) == 3 and sorted(sum(seen, [])) == list(range(5))
    assert first > 0 and len(list(epochs)) == 2 and len(seen) == 9


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in add:RuntimeWarning")
@pytest.mark.parametrize("task", ["approx", "extrapolate", "pixel"])
def test_diverging_training_raises_non_finite(task):
    runs = {
        "approx": lambda: run_approx_experiment(
            "a", cfg=TrainConfig(lr=1e200, epochs=2, seed=0), n_train=120,
            n_test=40),
        "extrapolate": lambda: run_extrapolation(
            "dsn", train_T=64, eval_Ts=(64,), n_train=32, n_eval=8, channels=8,
            cfg=TrainConfig(lr=1e200, epochs=2, batch_size=16, seed=0)),
        "pixel": lambda: run_pixel_task(
            "lif", TrainConfig(lr=1e200, epochs=1, batch_size=32, seed=0),
            n_train_per_class=15, n_test_per_class=10),
    }
    with pytest.raises(NonFiniteError, match="non-finite value produced by"):
        runs[task]()
