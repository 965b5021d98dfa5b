"""End-to-end sparse training, hardware-backed evaluation, checkpoints."""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest

import ptcsim.training
from ptcsim.core import ExecutionMode, derive_rng, nmae
from ptcsim.data import load_dataset, resolve_dataset, synthetic_separable
from ptcsim.devices import DeviceModelError, DeviceParams
from ptcsim.layout import LayoutParams
from ptcsim.nn import _MatmulLayer, build_desk_convnet, build_toy_mlp
from ptcsim.sparsity import DstSchedule, init_masks, mask_power, partition
from ptcsim.training import (
    DESK_ARCH,
    PhotonicBackend,
    TrainResult,
    Workspace,
    _dense_mask,
    evaluate_accuracy,
    evaluate_with_variation,
    load_checkpoint,
    model_power_w,
    save_checkpoint,
    train,
)
from ptcsim.devices import GammaFit

LAY = LayoutParams()
QUIET = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.0)


def _toy_data():
    x, y = synthetic_separable(n=240, dim=12, classes=3, seed=0)
    return x[:180], y[:180], x[180:], y[180:]


def _toy_model():
    return build_toy_mlp(derive_rng(0, 10), 12, 16, 3)


def test_photonic_backend_is_transparent_when_quiet():
    """Light redistribution with no noise and no crosstalk must reproduce
    the exact product, including the chunk partitioning and rescaling."""
    rng = np.random.default_rng(0)
    w = rng.uniform(-1.0, 1.0, size=(4, 16))
    x = rng.uniform(0.0, 1.0, size=(16, 9))
    mask = init_masks(1.0, 4, 16, DESK_ARCH, w, QUIET, LAY)
    backend = PhotonicBackend(mask, DESK_ARCH, QUIET, LAY, GammaFit(),
                              ExecutionMode.INPUT_GATING_LR, derive_rng(0),
                              coupling_free=True)
    y = backend(w, x)
    assert np.allclose(y, w @ x, rtol=1e-9, atol=1e-12)
    assert len(backend.nmae_log) == 1
    assert backend.nmae_log[0] < 1e-9


def test_backends_sharing_a_workspace_match_fresh_ones():
    """One workspace across three layers in turn: an unpadded layer (fan_in
    144, 18 chunks of 8 columns), a padded one (fan_in 9, whose pad rows
    then hold the first layer's inputs), then the first again.  Every
    product and N-MAE equals bit for bit a fresh backend's, and the
    caller's input is never written.  Under prune-only the pad columns'
    leakage reads the pad rows, so stale inputs there would show."""
    rng = np.random.default_rng(2)
    layers = []
    for c_out, fan_in, m in ((8, 144, 50), (6, 9, 70)):
        w = rng.uniform(-0.5, 0.5, size=(c_out, fan_in))
        x = rng.uniform(0.0, 3.0, size=(fan_in, m))
        mask = init_masks(0.5, c_out, fan_in, DESK_ARCH, w, DeviceParams(), LAY)
        layers.append((w, x, mask))
    shared = Workspace()
    for call, (w, x, mask) in enumerate([layers[0], layers[1], layers[0]]):
        def backend(**kwargs):
            return PhotonicBackend(mask, DESK_ARCH, DeviceParams(), LAY, GammaFit(),
                                   ExecutionMode.PRUNE_ONLY,
                                   derive_rng(3, call), **kwargs)

        before = x.copy()
        reused, fresh = backend(workspace=shared), backend()
        y = reused(w, x)
        assert np.array_equal(x, before)
        assert np.array_equal(y, fresh(w, x))
        assert reused.nmae_log == fresh.nmae_log and len(fresh.nmae_log) == 1


def test_photonic_backend_rejects_foreign_mask():
    rng = np.random.default_rng(1)
    w = rng.uniform(-1, 1, size=(4, 16))
    mask = init_masks(1.0, 4, 24, DESK_ARCH, np.zeros((4, 24)), QUIET, LAY)
    backend = PhotonicBackend(mask, DESK_ARCH, QUIET, LAY, GammaFit(),
                              ExecutionMode.PRUNE_ONLY, derive_rng(0))
    with pytest.raises(DeviceModelError, match="does not fit"):
        backend(w, np.zeros((16, 2)))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _run_toy(s: float, epochs: int = 4, threads: int = 1) -> TrainResult:
    model, sparse = _toy_model()
    return train(model, sparse, _toy_data(), s,
                 DstSchedule.for_epochs(epochs), DESK_ARCH, QUIET, LAY,
                 epochs=epochs, lr=2e-3, batch_size=32, seed=0,
                 meta={"model_kind": "toy_mlp",
                       "model_args": {"d_in": 12, "hidden": 16, "classes": 3},
                       "quant": [8, 6]}, threads=threads)


def test_train_history_and_mask_invariants():
    result = _run_toy(0.4)
    assert len(result.history) == 4
    for row in result.history:
        assert set(row) == {"epoch", "loss", "accuracy", "density", "power_w"}
        assert np.isfinite(row["loss"]) and 0.0 <= row["accuracy"] <= 1.0
    # density stays within one column granule of the target every epoch
    mask = result.masks[2]
    granule = mask.row.sum() / mask.effective6().size
    for row in result.history:
        assert abs(row["density"] - 0.4) <= granule / 2 + 1e-12
    # masked weights are exactly zero in the stored model
    layer = result.model.layers[2]
    dense = mask.to_dense(*layer.w.shape)
    assert np.all(layer.w[~dense] == 0.0)
    assert result.meta["density_target"] == 0.4
    assert result.meta["epochs"] == 4


def test_train_dense_target_never_explores():
    result = _run_toy(1.0, epochs=2)
    assert all(row["density"] == 1.0 for row in result.history)
    assert result.masks[2].col.all()


def test_train_is_deterministic():
    a = _run_toy(0.4, epochs=2)
    b = _run_toy(0.4, epochs=2)
    assert a.history == b.history
    assert np.array_equal(a.model.layers[2].w, b.model.layers[2].w)
    assert np.array_equal(a.masks[2].col, b.masks[2].col)


def test_train_threads_leave_the_result_unchanged():
    one = _run_toy(0.4, epochs=3)
    for threads in (2, 3):
        got = _run_toy(0.4, epochs=3, threads=threads)
        assert got.history == one.history
        assert got.masks == one.masks
        for a, b in zip(got.model.matmul_layers(), one.model.matmul_layers()):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
def test_train_rejects_a_bad_thread_count(threads):
    with pytest.raises(DeviceModelError, match="threads must be at least 1"):
        _run_toy(0.4, epochs=2, threads=threads)


def test_train_aborts_on_divergence():
    model, sparse = _toy_model()
    model.layers[0].w[:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            train(model, sparse, _toy_data(), 0.5, DstSchedule.for_epochs(2),
                  DESK_ARCH, QUIET, LAY, epochs=2, batch_size=32, seed=0)


def test_sparser_masks_draw_less_power():
    model, _ = _toy_model()
    x_probe = _toy_data()[0][:4]
    lean = init_masks(0.4, 16, 16, DESK_ARCH, model.layers[2].w, QUIET, LAY)
    full = init_masks(1.0, 16, 16, DESK_ARCH, model.layers[2].w, QUIET, LAY)
    p_lean = model_power_w(model, {2: lean}, DESK_ARCH, QUIET, LAY,
                           GammaFit(), x_probe)
    p_full = model_power_w(model, {2: full}, DESK_ARCH, QUIET, LAY,
                           GammaFit(), x_probe)
    assert p_lean < p_full


def test_model_power_weights_layers_by_chunk_cycles():
    """A layer runs p*q chunks (its dimensions over the 8x8 chunk, rounded
    up) once per im2col vector, and its chunk-mean power counts for that
    many cycles."""
    model, _ = build_desk_convnet(derive_rng(0, 10))
    x = load_dataset("blobs", 0)[2]
    # layer index: (p*q, vectors per 8x8 sample)
    cycles = {0: (1 * 2, 64), 2: (2 * 9, 64), 5: (2 * 18, 16), 9: (2 * 8, 1)}
    energy = n_cycles = 0.0
    for idx, (chunks, vectors) in cycles.items():
        w = model.layers[idx].w
        mask = init_masks(1.0, *w.shape, DESK_ARCH, w, QUIET, LAY)
        chunk_mw = mask_power(mask, partition(w, DESK_ARCH), DESK_ARCH,
                              QUIET, LAY) / chunks
        energy += chunk_mw * chunks * vectors
        n_cycles += chunks * vectors
    got = model_power_w(model, {}, DESK_ARCH, QUIET, LAY, GammaFit(), x)
    assert got == pytest.approx(energy / n_cycles / 1e3, rel=1e-12)


# ---------------------------------------------------------------------------
# noisy evaluation
# ---------------------------------------------------------------------------

def test_evaluate_with_variation_contract():
    result = _run_toy(0.5, epochs=2)
    x_test, y_test = _toy_data()[2][:40], _toy_data()[3][:40]
    out = evaluate_with_variation(result.model, result.masks, DESK_ARCH,
                                  DeviceParams(), LAY, GammaFit(),
                                  "prune_only", n_trials=2, seed=0,
                                  x=x_test, y=y_test)
    assert out["mode"] == "prune_only"
    assert len(out["trial_accuracies"]) == 2
    assert out["clean_accuracy"] == evaluate_accuracy(result.model, x_test, y_test)
    assert set(out["layer_nmae"]) == {"fc1", "fc2", "fc3"}
    assert all(v is not None and v >= 0 for v in out["layer_nmae"].values())
    # the photonic hooks are detached afterwards
    assert all(l.photonic is None for l in result.model.matmul_layers())
    # identical seeds replay identical noise
    again = evaluate_with_variation(result.model, result.masks, DESK_ARCH,
                                    DeviceParams(), LAY, GammaFit(),
                                    ExecutionMode.PRUNE_ONLY, n_trials=2,
                                    seed=0, x=x_test, y=y_test)
    assert again == out
    with pytest.raises(DeviceModelError, match="n_trials"):
        evaluate_with_variation(result.model, result.masks, DESK_ARCH,
                                DeviceParams(), LAY, GammaFit(),
                                "prune_only", n_trials=0, seed=0,
                                x=x_test, y=y_test)


def test_evaluate_with_variation_reports_the_sample_std():
    result = _run_toy(0.5, epochs=2)
    x_test, y_test = _toy_data()[2][:40], _toy_data()[3][:40]

    def run(n_trials):
        return evaluate_with_variation(result.model, result.masks, DESK_ARCH,
                                       DeviceParams(), LAY, GammaFit(),
                                       "prune_only", n_trials=n_trials,
                                       seed=3, x=x_test, y=y_test)

    two = run(2)
    assert two["noisy_accuracy_std"] == float(
        np.std(two["trial_accuracies"], ddof=1))
    one = run(1)
    assert len(one["trial_accuracies"]) == 1
    assert one["noisy_accuracy_std"] is None
    assert one["noisy_accuracy_mean"] == one["trial_accuracies"][0]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_and_stability(tmp_path):
    result = _run_toy(0.5, epochs=2)
    path = tmp_path / "ckpt.json"
    schedule = DstSchedule.for_epochs(2)
    save_checkpoint(path, result, DESK_ARCH, schedule)

    model, sparse, masks, arch, obj = load_checkpoint(path)
    assert sparse == [2]
    assert arch == DESK_ARCH
    assert obj["history"] == result.history
    for mine, theirs in zip(result.model.matmul_layers(),
                            model.matmul_layers()):
        assert np.array_equal(mine.w, theirs.w)
        assert np.array_equal(mine.b, theirs.b)
    assert np.array_equal(masks[2].col, result.masks[2].col)
    assert np.array_equal(masks[2].row, result.masks[2].row)

    # loading and re-saving reproduces the file byte for byte
    path2 = tmp_path / "ckpt2.json"
    save_checkpoint(path2, TrainResult(model, sparse, masks, obj["history"],
                                       obj["meta"]), arch, schedule)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(DeviceModelError, match="unsupported checkpoint"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def test_blobs_dataset_shape_and_determinism():
    xa, ya, xta, yta = load_dataset("blobs", seed=0)
    xb, yb, _, _ = load_dataset("blobs", seed=0)
    assert xa.shape == (960, 1, 8, 8) and xta.shape == (240, 1, 8, 8)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    assert xa.min() >= 0.0 and xa.max() <= 1.0
    assert set(np.unique(yta)) <= set(range(10))
    del xta, yta


def test_digits_dataset_split():
    x_train, y_train, x_test, y_test = load_dataset("digits", seed=0)
    assert x_train.shape == (1500, 1, 8, 8) and x_test.shape == (297, 1, 8, 8)
    assert 0.0 <= x_train.min() and x_train.max() <= 1.0
    assert set(np.unique(y_train)) == set(range(10))
    del y_test


def test_digits_substitute_is_announced():
    # Without scikit-learn, digits loads blobs and says so; with it, no
    # warning.  blobs never warns.
    substituted = resolve_dataset("digits") == "blobs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_dataset("digits", seed=0)
        load_dataset("blobs", seed=0)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, UserWarning)]
    if substituted:
        assert len(messages) == 1
        assert "scikit-learn" in messages[0] and "'blobs'" in messages[0]
    else:
        assert messages == []


def test_unknown_dataset_name():
    with pytest.raises(ValueError, match="unknown dataset"):
        load_dataset("mnist")


@pytest.mark.parametrize("mode", ["input_gating_lr", "prune_only"])
def test_evaluate_with_variation_matches_fresh_backends(mode):
    """The evaluation's one shared workspace changes nothing: its dict
    equals that of a loop building fresh backends, each with no workspace."""
    result = _run_toy(0.5, epochs=2)
    model, x_test, y_test = result.model, _toy_data()[2][:40], _toy_data()[3][:40]
    args = (DESK_ARCH, DeviceParams(), LAY, GammaFit())
    got = evaluate_with_variation(model, result.masks, *args, mode, n_trials=3,
                                  seed=5, x=x_test, y=y_test, output_gating=False)

    mapped = [(idx, layer) for idx, layer in enumerate(model.layers)
              if isinstance(layer, _MatmulLayer)]
    accs, logs = [], {layer.name: [] for _, layer in mapped}
    for trial in range(3):
        for idx, layer in mapped:
            layer.photonic = PhotonicBackend(
                result.masks.get(idx) or _dense_mask(layer, *args), *args,
                ExecutionMode.parse(mode), derive_rng(5, 300, trial, idx),
                output_gating=False, coupling_free=(idx == mapped[-1][0]))
        accs.append(evaluate_accuracy(model, x_test, y_test))
        for _, layer in mapped:
            logs[layer.name].append(float(np.mean(layer.photonic.nmae_log)))
            layer.photonic = None
    assert got == {
        "mode": mode, "output_gating": False,
        "clean_accuracy": evaluate_accuracy(model, x_test, y_test),
        "noisy_accuracy_mean": float(np.mean(accs)),
        "noisy_accuracy_std": float(np.std(accs, ddof=1)),
        "trial_accuracies": accs,
        "layer_nmae": {name: float(np.mean(v)) for name, v in logs.items()},
    }


# ---------------------------------------------------------------------------
# evaluation on a worker thread
# ---------------------------------------------------------------------------

def _evaluate_toy(result, mode, output_gating, threads, n_test=40):
    if n_test <= 60:
        x_test, y_test = _toy_data()[2][:n_test], _toy_data()[3][:n_test]
    else:
        x_test, y_test = synthetic_separable(n=n_test, dim=12, classes=3, seed=4)
    return evaluate_with_variation(result.model, result.masks, DESK_ARCH,
                                   DeviceParams(), LAY, GammaFit(), mode,
                                   n_trials=2, seed=7, x=x_test, y=y_test,
                                   output_gating=output_gating, threads=threads)


@pytest.mark.parametrize("mode, output_gating",
                         [("input_gating_lr", True), ("prune_only", False)])
@pytest.mark.parametrize("n_test", [40, 600])
def test_evaluate_threads_leave_the_result_unchanged(mode, output_gating, n_test):
    """600 test samples are two batches, so each backend makes two calls
    on one generator: the second call's draws follow the first's."""
    result = _run_toy(0.5, epochs=2)
    one = _evaluate_toy(result, mode, output_gating, 1, n_test)
    for threads in (2, 3):
        assert _evaluate_toy(result, mode, output_gating, threads, n_test) == one


def test_evaluate_threads_under_frequent_thread_switches():
    result = _run_toy(0.5, epochs=2)
    one = _evaluate_toy(result, "input_gating_lr", True, 1, 600)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [_evaluate_toy(result, "input_gating_lr", True, threads, 600)
               for threads in (2, 3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [one, one]


def test_evaluate_scores_on_the_worker_and_raises_its_error(monkeypatch):
    result = _run_toy(0.5, epochs=2)
    ran_on = set()
    score = ptcsim.training._score

    def recording(*args):
        ran_on.add(threading.current_thread() is threading.main_thread())
        return score(*args)

    monkeypatch.setattr(ptcsim.training, "_score", recording)
    _evaluate_toy(result, "prune_only", True, 2)
    assert ran_on == {False}

    def failing(*args):
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(ptcsim.training, "_score", failing)
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="scoring failed"):
            _evaluate_toy(result, "prune_only", True, threads)
        assert all(l.photonic is None for l in result.model.matmul_layers())


@pytest.mark.parametrize("threads", [0, -1, 1.5, True])
def test_evaluate_rejects_a_bad_thread_count(threads):
    result = _run_toy(0.5, epochs=2)
    with pytest.raises(DeviceModelError, match="threads must be at least 1"):
        _evaluate_toy(result, "prune_only", True, threads)


@pytest.mark.parametrize("pooled", [False, True])
def test_photonic_backend_logs_core_nmae(pooled):
    """The logged score equals ``core.nmae`` of the product against the
    exact masked reference bit for bit, with and without a pool; the
    product is read-only, since the scoring may still read it."""
    rng = np.random.default_rng(4)
    w = rng.uniform(-0.5, 0.5, size=(6, 20))
    x = rng.uniform(0.0, 2.0, size=(20, 30))
    mask = init_masks(0.5, 6, 20, DESK_ARCH, w, DeviceParams(), LAY)
    with ThreadPoolExecutor(max_workers=1) if pooled else nullcontext() as pool:
        backend = PhotonicBackend(mask, DESK_ARCH, DeviceParams(), LAY,
                                  GammaFit(), ExecutionMode.INPUT_GATING,
                                  derive_rng(1), pool=pool)
        y = backend(w, x)
        assert not y.flags.writeable
        assert backend.nmae_log == [nmae(y, (w * mask.to_dense(6, 20)) @ x)]
