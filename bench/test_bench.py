"""Fast tests of the benchmark itself.

Run from the root of the repository with ``python3 -m pytest bench``.
A tiny pass of each workload must pass its checks, and every check must
reject a deliberately corrupted copy of a real output.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 0


@pytest.fixture(scope="module")
def ptc():
    return run.ptcsim_modules()


@pytest.fixture(scope="module")
def tiny(ptc, tmp_path_factory):
    """One tiny round per workload, run on first use: (plan, round, root)."""
    done = {}

    def get(name):
        if name not in done:
            root = tmp_path_factory.mktemp(name)
            plan = workloads.WORKLOADS[name](ptc, root, SEED, workloads.TINY, 2)
            done[name] = (plan, run.run_round(ptc, plan, run.package_caches()), root)
        return done[name]
    return get


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _rejects(fn, *args) -> None:
    with pytest.raises(checks.CheckFailed):
        fn(*args)


def test_benchmark_json_matches_the_code():
    spec = _json(ROOT / "BENCHMARK.json")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in (*layers.PER_LAYER, layers.OVERHEAD)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_round_passes_its_checks(tiny, name):
    _, rnd, _ = tiny(name)
    assert rnd.failures == []
    assert not rnd.wrong_output
    assert rnd.figures
    for value, _, _ in rnd.figures.values():
        assert math.isfinite(value) and value > 0


# -- fidelity_study --------------------------------------------------------

def test_nmae_check_rejects_corrupted_study(tiny):
    _, _, root = tiny("fidelity_study")
    good = _json(root / "nmae" / "nmae.json")
    checks.check_nmae_study(good, workloads.L_G_VALUES)

    low_z = copy.deepcopy(good)
    low_z["comparisons"][4]["z"] = 1.2
    _rejects(checks.check_nmae_study, low_z, workloads.L_G_VALUES)

    nan = copy.deepcopy(good)
    nan["rows"][0]["mean_nmae"] = float("nan")
    _rejects(checks.check_nmae_study, nan, workloads.L_G_VALUES)

    rising = copy.deepcopy(good)
    row = next(r for r in rising["rows"] if r["l_g_um"] == 5.0)
    row["mean_nmae"] = 1.0
    _rejects(checks.check_nmae_study, rising, workloads.L_G_VALUES)


def test_quiet_product_check_rejects_an_error():
    rng = np.random.default_rng(1)
    w, x = rng.uniform(-1, 1, (16, 16)), rng.uniform(0, 1, (16, 3))
    checks.check_quiet_product(w @ x, w, x)
    _rejects(checks.check_quiet_product, w @ x + 1e-7, w, x)


@pytest.mark.parametrize("k2_alive", [16, 4])
def test_detector_sigma_check_rejects_a_wrong_scale(ptc, k2_alive):
    core = ptc.core
    k1 = k2 = 16
    rng = np.random.default_rng(2)
    w, x = rng.uniform(-1, 1, (k1, k2)), rng.uniform(0, 1, (k2, 2000))
    col = np.arange(k2) < k2_alive
    lr = k2_alive < k2
    params = ptc.devices.DeviceParams(phase_noise_sigma_rad=0.0)
    mode = core.ExecutionMode.INPUT_GATING_LR if lr else core.ExecutionMode.PRUNE_ONLY
    y = core.simulate_mvm(x, w, col_mask=col, mode=mode, params=params,
                          rng_seed=3, coupling_free=True)
    residual = y - (w * col) @ x
    sigma = params.pd_noise_sigma
    checks.check_detector_sigma(residual, sigma, k2, k2_alive, lr)
    _rejects(checks.check_detector_sigma, residual * math.sqrt(k2), sigma, k2,
             k2_alive, lr)
    _rejects(checks.check_detector_sigma, residual / math.sqrt(k2), sigma, k2,
             k2_alive, lr)
    if lr:  # the same noise without the k2'/k2 readout scaling
        _rejects(checks.check_detector_sigma, residual * k2 / k2_alive, sigma,
                 k2, k2_alive, lr)


# -- sparse_training -------------------------------------------------------

def _sparse_outputs(tiny):
    _, _, root = tiny("sparse_training")
    out = root / "train"
    return _json(out / "checkpoint.json"), workloads._read_history(out / "metrics.csv")


def test_sparse_check_rejects_a_nonzero_masked_weight(tiny):
    ckpt, history = _sparse_outputs(tiny)
    checks.check_sparse_checkpoint(ckpt, history, workloads.SPARSE_DENSITY)
    mask = ckpt["masks"]["2"]
    conv2 = next(e for e in ckpt["layers"] if e["name"] == "conv2")
    w = np.asarray(conv2["w"])
    keep = checks.effective_mask(mask["row"], mask["col"], *w.shape)
    i, j = np.argwhere(~keep)[0]
    conv2["w"][i][j] = 0.125
    _rejects(checks.check_sparse_checkpoint, ckpt, history, workloads.SPARSE_DENSITY)


def test_sparse_check_rejects_an_unpruned_padded_column(tiny):
    ckpt, history = _sparse_outputs(tiny)
    mask = ckpt["masks"]["5"]
    mask["padded_col"] = np.asarray(mask["col"])[0].astype(int).tolist()
    _rejects(checks.check_sparse_checkpoint, ckpt, history, workloads.SPARSE_DENSITY)


@pytest.mark.parametrize("field,value", [
    ("density", workloads.SPARSE_DENSITY + 0.01),
    ("loss", float("nan")),
    ("accuracy", 0.15),
])
def test_sparse_check_rejects_a_bad_history(tiny, field, value):
    ckpt, history = _sparse_outputs(tiny)
    history[-1][field] = value
    _rejects(checks.check_sparse_checkpoint, ckpt, history, workloads.SPARSE_DENSITY)


def test_power_check_rejects_power_above_full_columns(ptc, tiny):
    _, _, root = tiny("sparse_training")
    _, history = _sparse_outputs(tiny)
    x_test = ptc.data.load_dataset("blobs", SEED)[2]
    full = workloads._full_column_power(
        ptc, root / "train", root / "sparse_training.json", x_test)
    checks.check_power_below_full(history[-1]["power_w"], full)
    _rejects(checks.check_power_below_full, full * 1.01, full)


# -- train_replay ----------------------------------------------------------

def _replay_outputs(tiny):
    _, _, root = tiny("train_replay")
    return (_json(root / "train" / "checkpoint.json"),
            workloads._read_history(root / "train" / "metrics.csv"),
            _json(root / "eval_lr" / "evaluate.json"),
            _json(root / "eval_prune_only" / "evaluate.json"))


def test_replay_checks_reject_corrupted_outputs(tiny):
    ckpt, history, gated, ungated = _replay_outputs(tiny)
    checks.check_full_columns(ckpt)
    checks.check_evaluation(history, gated)
    checks.check_gating_payoff(gated, ungated)

    ckpt["masks"]["2"]["col"][0][0][0][0] = 0
    _rejects(checks.check_full_columns, ckpt)

    off = copy.deepcopy(gated)
    off["clean_accuracy"] += 1 / 240
    _rejects(checks.check_evaluation, history, off)

    for bad in (None, float("nan"), 0.0):
        broken = copy.deepcopy(gated)
        broken["layer_nmae"]["conv1"] = bad
        _rejects(checks.check_evaluation, history, broken)

    _rejects(checks.check_gating_payoff, ungated, gated)


# -- design_walk -----------------------------------------------------------

def test_design_checks_reject_corrupted_outputs(tiny):
    _, _, root = tiny("design_walk")
    out = root / "walk"
    rep, sweep, walk = (_json(out / f) for f in
                        ("report.json", "sweep.json", "progressive.json"))

    off = copy.deepcopy(rep)
    off["row"]["p_avg_w"] = 20.6
    _rejects(checks.check_report, off)

    moved = copy.deepcopy(sweep)
    row = next(r for r in moved["rows"] if r["layout.l_s_um"] == 8.0)
    row["p_avg_w"] = 1.0
    _rejects(checks.check_sweep, moved)

    rising = copy.deepcopy(walk)
    rising["rows"][5]["p_avg_w"] = rising["rows"][4]["p_avg_w"] * 1.01
    _rejects(checks.check_walk, rising)

    short = copy.deepcopy(walk)
    del short["rows"][-1]
    _rejects(checks.check_walk, short)


# -- tracing ---------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10]; children a [1, 4] and b [3, 6] overlap (two threads);
    # a has one child [2, 3].
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 3.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 3.0])
    assert tracer.self_times(parent, start, end).tolist() == [5.0, 2.0, 3.0, 1.0]


def test_tracer_wraps_every_binding_and_restores_them(ptc):
    import ptcsim.sweeps
    import ptcsim.training

    orig = ptc.core.simulate_mvm_batch
    tr = tracer.Tracer()
    tr.install(layers.TARGETS)
    try:
        for mod in (ptc.core, ptcsim.sweeps, ptcsim.training):
            assert mod.simulate_mvm_batch.__wrapped__ is orig
        assert ptc.training.PhotonicBackend.__call__.__wrapped__ is not None
        assert len(tr.installed) == len(layers.TARGETS)
    finally:
        tr.uninstall()
    for mod in (ptc.core, ptcsim.sweeps, ptcsim.training):
        assert mod.simulate_mvm_batch is orig


def test_traced_round_reports_per_layer_metrics(ptc, tmp_path):
    plan = workloads.design_walk(ptc, tmp_path, SEED, workloads.TINY, 2)
    tr = tracer.Tracer()
    tr.install(layers.TARGETS)
    try:
        rnd = run.run_round(ptc, plan, run.package_caches(), tr)
    finally:
        tr.uninstall()
    assert rnd.failures == []
    metrics, absent = layers.per_layer_metrics(layers.totals(tr), tr.installed, 1)
    assert absent == []
    assert list(metrics) == [m.name for m in layers.PER_LAYER]
    assert metrics["arch.chunk_power.calls"][0] > 0
    assert metrics["sparsity.combinations_capped.self_s"][0] > 0
    assert metrics["nn.samples_forward"][0] == 0
    # Spans of the sweep's two worker threads overlap, so self times may add
    # up to a little more than the command time.
    shares = layers.layer_shares(layers.totals(tr))
    assert 0.9 < sum(shares.values()) < 1.05


def test_a_deleted_function_is_reported_absent(ptc):
    gone = [t if t.span != "sparsity.combinations_capped"
            else tracer.Target("ptcsim.sparsity", "no_such_function", t.span)
            for t in layers.TARGETS]
    tr = tracer.Tracer()
    tr.install(gone)
    tr.uninstall()
    metrics, absent = layers.per_layer_metrics(layers.totals(tr), tr.installed, 1)
    assert absent == ["sparsity.combinations_capped.self_s"]
    assert "sparsity.combinations_capped.self_s" not in metrics


# -- host speed ------------------------------------------------------------

def test_spent_within_counts_only_the_overlap():
    spans = [(0.0, 1.0), (2.0, 3.0), (4.5, 6.0)]
    assert hostspeed.spent_within(spans, 0.5, 5.0) == pytest.approx(0.5 + 1.0 + 0.5)
    assert hostspeed.spent_within(spans, 3.0, 4.5) == 0.0
    assert hostspeed.mean_sample_s(spans) == pytest.approx((1.0 + 1.0 + 1.5) / 3)


def test_sampled_round_takes_the_samples_out_of_its_times(ptc, tmp_path):
    plan = workloads.design_walk(ptc, tmp_path, SEED, workloads.TINY, 2)
    speed = hostspeed.HostSpeed()
    rnd = run.run_round(ptc, plan, run.package_caches(), speed=speed)
    assert rnd.failures == []
    assert speed.take() == []
    assert rnd.ref_s > 0
    # Each command is divided by the samples taken while it ran, so the sum
    # differs from wall_s / ref_s only by how the host's speed moved.
    assert rnd.wall_ref == pytest.approx(rnd.wall_s / rnd.ref_s, rel=0.5)


# -- the command -----------------------------------------------------------

def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "design_walk",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
