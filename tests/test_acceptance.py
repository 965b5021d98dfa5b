"""Acceptance gate: one test per headline requirement.

Each test prints a single ``criterion NN PASS|FAIL - label`` line (visible
with ``pytest -s``; under default capture the per-test PASSED/FAILED report
carries the same information through the test names).  Tolerances and time
budgets are asserted, not aspirational.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from ptcsim.arch import ArchConfig
from ptcsim.cli import main
from ptcsim.config import load_config
from ptcsim.core import (
    ExecutionMode,
    derive_rng,
    rerouter_configure,
    simulate_mvm,
    simulate_mvm_batch,
)
from ptcsim.data import load_dataset, synthetic_separable
from ptcsim.devices import (
    DeviceParams,
    GammaFit,
    edac_power,
    eodac_power,
    gamma,
    phase_to_weight,
    weight_to_phase,
)
from ptcsim.layout import LayoutParams
from ptcsim.nn import build_desk_convnet, build_toy_mlp
from ptcsim.sparsity import (
    ColumnPowerModel,
    DstSchedule,
    partition,
    select_columns_min_power,
)
from ptcsim.sweeps import run_nmae_study, run_report, run_sweep
from ptcsim.training import DESK_ARCH, evaluate_with_variation, train

LAY = LayoutParams()
FIT = GammaFit()
QUIET = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.0)


def _verdict(num: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} FAIL - {label}")
        raise
    print(f"criterion {num:02d} PASS - {label}")


def test_criterion_01_quiet_products_are_exact():
    def body():
        start = time.perf_counter()
        for k in (2, 4, 8, 16):
            ones = np.ones(k, dtype=bool)
            for i in range(100):
                rng = derive_rng(1, k, i)
                w = rng.uniform(-1.0, 1.0, size=(k, k))
                x = rng.uniform(0.0, 1.0, size=(k, 3))
                y = simulate_mvm(x, w, ones, ones,
                                 mode=ExecutionMode.PRUNE_ONLY, layout=LAY,
                                 params=QUIET, fit=FIT, rng_seed=0,
                                 coupling_free=True)
                assert np.allclose(y, w @ x, rtol=1e-9, atol=1e-12)
        assert time.perf_counter() - start < 1.0

    _verdict(1, "noiseless crosstalk-free products match W @ x to 1e-9",
             body)


def test_criterion_02_weight_phase_roundtrip():
    def body():
        w = np.linspace(-1.0, 1.0, 1000)
        back = phase_to_weight(weight_to_phase(w))
        assert float(np.max(np.abs(back - w))) <= 1e-12
        assert weight_to_phase(1.0) == -math.pi / 2
        assert weight_to_phase(-1.0) == math.pi / 2
        assert weight_to_phase(0.0) == 0.0
        assert phase_to_weight(-math.pi / 2) == 1.0

    _verdict(2, "weight/phase mapping roundtrips to 1e-12 with exact "
                "boundaries", body)


def test_criterion_03_crosstalk_decay_curve():
    def body():
        assert gamma(0.0) == 1.0
        gap = abs(gamma(23.0) - gamma(23.0 - 1e-9))
        assert gap < 5e-3
        d = np.arange(1.0, 100.0 + 1e-9, 0.1)
        g = gamma(d)
        steps = np.diff(g)
        # any rise is confined to the fit seam and stays inside the slack
        assert np.all(steps <= 5e-3)
        rising = d[:-1][steps > 0]
        assert rising.size == 0 or (rising.min() > 22.0 and rising.max() < 23.5)
        assert g[-1] < g[0]

    _verdict(3, "thermal decay: gamma(0)=1, branch seam within 5e-3, "
                "monotone trend", body)


def test_criterion_04_redistribution_noise_gain():
    def body():
        start = time.perf_counter()
        k1, k2, k2_live = 4, 20, 4
        device = DeviceParams(pd_noise_sigma=0.01, phase_noise_sigma_rad=0.0)
        rng = derive_rng(4)
        w = rng.uniform(-1.0, 1.0, size=(k1, k2))
        x = rng.uniform(0.0, 1.0, size=(k2, 1))
        row = np.ones(k1, dtype=bool)
        col = np.zeros(k2, dtype=bool)
        col[:k2_live] = True
        trials = 100_000
        xb = np.broadcast_to(x, (trials, k2, 1))

        def sigma(mode, path):
            y = simulate_mvm_batch(
                xb, w, row_mask=row, col_mask=col, mode=mode, layout=LAY,
                params=device, fit=FIT, rng=derive_rng(4, path),
                output_gating=True, coupling_free=True)
            return float(np.sqrt(y.var(axis=0).mean()))

        ratio_db = 10 * math.log10(
            sigma(ExecutionMode.INPUT_GATING, 1)
            / sigma(ExecutionMode.INPUT_GATING_LR, 2))
        expected_db = 10 * math.log10(k2 / k2_live)
        assert abs(ratio_db - expected_db) <= 0.3
        assert time.perf_counter() - start < 30.0

    _verdict(4, "light redistribution cuts detection-noise power by "
                "k2/k2' (6.99 dB at 1:5)", body)


def test_criterion_05_rerouter_splits():
    def body():
        state = rerouter_configure(
            np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool), 9.0,
            DeviceParams(), FIT)
        assert state.node_ratios[0] == (3, 1)
        leaves = np.asarray(state.leaf_intensities)
        assert float(leaves.sum()) == pytest.approx(1.0, abs=1e-12)
        active = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
        assert np.allclose(leaves[active], 0.25, atol=1e-12)
        assert np.all(leaves[~active] == 0.0)
        dense = rerouter_configure(np.ones(8, dtype=bool), 9.0,
                                   DeviceParams(), FIT)
        assert dense.total_power_mw == 0.0

    _verdict(5, "splitter tree: 3:1 root split for 10110010, intensity "
                "conserved, dense tree free", body)


def test_criterion_06_segmented_dac_power_ratio():
    def body():
        dev = DeviceParams()
        ratio = (edac_power(6, 5.0, dev)
                 / eodac_power(6, (3, 3), 5.0, dev))
        assert ratio == pytest.approx(32.0 / 14.0, rel=1e-12)
        assert round(ratio, 2) == 2.29

    _verdict(6, "two 3-bit DAC segments draw 32/14 of one 6-bit DAC", body)


def test_criterion_07_design_point_and_spacing_sweep():
    def body():
        cfg = load_config(None)
        row = run_report(cfg)["row"]
        assert row["p_avg_w"] == pytest.approx(20.58, abs=5e-3)
        assert row["area_mm2"] == pytest.approx(18.30, abs=5e-3)
        assert row["pap_w_mm2"] == pytest.approx(376.6, abs=5e-2)
        sweep = run_sweep(cfg)
        assert sweep["rows"][sweep["min_pap_index"]]["l_s_um"] == 9.0

    _verdict(7, "dense design point: 20.58 W, 18.30 mm^2, PAP minimal at "
                "9 um arm spacing", body)


def test_criterion_08_fidelity_orderings_are_significant():
    def body():
        start = time.perf_counter()
        out = run_nmae_study(load_config(None), seed=0, n_seeds=1000,
                             n_vectors=8, l_g_values=(1.0, 3.0, 5.0),
                             col_densities=(0.25,))
        for comp in out["comparisons"]:
            assert comp["z"] >= 1.645, comp
        assert time.perf_counter() - start < 300.0

    _verdict(8, "gating/redistribution error orderings hold with z >= "
                "1.645 over 1000 seeds", body)


def test_criterion_09_sparse_training_invariants():
    def body():
        sched = DstSchedule(alpha0=0.5, t_end=32)
        assert sched.death_rate(0) == 0.5
        assert sched.death_rate(32) == 0.0

        x, y = synthetic_separable(n=240, dim=12, classes=3, seed=0)
        data = (x[:180], y[:180], x[180:], y[180:])
        model, sparse_ids = build_toy_mlp(derive_rng(0, 10), 12, 16, 3)
        result = train(model, sparse_ids, data, 0.4,
                       DstSchedule.for_epochs(4), DESK_ARCH, QUIET, LAY,
                       epochs=4, batch_size=32, seed=0)
        mask = result.masks[2]
        granule = mask.row.sum() / mask.effective6().size
        for rec in result.history:
            assert abs(rec["density"] - 0.4) <= granule / 2 + 1e-12
        layer = result.model.layers[2]
        assert np.all(layer.w[~mask.to_dense(*layer.w.shape)] == 0.0)

        # power-guided choice agrees with exhaustive search on small pools
        arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=2, c=1)
        rng = np.random.default_rng(5)
        w6 = partition(rng.uniform(-1, 1, size=(4, 8)), arch)
        model_p = ColumnPowerModel(np.ones((2, 2), dtype=bool), w6, arch,
                                   DeviceParams(), LAY)
        empty = np.zeros((1, 2, 1, 4), dtype=bool)
        sel = select_columns_min_power(model_p, empty, list(range(8)), 3,
                                       turn_on=True)
        best = min(
            (model_p.power(np.isin(np.arange(8), ids).reshape(empty.shape)),
             ids) for ids in itertools.combinations(range(8), 3))
        assert sel.chosen == best[1]

    _verdict(9, "schedule endpoints, per-epoch density granularity, zeroed "
                "masked weights, exhaustive-optimal column picks", body)


def test_criterion_10_desk_cnn_density_and_gating_payoff():
    def body():
        start = time.perf_counter()
        data = load_dataset("digits", 0)

        def run(density):
            model, ids = build_desk_convnet(derive_rng(0, 10), quant=(8, 6))
            return train(model, ids, data, density,
                         DstSchedule.for_epochs(50), DESK_ARCH,
                         DeviceParams(), LAY, epochs=50, lr=2e-3,
                         batch_size=64, seed=0)

        dense = run(1.0)
        sparse = run(0.5)
        best_dense = max(r["accuracy"] for r in dense.history)
        best_sparse = max(r["accuracy"] for r in sparse.history)
        assert best_dense - best_sparse <= 0.02
        assert sparse.history[-1]["power_w"] < dense.history[-1]["power_w"]

        # at an aggressive 1 um column gap, gating + redistribution keep
        # the sparse model usable where naive pruning does not
        tight = dataclasses.replace(LAY, l_g_um=1.0)
        _, _, x_test, y_test = data
        good = evaluate_with_variation(
            sparse.model, sparse.masks, DESK_ARCH, DeviceParams(), tight,
            FIT, "input_gating_lr", n_trials=5, seed=0, x=x_test, y=y_test,
            output_gating=True)
        naive = evaluate_with_variation(
            sparse.model, sparse.masks, DESK_ARCH, DeviceParams(), tight,
            FIT, "prune_only", n_trials=5, seed=0, x=x_test, y=y_test,
            output_gating=False)
        assert good["noisy_accuracy_mean"] > naive["noisy_accuracy_mean"]
        assert time.perf_counter() - start < 900.0

    _verdict(10, "half-density CNN within 2 points of dense at lower power; "
                 "gating wins on tight layouts", body)


def test_criterion_11_cli_outputs_are_reproducible(tmp_path):
    def body():
        commands = [
            ("validate",),
            ("report",),
            ("sweep",),
            ("progressive",),
            ("simulate",),
            ("nmae", "--trials", "15", "--vectors", "4"),
            ("train", "--dataset", "blobs", "--epochs", "2"),
        ]
        outputs = {}
        for argv in commands:
            pair = []
            for tag in ("a", "b"):
                out = tmp_path / argv[0] / tag
                assert main(["--out", str(out), "--seed", "0", *argv]) == 0
                pair.append(out)
            outputs[argv[0]] = pair

        # evaluate replays each run's own checkpoint
        for tag_dir in outputs["train"]:
            code = main(["--out", str(tag_dir / "eval"), "--seed", "0",
                         "evaluate",
                         "--checkpoint", str(tag_dir / "checkpoint.json"),
                         "--trials", "2"])
            assert code == 0

        def files(root):
            return sorted(p.relative_to(root).as_posix()
                          for p in root.rglob("*") if p.is_file())

        for name, (a, b) in outputs.items():
            names = files(a)
            assert names == files(b) and names, name
            for rel in names:
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), \
                    f"{name}/{rel} differs between identical runs"

    _verdict(11, "every subcommand writes byte-identical files on rerun",
             body)
