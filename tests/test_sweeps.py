"""Study runners: report, spacing sweep, progressive walk, fidelity study."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import ptcsim.core
import ptcsim.sweeps
from ptcsim.arch import ArchConfig, ColumnPowerModel
from ptcsim.config import SweepSpec, load_config
from ptcsim.core import (ExecutionMode, derive_rng, ideal_mvm, nmae,
                         simulate_layer)
from ptcsim.devices import DeviceParams, GammaFit
from ptcsim.sparsity import column_norms, combinations_capped, ranked
from ptcsim.sweeps import (
    _nmae_block,
    _one_sided_z,
    _power_aware_columns,
    format_cell,
    run_nmae_study,
    run_progressive,
    run_report,
    run_simulate,
    run_sweep,
    write_csv,
    write_json,
)

CFG = load_config(None)


def test_report_default_design_point():
    rep = run_report(CFG)
    assert rep["schema"] == "ptcsim-report-1"
    row = rep["row"]
    assert row["accuracy"] is None
    assert row["p_avg_w"] == pytest.approx(20.58, abs=5e-3)
    assert row["area_mm2"] == pytest.approx(18.30, abs=5e-3)
    assert row["pap_w_mm2"] == pytest.approx(376.614, abs=5e-3)
    pb = rep["power_breakdown_mw"]
    assert pb["total_mw"] == pytest.approx(row["p_avg_w"] * 1e3)
    assert rep["area_breakdown_mm2"]["total_mm2"] == pytest.approx(row["area_mm2"])


def test_sweep_arm_spacing_minimum_sits_at_nine_microns():
    out = run_sweep(CFG)
    assert out["schema"] == "ptcsim-sweep-1"
    assert out["columns"][0] == "layout.l_s_um"
    assert [row["l_s_um"] for row in out["rows"]] == [7.0, 8.0, 9.0, 10.0, 11.0]
    paps = [row["pap_w_mm2"] for row in out["rows"]]
    expected = [381.568, 377.153, 376.614, 378.850, 383.121]
    for got, want in zip(paps, expected):
        assert got == pytest.approx(want, abs=5e-3)
    assert out["min_pap_index"] == 2
    assert [row["pap_is_min"] for row in out["rows"]] == [
        False, False, True, False, False]
    assert all(row["error"] is None for row in out["rows"])


def test_sweep_keeps_failed_points_as_error_rows():
    cfg = dataclasses.replace(
        CFG, sweep=SweepSpec(axes={"layout.l_s_um": [9.0, -1.0]}))
    out = run_sweep(cfg)
    good, bad = out["rows"]
    assert good["error"] is None and good["pap_is_min"]
    assert bad["error"].startswith("ConfigError")
    assert bad["p_avg_w"] is None and bad["pap_w_mm2"] is None
    assert not bad["pap_is_min"]
    assert out["min_pap_index"] == 0


# ---------------------------------------------------------------------------
# progressive design walk
# ---------------------------------------------------------------------------

def test_progressive_walk_stages():
    out = run_progressive(CFG, seed=0)
    assert out["schema"] == "ptcsim-progressive-1"
    assert out["workload"] == {"rows": 64, "cols": 576, "density": 0.3}
    rows = out["rows"]
    assert [r["name"] for r in rows] == [
        "foundry-baseline", "low-power-mzi", "compact-spacing",
        "core-sharing", "structured-sparsity", "power-aware-masks",
        "gating-redistribution", "segmented-eodac"]
    assert [r["stage"] for r in rows] == list(range(8))

    assert [r["p_pi_mw"] for r in rows] == [30.0] + [15.0] * 7
    assert [r["l_s_um"] for r in rows] == [150.25] + [9.0] * 7
    assert [r["l_g_um"] for r in rows] == [20.0, 20.0, 5.0, 5.0, 5.0, 5.0, 1.0, 1.0]
    assert [r["dac"] for r in rows] == ["edac"] * 7 + ["eodac"]
    assert [r["mode"] for r in rows] == (
        ["dense"] * 4 + ["prune_only"] * 2 + ["input_gating_lr"] * 2)
    assert [r["output_gating"] for r in rows] == [False] * 4 + [True] * 4
    assert rows[0]["device_area_um2"] == 85937.5
    assert rows[-1]["device_area_um2"] == 1725.0

    for r in rows[:4]:
        assert r["density"] == 1.0
    for r in rows[4:]:
        assert r["density"] == pytest.approx(0.3003472222222222, rel=1e-12)

    p_avg = [r["p_avg_w"] for r in rows]
    expected_p = [50.837, 41.349, 41.349, 20.580, 11.553, 11.545, 8.913, 6.842]
    for got, want in zip(p_avg, expected_p):
        assert got == pytest.approx(want, abs=2e-3)
    areas = [r["area_mm2"] for r in rows]
    expected_a = [413.096, 32.042, 25.148, 18.300, 18.300, 18.300, 16.462, 17.166]
    for got, want in zip(areas, expected_a):
        assert got == pytest.approx(want, abs=2e-3)
    # area never grows until the segmented DAC trades area for power
    assert all(a >= b - 1e-12 for a, b in zip(areas[:-1], areas[1:-1]))
    assert areas[-1] > areas[-2]

    paps = [r["pap_w_mm2"] for r in rows]
    expected_pap = [21000.587, 1324.902, 1039.843, 376.614, 211.418,
                    211.264, 146.730, 117.454]
    for got, want in zip(paps, expected_pap):
        assert got == pytest.approx(want, rel=1e-4)
    assert all(a > b for a, b in zip(paps, paps[1:]))


def test_progressive_walk_is_deterministic():
    assert run_progressive(CFG, seed=0) == run_progressive(CFG, seed=0)
    other = run_progressive(CFG, seed=1)
    # dense stages carry no workload randomness; sparse stages may differ
    assert other["rows"][0]["p_avg_w"] == pytest.approx(
        run_progressive(CFG, seed=0)["rows"][0]["p_avg_w"])


def _power_aware_reference(w6, row, col6, arch, device, layout, fit,
                           margin=2, cap=10000):
    """Reference stage: score one combination at a time, strict ``<``."""
    col_mw = ptcsim.sweeps.ColumnPowerModel(
        row, w6, arch, device, layout, fit,
        ExecutionMode.PRUNE_ONLY).col_unit_mw.reshape(-1)
    row6 = row[None, None, :, None, :, None]
    norms = np.sqrt((w6 ** 2 * row6).sum(axis=(2, 4))).reshape(-1)
    n_keep = int(col6.sum())
    order = np.argsort(-norms, kind="stable")
    pool = order[:min(n_keep + margin, norms.size)]
    pool_index = {int(j): i for i, j in enumerate(pool)}
    incumbent = tuple(sorted(pool_index[int(j)]
                             for j in np.flatnonzero(col6.reshape(-1))))
    best_combo, best_power = incumbent, float(col_mw[pool[list(incumbent)]].sum())
    for combo in combinations_capped(len(pool), n_keep, cap).tolist():
        p_mw = float(col_mw[pool[list(combo)]].sum())
        if p_mw < best_power:
            best_combo, best_power = combo, p_mw
    col = np.zeros(norms.size, dtype=bool)
    col[pool[list(best_combo)]] = True
    return col.reshape(col6.shape)


SMALL_ARCH = ArchConfig(R=2, C=2, k1=4, k2=4, r=2, c=2)


def _small_stage_case(seed, n_keep, shuffled=False):
    """A 32-column layer and its magnitude pick of ``n_keep`` columns, or
    with ``shuffled`` another pick from the stage's pool (the incumbent is
    then not the pool's first combination)."""
    rng = np.random.default_rng(seed)
    w6 = rng.uniform(-1.0, 1.0, size=(1, 2, 2, 2, 4, 4))
    row = np.zeros((2, 4), dtype=bool)
    row[:, ::2] = True
    norms = column_norms(w6, row)
    keep = ranked(np.arange(norms.size), -norms, n_keep)
    if shuffled:
        pool = ranked(np.arange(norms.size), -norms, n_keep + 2)
        keep = rng.choice(np.sort(pool), size=n_keep, replace=False)
    col = np.zeros(norms.size, dtype=bool)
    col[keep] = True
    return w6, row, col.reshape(1, 2, 2, 4)


@pytest.mark.parametrize("block", [1024, 7])
@pytest.mark.parametrize("cap", [1, 20, 65, 66, 10000])
@pytest.mark.parametrize("seed", range(4))
def test_power_aware_columns_matches_the_one_at_a_time_reference(
        monkeypatch, seed, cap, block):
    monkeypatch.setattr(ptcsim.sweeps, "_SCORE_BLOCK", block)
    w6, row, col6 = _small_stage_case(seed, n_keep=10)   # C(12, 10) = 66
    args = (w6, row, col6, SMALL_ARCH, DeviceParams(), CFG.layout, GammaFit())
    got = _power_aware_columns(*args, cap=cap)
    assert np.array_equal(got, _power_aware_reference(*args, cap=cap))
    assert got.sum() == 10
    model = ColumnPowerModel(row, w6, SMALL_ARCH, DeviceParams(), CFG.layout,
                             GammaFit(), ExecutionMode.PRUNE_ONLY)
    unit = model.col_unit_mw.reshape(-1)
    assert unit[got.reshape(-1)].sum() <= unit[col6.reshape(-1)].sum()


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("block", [1024, 5])
@pytest.mark.parametrize("cap", [9, 28, 10000])
@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_power_aware_columns_ties_keep_the_incumbent_then_the_first(
        monkeypatch, seed, levels, cap, block, shuffled):
    # Small integer costs: many subsets tie exactly.  With one level every
    # subset ties, so only the incumbent may win.
    monkeypatch.setattr(ptcsim.sweeps, "_SCORE_BLOCK", block)
    rng = np.random.default_rng(100 + seed)
    unit = rng.integers(1, levels + 1, size=32).astype(float)
    monkeypatch.setattr(ptcsim.sweeps, "ColumnPowerModel",
                        lambda *args: SimpleNamespace(col_unit_mw=unit))
    w6, row, col6 = _small_stage_case(seed, n_keep=6,    # C(8, 6) = 28
                                      shuffled=shuffled)
    args = (w6, row, col6, SMALL_ARCH, DeviceParams(), CFG.layout, GammaFit())
    got = _power_aware_columns(*args, cap=cap)
    assert np.array_equal(got, _power_aware_reference(*args, cap=cap))
    if levels == 1:
        assert np.array_equal(got, col6)


# ---------------------------------------------------------------------------
# fidelity study
# ---------------------------------------------------------------------------

def test_nmae_study_structure_and_determinism():
    out = run_nmae_study(CFG, seed=0, n_seeds=6, n_vectors=4,
                         l_g_values=(5.0,), col_densities=(0.25,),
                         block_size=4)
    assert out["schema"] == "ptcsim-nmae-1"
    assert out["n_seeds"] == 6
    # 3 patterns x 2 gating states, then 3 modes at one column density
    assert len(out["rows"]) == 9
    for row in out["rows"]:
        assert set(row) == {"study", "l_g_um", "pattern", "output_gating",
                            "mode", "col_density", "mean_nmae", "std_nmae",
                            "n_seeds"}
        assert row["n_seeds"] == 6
        assert row["mean_nmae"] > 0.0
    claims = [c["claim"] for c in out["comparisons"]]
    assert claims == [
        "interleaved rows + output gating beat dense",
        "input gating beats prune-only",
        "light redistribution beats input gating",
    ]
    for comp in out["comparisons"]:
        assert comp["n"] == 6
        assert np.isfinite(comp["mean_diff"]) and np.isfinite(comp["z"])
    assert out == run_nmae_study(CFG, seed=0, n_seeds=6, n_vectors=4,
                                 l_g_values=(5.0,), col_densities=(0.25,),
                                 block_size=4)


def test_nmae_study_threads_do_not_change_results():
    # Blocks of 4, 4 and 1 seeds: the two full blocks of each part share
    # one product array, and the workers split each block's seeds (the
    # one-seed block runs on one).
    run = dict(seed=0, n_seeds=9, n_vectors=2, l_g_values=(1.0, 5.0),
               col_densities=(0.25, 0.5), block_size=4)
    one = run_nmae_study(CFG, threads=1, **run)
    for threads in (2, 3):
        assert run_nmae_study(CFG, threads=threads, **run) == one


@pytest.mark.parametrize("threads", [0, -4])
def test_nmae_study_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_nmae_study(CFG, seed=0, n_seeds=3, n_vectors=2, threads=threads)


def test_nmae_vanishes_for_quiet_well_separated_dense_design():
    quiet = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.0)
    cfg = dataclasses.replace(CFG, device=quiet)
    out = run_nmae_study(cfg, seed=0, n_seeds=3, n_vectors=4,
                         l_g_values=(50.0,), col_densities=(0.25,),
                         block_size=3)
    dense_rows = [r for r in out["rows"]
                  if r["study"] == "row_pattern" and r["pattern"] == "dense"
                  and not r["output_gating"]]
    assert len(dense_rows) == 1
    assert dense_rows[0]["mean_nmae"] < 1e-3


def test_nmae_block_dense_columns_match_an_explicit_mask():
    # Dense columns share one crosstalk pass across seeds; the noise each
    # seed draws, and so every N-MAE, must match a per-seed all-ones mask.
    p, q, r, c, k1, k2, s_n, m = 1, 2, 2, 2, 4, 4, 3, 2
    rng = derive_rng(50)
    w6 = rng.uniform(-1.0, 1.0, size=(p, q, r, c, k1, k2))
    x = rng.uniform(0.0, 1.0, size=(s_n, q, c, k2, m))
    rows = np.array([[[True, False, True, False], [True, True, True, False]]])
    ones_col = np.ones((s_n, q, c, k2), dtype=bool)
    for og in (False, True):
        args = ([(ExecutionMode.PRUNE_ONLY, og)], CFG.device, [CFG.layout],
                GammaFit())
        [[[dense]]] = _nmae_block(w6, x, rows, None, *args, rng=derive_rng(51))
        [[[ones]]] = _nmae_block(w6, x, rows, ones_col, *args, rng=derive_rng(51))
        assert dense.shape == (s_n,)
        assert dense == pytest.approx(ones, rel=0, abs=1e-12)
        assert len(set(dense.tolist())) == s_n
    # Both readouts of a single call agree too, and each equals its own call.
    args = ([(ExecutionMode.PRUNE_ONLY, og) for og in (False, True)],
            CFG.device, [CFG.layout], GammaFit())
    [[dense]] = _nmae_block(w6, x, rows, None, *args, rng=derive_rng(51))
    [[ones]] = _nmae_block(w6, x, rows, ones_col, *args, rng=derive_rng(51))
    assert len(dense) == len(ones) == 2
    for og, d, o in zip((False, True), dense, ones):
        assert d == pytest.approx(o, rel=0, abs=1e-12)
        [[[alone]]] = _nmae_block(w6, x, rows, None,
                                  [(ExecutionMode.PRUNE_ONLY, og)], CFG.device,
                                  [CFG.layout], GammaFit(), rng=derive_rng(51))
        assert np.array_equal(d, alone)


def test_nmae_block_matches_separate_layer_calls():
    # Each [layout, row mask, readout, seed] entry is core.nmae of that
    # seed's product from its own simulate_layer call (an identically
    # seeded generator) against the masked product of the weights.
    p, q, r, c, k1, k2, s_n, m = 2, 2, 2, 2, 4, 4, 3, 2
    rng = derive_rng(52)
    w6 = rng.uniform(-1.0, 1.0, size=(p, q, r, c, k1, k2))
    x = rng.uniform(0.0, 1.0, size=(s_n, q, c, k2, m))
    col = rng.uniform(size=(s_n, q, c, k2)) < 0.6
    rows = np.stack([np.ones((r, k1), dtype=bool), rng.uniform(size=(r, k1)) < 0.6])
    assert not rows[1].all()
    readouts = [(ExecutionMode.INPUT_GATING, False), (ExecutionMode.INPUT_GATING_LR, True)]
    layouts = [CFG.layout, dataclasses.replace(CFG.layout, l_g_um=1.0)]
    got = _nmae_block(w6, x, rows, col, readouts, CFG.device, layouts,
                      GammaFit(), rng=derive_rng(53))
    assert got.shape == (2, 2, 2, s_n)
    w2d = w6.transpose(0, 2, 4, 1, 3, 5).reshape(p * r * k1, q * c * k2)
    col_b = np.broadcast_to(col[:, None], (s_n, p, q, c, k2))
    for il, layout in enumerate(layouts):
        for ig, row in enumerate(rows):
            for ir, (mode, og) in enumerate(readouts):
                y = simulate_layer(x, w6, row, col_b, mode, layout,
                                   params=CFG.device, rng=derive_rng(53),
                                   output_gating=og)
                for s in range(s_n):
                    ref = ideal_mvm(x[s].reshape(q * c * k2, m), w2d,
                                    np.tile(row.reshape(-1), p), col[s].reshape(-1))
                    assert got[il, ig, ir, s] == pytest.approx(
                        nmae(y[s], ref), rel=1e-12)


def test_study_realizes_one_light_path_per_pattern_and_column_mask(monkeypatch):
    # One l_g and one seed block: three row patterns and one column mask
    # give 4 crosstalk passes, not one per variant (9).  Three gaps share
    # each noise draw: 4 passes per gap, and one phase-noise draw per study
    # part (2), not one per gap and part (6).
    calls, draws = [], []
    real, real_noise = ptcsim.core.perturbed_phases, ptcsim.core._phase_noise

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def counting_noise(*args, **kwargs):
        draws.append(1)
        return real_noise(*args, **kwargs)

    monkeypatch.setattr(ptcsim.core, "perturbed_phases", counting)
    monkeypatch.setattr(ptcsim.core, "_phase_noise", counting_noise)
    out = run_nmae_study(CFG, seed=0, n_seeds=3, n_vectors=2,
                         l_g_values=(5.0,), col_densities=(0.25,),
                         block_size=3)
    assert len(out["rows"]) == 9
    assert len(calls) == 4
    calls.clear()
    draws.clear()
    out = run_nmae_study(CFG, seed=0, n_seeds=3, n_vectors=2,
                         l_g_values=(1.0, 3.0, 5.0), col_densities=(0.25,),
                         block_size=3)
    assert len(out["rows"]) == 27
    assert len(calls) == 12
    assert len(draws) == 2


@pytest.mark.parametrize("kwargs, name", [
    (dict(block_size=0), "block_size"),
    (dict(block_size=-5), "block_size"),
    (dict(col_densities=(0.0,)), "col_densities"),
    (dict(col_densities=(0.25, -0.5)), "col_densities"),
    (dict(col_densities=(1.5,)), "col_densities"),
    (dict(col_densities=(float("nan"),)), "col_densities"),
    (dict(l_g_values=()), "l_g_values"),
    (dict(l_g_values=(1.0, 0.0)), "l_g_um"),
])
def test_nmae_study_rejects_out_of_domain_arguments(kwargs, name):
    # Each raises ValueError naming the argument before any work is done.
    with pytest.raises(ValueError, match=name):
        run_nmae_study(CFG, seed=0, n_seeds=3, n_vectors=2, **kwargs)


def test_one_sided_z_is_undefined_without_spread():
    # equal differences have zero standard error: z is null, not infinite
    comp = _one_sided_z(np.full(4, 0.5))
    assert comp["se"] == 0.0 and comp["z"] is None


# ---------------------------------------------------------------------------
# single-product demo
# ---------------------------------------------------------------------------

def test_simulate_demo_mode_ordering():
    out = run_simulate(CFG, seed=0)
    assert out["schema"] == "ptcsim-simulate-1"
    assert out["k1"] == 16 and out["k2"] == 16 and out["col_density"] == 0.5
    modes = out["modes"]
    assert set(modes) == {"prune_only", "input_gating", "input_gating_lr",
                          "coupling_free"}
    assert modes["prune_only"]["nmae"] == pytest.approx(0.06611, abs=1e-4)
    assert modes["input_gating"]["nmae"] == pytest.approx(0.06542, abs=1e-4)
    assert modes["input_gating_lr"]["nmae"] == pytest.approx(0.05383, abs=1e-4)
    assert modes["coupling_free"]["nmae"] == pytest.approx(0.04381, abs=1e-4)
    assert (modes["coupling_free"]["nmae"] < modes["input_gating_lr"]["nmae"]
            < modes["input_gating"]["nmae"] < modes["prune_only"]["nmae"])
    y = modes["prune_only"]["y"]
    assert len(y) == 16 and len(y[0]) == 4
    assert out == run_simulate(CFG, seed=0)


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(1.5) == "1.5"
    assert format_cell(0.1) == "0.1"
    assert format_cell(3) == "3"
    assert format_cell("label") == "label"


def test_write_csv_golden(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [{"a": 1.0, "b": None}, {"a": "s", "b": True}])
    assert path.read_text() == "a,b\n1.0,\ns,true\n"
    write_csv(tmp_path / "t2.csv", ["a", "b"],
              [{"a": 1.0, "b": None}, {"a": "s", "b": True}])
    assert path.read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_write_json_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.startswith('{\n  "a"')
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("}\n")
    with pytest.raises(ValueError):
        write_json(path, {"z": float("inf")})
