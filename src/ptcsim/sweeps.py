"""Study runners behind the CLI: report, sweep, progressive walk, noise study.

Every runner is a pure function of (config, seed) returning a JSON-ready
dict with a ``schema`` tag and flat ``rows`` suitable for CSV, so repeated
invocations are byte-identical.  The progressive walk replays the design
evolution from a foundry-grade dense accelerator to the final sparse,
gated, segmented-DAC design, one change per stage, on a fixed synthetic
workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .arch import ArchConfig, ColumnPowerModel, area, pap, power
from .config import Config, ConfigError, apply_overrides
# simulate_mvm_batch: bound for bench/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .core import (ExecutionMode, check_threads, derive_rng, ideal_mvm, nmae,
                   simulate_layer_readouts, simulate_mvm, simulate_mvm_batch)
from .devices import DeviceParams, GammaFit
from .layout import LayoutParams
from .sparsity import (SparsityMask, column_norms, column_quota,
                       combinations_capped, interleaved_ones, interleaved_rows,
                       padded_column_mask, partition, ranked, round_half_up)

REPORT_SCHEMA = "ptcsim-report-1"
SWEEP_SCHEMA = "ptcsim-sweep-1"
PROGRESSIVE_SCHEMA = "ptcsim-progressive-1"
NMAE_SCHEMA = "ptcsim-nmae-1"
SIMULATE_SCHEMA = "ptcsim-simulate-1"

# Column order of the summary table rows (accuracy stays empty for
# analytic evaluations that never run a network).
TABLE_COLUMNS = ("l_s_um", "l_g_um", "accuracy", "p_avg_w", "area_mm2",
                 "pap_w_mm2")

# Typical foundry MZI switching power; the low-power device in
# DeviceParams brings this down to p_pi_mw.
FOUNDRY_P_PI_MW = 30.0
# Vertical (row) pitch follows the device length plus a fixed routing gap.
ROW_PITCH_GAP_UM = 5.0
# Density target of the progressive walk's sparsity stages.
PROGRESSIVE_DENSITY = 0.3


# --------------------------------------------------------------------------
# report / sweep


def run_report(cfg: Config) -> dict:
    """Analytic dense power/area/PAP snapshot of one configuration."""
    fit = GammaFit()
    pb = power(cfg.arch, cfg.device, cfg.layout, fit)
    ab = area(cfg.arch, cfg.device, cfg.layout)
    p_avg_w = pb.total_mw / 1e3
    row = {
        "l_s_um": cfg.layout.l_s_um,
        "l_g_um": cfg.layout.l_g_um,
        "accuracy": None,
        "p_avg_w": p_avg_w,
        "area_mm2": ab.total_mm2,
        "pap_w_mm2": pap(p_avg_w, ab.total_mm2),
    }
    return {
        "schema": REPORT_SCHEMA,
        "row": row,
        "power_breakdown_mw": pb.to_dict(),
        "area_breakdown_mm2": ab.to_dict(),
    }


def _sweep_point(cfg: Config, point: dict) -> dict:
    row = {path: value for path, value in point.items()}
    try:
        rep = run_report(apply_overrides(cfg, point))
    except Exception as exc:  # recorded per point; the sweep continues
        row.update({col: None for col in TABLE_COLUMNS})
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row.update(rep["row"])
    row["error"] = None
    return row


def run_sweep(cfg: Config) -> dict:
    """Dense-model grid sweep over the configured axes, point by point.

    Points that fail validation (e.g. a negative spacing) are kept as rows
    carrying an ``error`` string; the minimum-PAP flag considers only the
    points that evaluated.
    """
    rows = [_sweep_point(cfg, pt) for pt in cfg.sweep.grid()]

    best = None
    for i, row in enumerate(rows):
        if row["error"] is None and (
                best is None or row["pap_w_mm2"] < rows[best]["pap_w_mm2"]):
            best = i
    for i, row in enumerate(rows):
        row["pap_is_min"] = (i == best)
    return {
        "schema": SWEEP_SCHEMA,
        "axes": [[path, list(values)] for path, values in cfg.sweep.axes],
        "columns": [*(path for path, _ in cfg.sweep.axes), *TABLE_COLUMNS,
                    "pap_is_min", "error"],
        "rows": rows,
        "min_pap_index": best,
    }


# --------------------------------------------------------------------------
# progressive design walk


# Rows of combinations scored per vectorized sum in _power_aware_columns.
_SCORE_BLOCK = 1024


def _power_aware_columns(w6: np.ndarray, row: np.ndarray, col6: np.ndarray,
                         arch: ArchConfig, device: DeviceParams,
                         layout: LayoutParams, fit: GammaFit, margin: int = 2,
                         cap: int = 10000) -> np.ndarray:
    """Re-pick the kept columns to lower modeled power, never raising it.

    Candidate pool = the incumbent choice widened by ``margin`` columns of
    the magnitude ranking (:func:`~ptcsim.sparsity.column_norms` over live
    rows, largest first); the incumbent itself is always evaluated, so
    the returned selection cannot draw more power than it.  Under
    prune-only accounting only the weight MZIs depend on the column
    choice, so each candidate combination scores as a sum of the model's
    per-column terms.  This is the pool's minimum only when C(n_keep +
    margin, n_keep) is at most ``cap``; above it,
    :func:`~ptcsim.sparsity.combinations_capped` scores an evenly spaced
    sample of ``cap`` combinations, which can miss the cheapest one.

    Combinations are scored in blocks of ``_SCORE_BLOCK`` rows, in
    lexicographic order after the incumbent.  A combination replaces the
    best so far only when it draws strictly less, so ties go to the
    incumbent, then to the first combination scored.
    """
    shape = col6.shape
    col_mw = ColumnPowerModel(row, w6, arch, device, layout, fit,
                              ExecutionMode.PRUNE_ONLY).col_unit_mw.reshape(-1)
    n_keep = int(col6.sum())
    pool = ranked(np.arange(col6.size), -column_norms(w6, row), n_keep + margin)
    pool_mw = col_mw[pool]
    incumbent_flat = np.flatnonzero(col6.reshape(-1))
    pool_index = {int(j): i for i, j in enumerate(pool)}
    incumbent = np.array(sorted(pool_index[int(j)] for j in incumbent_flat),
                         dtype=np.intp)

    best_combo, best_power = incumbent, float(pool_mw[incumbent].sum())
    combos = combinations_capped(len(pool), n_keep, cap)
    for lo in range(0, len(combos), _SCORE_BLOCK):
        block = combos[lo:lo + _SCORE_BLOCK]
        p_mw = pool_mw[block].sum(axis=1)
        i = int(np.argmin(p_mw))
        if p_mw[i] < best_power:
            best_combo, best_power = block[i], float(p_mw[i])
    col = np.zeros(col6.size, dtype=bool)
    col[pool[best_combo]] = True
    return col.reshape(shape)


def run_progressive(cfg: Config, seed: int) -> dict:
    """Stage-by-stage power/area walk from a dense foundry design.

    Each stage changes one thing and re-evaluates average power, area and
    their product on a fixed synthetic 64x576 layer (uniform weights).
    Dense stages use the analytic uniform-phase power; sparse stages
    evaluate the mapped workload chunk by chunk.
    """
    fit = GammaFit()
    dev_cfg, lay_cfg, arch_cfg = cfg.device, cfg.layout, cfg.arch

    foundry_l_s = dev_cfg.foundry_mzi_width_um - lay_cfg.ps_width_um
    device = dataclasses.replace(dev_cfg, p_pi_mw=FOUNDRY_P_PI_MW,
                                 node_length_um=dev_cfg.foundry_mzi_length_um)
    layout = dataclasses.replace(
        lay_cfg, l_s_um=foundry_l_s, l_g_um=20.0,
        l_v_um=dev_cfg.foundry_mzi_length_um + ROW_PITCH_GAP_UM)
    arch = dataclasses.replace(arch_cfg, r=1, c=1, dac_kind="edac")

    mode = ExecutionMode.PRUNE_ONLY
    output_gating = False
    w6 = mask = None   # dense until the sparsity stage

    rows: list[dict] = []

    def emit(name: str) -> None:
        if w6 is None:
            pb = power(arch, device, layout, fit)
            density = 1.0
            mode_label = "dense"
        else:
            # Chunks get equal cycle counts, so the average power is the
            # chunk-mean slice power times the resident chunk slots.
            model = ColumnPowerModel(mask.row, w6, arch, device, layout, fit,
                                     mode, output_gating)
            pb = model.breakdown(mask.col).scaled(
                arch.n_chunk_slots / (w6.shape[0] * w6.shape[1]))
            density = mask.density()
            mode_label = mode.value
        ab = area(arch, device, layout)
        p_avg_w = pb.total_mw / 1e3
        rows.append({
            "stage": len(rows),
            "name": name,
            "p_pi_mw": device.p_pi_mw,
            "l_s_um": layout.l_s_um,
            "l_g_um": layout.l_g_um,
            "r": arch.r,
            "c": arch.c,
            "density": density,
            "mode": mode_label,
            "output_gating": output_gating,
            "dac": arch.dac_kind,
            "device_area_um2": device.node_length_um
                               * (layout.l_s_um + layout.ps_width_um),
            "p_avg_w": p_avg_w,
            "area_mm2": ab.total_mm2,
            "pap_w_mm2": pap(p_avg_w, ab.total_mm2),
            "power_breakdown_mw": pb.to_dict(),
        })

    emit("foundry-baseline")

    device = dataclasses.replace(device, p_pi_mw=dev_cfg.p_pi_mw,
                                 node_length_um=dev_cfg.node_length_um)
    layout = dataclasses.replace(layout, l_s_um=lay_cfg.l_s_um,
                                 l_v_um=dev_cfg.node_length_um + ROW_PITCH_GAP_UM)
    emit("low-power-mzi")

    layout = dataclasses.replace(layout, l_g_um=lay_cfg.l_g_um)
    emit("compact-spacing")

    arch = dataclasses.replace(arch, r=arch_cfg.r, c=arch_cfg.c)
    emit("core-sharing")

    # Map the synthetic workload and prune to the target density: rows
    # interleaved at half density, columns kept by magnitude.
    w2d = derive_rng(seed, 7).uniform(-1.0, 1.0, size=(arch.chunk_rows,
                                                       9 * arch.chunk_cols))
    w6 = partition(w2d, arch)
    row = interleaved_rows(PROGRESSIVE_DENSITY, arch)
    mask = SparsityMask(row, np.zeros(w6.shape[:2] + (arch.c, arch.k2), bool),
                        padded_column_mask(w2d.shape[1], w6.shape[1], arch))
    usable = np.flatnonzero(mask.usable)
    col = np.zeros(mask.col.size, dtype=bool)
    col[ranked(usable, -column_norms(w6, row)[usable],
               column_quota(PROGRESSIVE_DENSITY * w6.size, row))] = True
    mask = mask.with_col(col.reshape(mask.col.shape))
    output_gating = True
    emit("structured-sparsity")

    mask = mask.with_col(_power_aware_columns(w6, row, mask.col, arch, device,
                                              layout, fit))
    emit("power-aware-masks")

    mode = ExecutionMode.INPUT_GATING_LR
    layout = dataclasses.replace(layout, l_g_um=1.0)
    emit("gating-redistribution")

    arch = dataclasses.replace(arch, dac_kind="eodac")
    emit("segmented-eodac")

    return {
        "schema": PROGRESSIVE_SCHEMA,
        "workload": {"rows": int(w2d.shape[0]), "cols": int(w2d.shape[1]),
                     "density": PROGRESSIVE_DENSITY},
        "columns": ["stage", "name", "p_pi_mw", "l_s_um", "l_g_um", "r", "c",
                    "density", "mode", "output_gating", "dac",
                    "device_area_um2", "p_avg_w", "area_mm2", "pap_w_mm2"],
        "rows": rows,
    }


# --------------------------------------------------------------------------
# noise / fidelity study


def _nmae_block(w6: np.ndarray, x: np.ndarray, rows: np.ndarray, col,
                readouts, device: DeviceParams, layouts, fit: GammaFit,
                rng: np.random.Generator, threads: int = 1,
                out: np.ndarray | None = None) -> np.ndarray:
    """Layer-level N-MAE for a block of seeds, one value per layout, row
    mask, (mode, output_gating) pair and seed: an array (len(layouts), g,
    len(readouts), S).

    ``x`` is (S, q, c, k2, m); ``rows`` is a (g, r, k1) stack of row masks;
    ``col`` is (S, q, c, k2), or None for dense columns, whose mask has no
    seed axis so that every seed shares one crosstalk pass; ``layouts`` is
    a sequence of :class:`LayoutParams`.  Every layout and row mask shares
    each noise draw, and the readouts share one realized light path, split
    over ``threads`` workers along the seed axis.  ``out``, when given, is
    scratch for the products (see :func:`simulate_layer_readouts`).  The
    reference masks rows in ``w6`` and columns in ``x``.
    """
    s_n, q, c, k2, m = x.shape
    p, _, r, _, k1, _ = w6.shape
    col_b = (np.ones((1, q, c, k2), dtype=bool) if col is None
             else np.asarray(col, dtype=bool))
    rows = np.asarray(rows, dtype=bool)
    err = simulate_layer_readouts(
        x, w6, rows, np.broadcast_to(col_b[:, None], (len(col_b), p, q, c, k2)),
        readouts, layouts, params=device, fit=fit, rng=rng, threads=threads,
        out=out)

    x_ref = (x * col_b[..., None]).reshape(s_n, q * c * k2, m)
    w2d = (w6 * rows[:, None, None, :, None, :, None]).transpose(0, 1, 3, 5, 2, 4, 6)
    y_ref = w2d.reshape(len(rows), 1, p * r * k1, q * c * k2) @ x_ref
    err -= y_ref[:, None]
    np.abs(err, out=err)
    return err.mean(axis=(-2, -1)) / np.abs(y_ref).mean(axis=(-2, -1))[:, None]


def _one_sided_z(diffs: np.ndarray) -> dict:
    """z statistic for 'mean(diffs) > 0' (paired one-sided test); None
    when the standard error is 0, where it is undefined."""
    d = np.asarray(diffs, dtype=float)
    mean = float(d.mean())
    se = float(d.std(ddof=1) / math.sqrt(d.size))
    z = float(mean / se) if se > 0 else None
    return {"mean_diff": mean, "se": se, "z": z, "n": int(d.size)}


def run_nmae_study(cfg: Config, seed: int, n_seeds: int = 1000,
                   n_vectors: int = 8, l_g_values=(1.0, 3.0, 5.0),
                   col_densities=(0.25,), block_size: int = 50,
                   threads: int = 1) -> dict:
    """Computational-fidelity study on a 64-channel 3x3 conv layer.

    Part one varies the row-mask pattern (dense / blocked / interleaved at
    half density) with and without output gating, columns dense.  Part two
    varies the column density and execution mode (prune-only, input
    gating, input gating + light redistribution) with dense rows and
    output gating on.  The variants of a seed share one realized light
    path per row pattern and gap (read with output gating off and on) and
    one per column mask and gap (read under every mode), and so the same
    activations and noise draws; the three row patterns and the gaps
    ``l_g_values`` share one draw of each noise source per seed block and
    study part.  The gaps are thus paired designs (common random numbers),
    as are the variants within a gap.  Each part's N-MAE is one array,
    seeds last.  Differences are paired, and ``comparisons`` holds
    one-sided z statistics for the headline orderings.  ``threads``
    workers split each block's seeds after its draws; the result does not
    depend on it.
    """
    if n_seeds < 2:
        raise ValueError(f"the study needs at least 2 seeds (--trials), got {n_seeds}")
    if n_vectors < 1:
        raise ValueError(f"the study needs at least 1 vector (--vectors), got {n_vectors}")
    if block_size < 1:
        raise ValueError(f"block_size must be at least 1, got {block_size}")
    check_threads(threads)
    if len(l_g_values) == 0:
        raise ValueError("l_g_values must name at least one gap")
    arch, device = cfg.arch, cfg.device
    fit = GammaFit()
    r, c, k1, k2 = arch.r, arch.c, arch.k1, arch.k2
    for dens in col_densities:
        if not (math.isfinite(dens) and dens <= 1.0
                and round_half_up(float(dens) * k2) >= 1):
            raise ValueError(f"col_densities must be finite, at most 1 and keep "
                             f"at least one of {k2} columns, got {dens}")
    layouts = [dataclasses.replace(cfg.layout, l_g_um=float(l_g))
               for l_g in l_g_values]
    w2d = derive_rng(seed, 8).uniform(-1.0, 1.0, size=(arch.chunk_rows,
                                                       9 * arch.chunk_cols))
    w6 = partition(w2d, arch)
    q = w6.shape[1]
    rk1 = r * k1

    patterns = ("dense", "blocked", "interleaved")
    row_masks = np.stack([np.ones(rk1, dtype=bool), np.arange(rk1) < rk1 // 2,
                          interleaved_ones(rk1, rk1 // 2)]).reshape(-1, r, k1)
    modes = (ExecutionMode.PRUNE_ONLY, ExecutionMode.INPUT_GATING,
             ExecutionMode.INPUT_GATING_LR)
    gatings = [(ExecutionMode.PRUNE_ONLY, og) for og in (False, True)]
    gated_modes = [(mode, True) for mode in modes]
    sizes = [min(block_size, n_seeds - lo) for lo in range(0, n_seeds, block_size)]

    def products(g, readouts):
        # The full-size seed blocks of a part write their products into one
        # array, so its pages are mapped once per part, not once per block.
        return np.empty((len(layouts), g, len(readouts), sizes[0],
                         w6.shape[0] * rk1, n_vectors))

    # -- row patterns, dense columns: (gap, pattern, gating, seed) --------
    full = products(len(row_masks), gatings)
    blocks = []
    for ib, s_n in enumerate(sizes):
        x = derive_rng(seed, 41, ib).uniform(
            0.0, 1.0, size=(s_n, q, c, k2, n_vectors))
        blocks.append(_nmae_block(w6, x, row_masks, None, gatings, device,
                                  layouts, fit, derive_rng(seed, 40, ib), threads,
                                  full if s_n == sizes[0] else None))
    row_nmae = np.concatenate(blocks, axis=-1)

    # -- column densities x execution modes: per density (gap, mode, seed)
    full = products(1, gated_modes)
    mode_nmae = []
    for di, dens in enumerate(col_densities):
        n_keep = round_half_up(float(dens) * k2)
        blocks = []
        for ib, s_n in enumerate(sizes):
            x = derive_rng(seed, 43, ib).uniform(
                0.0, 1.0, size=(s_n, q, c, k2, n_vectors))
            u = derive_rng(seed, 42, di, ib).uniform(size=(s_n, q, c, k2))
            order = np.argsort(u, axis=-1)
            col = np.zeros(u.shape, dtype=bool)
            np.put_along_axis(col, order[..., :n_keep], True, axis=-1)
            blocks.append(_nmae_block(
                w6, x, np.ones((1, r, k1), dtype=bool), col, gated_modes, device,
                layouts, fit, derive_rng(seed, 44, di, ib), threads,
                full if s_n == sizes[0] else None)[:, 0])
        mode_nmae.append(np.concatenate(blocks, axis=-1))

    rows: list[dict] = []
    comparisons: list[dict] = []
    for ilg, l_g in enumerate(l_g_values):
        for pname, by_gating in zip(patterns, row_nmae[ilg]):
            for (_, og), vals in zip(gatings, by_gating):
                rows.append({
                    "study": "row_pattern", "l_g_um": float(l_g),
                    "pattern": pname, "output_gating": og, "mode": "prune_only",
                    "col_density": 1.0, "mean_nmae": float(vals.mean()),
                    "std_nmae": float(vals.std(ddof=1)), "n_seeds": int(vals.size),
                })
        dense, _, interleaved = row_nmae[ilg, :, 1]  # output gating on
        comparisons.append({
            "l_g_um": float(l_g),
            "claim": "interleaved rows + output gating beat dense",
            **_one_sided_z(dense - interleaved),
        })

        for dens, by_density in zip(col_densities, mode_nmae):
            for mode, vals in zip(modes, by_density[ilg]):
                rows.append({
                    "study": "col_mode", "l_g_um": float(l_g),
                    "pattern": "dense", "output_gating": True,
                    "mode": mode.value, "col_density": float(dens),
                    "mean_nmae": float(vals.mean()),
                    "std_nmae": float(vals.std(ddof=1)),
                    "n_seeds": int(vals.size),
                })
            prune_only, input_gating, redistributed = by_density[ilg]
            comparisons.append({
                "l_g_um": float(l_g), "col_density": float(dens),
                "claim": "input gating beats prune-only",
                **_one_sided_z(prune_only - input_gating),
            })
            comparisons.append({
                "l_g_um": float(l_g), "col_density": float(dens),
                "claim": "light redistribution beats input gating",
                **_one_sided_z(input_gating - redistributed),
            })

    return {
        "schema": NMAE_SCHEMA,
        "n_seeds": int(n_seeds),
        "n_vectors": int(n_vectors),
        "columns": ["study", "l_g_um", "pattern", "output_gating", "mode",
                    "col_density", "mean_nmae", "std_nmae", "n_seeds"],
        "rows": rows,
        "comparisons": comparisons,
    }


# --------------------------------------------------------------------------
# single-product demo


def run_simulate(cfg: Config, seed: int, n_vectors: int = 4) -> dict:
    """One random crossbar product through every execution mode."""
    if n_vectors < 1:
        raise ValueError(f"simulate needs at least 1 vector (--vectors), got {n_vectors}")
    arch, device = cfg.arch, cfg.device
    fit = GammaFit()
    rng = derive_rng(seed, 5)
    w = rng.uniform(-1.0, 1.0, size=(arch.k1, arch.k2))
    x = rng.uniform(0.0, 1.0, size=(arch.k2, n_vectors))
    row = np.ones(arch.k1, dtype=bool)
    col = interleaved_ones(arch.k2, arch.k2 // 2)
    reference = ideal_mvm(x, w, row, col)

    results = {}
    for i, mode in enumerate(ExecutionMode):
        y = simulate_mvm(x, w, row, col, mode=mode, layout=cfg.layout,
                         params=device, fit=fit,
                         rng_seed=derive_rng(seed, 6, i))
        results[mode.value] = {"nmae": float(nmae(y, reference)),
                               "y": y.tolist()}
    y_free = simulate_mvm(x, w, row, col, mode=ExecutionMode.PRUNE_ONLY,
                          layout=cfg.layout, params=device, fit=fit,
                          rng_seed=derive_rng(seed, 6, 99), coupling_free=True)
    results["coupling_free"] = {"nmae": float(nmae(y_free, reference)),
                                "y": y_free.tolist()}
    return {
        "schema": SIMULATE_SCHEMA,
        "k1": arch.k1, "k2": arch.k2, "n_vectors": int(n_vectors),
        "col_density": 0.5,
        "modes": results,
    }


# --------------------------------------------------------------------------
# deterministic serialization


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str | Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(format_cell(row.get(col)) for col in columns)
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path: str | Path, obj) -> None:
    # Strict JSON: a NaN or infinity raises instead of writing a bare token.
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2,
                                     allow_nan=False) + "\n")
