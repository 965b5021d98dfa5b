"""Output checks for the benchmark's workloads.

Every check takes outputs already read from disk (or computed by the
caller) and raises ``CheckFailed`` with a reason.  The expected values are
either properties the method must have (orderings, invariants, exactness
in the noiseless limit) or figures stated independently of this code
(the calibrated design point); none is a stored copy of a previous run.
"""

from __future__ import annotations

import math

import numpy as np

# One-sided 5 % significance.
Z_MIN = 1.645
# Calibrated design point of the default 256-core accelerator.
DESIGN_POINT_W = 20.58
DESIGN_POINT_MM2 = 18.30
WALK_STAGES = ("foundry-baseline", "low-power-mzi", "compact-spacing",
               "core-sharing", "structured-sparsity", "power-aware-masks",
               "gating-redistribution", "segmented-eodac")
OPTIMAL_L_S_UM = 9.0
CHANCE_ACCURACY = 0.1
MIN_ACCURACY = 0.5
# The desk CNN's sparse layers, keyed as checkpoints key their masks (the
# layer's index in the model's layer list).
DESK_SPARSE_LAYERS = {"2": "conv2", "5": "conv3"}
# Relative tolerance on a detector-noise sigma estimated from many samples.
SIGMA_RTOL = 0.05


class CheckFailed(Exception):
    """An output violated a property the workload checks."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


# -- fidelity_study --------------------------------------------------------

def check_nmae_study(obj: dict, l_g_values) -> None:
    """z statistics, finiteness and the fall of N-MAE with the gap l_g."""
    comps = obj["comparisons"]
    require(len(comps) == 3 * len(l_g_values),
            f"expected {3 * len(l_g_values)} comparisons, got {len(comps)}")
    for comp in comps:
        z = comp["z"]
        require(isinstance(z, (int, float)) and not math.isnan(z) and z >= Z_MIN,
                f"l_g={comp['l_g_um']} '{comp['claim']}': z = {z} < {Z_MIN}")
    variants: dict[tuple, dict] = {}
    for row in obj["rows"]:
        key = (row["study"], row["pattern"], row["output_gating"], row["mode"],
               row["col_density"])
        require(_finite_positive(row["mean_nmae"]),
                f"{key} at l_g={row['l_g_um']}: mean N-MAE {row['mean_nmae']} "
                "is not finite and positive")
        variants.setdefault(key, {})[row["l_g_um"]] = row["mean_nmae"]
    for key, by_lg in variants.items():
        require(sorted(by_lg) == sorted(float(v) for v in l_g_values),
                f"{key}: l_g values {sorted(by_lg)} are not {list(l_g_values)}")
        seq = [by_lg[lg] for lg in sorted(by_lg)]
        require(all(b < a for a, b in zip(seq, seq[1:])),
                f"{key}: mean N-MAE {seq} does not fall as l_g grows")


def check_quiet_product(y, w, x) -> None:
    """A noiseless, coupling-free product equals W @ x to 1e-9."""
    ref = np.asarray(w) @ np.asarray(x)
    err = float(np.max(np.abs(np.asarray(y) - ref)))
    require(err <= 1e-9, f"quiet product differs from W @ x by {err:.3e}")


def check_detector_sigma(residual, pd_sigma: float, k2: int, k2_alive: int,
                         redistributed: bool) -> None:
    """Detector noise per output is pd_sigma*sqrt(k2), times k2'/k2 under LR."""
    expected = pd_sigma * math.sqrt(k2) * (k2_alive / k2 if redistributed else 1.0)
    measured = float(np.std(residual))
    require(abs(measured / expected - 1.0) <= SIGMA_RTOL,
            f"detector-noise sigma {measured:.5g} is not {expected:.5g} "
            f"(k2={k2}, k2'={k2_alive}, redistributed={redistributed})")


# -- sparse_training -------------------------------------------------------

def effective_mask(row, col, c_out: int, fan_in: int) -> np.ndarray:
    """Dense (c_out, fan_in) keep-mask from a row (r, k1) and column
    (p, q, c, k2) mask, laid out as the chunk grid maps them."""
    row = np.asarray(row, dtype=bool)
    col = np.asarray(col, dtype=bool)
    p, q, c, k2 = col.shape
    r, k1 = row.shape
    six = row[None, None, :, None, :, None] & col[:, :, None, :, None, :]
    flat = six.transpose(0, 2, 4, 1, 3, 5).reshape(p * r * k1, q * c * k2)
    return flat[:c_out, :fan_in]


def check_sparse_checkpoint(ckpt: dict, history: list[dict], density: float) -> None:
    """Mask invariants, density bracket, finite losses and a trained net."""
    layers = {entry["name"]: np.asarray(entry["w"]) for entry in ckpt["layers"]}
    masks = ckpt["masks"]
    require(masks, "checkpoint has no sparse layers")
    granules = []
    for idx, mask in masks.items():
        row = np.asarray(mask["row"], dtype=bool)
        col = np.asarray(mask["col"], dtype=bool)
        pad = np.asarray(mask["padded_col"], dtype=bool)
        require(not (col & pad[None]).any(),
                f"layer {idx}: a padded column is unpruned")
        require(idx in DESK_SPARSE_LAYERS, f"unexpected sparse layer {idx}")
        name = DESK_SPARSE_LAYERS[idx]
        w = layers[name]
        keep = effective_mask(row, col, *w.shape)
        require(np.all(w[~keep] == 0.0),
                f"layer {name}: {int(np.count_nonzero(w[~keep]))} weights "
                "outside the mask are non-zero")
        # One column of live rows, as a share of the layer's mapped size.
        granules.append(row.sum() / (col.size * row.size))
    half = 0.5 * max(granules)
    for h in history:
        require(abs(h["density"] - density) <= half + 1e-12,
                f"epoch {h['epoch']}: density {h['density']} is not within "
                f"{half:.5f} of {density}")
        require(math.isfinite(h["loss"]), f"epoch {h['epoch']}: loss {h['loss']}")
    final = history[-1]["accuracy"]
    require(final >= MIN_ACCURACY,
            f"final accuracy {final} is not well above chance "
            f"({CHANCE_ACCURACY}); expected >= {MIN_ACCURACY}")


def check_power_below_full(power_w: float, full_power_w: float) -> None:
    require(_finite_positive(power_w) and power_w < full_power_w,
            f"modeled power {power_w} W is not below {full_power_w} W, the "
            "power of the same weights with every usable column kept")


# -- train_replay ----------------------------------------------------------

def check_full_columns(ckpt: dict) -> None:
    for idx, mask in ckpt["masks"].items():
        col = np.asarray(mask["col"], dtype=bool)
        pad = np.asarray(mask["padded_col"], dtype=bool)
        require(np.array_equal(col, ~np.broadcast_to(pad[None], col.shape)),
                f"layer {idx}: column mask is not full at density >= 0.5")


def check_evaluation(history: list[dict], res: dict) -> None:
    """Clean accuracy replays the last epoch exactly; N-MAE is sane."""
    last = history[-1]["accuracy"]
    require(res["clean_accuracy"] == last,
            f"evaluate ({res['mode']}) clean accuracy "
            f"{res['clean_accuracy']} != last epoch's {last}")
    for name, value in res["layer_nmae"].items():
        require(_finite_positive(value),
                f"{res['mode']}: layer {name} N-MAE {value} is not "
                "finite and positive")


def check_gating_payoff(gated: dict, ungated: dict) -> None:
    """Gating + redistribution beats prune-only without output gating on
    every sparse layer."""
    for name in DESK_SPARSE_LAYERS.values():
        a, b = gated["layer_nmae"][name], ungated["layer_nmae"][name]
        require(a < b, f"layer {name}: N-MAE {a} under input_gating_lr + output "
                       f"gating is not below {b} under prune_only without it")


# -- design_walk -----------------------------------------------------------

def check_report(rep: dict) -> None:
    row = rep["row"]
    require(round(row["p_avg_w"], 2) == DESIGN_POINT_W
            and round(row["area_mm2"], 2) == DESIGN_POINT_MM2,
            f"report {row['p_avg_w']} W, {row['area_mm2']} mm^2 misses the "
            f"design point {DESIGN_POINT_W} W, {DESIGN_POINT_MM2} mm^2")


def check_sweep(res: dict) -> None:
    rows = [r for r in res["rows"] if r["error"] is None]
    require(rows, "no sweep point evaluated")
    best = min(rows, key=lambda r: r["p_avg_w"] * r["area_mm2"])
    require(best["layout.l_s_um"] == OPTIMAL_L_S_UM,
            f"minimum PAP at l_s = {best['layout.l_s_um']} um, expected "
            f"{OPTIMAL_L_S_UM} um")
    require(res["min_pap_index"] == res["rows"].index(best),
            "min_pap_index does not point at the minimum-PAP row")


def check_walk(res: dict) -> None:
    rows = res["rows"]
    names = tuple(r["name"] for r in rows)
    require(names == WALK_STAGES, f"walk stages {names} are not {WALK_STAGES}")
    power = [r["p_avg_w"] for r in rows]
    require(all(b <= a for a, b in zip(power, power[1:])),
            f"stage power rises along the walk: {power}")
    by_name = dict(zip(names, power))
    require(by_name["power-aware-masks"] <= by_name["structured-sparsity"],
            "power-aware masks draw more than magnitude-picked structured sparsity")
