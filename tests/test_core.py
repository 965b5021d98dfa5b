"""Core-level MVM simulation: execution modes, leakage, noise, rerouter."""

import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ptcsim.core
from ptcsim.arch import ArchConfig, ColumnPowerModel
from ptcsim.core import (
    ExecutionMode,
    derive_rng,
    ideal_mvm,
    nmae,
    rerouter_configure,
    rerouter_node_mw,
    rerouter_tree_mw,
    simulate_layer,
    simulate_layer_readouts,
    simulate_mvm,
    simulate_mvm_batch,
)
from ptcsim.devices import (
    DeviceModelError,
    DeviceParams,
    leakage_transmission,
    mzi_power,
    phase_to_weight,
    weight_to_phase,
)
from ptcsim.layout import LayoutParams, perturbed_phases

LAY = LayoutParams()
QUIET = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.0)
TAU = 1e-2  # leakage transmission at the default 20 dB extinction ratio


def test_execution_mode_parse():
    assert ExecutionMode.parse("prune_only") is ExecutionMode.PRUNE_ONLY
    assert ExecutionMode.parse("input_gating_lr") is ExecutionMode.INPUT_GATING_LR
    with pytest.raises(DeviceModelError, match="unknown execution mode"):
        ExecutionMode.parse("turbo")


def test_derive_rng_is_deterministic_and_path_sensitive():
    a = derive_rng(7, 1, 2).normal(size=4)
    b = derive_rng(7, 1, 2).normal(size=4)
    c = derive_rng(7, 1, 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# rerouter
# ---------------------------------------------------------------------------

def test_rerouter_10110010_oracle():
    state = rerouter_configure([1, 0, 1, 1, 0, 0, 1, 0])
    # Root splits 3 active leaves up vs 1 down.
    assert state.node_ratios[0] == (3, 1)
    assert state.node_phases_rad[0] == pytest.approx(
        2.0 * math.acos(math.sqrt(3.0 / 4.0)) - math.pi / 2, rel=1e-15)
    assert state.node_phases_rad[0] == pytest.approx(-math.pi / 6, abs=1e-12)
    # Every active port ends up with an equal quarter of the light.
    expected = [0.25, 0.0, 0.25, 0.25, 0.0, 0.0, 0.25, 0.0]
    assert np.allclose(state.leaf_intensities, expected, rtol=0, atol=1e-12)
    assert sum(state.leaf_intensities) == pytest.approx(1.0, abs=1e-12)
    # The dead subtree (ports 4, 5) sits at its balanced zero-power point.
    assert state.node_ratios[5] == (0, 0)
    assert state.node_phases_rad[5] == 0.0
    assert state.total_power_mw > 0.0


def test_rerouter_all_ones_draws_nothing():
    for k2 in (2, 4, 8, 16):
        state = rerouter_configure([1] * k2)
        assert state.total_power_mw == 0.0
        assert np.allclose(state.leaf_intensities, 1.0 / k2, rtol=0, atol=1e-12)


def test_rerouter_intensity_conservation_random_masks():
    rng = derive_rng(21)
    for _ in range(20):
        k2 = int(rng.integers(2, 17))
        mask = rng.integers(0, 2, size=k2)
        if mask.sum() == 0:
            mask[0] = 1
        state = rerouter_configure(mask)
        assert sum(state.leaf_intensities) == pytest.approx(1.0, abs=1e-12)
        active = mask.astype(bool)
        share = np.asarray(state.leaf_intensities)[active]
        assert np.allclose(share, 1.0 / active.sum(), rtol=0, atol=1e-12)
        assert np.all(np.asarray(state.leaf_intensities)[~active] == 0.0)


def test_rerouter_pads_non_power_of_two():
    state = rerouter_configure([1, 1, 0, 1, 1, 1])  # padded to 8 leaves
    assert len(state.leaf_intensities) == 6
    assert len(state.node_phases_rad) == 7
    assert sum(state.leaf_intensities) == pytest.approx(1.0, abs=1e-12)


def test_rerouter_pattern_order_changes_power():
    scattered = rerouter_configure([1, 0, 1, 1, 0, 0, 1, 0]).total_power_mw
    packed = rerouter_configure([1, 1, 1, 1, 0, 0, 0, 0]).total_power_mw
    assert scattered != pytest.approx(packed, rel=1e-6)
    assert packed == pytest.approx(
        rerouter_configure([1] * 4).total_power_mw
        + (math.pi / 2) / math.pi * DeviceParams().p_pi_mw / (1 - 0.130460095),
        rel=1e-6)


def test_rerouter_node_table_tree_sum_matches_configure():
    # The table summed over a tree's nodes prices every pattern as the
    # configured tree does, and as its node phases do, padding included.
    for k2 in (4, 6, 8):
        node_mw = rerouter_node_mw(k2, 9.0, DeviceParams())
        patterns = np.array(list(itertools.product((0, 1), repeat=k2)), dtype=bool)
        for pattern, got in zip(patterns, rerouter_tree_mw(patterns, node_mw)):
            state = rerouter_configure(pattern, 9.0, DeviceParams())
            direct = float(np.sum(mzi_power(np.abs(state.node_phases_rad), 9.0)))
            assert got == pytest.approx(state.total_power_mw, rel=1e-12, abs=0)
            assert got == pytest.approx(direct, rel=1e-12, abs=0)


def test_rerouter_empty_mask_rejected():
    with pytest.raises(DeviceModelError):
        rerouter_configure([])


def test_rerouter_rejects_a_mask_that_is_not_1d():
    for mask in (np.ones((2, 4)), [[1, 0], [1, 1]], 1):
        with pytest.raises(DeviceModelError, match="1-D"):
            rerouter_configure(mask)


def test_rerouter_one_port_tree_has_no_nodes():
    # k2 = 1: the tree is one leaf and no splitter node.
    node_mw = rerouter_node_mw(1)
    got = rerouter_tree_mw(np.ones((3, 2, 1), dtype=bool), node_mw)
    assert got.shape == (3, 2) and got.dtype == np.float64
    assert not got.any()
    state = rerouter_configure([1])
    assert state.node_ratios == () and state.node_phases_rad == ()
    assert state.leaf_intensities == (1.0,)
    assert state.total_power_mw == 0.0
    arch = ArchConfig(R=2, C=2, r=2, c=2, k1=4, k2=1)
    model = ColumnPowerModel(np.ones((2, 4), dtype=bool), None, arch,
                             DeviceParams(), LAY,
                             mode=ExecutionMode.INPUT_GATING_LR)
    col = np.array([True, False]).reshape(1, 1, 2, 1)
    pb = model.breakdown(col)
    assert pb.rerouter_mw == 0.0 and isinstance(pb.rerouter_mw, float)
    assert model.power(col) == pb.total_mw > 0.0


def _heap_rerouter(mask):
    """Reference rerouter configuration: per-node Python loops over the
    heap (node i's children are 2i+1 and 2i+2).  Returns the node ratios,
    node phases, leaf intensities and power summed in heap order."""
    mask = [1 if m else 0 for m in mask]
    n = 1 << (len(mask) - 1).bit_length()
    counts = [0] * (n - 1) + mask + [0] * (n - len(mask))
    for i in range(n - 2, -1, -1):
        counts[i] = counts[2 * i + 1] + counts[2 * i + 2]
    ratios = [(counts[2 * i + 1], counts[2 * i + 2]) for i in range(n - 1)]
    phases = [2.0 * math.acos(math.sqrt(up / (up + lo))) - math.pi / 2
              if up + lo else 0.0 for up, lo in ratios]
    intens = [0.0] * (2 * n - 1)
    intens[0] = 1.0
    for i, (up, lo) in enumerate(ratios):
        frac_up = 0.5 if up + lo == 0 else up / (up + lo)
        intens[2 * i + 1] = intens[i] * frac_up
        intens[2 * i + 2] = intens[i] * (1.0 - frac_up)
    power = float(np.sum(mzi_power(np.abs(np.array(phases)), 9.0)))
    return ratios, phases, intens[n - 1:n - 1 + len(mask)], power


def test_rerouter_matches_the_heap_loop_reference():
    rng = derive_rng(22)
    masks = [m for k2 in range(1, 9) for m in itertools.product((0, 1), repeat=k2)]
    masks += [tuple(rng.integers(0, 2, size=k2)) for k2 in rng.integers(9, 18, size=100)]
    for mask in masks:
        state = rerouter_configure(mask)
        ratios, phases, leaves, power = _heap_rerouter(mask)
        assert state.node_ratios == tuple(ratios), mask
        # Bit for bit, signs of zero included.
        for got, want in ((state.node_phases_rad, phases),
                          (state.leaf_intensities, leaves)):
            assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes(), mask
        assert state.total_power_mw == pytest.approx(power, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# simulate_mvm: exactness and mode semantics
# ---------------------------------------------------------------------------

def test_quiet_coupling_free_is_exact():
    rng = derive_rng(31)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    x = rng.uniform(0.0, 1.0, size=4)
    y = simulate_mvm(x, w, params=QUIET, layout=LAY, coupling_free=True)
    assert np.allclose(y, w @ x, rtol=0, atol=1e-14)


def test_prune_only_leaks_full_input_through_dead_weights():
    w = np.array([[0.5, 0.3], [0.2, 0.1]])
    x = np.array([0.8, 0.6])
    col = np.array([True, False])
    y = simulate_mvm(x, w, col_mask=col, mode=ExecutionMode.PRUNE_ONLY,
                     params=QUIET, layout=LAY, coupling_free=True)
    # Dead weights floor at +tau and still see the whole input.
    expected = np.array([0.5 * 0.8 + TAU * 0.6, 0.2 * 0.8 + TAU * 0.6])
    assert np.allclose(y, expected, rtol=0, atol=1e-12)


def test_input_gating_attenuates_dead_columns_twice():
    w = np.array([[0.5, 0.3], [0.2, 0.1]])
    x = np.array([0.8, 0.6])
    col = np.array([True, False])
    y = simulate_mvm(x, w, col_mask=col, mode=ExecutionMode.INPUT_GATING,
                     params=QUIET, layout=LAY, coupling_free=True)
    # Gated modulator (tau * x) times floored weight (tau): tau^2 leakage.
    expected = np.array([0.5 * 0.8 + TAU * TAU * 0.6,
                         0.2 * 0.8 + TAU * TAU * 0.6])
    assert np.allclose(y, expected, rtol=0, atol=1e-12)


def test_light_redistribution_is_transparent_when_quiet():
    # Boost k2/k2' into the survivors and rescale the readout by k2'/k2:
    # in the noiseless limit this reproduces the masked product exactly.
    rng = derive_rng(33)
    w = rng.uniform(-1.0, 1.0, size=(3, 8))
    x = rng.uniform(0.0, 1.0, size=8)
    col = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=bool)
    y = simulate_mvm(x, w, col_mask=col, mode=ExecutionMode.INPUT_GATING_LR,
                     params=QUIET, layout=LAY, coupling_free=True)
    assert np.allclose(y, ideal_mvm(x, w, col_mask=col), rtol=0, atol=1e-12)


def test_light_redistribution_all_pruned_is_dark():
    w = np.full((2, 4), 0.5)
    x = np.full(4, 0.5)
    col = np.zeros(4, dtype=bool)
    y = simulate_mvm(x, w, col_mask=col, mode=ExecutionMode.INPUT_GATING_LR,
                     params=QUIET, layout=LAY, coupling_free=True)
    assert np.all(y == 0.0)


def test_output_gating_zeroes_masked_rows():
    rng = derive_rng(34)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    x = rng.uniform(0.0, 1.0, size=4)
    row = np.array([True, False, True, False])
    noisy = DeviceParams()  # default noise on
    y_og = simulate_mvm(x, w, row_mask=row, params=noisy, layout=LAY,
                        rng_seed=5, output_gating=True)
    y_raw = simulate_mvm(x, w, row_mask=row, params=noisy, layout=LAY,
                         rng_seed=5, output_gating=False)
    assert np.all(y_og[~row] == 0.0)
    assert np.any(y_raw[~row] != 0.0)          # leakage + noise remain
    assert np.array_equal(y_og[row], y_raw[row])


def test_pd_noise_sigma_scales_with_rescaled_readout():
    # With zero weights the output is pure detector noise; light
    # redistribution divides it by k2/k2'.
    k1, k2 = 2, 4
    dev = DeviceParams(phase_noise_sigma_rad=0.0)
    w = np.zeros((k1, k2))
    x = np.broadcast_to(np.full((k2, 1), 0.5), (20000, k2, 1))
    row = np.ones(k1, dtype=bool)
    col = np.array([True, True, False, False])
    y_ig = simulate_mvm_batch(x, w, row, col, ExecutionMode.INPUT_GATING,
                              LAY, dev, rng=derive_rng(40), coupling_free=True)
    y_lr = simulate_mvm_batch(x, w, row, col, ExecutionMode.INPUT_GATING_LR,
                              LAY, dev, rng=derive_rng(41), coupling_free=True)
    ratio = y_ig.std() / y_lr.std()
    assert ratio == pytest.approx(k2 / col.sum(), rel=0.05)
    # And the baseline noise really is sigma_pd * sqrt(k2) per output.
    assert y_ig.std() == pytest.approx(dev.pd_noise_sigma * math.sqrt(k2),
                                       rel=0.05)


def test_detector_noise_is_one_draw_per_output():
    # Zero weights leave pure detector noise: sigma_pd * sqrt(k2) per
    # output, times k2'/k2 under light redistribution, across a batch of
    # (seeds, cores) whose cores each carry their own column mask.
    k1, k2, n_seeds, n_vec = 4, 8, 600, 8
    dev = DeviceParams(phase_noise_sigma_rad=0.0)
    w = np.zeros((4, k1, k2))                      # four cores
    x = np.full((n_seeds, 4, k2, n_vec), 0.5)
    row = np.array([True, True, False, True])
    col = np.zeros((4, k2), dtype=bool)
    for i, alive in enumerate((2, 4, 6, 8)):
        col[i, :alive] = True
    base = dev.pd_noise_sigma * math.sqrt(k2)
    for i, mode in enumerate((ExecutionMode.PRUNE_ONLY,
                              ExecutionMode.INPUT_GATING_LR)):
        y = simulate_mvm_batch(x, w, row, col, mode, LAY, dev,
                               rng=derive_rng(42, i))
        assert y.shape == (n_seeds, 4, k1, n_vec)
        assert np.all(y[:, :, ~row] == 0.0)
        sd = y[:, :, row].std(axis=(0, 3))          # (cores, live rows)
        gain = (col.sum(axis=1) / k2 if mode.redistributes
                else np.ones(4))
        assert sd == pytest.approx(np.repeat(base * gain[:, None], 3, axis=1),
                                   rel=0.06)


def test_phase_noise_is_drawn_per_batch_entry():
    # One mapping, three leading batch entries of x: each entry draws its
    # own phase noise, shared by the vectors on x's last axis.
    dev = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.05)
    w = np.array([[0.4]])
    x = np.broadcast_to(np.array([[0.9, 0.3]]), (3, 1, 2))
    y = simulate_mvm_batch(x, w, np.ones(1, bool), np.ones(1, bool),
                           ExecutionMode.PRUNE_ONLY, LAY, dev,
                           rng=derive_rng(9), coupling_free=True)
    gain = y[:, 0, :] / x[:, 0, :]                  # (batch, vectors)
    assert gain[:, 0] == pytest.approx(gain[:, 1], rel=1e-12)
    assert len(set(gain[:, 0].tolist())) == 3


def test_phase_noise_is_drawn_once_per_mapping():
    dev = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=0.05)
    w = np.array([[0.4]])
    x = np.array([[0.9, 0.3]])  # two vectors through one mapping
    y = simulate_mvm(x, w, params=dev, layout=LAY, rng_seed=9,
                     coupling_free=True)
    assert y[0, 0] / x[0, 0] == pytest.approx(y[0, 1] / x[0, 1], rel=1e-12)


def test_same_seed_reproduces_bitwise():
    rng = derive_rng(35)
    w = rng.uniform(-1.0, 1.0, size=(4, 4))
    x = rng.uniform(0.0, 1.0, size=(4, 3))
    a = simulate_mvm(x, w, layout=LAY, rng_seed=123)
    b = simulate_mvm(x, w, layout=LAY, rng_seed=123)
    c = simulate_mvm(x, w, layout=LAY, rng_seed=124)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vector_and_column_batch_agree():
    rng = derive_rng(36)
    w = rng.uniform(-1.0, 1.0, size=(3, 3))
    x = rng.uniform(0.0, 1.0, size=3)
    a = simulate_mvm(x, w, layout=LAY, rng_seed=1)
    b = simulate_mvm(x[:, None], w, layout=LAY, rng_seed=1)
    assert np.array_equal(a, b[:, 0])


def test_input_validation():
    w = np.eye(2)
    with pytest.raises(DeviceModelError, match=r"inputs must lie in \[0, 1\]"):
        simulate_mvm(np.array([0.5, 1.5]), w, layout=LAY)
    with pytest.raises(DeviceModelError, match=r"weights must lie in \[-1, 1\]"):
        simulate_mvm(np.array([0.5, 0.5]), 2 * w, layout=LAY)
    with pytest.raises(DeviceModelError, match=r"inputs must lie in \[0, 1\]"):
        simulate_mvm(np.array([np.nan, 0.5]), w, layout=LAY)
    with pytest.raises(DeviceModelError, match=r"weights must lie in \[-1, 1\]"):
        simulate_mvm(np.array([0.5, 0.5]), np.array([[0.1, np.nan]]), layout=LAY)
    # Empty operands pass the range checks: no vectors, no seeds, no cores.
    ones = np.ones(2, dtype=bool)
    for x, w_batch, shape in ((np.zeros((2, 0)), w, (2, 0)),
                              (np.zeros((0, 2, 3)), w, (0, 2, 3)),
                              (np.zeros((2, 3)), np.zeros((0, 2, 2)), (0, 2, 3))):
        assert simulate_mvm_batch(x, w_batch, ones, ones, ExecutionMode.INPUT_GATING_LR,
                                  LAY).shape == shape
    with pytest.raises(DeviceModelError, match="row mask"):
        simulate_mvm(np.array([0.5, 0.5]), w, row_mask=np.ones(3, bool),
                     layout=LAY)
    with pytest.raises(DeviceModelError, match="column mask"):
        simulate_mvm(np.array([0.5, 0.5]), w, col_mask=np.ones(5, bool),
                     layout=LAY)
    # A 0-d mask has no entries to count.
    with pytest.raises(DeviceModelError, match="row mask must have 2 entries"):
        simulate_mvm(np.array([0.5, 0.5]), w, row_mask=True, layout=LAY)
    with pytest.raises(DeviceModelError, match="column mask must have 2 entries"):
        simulate_mvm(np.array([0.5, 0.5]), w, col_mask=True, layout=LAY)
    # The batch engine takes (..., k2, n) inputs: a bare vector, or one
    # whose second-to-last axis is not k2, is rejected.
    for x in (np.array([0.5, 0.5]), np.full((3, 4), 0.5), np.full((1, 2), 0.5)):
        with pytest.raises(DeviceModelError, match=r"inputs \(.*\) must be"):
            simulate_mvm_batch(x, w, ones, ones, ExecutionMode.PRUNE_ONLY, LAY)


def test_batch_rejects_leading_dims_that_do_not_broadcast():
    rng = derive_rng(37)
    w = rng.uniform(-1.0, 1.0, size=(2, 3, 4))
    x = rng.uniform(0.0, 1.0, size=(3, 4, 5))
    col = np.ones((2, 4), dtype=bool)
    with pytest.raises(DeviceModelError,
                       match=r"do not broadcast: x \(3,\), w \(2,\)"):
        simulate_mvm_batch(x, w, np.ones(3, bool), col, ExecutionMode.PRUNE_ONLY, LAY)


def test_extinction_ratio_controls_the_leakage_floor():
    dev30 = dataclasses.replace(QUIET, extinction_ratio_db=30.0)
    w = np.array([[0.5, 0.3]])
    x = np.array([0.8, 0.6])
    col = np.array([True, False])
    y20 = simulate_mvm(x, w, col_mask=col, params=QUIET, layout=LAY,
                       coupling_free=True)
    y30 = simulate_mvm(x, w, col_mask=col, params=dev30, layout=LAY,
                       coupling_free=True)
    assert y20[0] - 0.4 == pytest.approx(1e-2 * 0.6, rel=1e-9)
    assert y30[0] - 0.4 == pytest.approx(1e-3 * 0.6, rel=1e-9)


def test_masked_mzis_aggress_nobody_but_receive_crosstalk():
    # Unit input vectors read the realized weights off the light path
    # (prune-only, quiet, no output gating); a 100 dB extinction ratio keeps
    # the floor below the crosstalk a masked MZI receives.
    dev = dataclasses.replace(QUIET, extinction_ratio_db=100.0)
    w = np.random.default_rng(4).uniform(-0.8, 0.8, size=(4, 4))
    row = np.array([True, True, True, False])
    col = np.array([True, False, True, True])
    ones = np.ones(4, dtype=bool)
    alive = row[:, None] & col[None, :]

    def realized(w, row, col, coupling_free=False):
        return simulate_mvm_batch(np.eye(4), w, row, col,
                                  ExecutionMode.PRUNE_ONLY, LAY, dev,
                                  output_gating=False,
                                  coupling_free=coupling_free)

    gated = realized(w, row, col)
    # A powered-off MZI drives zero phase: live weights match the zeroed
    # programming with every MZI on, and differ from the unmasked one.
    assert np.array_equal(gated[alive],
                          realized(np.where(alive, w, 0.0), ones, ones)[alive])
    assert not np.array_equal(gated[alive], realized(w, ones, ones)[alive])
    # Masked MZIs still receive crosstalk from live neighbours.
    free = realized(w, row, col, coupling_free=True)
    assert np.all(free[~alive] == leakage_transmission(dev))
    assert np.any(gated[~alive] != free[~alive])
    # All-ones masks give the plain crosstalk result.
    plain = phase_to_weight(perturbed_phases(weight_to_phase(w), LAY))
    assert np.array_equal(realized(w, ones, ones), plain)


# ---------------------------------------------------------------------------
# simulate_layer: one mapped layer in one pass
# ---------------------------------------------------------------------------

P, Q, R, C, K1, K2 = 2, 3, 2, 2, 3, 4


def _layer_operands(seed, n_seeds, m=3):
    rng = derive_rng(seed)
    w6 = rng.uniform(-1.0, 1.0, size=(P, Q, R, C, K1, K2))
    x = rng.uniform(0.0, 1.0, size=(n_seeds, Q, C, K2, m))
    row = rng.uniform(size=(R, K1)) < 0.7
    col = rng.uniform(size=(n_seeds, P, Q, C, K2)) < 0.6
    return w6, x, row, col


@pytest.mark.parametrize("coupling_free", [False, True])
@pytest.mark.parametrize("output_gating", [False, True])
@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_quiet_layer_is_the_sum_of_its_cores(mode, output_gating, coupling_free):
    # Per-(seed, p, q, c) column masks: the layer product equals the
    # per-core products summed over the c cores of a readout and the q
    # input chunks.
    w6, x, row, col = _layer_operands(60, n_seeds=2)
    args = dict(mode=mode, layout=LAY, params=QUIET,
                output_gating=output_gating, coupling_free=coupling_free)
    y = simulate_layer(x, w6, row, col, **args)
    cores = simulate_mvm_batch(x[:, None, :, None], w6, row[:, None, :],
                               col[:, :, :, None], **args)
    expected = cores.sum(axis=(2, 4)).reshape(2, P * R * K1, -1)
    assert y.shape == expected.shape
    assert np.allclose(y, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_seeds, threads", [(None, 1), (2, 1), (2, 2)])
def test_layer_pool_leaves_products_and_stream_unchanged(n_seeds, threads):
    # Without a seed axis (or with one not split) the detector normals are
    # drawn on the pool; with a split seed axis they are drawn inline.
    # Either way the products and the generator's next draw are the same.
    w6, x, row, col = _layer_operands(62, n_seeds=n_seeds or 1)
    if n_seeds is None:
        x, col = x[0], col[0]
    readouts = [(ExecutionMode.INPUT_GATING_LR, True), (ExecutionMode.PRUNE_ONLY, False)]

    def run(pool):
        rng = derive_rng(63)
        y = simulate_layer_readouts(x, w6, row[None], col, readouts, [LAY],
                                    rng=rng, threads=threads, pool=pool)
        return y, rng.standard_normal(3)

    alone = run(None)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pooled = run(pool)
    assert np.array_equal(alone[0], pooled[0])
    assert np.array_equal(alone[1], pooled[1])


def test_layer_detector_noise_is_one_draw_per_output():
    # Zero weights and a constant input leave the detector noise as each
    # output's spread: sqrt of the (q, c) sum of sigma^2, with sigma =
    # sigma_pd * sqrt(k2) (times k2'/k2 under redistribution); gated rows
    # are exactly 0.
    n_seeds, m = 3000, 4
    dev = DeviceParams(phase_noise_sigma_rad=0.0)
    w6 = np.zeros((1, Q, 1, C, K1, K2))
    x = np.full((n_seeds, Q, C, K2, m), 0.5)
    row = np.array([[True, False, True]])
    col = np.zeros((1, Q, C, K2), dtype=bool)
    for i, alive in enumerate((1, 2, 3, 4, 4, 2)):
        col.reshape(-1, K2)[i, :alive] = True
    base = dev.pd_noise_sigma * math.sqrt(K2)
    for i, mode in enumerate((ExecutionMode.PRUNE_ONLY,
                              ExecutionMode.INPUT_GATING_LR)):
        y = simulate_layer(x, w6, row, col, mode, LAY, dev,
                           rng=derive_rng(61, i))
        assert y.shape == (n_seeds, K1, m)
        assert np.all(y[:, ~row[0]] == 0.0)
        gain = col.sum(axis=-1) / K2 if mode.redistributes else np.ones((Q, C))
        expected = base * math.sqrt(float((gain ** 2).sum()))
        sd = y[:, row[0]].std(axis=(0, 2))
        assert sd == pytest.approx(np.full(2, expected), rel=0.03)


ALL_READOUTS = [(mode, og) for mode in ExecutionMode for og in (False, True)]


# Gaps and row pitches whose crosstalk bands differ, B = 0 at LAY.
LAYOUTS = [LAY, LayoutParams(l_g_um=1.0), LayoutParams(l_g_um=3.0, l_v_um=10.0)]


@pytest.mark.parametrize("seed_axis", [False, True])
@pytest.mark.parametrize("coupling_free, stacked_rows, stacked_layouts", [
    pytest.param(False, False, False, id="False"),
    pytest.param(True, False, False, id="True"),
    pytest.param(False, True, False, id="False-stacked_rows"),
    pytest.param(True, True, False, id="True-stacked_rows"),
    pytest.param(False, False, True, id="False-stacked_layouts"),
    pytest.param(False, True, True, id="False-stacked_rows-stacked_layouts"),
])
def test_readouts_equal_separate_layer_calls(coupling_free, stacked_rows,
                                             stacked_layouts, seed_axis):
    # One realization read out under every (mode, output gating) pair, in
    # order and shuffled, equals separate simulate_layer calls with
    # identically seeded generators bit for bit, phase and detector noise on.
    # Stacks of one or three row masks and layouts share every draw, and
    # each (layout, row mask) equals its own call in the same way.  The
    # readouts' order is not the order in which the modes fold one
    # realization in place, so the shuffled order must give the same
    # products.
    w6, x, row, col = _layer_operands(64, n_seeds=2)
    if not seed_axis:
        col = col[:1]  # one column mask shared by both seeds
    masks = np.stack([row, ~row, np.ones_like(row)]) if stacked_rows else row[None]
    layouts = LAYOUTS if stacked_layouts else [LAY]
    run = dict(params=DeviceParams(), coupling_free=coupling_free)
    shuffled = [ALL_READOUTS[i]
                for i in np.random.default_rng(5).permutation(len(ALL_READOUTS))]
    assert shuffled != ALL_READOUTS
    for readouts in (ALL_READOUTS, shuffled):
        out = simulate_layer_readouts(x, w6, masks, col, readouts, layouts,
                                      rng=derive_rng(65), **run)
        for layout, groups in zip(layouts, out, strict=True):
            for mask, ys in zip(masks, groups, strict=True):
                assert len(ys) == len(readouts)
                for (mode, og), y in zip(readouts, ys):
                    alone = simulate_layer(x, w6, mask, col, mode, layout,
                                           output_gating=og,
                                           rng=derive_rng(65), **run)
                    assert np.array_equal(y, alone)
    # Mode names parse like ExecutionMode members.
    [[[named]]] = simulate_layer_readouts(x, w6, row[None], col,
                                          [("input_gating", True)], [LAY],
                                          rng=derive_rng(65), **run)
    assert np.array_equal(named, simulate_layer(
        x, w6, row, col, ExecutionMode.INPUT_GATING, LAY, rng=derive_rng(65),
        **run))


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_output_gating_zeroes_dead_rows_of_the_ungated_product(mode):
    # Output gating acts on the product: with phase and detector noise on,
    # the gated readout is the ungated one with dead rows set to +0.0, bit
    # for bit; over an all-ones row mask both readouts are equal.
    w6, x, row, col = _layer_operands(71, n_seeds=2)
    assert not row.all()
    masks = np.stack([row, np.ones_like(row)])
    [[(ungated, gated), (ones_ungated, ones_gated)]] = simulate_layer_readouts(
        x, w6, masks, col, [(mode, False), (mode, True)], [LAY],
        rng=derive_rng(72))
    dead = ~np.tile(row.reshape(-1), P)
    assert dead.any() and np.all(ungated[:, dead] != 0.0)
    expected = ungated.copy()
    expected[:, dead] = 0.0
    assert np.array_equal(gated, expected)
    assert not np.signbit(gated[:, dead]).any()
    assert np.array_equal(ones_gated, ones_ungated)


@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_readouts_are_one_array_whose_slices_never_alias(mode):
    # The products come back as one (layouts, row masks, readouts, seeds,
    # p*r*k1, m) array.  Over an all-ones row mask the ungated and gated
    # readouts are equal but own their memory: writing into one leaves the
    # other unchanged.
    w6, x, row, col = _layer_operands(73, n_seeds=2)
    masks = np.stack([row, np.ones_like(row)])
    out = simulate_layer_readouts(x, w6, masks, col, [(mode, False), (mode, True)],
                                  LAYOUTS[:2], rng=derive_rng(74))
    assert isinstance(out, np.ndarray)
    assert out.shape == (2, 2, 2, 2, P * R * K1, 3)
    for ungated, gated in out[:, 1]:
        assert np.array_equal(ungated, gated)
        assert not np.shares_memory(ungated, gated)
        before = gated.copy()
        ungated[...] = np.nan
        assert np.array_equal(gated, before)


@pytest.mark.parametrize("n_seeds", [1, 2, 5])
@pytest.mark.parametrize("seed_axis", [False, True])
@pytest.mark.parametrize("phase_sigma", [0.0, 0.02])
def test_threads_split_the_seeds_without_changing_a_product(n_seeds, seed_axis,
                                                           phase_sigma):
    # Workers split the seed axis after the draws: every (layout, row mask,
    # mode, output gating) product is the same bit for bit at 1, 2 and 3
    # threads, for seed counts that do not divide evenly, one seed, a
    # column mask shared by the seeds (one crosstalk pass) or one per seed,
    # phase noise on or off (detector noise on), and crosstalk on or off
    # (coupling-free: no mapping is shared, each slice builds its target).
    w6, x, row, col = _layer_operands(75, n_seeds=n_seeds)
    if not seed_axis:
        col = col[:1]
    masks = np.stack([row, np.ones_like(row)])
    dev = DeviceParams(phase_noise_sigma_rad=phase_sigma)
    for coupling_free in (False, True):
        one, *many = [simulate_layer_readouts(
            x, w6, masks, col, ALL_READOUTS, LAYOUTS, dev, rng=derive_rng(76),
            coupling_free=coupling_free, threads=threads) for threads in (1, 2, 3)]
        assert one.shape == (3, 2, 6, n_seeds, P * R * K1, 3)
        assert all(np.array_equal(one, each) for each in many)


def test_threads_write_disjoint_slices_under_contention():
    # More workers than cores, switching threads every microsecond: a
    # worker that wrote outside its own seeds, or into the crosstalk pass
    # that the seeds of a shared column mask read, would change the product.
    w6, x, row, col = _layer_operands(81, n_seeds=16)
    masks = np.stack([row, np.ones_like(row)])
    run = dict(readouts=ALL_READOUTS, layouts=LAYOUTS, rng=82)
    for cols in (col, col[:1]):
        one = simulate_layer_readouts(x, w6, masks, cols, **run)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = simulate_layer_readouts(x, w6, masks, cols, threads=8, **run)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(one, many)


def test_threads_run_a_shared_crosstalk_pass_once(monkeypatch):
    # A column mask the seeds share maps every seed's cores alike, so its
    # crosstalk runs once per (row mask, layout) on the seed-free target at
    # every thread count, not once per worker; the products do not change.
    calls = []

    def counted(target, *args, **kwargs):
        calls.append(target.shape[0])
        return perturbed_phases(target, *args, **kwargs)

    monkeypatch.setattr(ptcsim.core, "perturbed_phases", counted)
    w6, x, row, col = _layer_operands(83, n_seeds=4)
    masks = np.stack([row, np.ones_like(row)])
    run = dict(readouts=ALL_READOUTS, layouts=LAYOUTS)
    one = simulate_layer_readouts(x, w6, masks, col[:1], rng=derive_rng(84), **run)
    assert calls == [1] * (len(masks) * len(LAYOUTS))
    for threads in (2, 3):
        calls.clear()
        many = simulate_layer_readouts(x, w6, masks, col[:1], rng=derive_rng(84),
                                       threads=threads, **run)
        assert calls == [1] * (len(masks) * len(LAYOUTS))
        assert np.array_equal(one, many)


def test_threads_never_start_more_workers_than_seeds(monkeypatch):
    # The pool size is min(threads, seeds); a call whose realized weights
    # have no seed axis (no phase noise and one shared column mask, or no
    # seed axis at all) starts no pool.  A stub executor records each pool
    # and runs its work on the calling thread, so no thread is started.
    pools = []

    class Recorder:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(ptcsim.core, "ThreadPoolExecutor", Recorder)
    w6, x, row, col = _layer_operands(77, n_seeds=3)
    run = dict(readouts=ALL_READOUTS, layouts=[LAY], rng=78)
    many = simulate_layer_readouts(x, w6, row[None], col, threads=10_000, **run)
    assert pools == [3]
    assert np.array_equal(many, simulate_layer_readouts(x, w6, row[None], col,
                                                        **run))
    assert pools == [3]
    quiet = DeviceParams(phase_noise_sigma_rad=0.0)
    simulate_layer_readouts(x, w6, row[None], col[:1], params=quiet,
                            threads=10_000, **run)
    simulate_layer_readouts(x[0], w6, row[None], col[0], threads=10_000, **run)
    assert pools == [3]


def test_layer_readouts_write_into_a_given_array():
    # ``out`` receives the products and is returned; an array of another
    # shape, dtype or layout, and a thread count below one or not an
    # integer, are rejected.
    w6, x, row, col = _layer_operands(79, n_seeds=2)
    run = dict(readouts=ALL_READOUTS, layouts=[LAY])
    fresh = simulate_layer_readouts(x, w6, row[None], col, rng=derive_rng(80), **run)
    out = np.full(fresh.shape, np.nan)
    got = simulate_layer_readouts(x, w6, row[None], col, rng=derive_rng(80),
                                  out=out, threads=2, **run)
    assert got is out and np.array_equal(out, fresh)
    for bad in (out[..., :1], out.astype(np.float32), np.asfortranarray(out)):
        with pytest.raises(DeviceModelError, match="out must be"):
            simulate_layer_readouts(x, w6, row[None], col, out=bad, **run)
    for threads in (0, -1, 1.5, True):
        with pytest.raises(DeviceModelError, match="threads must be"):
            simulate_layer_readouts(x, w6, row[None], col, threads=threads, **run)


def _realized_oracle(w6, row, col, noise, layout, dev, readout):
    """Float64 realized and folded weights of a layer, (S, p*r*k1, q*c*k2):
    phase_to_weight(perturbed_phases(target) + noise), the extinction floor
    on powered-off MZIs, then the readout's fold."""
    mode, output_gating = readout
    tau = leakage_transmission(dev)
    dead_rows = ~row[:, None, :, None]                   # (r, 1, k1, 1)
    dead_cols = ~col[:, :, :, None, :, None, :]          # (S, p, q, 1, c, 1, k2)
    dead = dead_rows | dead_cols
    target = np.where(dead, -0.0, weight_to_phase(w6))
    phases = perturbed_phases(target, layout)
    if noise is not None:
        phases = phases + noise
    w = phase_to_weight(phases)
    w = np.where(dead & (np.abs(w) < tau), np.where(w >= 0, tau, -tau), w)
    if mode is ExecutionMode.INPUT_GATING:
        w = np.where(dead_cols, w * tau, w)
    elif mode is ExecutionMode.INPUT_GATING_LR:
        w = np.where(dead_cols, 0.0, w)
    if output_gating:
        w = np.where(dead_rows, 0.0, w)
    s_n = w.shape[0]
    return w.transpose(0, 1, 3, 5, 2, 4, 6).reshape(s_n, P * R * K1, Q * C * K2)


@pytest.mark.parametrize("layout", [LAY, LayoutParams(l_g_um=1.0, l_v_um=30.0)],
                         ids=["band0", "band3"])
def test_noisy_paths_realize_in_float32_and_quiet_ones_exactly(layout):
    # Identity inputs read the realized weights off every readout.  Under
    # phase noise the light path runs in float32 and returns float64 within
    # 1e-6 of the float64 oracle built from the same draw; without it every
    # readout equals the oracle bit for bit.
    w6, _, row, col = _layer_operands(69, n_seeds=2)
    assert not row.all()
    eye = np.broadcast_to(np.eye(Q * C * K2).reshape(Q, C, K2, -1),
                          (2, Q, C, K2, Q * C * K2))
    for sigma in (0.05, 0.0):
        dev = DeviceParams(pd_noise_sigma=0.0, phase_noise_sigma_rad=sigma)
        [[ys]] = simulate_layer_readouts(eye, w6, row[None], col, ALL_READOUTS,
                                         [layout], dev, rng=derive_rng(70))
        noise = (derive_rng(70).normal(0.0, sigma, size=(2,) + w6.shape)
                 if sigma else None)
        for readout, y in zip(ALL_READOUTS, ys, strict=True):
            assert y.dtype == np.float64
            oracle = _realized_oracle(w6, row, col, noise, layout, dev, readout)
            if sigma:
                assert np.abs(y - oracle).max() <= 1e-6, readout
                assert not np.array_equal(y, oracle), readout
            else:
                assert np.array_equal(y, oracle), readout


@pytest.mark.parametrize("output_gating", [False, True])
@pytest.mark.parametrize("mode", list(ExecutionMode))
def test_one_core_layer_equals_simulate_mvm_batch(mode, output_gating):
    # Both entry points run one light path: a layer of one 1x1x1x1
    # partition equals the batched core bit for bit, with phase noise and
    # crosstalk on (detector noise off: the layer sums its normals over the
    # (q, c) cores, the batch scales them by sigma).
    rng = derive_rng(67)
    w = rng.uniform(-1.0, 1.0, size=(K1, K2))
    x = rng.uniform(0.0, 1.0, size=(2, K2, 3))
    row = np.array([True, False, True])
    col = rng.uniform(size=(2, K2)) < 0.6  # one column mask per batch entry
    run = dict(layout=LayoutParams(l_g_um=1.0, l_v_um=10.0),
               params=DeviceParams(pd_noise_sigma=0.0),
               output_gating=output_gating)
    layer = simulate_layer(x[:, None, None], w[None, None, None, None],
                           row[None], col[:, None, None, None], mode,
                           rng=derive_rng(68), **run)
    cores = simulate_mvm_batch(x, w, row, col, mode, rng=derive_rng(68), **run)
    assert layer.shape == cores.shape == (2, K1, 3)
    assert np.array_equal(layer, cores)


def test_readouts_reject_empty_and_unknown_modes():
    w6, x, row, col = _layer_operands(66, n_seeds=1)
    with pytest.raises(DeviceModelError, match="at least one"):
        simulate_layer_readouts(x, w6, row[None], col, [], [LAY])
    with pytest.raises(DeviceModelError, match="unknown execution mode"):
        simulate_layer_readouts(x, w6, row[None], col,
                                [(ExecutionMode.PRUNE_ONLY, True), ("turbo", True)],
                                [LAY])
    # One form only: a (g, r, k1) stack of row masks, a sequence of layouts.
    readouts = [(ExecutionMode.PRUNE_ONLY, True)]
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer_readouts(x, w6, row, col, readouts, [LAY])
    for layouts in (LAY, [], [LAY, "foundry"]):
        with pytest.raises(DeviceModelError, match="sequence of LayoutParams"):
            simulate_layer_readouts(x, w6, row[None], col, readouts, layouts)


def test_layer_rejects_mismatched_partitions():
    w6, x, row, col = _layer_operands(62, n_seeds=1)
    run = dict(mode=ExecutionMode.PRUNE_ONLY, layout=LAY, params=QUIET)
    with pytest.raises(DeviceModelError, match="partitioned"):
        simulate_layer(x, w6[0], row, col, **run)
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer(x[:, :2], w6, row, col, **run)
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer(x[0, 0], w6, row, col, **run)
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer(x, w6, row[:1], col, **run)
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer(x, w6, row, col[:, :1], **run)
    with pytest.raises(DeviceModelError, match="does not fit"):
        simulate_layer(x, w6, row, col[0, 0], **run)


def test_layer_rejects_leading_dims_that_do_not_broadcast():
    w6, x, row, col = _layer_operands(63, n_seeds=2)
    with pytest.raises(DeviceModelError,
                       match=r"do not broadcast: x \(3,\), col_mask \(2,\)"):
        simulate_layer(np.concatenate([x, x[:1]]), w6, row, col,
                       ExecutionMode.PRUNE_ONLY, LAY, QUIET)


# ---------------------------------------------------------------------------
# ideal product and N-MAE
# ---------------------------------------------------------------------------

def test_ideal_mvm_applies_masks():
    w = np.arange(6, dtype=float).reshape(2, 3) / 10.0
    x = np.array([1.0, 1.0, 1.0])
    row = np.array([True, False])
    col = np.array([True, False, True])
    y = ideal_mvm(x, w, row_mask=row, col_mask=col)
    assert y[0] == pytest.approx(w[0, 0] + w[0, 2])
    assert y[1] == 0.0


def test_nmae_basics():
    ref = np.array([1.0, -2.0, 3.0])
    assert nmae(ref, ref) == 0.0
    assert nmae(2 * ref, ref) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DeviceModelError, match="identical shapes"):
        nmae(np.zeros(2), np.zeros(3))
    with pytest.raises(DeviceModelError, match="all-zero reference"):
        nmae(np.ones(3), np.zeros(3))
    for shape in ((0,), (4, 0)):
        with pytest.raises(DeviceModelError, match="empty operands"):
            nmae(np.zeros(shape), np.zeros(shape))


def test_nmae_scratch_gives_the_same_value():
    rng = np.random.default_rng(5)
    y, ref = rng.standard_normal((2, 7, 9))
    scratch = np.empty_like(ref)
    assert nmae(y, ref, scratch) == nmae(y, ref)
    assert np.array_equal(scratch, np.abs(y - ref))
