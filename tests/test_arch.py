"""Accelerator-level power, area and energy models.

The dense power and floorplan formulas are recomputed here from first
principles (device constants in, closed form out) so the architecture
module is pinned against the reference operating point: 20.58 W and
18.30 mm^2 for the default 16-core configuration at 9 um arm spacing.
"""

import math

import numpy as np
import pytest

from ptcsim.arch import (
    ArchConfig,
    AreaBreakdown,
    ColumnPowerModel,
    PowerBreakdown,
    area,
    chunk_power,
    energy,
    pap,
    power,
)
from ptcsim.core import ExecutionMode, rerouter_configure
from ptcsim.devices import DeviceModelError, DeviceParams, adc_power, edac_power
from ptcsim.layout import LayoutParams

ARCH = ArchConfig()
DEV = DeviceParams()
LAY = LayoutParams()

GAMMA_9 = 0.1304600950000001  # polynomial fit at the default arm spacing


def test_arch_validation():
    with pytest.raises(DeviceModelError):
        ArchConfig(R=4, r=3)           # r must divide R
    with pytest.raises(DeviceModelError):
        ArchConfig(C=4, c=3)
    with pytest.raises(DeviceModelError):
        ArchConfig(f_ghz=0.0)
    with pytest.raises(DeviceModelError):
        ArchConfig(dac_kind="dac")
    with pytest.raises(DeviceModelError):
        ArchConfig(dac_kind="eodac", b_in=6, eodac_segments=(3, 2))


def test_shape_helpers():
    assert ARCH.n_cores == 16
    assert ARCH.n_chunk_slots == 1          # r=R, c=C: one chunk resident
    assert ARCH.chunk_rows == 64
    assert ARCH.chunk_cols == 64
    desk = ArchConfig(R=2, C=2, k1=4, k2=4, r=2, c=2)
    assert desk.n_chunk_slots == 1
    assert (desk.chunk_rows, desk.chunk_cols) == (8, 8)
    half = ArchConfig(R=4, C=4, r=2, c=2)
    assert half.n_chunk_slots == 4


def test_dense_power_closed_form():
    pb = power(ARCH, DEV, LAY)
    n = ARCH.R * ARCH.C
    # Input: R*C*k2/r modulator+DAC channels.
    p_chan = (DEV.p_mod_static_mw + DEV.e_mod_pj * ARCH.f_ghz
              + DEV.p0_edac_mw * (2**6 / 7.0) * ARCH.f_ghz)
    assert pb.input_mw == pytest.approx(n * ARCH.k2 / ARCH.r * p_chan, rel=1e-12)
    # Weights: every MZI at the uniform-weight mean |phase| = pi/2 - 1,
    # inflated by intra-MZI coupling, plus two photodiodes per node.
    p_mzi = (math.pi / 2 - 1.0) / math.pi * DEV.p_pi_mw / (1.0 - GAMMA_9)
    assert pb.weight_mw == pytest.approx(
        n * ARCH.k1 * ARCH.k2 * (p_mzi + 2 * DEV.p_pd_mw), rel=1e-9)
    # Readout: R*C*k1/c TIA+ADC channels.
    p_read = DEV.p_tia_mw + 0.185 * ARCH.b_o * ARCH.f_ghz
    assert pb.readout_mw == pytest.approx(n * ARCH.k1 / ARCH.c * p_read, rel=1e-12)
    assert pb.rerouter_mw == 0.0
    # The calibrated reference operating point.
    assert pb.total_mw / 1e3 == pytest.approx(20.58, abs=5e-3)


def _one_chunk(arch, row=None, col=None, weights=None,
               mode=ExecutionMode.PRUNE_ONLY, output_gating=True):
    """One chunk's power breakdown from a one-chunk ColumnPowerModel."""
    row = np.ones((arch.r, arch.k1), dtype=bool) if row is None else row
    col = np.ones((arch.c, arch.k2), dtype=bool) if col is None else col
    w6 = None if weights is None else weights[None, None]
    model = ColumnPowerModel(row, w6, arch, DEV, LAY, mode=mode,
                             output_gating=output_gating)
    return model.breakdown(col[None, None])


def test_chunk_power_explicit_weights():
    # All weights equal w0: the MZI term is exactly n_alive * P(asin w0).
    desk = ArchConfig(R=2, C=2, k1=4, k2=4, r=2, c=2)
    w0 = 0.6
    w = np.full((desk.r, desk.c, desk.k1, desk.k2), w0)
    pb = _one_chunk(desk, weights=w)
    per_mzi = (math.asin(w0) / math.pi) * DEV.p_pi_mw / (1.0 - GAMMA_9)
    n_nodes = desk.r * desk.c * desk.k1 * desk.k2
    assert pb.weight_mw == pytest.approx(
        n_nodes * (per_mzi + 2 * DEV.p_pd_mw), rel=1e-9)


def test_gating_semantics_by_mode():
    desk = ArchConfig(R=2, C=2, k1=4, k2=4, r=2, c=2)
    row = np.tile(np.array([1, 1, 1, 0], dtype=bool), (desk.r, 1))   # 6 of 8
    col = np.tile(np.array([1, 1, 0, 0], dtype=bool), (desk.c, 1))   # 4 of 8
    p_chan = (DEV.p_mod_static_mw + DEV.e_mod_pj * desk.f_ghz
              + edac_power(desk.b_in, desk.f_ghz, DEV))
    p_read = DEV.p_tia_mw + adc_power(desk.b_o, desk.f_ghz, DEV)

    po = _one_chunk(desk, row, col, mode=ExecutionMode.PRUNE_ONLY)
    ig = _one_chunk(desk, row, col, mode=ExecutionMode.INPUT_GATING)
    lr = _one_chunk(desk, row, col, mode=ExecutionMode.INPUT_GATING_LR)

    # Inputs power off only once gating is on.
    assert po.input_mw == pytest.approx(desk.c * desk.k2 * p_chan, rel=1e-12)
    assert ig.input_mw == pytest.approx(4 * p_chan, rel=1e-12)
    assert lr.input_mw == ig.input_mw
    # Photodiodes turn off only when redistribution leaves columns dark.
    pd_all = 2 * DEV.p_pd_mw * desk.r * desk.c * desk.k1 * desk.k2
    pd_lit = 2 * DEV.p_pd_mw * desk.r * desk.k1 * 4
    assert po.weight_mw - ig.weight_mw == pytest.approx(0.0, abs=1e-12)
    assert ig.weight_mw - lr.weight_mw == pytest.approx(pd_all - pd_lit, rel=1e-12)
    # Output gating trims readout channels; disabling it restores them all.
    assert po.readout_mw == pytest.approx(6 * p_read, rel=1e-12)
    raw = _one_chunk(desk, row, col, output_gating=False)
    assert raw.readout_mw == pytest.approx(desk.r * desk.k1 * p_read, rel=1e-12)
    # Only redistribution drives the splitter tree.
    assert po.rerouter_mw == 0.0 and ig.rerouter_mw == 0.0
    expected_rr = sum(rerouter_configure(col[ci], LAY.l_s_um, DEV).total_power_mw
                      for ci in range(desk.c))
    assert lr.rerouter_mw == pytest.approx(expected_rr, rel=1e-12)


def test_power_scales_chunk_by_resident_slots():
    half = ArchConfig(R=4, C=4, r=2, c=2)
    one = chunk_power(half, DEV, LAY)
    assert power(half, DEV, LAY).total_mw == pytest.approx(
        4 * one.total_mw, rel=1e-12)


def test_area_floorplan_oracle():
    ab = area(ARCH, DEV, LAY)
    n = ARCH.n_cores
    # Crossbar block: 15 row pitches + node length by 15 column pitches +
    # node width = 1915 um x 315 um per core.
    ptc_core = ((16 - 1) * 120.0 + 115.0) * ((16 - 1) * 20.0 + 15.0)
    assert ptc_core == 1915.0 * 315.0
    assert ab.ptc_weight_mm2 == pytest.approx(n * ptc_core / 1e6, rel=1e-12)
    assert ab.splitter_mm2 == pytest.approx(n * 16 * DEV.a_mmi_um2 / 1e6, rel=1e-12)
    assert ab.pd_mm2 == pytest.approx(n * 2 * 256 * DEV.a_pd_um2 / 1e6, rel=1e-12)
    assert ab.dac_mzm_rerouter_mm2 == pytest.approx(
        (n // 4) * (16 * (DEV.a_dac_um2 + DEV.a_mzm_um2) + DEV.a_rerouter_um2) / 1e6,
        rel=1e-12)
    assert ab.adc_tia_mm2 == pytest.approx(
        (n // 4) * 16 * (DEV.a_adc_um2 + DEV.a_tia_um2) / 1e6, rel=1e-12)
    assert ab.total_mm2 == pytest.approx(18.30, abs=5e-3)


def test_eodac_swaps_power_and_area():
    eo = ArchConfig(dac_kind="eodac")
    pb_e, pb_eo = power(ARCH, DEV, LAY), power(eo, DEV, LAY)
    assert pb_e.input_mw / pb_eo.input_mw > 1.0
    # Segmented drivers duplicate the DAC footprint.
    ab_e, ab_eo = area(ARCH, DEV, LAY), area(eo, DEV, LAY)
    extra = (ARCH.n_cores // ARCH.r) * ARCH.k2 * DEV.a_dac_um2 / 1e6
    assert ab_eo.total_mm2 - ab_e.total_mm2 == pytest.approx(extra, rel=1e-9)


def test_energy_oracle():
    # 1000 mW for 5 cycles plus 500 mW for 5 cycles at 5 GHz:
    # 1500 pJ over 2 ns = 0.75 W average.
    e_mj, p_w = energy(5.0, [(1000.0, 5), (500.0, 5)])
    assert e_mj == pytest.approx(1.5e-6, rel=1e-12)
    assert p_w == pytest.approx(0.75, rel=1e-12)
    with pytest.raises(DeviceModelError):
        energy(5.0, [])
    with pytest.raises(DeviceModelError):
        energy(5.0, [(100.0, -1)])


def test_breakdown_helpers():
    pb = PowerBreakdown(1.0, 2.0, 3.0, 4.0)
    assert pb.total_mw == 10.0
    assert pb.scaled(2.0).total_mw == 20.0
    assert pb.to_dict()["total_mw"] == 10.0
    ab = AreaBreakdown(1.0, 2.0, 3.0, 4.0, 5.0)
    assert ab.total_mm2 == 15.0
    assert ab.to_dict()["total_mm2"] == 15.0


def test_pap_is_the_product():
    assert pap(20.58, 18.30) == pytest.approx(376.614, rel=1e-12)
