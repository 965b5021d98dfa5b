"""Accelerator-level power, area and energy models.

The accelerator is R tiles of C cores, each core a k1 x k2 crossbar.  One
input module (k2 DAC+modulator channels plus a rerouter) feeds ``r`` cores
in different tiles; the ``c`` cores inside a tile share one readout array
of k1 TIA+ADC channels by summing photocurrents.  A weight chunk of
(r*k1) x (c*k2) therefore occupies r*c cores and maps in a single cycle.

Power is evaluated bottom-up from the device models; area follows the
fixed floorplan formula (crossbar footprint plus per-channel converter and
readout blocks).  Energy walks a schedule of (power in mW, cycles) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .devices import (
    DeviceModelError,
    DeviceParams,
    GammaFit,
    adc_power,
    edac_power,
    eodac_power,
    mzi_power,
    weight_to_phase,
)
from .core import ExecutionMode, rerouter_node_mw, rerouter_tree_mw
from .layout import LayoutParams

# Expected |phase| of a weight MZI when weights are uniform on [-1, 1]:
# E|arcsin(w)| = pi/2 - 1.  Used for analytic power estimates when no
# concrete weights are supplied.
UNIFORM_MEAN_PHASE_RAD = math.pi / 2 - 1.0


@dataclass(frozen=True)
class ArchConfig:
    """Accelerator shape and signal chain configuration."""

    R: int = 4          # tiles
    C: int = 4          # cores per tile
    k1: int = 16        # output channels per core
    k2: int = 16        # input channels per core
    r: int = 4          # cores (across tiles) sharing one input module
    c: int = 4          # cores (within a tile) sharing one readout array
    f_ghz: float = 5.0
    b_in: int = 6       # input DAC resolution
    b_w: int = 8        # weight resolution
    b_o: int = 8        # output ADC resolution
    dac_kind: str = "edac"               # "edac" | "eodac"
    eodac_segments: tuple[int, ...] = (3, 3)

    def __post_init__(self) -> None:
        for name in ("R", "C", "k1", "k2", "r", "c"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise DeviceModelError(f"arch.{name} must be a positive integer")
        if self.R % self.r != 0:
            raise DeviceModelError(
                f"input sharing r={self.r} must divide the tile count R={self.R}")
        if self.C % self.c != 0:
            raise DeviceModelError(
                f"readout sharing c={self.c} must divide the cores per tile C={self.C}")
        if not self.f_ghz > 0:
            raise DeviceModelError("arch.f_ghz must be positive")
        for name in ("b_in", "b_w", "b_o"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise DeviceModelError(f"arch.{name} must be a positive integer")
        if self.dac_kind not in ("edac", "eodac"):
            raise DeviceModelError("arch.dac_kind must be 'edac' or 'eodac'")
        if self.dac_kind == "eodac" and sum(self.eodac_segments) != self.b_in:
            raise DeviceModelError(
                f"eoDAC segments {self.eodac_segments} must sum to b_in={self.b_in}")

    @property
    def n_cores(self) -> int:
        return self.R * self.C

    @property
    def n_chunk_slots(self) -> int:
        """Weight chunks resident simultaneously."""
        return (self.R // self.r) * (self.C // self.c)

    @property
    def chunk_rows(self) -> int:
        return self.r * self.k1

    @property
    def chunk_cols(self) -> int:
        return self.c * self.k2

    def input_dac_power_mw(self, params: DeviceParams) -> float:
        if self.dac_kind == "eodac":
            return eodac_power(self.b_in, self.eodac_segments, self.f_ghz, params)
        return edac_power(self.b_in, self.f_ghz, params)

    def input_dac_area_um2(self, params: DeviceParams) -> float:
        # A segmented eoDAC duplicates the driver/IO stack per segment.
        if self.dac_kind == "eodac":
            return params.a_dac_um2 * len(self.eodac_segments)
        return params.a_dac_um2


@dataclass(frozen=True)
class PowerBreakdown:
    input_mw: float
    weight_mw: float
    readout_mw: float
    rerouter_mw: float

    @property
    def total_mw(self) -> float:
        return self.input_mw + self.weight_mw + self.readout_mw + self.rerouter_mw

    def to_dict(self) -> dict:
        return {
            "input_mw": self.input_mw,
            "weight_mw": self.weight_mw,
            "readout_mw": self.readout_mw,
            "rerouter_mw": self.rerouter_mw,
            "total_mw": self.total_mw,
        }

    def scaled(self, factor: float) -> "PowerBreakdown":
        return PowerBreakdown(self.input_mw * factor, self.weight_mw * factor,
                              self.readout_mw * factor, self.rerouter_mw * factor)


@dataclass(frozen=True)
class AreaBreakdown:
    ptc_weight_mm2: float
    splitter_mm2: float
    pd_mm2: float
    dac_mzm_rerouter_mm2: float
    adc_tia_mm2: float

    @property
    def total_mm2(self) -> float:
        return (self.ptc_weight_mm2 + self.splitter_mm2 + self.pd_mm2
                + self.dac_mzm_rerouter_mm2 + self.adc_tia_mm2)

    def to_dict(self) -> dict:
        return {
            "ptc_weight_mm2": self.ptc_weight_mm2,
            "splitter_mm2": self.splitter_mm2,
            "pd_mm2": self.pd_mm2,
            "dac_mzm_rerouter_mm2": self.dac_mzm_rerouter_mm2,
            "adc_tia_mm2": self.adc_tia_mm2,
            "total_mm2": self.total_mm2,
        }


class ColumnPowerModel:
    """Modeled power (mW) of a layer's p*q chunk mappings as a function of
    its column mask: the one pricing of a mask, for any mode and output
    gating setting (the defaults are the prune/grow objective's).

    ``weights6`` is the (p, q, r, c, k1, k2) partitioned view, priced as
    given; None prices one chunk with every MZI at the uniform mean phase.
    With the row mask fixed, power is a constant (readout, plus what the
    mode keeps on whatever the columns), a per-column term ``col_unit_mw``
    (heater MZIs over live rows, plus modulator+DAC when the mode gates
    inputs, plus detectors when it redistributes light) and, under
    redistribution, one rerouter term per (chunk, input module): the
    splitter-node table ``node_mw`` summed over that module's tree
    (``node_mw`` is None when the mode does not redistribute).
    """

    def __init__(self, row_mask, weights6, arch: ArchConfig,
                 device: DeviceParams, layout: LayoutParams,
                 fit: GammaFit = GammaFit(),
                 mode: ExecutionMode = ExecutionMode.INPUT_GATING_LR,
                 output_gating: bool = True):
        row = np.asarray(row_mask, dtype=bool)
        if weights6 is None:
            phase = np.full((1, 1, arch.r, arch.c, arch.k1, arch.k2),
                            UNIFORM_MEAN_PHASE_RAD)
        else:
            w6 = np.asarray(weights6, dtype=float)
            if w6.ndim != 6:
                raise DeviceModelError("weights must be the 6-D partitioned view")
            phase = np.abs(weight_to_phase(w6))
        p, q, r, c, k1, k2 = phase.shape
        if row.shape != (r, k1) or (r, c, k1, k2) != (arch.r, arch.c, arch.k1, arch.k2):
            raise DeviceModelError("mask/weight shapes disagree with the arch config")
        self._shape = (p, q, c, k2)
        self.node_mw = (rerouter_node_mw(k2, layout.l_s_um, device, fit)
                        if mode.redistributes else None)
        unit = mzi_power(phase, layout.l_s_um, device, fit)
        self._col_mzi_mw = (unit * row[None, None, :, None, :, None]).sum(axis=(2, 4))

        p_channel = (device.p_mod_static_mw + device.e_mod_pj * arch.f_ghz
                     + arch.input_dac_power_mw(device))
        p_col_pd = 2.0 * device.p_pd_mw * (r * k1)
        p_read = device.p_tia_mw + adc_power(arch.b_o, arch.f_ghz, device)
        n_cols = p * q * c * k2
        n_out = int(row.sum()) if output_gating else r * k1

        self._col_input_mw = p_channel if mode.gates_inputs else 0.0
        self._col_pd_mw = p_col_pd if mode.redistributes else 0.0
        self._input_const_mw = 0.0 if mode.gates_inputs else n_cols * p_channel
        self._pd_const_mw = 0.0 if mode.redistributes else n_cols * p_col_pd
        self._readout_mw = p * q * n_out * p_read
        self.col_unit_mw = self._col_mzi_mw + self._col_input_mw + self._col_pd_mw

    def check_mask(self, col_mask) -> np.ndarray:
        """``col_mask`` as booleans, rejected unless it is (p, q, c, k2)."""
        col = np.asarray(col_mask, dtype=bool)
        if col.shape != self._shape:
            raise DeviceModelError(f"column mask must be {self._shape}")
        return col

    def power(self, col_mask) -> float:
        """Layer power (mW) summed over all p*q chunk mappings."""
        return self.breakdown(col_mask).total_mw

    def breakdown(self, col_mask) -> PowerBreakdown:
        """The same power split by device group, summed over all chunks."""
        col = self.check_mask(col_mask)
        n_live = int(col.sum())
        rerouter_mw = (0.0 if self.node_mw is None
                       else float(rerouter_tree_mw(col, self.node_mw).sum()))
        return PowerBreakdown(
            self._input_const_mw + n_live * self._col_input_mw,
            float((col * self._col_mzi_mw).sum()) + self._pd_const_mw
            + n_live * self._col_pd_mw,
            self._readout_mw,
            rerouter_mw)


def chunk_power(arch: ArchConfig, device: DeviceParams, layout: LayoutParams,
                fit: GammaFit = GammaFit()) -> PowerBreakdown:
    """Dense power of the hardware slice serving one (r*k1) x (c*k2) chunk.

    The slice is r*c cores, c input modules and r readout arrays, every
    device on and every MZI at the uniform-weight mean |phase| = pi/2 - 1.
    Masks and concrete weights are priced by :class:`ColumnPowerModel`.
    """
    model = ColumnPowerModel(np.ones((arch.r, arch.k1), dtype=bool), None, arch,
                             device, layout, fit, ExecutionMode.PRUNE_ONLY)
    return model.breakdown(np.ones((1, 1, arch.c, arch.k2), dtype=bool))


def power(arch: ArchConfig, device: DeviceParams, layout: LayoutParams,
          fit: GammaFit = GammaFit()) -> PowerBreakdown:
    """Dense whole-accelerator power, every chunk slot running one chunk.

    Reproduces the closed forms P_in = (R*C*k2/r)(P_mod + P_DAC),
    P_wgt = R*C*k1*k2*(P_MZI + 2*P_PD), P_out = (R*C*k1/c)(P_TIA + P_ADC).
    """
    return chunk_power(arch, device, layout, fit).scaled(arch.n_chunk_slots)


def area(arch: ArchConfig, device: DeviceParams, layout: LayoutParams) -> AreaBreakdown:
    """Chip area (mm^2) from the floorplan formula.

    The crossbar block is (k2-1) row pitches plus one node length tall and
    (k1-1) column pitches plus one node width wide; converter and readout
    blocks are per-channel unit areas, divided by their sharing factors.
    """
    node_w = layout.l_s_um + layout.ps_width_um
    ptc = (((arch.k2 - 1) * layout.l_v_um + device.node_length_um)
           * ((arch.k1 - 1) * layout.l_h_um + node_w))
    n = arch.n_cores
    um2 = {
        "ptc": n * ptc,
        "splitter": n * arch.k2 * device.a_mmi_um2,
        "pd": n * 2 * arch.k1 * arch.k2 * device.a_pd_um2,
        "dac_mzm_rr": (n // arch.r) * (arch.k2 * (arch.input_dac_area_um2(device)
                                                  + device.a_mzm_um2)
                                       + device.a_rerouter_um2),
        "adc_tia": (n // arch.c) * arch.k1 * (device.a_adc_um2 + device.a_tia_um2),
    }
    return AreaBreakdown(
        ptc_weight_mm2=um2["ptc"] / 1e6,
        splitter_mm2=um2["splitter"] / 1e6,
        pd_mm2=um2["pd"] / 1e6,
        dac_mzm_rerouter_mm2=um2["dac_mzm_rr"] / 1e6,
        adc_tia_mm2=um2["adc_tia"] / 1e6,
    )


def energy(f_ghz: float, schedule) -> tuple[float, float]:
    """Total energy (mJ) and average power (W) over a chunk schedule.

    ``schedule`` is an iterable of (power in mW, cycles) pairs.  Average
    power is total energy over total wallclock (sequential chunks).
    """
    total_pj = 0.0
    total_cycles = 0
    for p_mw, cycles in schedule:
        if cycles < 0:
            raise DeviceModelError("schedule cycle counts must be non-negative")
        total_pj += float(p_mw) * cycles / f_ghz   # mW * ns = pJ
        total_cycles += cycles
    if total_cycles == 0:
        raise DeviceModelError("cannot average power over an empty schedule")
    e_mj = total_pj * 1e-9
    p_avg_w = (e_mj * 1e-3) / (total_cycles / f_ghz * 1e-9)
    return e_mj, p_avg_w


def pap(p_avg_w: float, area_mm2: float) -> float:
    """Power-area product (W * mm^2), the sweep figure of merit."""
    return p_avg_w * area_mm2
