"""Closed-form models for the optical and electrical unit devices.

Everything here is a cheap analytic formula: the thermal-coupling fit
``gamma(d)``, the weight <-> phase mapping of a push-pull MZI biased at
quadrature, per-device power models (MZI heater, DAC/ADC, modulator, TIA,
photodiode) and the extinction-ratio leakage floor.  Units are carried in
the names: micrometres (``_um``), milliwatts (``_mw``), gigahertz
(``_ghz``), picojoules (``_pj``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Quadrature bias of the weight MZIs.  With the differential detection used
# here the transfer collapses to w = -sin(delta_phi), see phase_to_weight.
PHASE_BIAS_RAD = math.pi / 2

# Thermal coupling fit: 5th-order polynomial below the breakpoint, decaying
# exponential above it.  Coefficients are in ascending order of power.
GAMMA_POLY_COEFFS = (1.0, -1.76e-1, 9.9e-3, -8.30e-6, -1.56e-5, 3.55e-7)
GAMMA_EXP_COEFFS = (0.217, 0.127)
GAMMA_BREAKPOINT_UM = 23.0

# The two fit branches do not meet exactly; they differ by ~4.2e-3 at the
# breakpoint.  Fits with a larger mismatch are rejected at construction.
GAMMA_CONTINUITY_TOL = 5e-3


class DeviceModelError(ValueError):
    """Raised when a device model is evaluated outside its validity range."""


@dataclass(frozen=True)
class GammaFit:
    """Piecewise fit of the thermal crosstalk coupling factor gamma(d).

    ``gamma(d)`` is the fraction of an aggressor heater's phase shift that
    leaks into a waveguide at distance ``d`` micrometres.  Below
    ``breakpoint_um`` a 5th-order polynomial (coefficients in ascending
    order) is used; at and above it, ``a0 * exp(-a1 * d)``.
    """

    poly_coeffs: tuple[float, ...] = GAMMA_POLY_COEFFS
    exp_coeffs: tuple[float, float] = GAMMA_EXP_COEFFS
    breakpoint_um: float = GAMMA_BREAKPOINT_UM

    def __post_init__(self) -> None:
        if len(self.poly_coeffs) != 6:
            raise DeviceModelError("gamma polynomial needs exactly 6 coefficients")
        if len(self.exp_coeffs) != 2:
            raise DeviceModelError("gamma exponential needs exactly 2 coefficients")
        if not all(math.isfinite(c) for c in self.poly_coeffs + tuple(self.exp_coeffs)):
            raise DeviceModelError("gamma fit coefficients must be finite")
        if self.breakpoint_um <= 0:
            raise DeviceModelError("gamma breakpoint must be positive")
        bp = self.breakpoint_um
        lo = _poly_eval(bp, self.poly_coeffs)
        hi = self.exp_coeffs[0] * math.exp(-self.exp_coeffs[1] * bp)
        if abs(hi - lo) >= GAMMA_CONTINUITY_TOL:
            raise DeviceModelError(
                f"gamma fit branches disagree by {abs(hi - lo):.2e} at "
                f"d={bp} um (tolerance {GAMMA_CONTINUITY_TOL})"
            )


def _poly_eval(d, coeffs):
    # np.polynomial convention: coefficients in ascending order.
    return np.polynomial.polynomial.polyval(d, np.asarray(coeffs))


def gamma(distance_um, fit: GammaFit = GammaFit()):
    """Thermal coupling factor at a heater-to-waveguide distance in um.

    Accepts a scalar or an ndarray; negative distances are a domain error.
    gamma(0) is 1 by construction of the fit (self-heating).
    """
    d = np.asarray(distance_um, dtype=float)
    if np.any(d < 0):
        raise DeviceModelError("distance must be non-negative")
    a0, a1 = fit.exp_coeffs
    out = np.where(
        d < fit.breakpoint_um,
        _poly_eval(d, fit.poly_coeffs),
        a0 * np.exp(-a1 * d),
    )
    if np.isscalar(distance_um) or np.ndim(distance_um) == 0:
        return float(out)
    return out


def float_array(x) -> np.ndarray:
    """``x`` as a float array: float32 stays float32 (a realization under
    phase noise, see ``core``), anything else becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(float, copy=False)


def weight_to_phase(weight):
    """Differential phase (rad) that realizes a normalized weight in [-1, 1].

    Inverse of :func:`phase_to_weight`; the full weight range maps onto
    [-pi/2, pi/2].  Out-of-range or NaN weights raise, they are not clipped.
    """
    w = np.asarray(weight, dtype=float)
    if not np.all((-1.0 <= w) & (w <= 1.0)):
        raise DeviceModelError("weights must lie in [-1, 1]")
    out = np.arcsin(w, out=np.empty_like(w))
    np.negative(out, out=out)  # in place: one array, not two
    if np.ndim(weight) == 0:
        return float(out)
    return out


def phase_to_weight(delta_phi_rad, out=None):
    """Normalized weight realized by a differential phase (rad).

    The MZI sits at quadrature bias, so the balanced-detector output is
    2*cos^2((dphi + pi/2)/2) - 1 = -sin(dphi).  Total on all inputs: phases
    pushed outside [-pi/2, pi/2] by crosstalk simply wrap through the sine.
    The weights are written into ``out`` when it is given (it may be the
    phase array itself).  A float32 input is computed in float32, any other
    in float64.
    """
    phi = float_array(delta_phi_rad)
    out = np.sin(phi, out=np.empty_like(phi) if out is None else out)
    np.negative(out, out=out)  # in place: one array, not two
    if np.ndim(delta_phi_rad) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class DeviceParams:
    """Per-device constants (power, noise, unit areas) used by the models.

    Power constants are calibrated so that the default 4x4-tile, 16x16-core
    architecture lands on the reference operating point (20.58 W average
    power, 18.30 mm^2 at 9 um arm spacing); see the config reference in the
    README.  ``p0_edac_mw`` and ``a_mmi_um2`` carry the calibration residue
    and are intentionally not round numbers.
    """

    # -- phase shifters / weight MZIs ------------------------------------
    p_pi_mw: float = 15.0           # heater power for a pi phase shift, crosstalk-free
    node_length_um: float = 115.0   # Y-branch + phase shifter + combiner length
    foundry_mzi_length_um: float = 550.0
    foundry_mzi_width_um: float = 156.25
    # -- conversion and readout ------------------------------------------
    p0_edac_mw: float = 2.0949857090802912  # eDAC scale: P = p0 * 2^b/(b+1) * f_ghz
    p0_adc_mw_per_bit_ghz: float = 0.185    # ADC scale: P = p0 * bits * f_ghz
    p_mod_static_mw: float = 0.0            # MZM static bias power
    e_mod_pj: float = 0.4                   # MZM dynamic energy per symbol
    p_pd_mw: float = 0.1                    # photodiode bias power (each)
    p_tia_mw: float = 3.0
    # -- non-idealities ----------------------------------------------------
    extinction_ratio_db: float = 20.0
    pd_noise_sigma: float = 0.01            # additive per-node detector noise
    phase_noise_sigma_rad: float = 0.01     # phase programming noise
    # -- unit areas (um^2) -------------------------------------------------
    a_mmi_um2: float = 21666.015625         # 1xk1 splitter, calibrated
    a_pd_um2: float = 100.0
    a_dac_um2: float = 11000.0
    a_mzm_um2: float = 15000.0
    a_adc_um2: float = 2850.0
    a_tia_um2: float = 5200.0
    a_rerouter_um2: float = 25875.0         # folded tree of 15 splitter nodes

    def __post_init__(self) -> None:
        positive = (
            "p_pi_mw", "node_length_um",
            "foundry_mzi_length_um", "foundry_mzi_width_um",
            "extinction_ratio_db",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise DeviceModelError(f"{name} must be positive")
        non_negative = (
            "p0_edac_mw", "p0_adc_mw_per_bit_ghz", "p_mod_static_mw",
            "e_mod_pj", "p_pd_mw", "p_tia_mw", "pd_noise_sigma",
            "phase_noise_sigma_rad", "a_mmi_um2", "a_pd_um2", "a_dac_um2",
            "a_mzm_um2", "a_adc_um2", "a_tia_um2", "a_rerouter_um2",
        )
        for name in non_negative:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DeviceModelError(f"{name} must be finite and >= 0")


def mzi_power(delta_phi_rad, arm_spacing_um: float,
              params: DeviceParams = DeviceParams(),
              fit: GammaFit = GammaFit()):
    """Heater power (mW) to hold a weight MZI at a differential phase.

    The drive scales linearly with |phase|; the intra-MZI thermal coupling
    between the two arms (spacing ``arm_spacing_um``) wastes a fraction
    gamma of the heat on the opposite arm, inflating the drive by
    1 / (1 - gamma).
    """
    if not arm_spacing_um > 0:
        raise DeviceModelError("arm spacing must be positive")
    g = gamma(arm_spacing_um, fit)
    if g >= 1.0:
        raise DeviceModelError(
            f"arm spacing {arm_spacing_um} um gives gamma >= 1; "
            "the power model is not valid there"
        )
    phi = np.abs(np.asarray(delta_phi_rad, dtype=float))
    out = (phi / math.pi) * params.p_pi_mw / (1.0 - g)
    if np.ndim(delta_phi_rad) == 0:
        return float(out)
    return out


def edac_power(bits: int, f_ghz: float,
               params: DeviceParams = DeviceParams()) -> float:
    """Power (mW) of one electrical DAC channel at ``bits`` resolution.

    P = p0 * 2^b / (b + 1) * f; the exponential term is why splitting a
    wide DAC into narrow segments pays off.
    """
    if int(bits) != bits or bits < 1:
        raise DeviceModelError("DAC resolution must be an integer >= 1 bit")
    if not f_ghz > 0:
        raise DeviceModelError("frequency must be positive")
    return params.p0_edac_mw * (2.0 ** bits / (bits + 1)) * f_ghz


def eodac_power(total_bits: int, segment_bits: list[int] | tuple[int, ...],
                f_ghz: float, params: DeviceParams = DeviceParams()) -> float:
    """Power (mW) of a segmented electro-optic DAC input channel.

    The modulator is split into binary-weighted segments, each driven by its
    own low-resolution eDAC; segment resolutions must sum to ``total_bits``.
    A [3, 3] split of a 6-bit channel draws 14/32 of the monolithic 6-bit
    eDAC power (a 2.29x saving).
    """
    segs = tuple(int(b) for b in segment_bits)
    if len(segs) == 0:
        raise DeviceModelError("eoDAC needs at least one segment")
    if any(int(b) != b or b < 1 for b in segment_bits):
        raise DeviceModelError("each eoDAC segment must be >= 1 bit")
    if sum(segs) != total_bits:
        raise DeviceModelError(
            f"eoDAC segments {segs} sum to {sum(segs)}, expected {total_bits}"
        )
    return sum(edac_power(b, f_ghz, params) for b in segs)


def adc_power(bits: int, f_ghz: float,
              params: DeviceParams = DeviceParams()) -> float:
    """Power (mW) of one ADC channel: p0 * bits * f_ghz."""
    if int(bits) != bits or bits < 1:
        raise DeviceModelError("ADC resolution must be an integer >= 1 bit")
    if not f_ghz > 0:
        raise DeviceModelError("frequency must be positive")
    return params.p0_adc_mw_per_bit_ghz * bits * f_ghz


def leakage_transmission(params: DeviceParams = DeviceParams()) -> float:
    """Minimum normalized transmission of a gated modulator or zeroed weight.

    Set by the extinction ratio: 10^(-ER_dB / 10).  20 dB -> 1e-2.
    """
    return 10.0 ** (-params.extinction_ratio_db / 10.0)
