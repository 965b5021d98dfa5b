"""Unit device models: thermal coupling fit, phase mapping, power formulas.

Reference values are recomputed here from the fit constants with
independent arithmetic (explicit power sums, math.exp) rather than calling
back into the library, so a regression in the model shows up as a mismatch
against these oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptcsim.devices import (
    DeviceModelError,
    DeviceParams,
    GammaFit,
    adc_power,
    edac_power,
    eodac_power,
    gamma,
    leakage_transmission,
    mzi_power,
    phase_to_weight,
    weight_to_phase,
)

POLY = (1.0, -1.76e-1, 9.9e-3, -8.30e-6, -1.56e-5, 3.55e-7)
EXP_A0, EXP_A1 = 0.217, 0.127
BREAK_UM = 23.0


def gamma_reference(d: float) -> float:
    """Independent evaluation of the piecewise coupling fit."""
    if d < BREAK_UM:
        return sum(c * d**n for n, c in enumerate(POLY))
    return EXP_A0 * math.exp(-EXP_A1 * d)


# ---------------------------------------------------------------------------
# gamma(d)
# ---------------------------------------------------------------------------

def test_gamma_at_zero_is_one():
    assert gamma(0.0) == 1.0


def test_gamma_polynomial_branch_oracle():
    # d = 9 um is the default arm spacing; the polynomial branch applies.
    assert gamma(9.0) == pytest.approx(gamma_reference(9.0), rel=1e-12)
    assert gamma(9.0) == pytest.approx(0.130460095, abs=1e-10)


def test_gamma_exponential_branch_oracle():
    assert gamma(30.0) == pytest.approx(gamma_reference(30.0), rel=1e-12)
    assert gamma(23.0) == pytest.approx(EXP_A0 * math.exp(-EXP_A1 * 23.0), rel=1e-12)


def test_gamma_branch_gap_is_small_but_nonzero():
    # The two fit branches genuinely disagree at the breakpoint, by less
    # than the advertised continuity tolerance.
    lo = sum(c * BREAK_UM**n for n, c in enumerate(POLY))
    hi = EXP_A0 * math.exp(-EXP_A1 * BREAK_UM)
    assert 0.0 < abs(hi - lo) < 5e-3
    assert gamma(BREAK_UM) == pytest.approx(hi, rel=1e-12)       # >= breakpoint
    assert gamma(BREAK_UM - 1e-9) == pytest.approx(lo, rel=1e-6)  # just below


def test_gamma_monotone_nonincreasing_within_slack():
    d = np.arange(1.0, 100.0 + 1e-9, 0.1)
    steps = np.diff(gamma(d))
    # Branch mismatch allows a small positive step near the breakpoint only.
    assert np.all(steps <= 5e-3)
    rising = d[:-1][steps > 0]
    assert rising.size == 0 or (rising.min() > 22.0 and rising.max() < 23.5)
    g = gamma(d)
    assert g[0] > g[-1]


def test_gamma_rejects_negative_distance():
    with pytest.raises(DeviceModelError):
        gamma(-0.5)
    with pytest.raises(DeviceModelError):
        gamma(np.array([1.0, -2.0]))


def test_gamma_array_matches_scalars():
    d = np.array([0.0, 5.0, 22.9, 23.0, 40.0])
    out = gamma(d)
    assert out.shape == d.shape
    for di, gi in zip(d, out):
        assert gi == gamma(float(di))


def test_gamma_fit_validation():
    with pytest.raises(DeviceModelError):
        GammaFit(poly_coeffs=(1.0, 2.0))
    with pytest.raises(DeviceModelError):
        GammaFit(exp_coeffs=(0.217,))
    with pytest.raises(DeviceModelError):
        GammaFit(breakpoint_um=0.0)
    with pytest.raises(DeviceModelError, match="disagree"):
        GammaFit(exp_coeffs=(0.5, 0.127))  # huge jump at the breakpoint


# ---------------------------------------------------------------------------
# weight <-> phase
# ---------------------------------------------------------------------------

def test_phase_mapping_boundaries_exact():
    assert weight_to_phase(0.0) == 0.0
    assert weight_to_phase(1.0) == -math.pi / 2
    assert weight_to_phase(-1.0) == math.pi / 2
    assert phase_to_weight(0.0) == 0.0
    assert phase_to_weight(-math.pi / 2) == 1.0
    assert phase_to_weight(math.pi / 2) == -1.0


def test_phase_mapping_roundtrip_grid():
    w = np.linspace(-1.0, 1.0, 1000)
    back = phase_to_weight(weight_to_phase(w))
    assert np.max(np.abs(back - w)) <= 1e-12


def test_weight_to_phase_rejects_out_of_range():
    with pytest.raises(DeviceModelError):
        weight_to_phase(1.0000001)
    with pytest.raises(DeviceModelError):
        weight_to_phase(np.array([0.2, -1.5]))
    with pytest.raises(DeviceModelError):
        weight_to_phase(np.array([0.2, np.nan]))


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_phase_mapping_roundtrip_property(w):
    assert phase_to_weight(weight_to_phase(w)) == pytest.approx(w, abs=1e-12)


def test_phase_to_weight_wraps_outside_programmable_range():
    # Crosstalk can push a phase past +-pi/2; the sine transfer just wraps.
    assert phase_to_weight(math.pi) == pytest.approx(0.0, abs=1e-12)
    assert abs(phase_to_weight(2.0)) < 1.0


def test_phase_to_weight_keeps_float32_in_place():
    # A float32 array is mapped in float32, in place when asked; any other
    # input gives float64.
    phi = np.linspace(-2.0, 2.0, 9, dtype=np.float32)
    expected = -np.sin(phi.astype(np.float64))
    assert phase_to_weight(phi, out=phi) is phi
    assert phi.dtype == np.float32
    assert np.abs(phi - expected).max() <= 1e-6
    for other in (np.linspace(-2.0, 2.0, 9), np.arange(-2, 3), [0.5, -1]):
        assert phase_to_weight(other).dtype == np.float64


# ---------------------------------------------------------------------------
# power models
# ---------------------------------------------------------------------------

def test_mzi_power_oracle():
    dev = DeviceParams()
    g9 = gamma_reference(9.0)
    assert mzi_power(math.pi, 9.0) == pytest.approx(
        dev.p_pi_mw / (1.0 - g9), rel=1e-12)
    # Linear in |phase|, sign-independent, zero at zero.
    assert mzi_power(math.pi / 2, 9.0) == pytest.approx(
        0.5 * mzi_power(math.pi, 9.0), rel=1e-12)
    assert mzi_power(-0.3, 9.0) == mzi_power(0.3, 9.0)
    assert mzi_power(0.0, 9.0) == 0.0


def test_mzi_power_wider_spacing_is_cheaper():
    assert mzi_power(1.0, 12.0) < mzi_power(1.0, 9.0) < mzi_power(1.0, 7.0)


def test_mzi_power_invalid_spacing():
    with pytest.raises(DeviceModelError):
        mzi_power(1.0, 0.0)
    # A fit with gamma == 1 everywhere makes the drive infinite.
    flat = GammaFit(poly_coeffs=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                    exp_coeffs=(1.0, 0.0), breakpoint_um=1e-9)
    with pytest.raises(DeviceModelError, match="gamma >= 1"):
        mzi_power(1.0, 9.0, fit=flat)


def test_edac_power_oracle():
    dev = DeviceParams()
    assert edac_power(6, 5.0) == pytest.approx(
        dev.p0_edac_mw * (64.0 / 7.0) * 5.0, rel=1e-12)
    assert edac_power(1, 1.0) == pytest.approx(dev.p0_edac_mw, rel=1e-12)


def test_edac_power_validation():
    with pytest.raises(DeviceModelError):
        edac_power(0, 5.0)
    with pytest.raises(DeviceModelError):
        edac_power(2.5, 5.0)
    with pytest.raises(DeviceModelError):
        edac_power(6, 0.0)


def test_eodac_power_is_sum_of_segment_edacs():
    assert eodac_power(6, (3, 3), 5.0) == pytest.approx(
        2.0 * edac_power(3, 5.0), rel=1e-12)
    assert eodac_power(6, (2, 2, 2), 5.0) == pytest.approx(
        3.0 * edac_power(2, 5.0), rel=1e-12)


def test_eodac_six_bit_split_ratio():
    # 2^6/7 versus two of 2^3/4: exactly 32/14 cheaper.
    ratio = edac_power(6, 5.0) / eodac_power(6, (3, 3), 5.0)
    assert ratio == pytest.approx(32.0 / 14.0, rel=1e-12)


def test_eodac_validation():
    with pytest.raises(DeviceModelError):
        eodac_power(6, (3, 2), 5.0)   # segments do not sum to total
    with pytest.raises(DeviceModelError):
        eodac_power(6, (), 5.0)
    with pytest.raises(DeviceModelError):
        eodac_power(6, (6, 0), 5.0)


def test_adc_power_oracle():
    assert adc_power(8, 5.0) == pytest.approx(0.185 * 8 * 5.0, rel=1e-12)
    with pytest.raises(DeviceModelError):
        adc_power(8, -1.0)


def test_leakage_transmission():
    assert leakage_transmission() == pytest.approx(1e-2, rel=1e-12)
    import dataclasses
    dev10 = dataclasses.replace(DeviceParams(), extinction_ratio_db=10.0)
    assert leakage_transmission(dev10) == pytest.approx(1e-1, rel=1e-12)


def test_device_params_validation():
    import dataclasses
    with pytest.raises(DeviceModelError):
        dataclasses.replace(DeviceParams(), p_pi_mw=0.0)
    with pytest.raises(DeviceModelError):
        dataclasses.replace(DeviceParams(), pd_noise_sigma=-0.1)
    with pytest.raises(DeviceModelError):
        dataclasses.replace(DeviceParams(), extinction_ratio_db=-3.0)
