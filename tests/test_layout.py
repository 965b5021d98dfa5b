"""Crossbar geometry and thermal-crosstalk aggregation."""

import math

import numpy as np
import pytest

import ptcsim.layout
from ptcsim.core import simulate_mvm
from ptcsim.devices import DeviceModelError, gamma
from ptcsim.layout import (
    CROSSTALK_FLOOR,
    HEAT_CHUNK,
    LayoutParams,
    coupling_matrices,
    perturbed_phases,
    row_kernels,
)

LAY = LayoutParams()  # l_s=9, l_g=5, l_v=120, ps_width=6 -> l_h=20


def aggressor_distances(victim: int, aggressor: int, sign_aggressor: float,
                        layout: LayoutParams, k2: int) -> tuple[float, float]:
    """Distances (um) from an aggressor's heated arm to a victim's two arms:
    the scalar oracle of :func:`coupling_matrices`, one pair at a time.

    MZIs are indexed flat as ``column * k2 + row`` (column = output channel,
    row = input channel).  Returns ``(d_up, d_lo)``: distance to the
    victim's upper and lower arm.  The aggressor heats its upper arm when
    its phase is >= 0, its lower arm otherwise; the lower arm of any MZI is
    offset +l_s along the horizontal axis from its upper arm.
    """
    if victim == aggressor:
        raise DeviceModelError("an MZI is not its own aggressor")
    dr = (aggressor % k2) - (victim % k2)
    dc = (aggressor // k2) - (victim // k2)
    vert = dr * layout.l_v_um
    horiz = dc * layout.l_h_um
    if sign_aggressor >= 0:
        d_up = math.hypot(vert, horiz)
        d_lo = math.hypot(vert, horiz + layout.l_s_um)
    else:
        d_up = math.hypot(vert, horiz - layout.l_s_um)
        d_lo = math.hypot(vert, horiz)
    return d_up, d_lo


def test_column_pitch_is_derived():
    assert LAY.l_h_um == 9.0 + 6.0 + 5.0
    assert LayoutParams(l_s_um=7.0, l_g_um=1.0).l_h_um == 7.0 + 6.0 + 1.0


def test_layout_validation():
    with pytest.raises(DeviceModelError):
        LayoutParams(l_s_um=0.0)
    with pytest.raises(DeviceModelError):
        LayoutParams(l_g_um=-1.0)
    with pytest.raises(DeviceModelError):
        LayoutParams(l_v_um=float("inf"))


def test_aggressor_distances_same_column():
    # Flat index = column * k2 + row; 0 and 1 share a column, adjacent rows.
    d_up, d_lo = aggressor_distances(0, 1, +1.0, LAY, k2=4)
    assert d_up == pytest.approx(120.0, rel=1e-15)
    assert d_lo == pytest.approx(math.hypot(120.0, 9.0), rel=1e-15)
    # A negative-phase aggressor heats its lower arm instead.
    d_up, d_lo = aggressor_distances(0, 1, -1.0, LAY, k2=4)
    assert d_up == pytest.approx(math.hypot(120.0, -9.0), rel=1e-15)
    assert d_lo == pytest.approx(120.0, rel=1e-15)


def test_aggressor_distances_adjacent_column():
    # Aggressor one column over (flat index k2), same row: pure horizontal.
    d_up, d_lo = aggressor_distances(0, 4, +1.0, LAY, k2=4)
    assert d_up == pytest.approx(20.0, rel=1e-15)
    assert d_lo == pytest.approx(29.0, rel=1e-15)
    d_up, d_lo = aggressor_distances(0, 4, -1.0, LAY, k2=4)
    assert d_up == pytest.approx(11.0, rel=1e-15)
    assert d_lo == pytest.approx(20.0, rel=1e-15)


def test_self_aggression_rejected():
    with pytest.raises(DeviceModelError):
        aggressor_distances(3, 3, 1.0, LAY, k2=4)


def test_coupling_matrices_match_pairwise_distances():
    k1, k2 = 2, 3
    g_pos, g_neg = coupling_matrices(k1, k2, LAY)
    n = k1 * k2
    assert g_pos.shape == g_neg.shape == (n, n)
    assert np.all(np.diag(g_pos) == 0.0)
    assert np.all(np.diag(g_neg) == 0.0)
    for v in range(n):
        for a in range(n):
            if v == a:
                continue
            du, dl = aggressor_distances(v, a, +1.0, LAY, k2)
            assert g_pos[v, a] == pytest.approx(gamma(du) - gamma(dl), rel=1e-12)
            du, dl = aggressor_distances(v, a, -1.0, LAY, k2)
            assert g_neg[v, a] == pytest.approx(gamma(du) - gamma(dl), rel=1e-12)


def test_coupling_matrices_cached_and_frozen():
    a = coupling_matrices(4, 4, LAY)
    b = coupling_matrices(4, 4, LAY)
    assert a[0] is b[0]
    with pytest.raises(ValueError):
        a[0][0, 1] = 1.0


def test_perturbed_phases_zero_programming():
    phases = np.zeros((3, 4))
    out = perturbed_phases(phases, LAY)
    assert np.all(out == 0.0)


def test_perturbed_phases_single_aggressor_oracle():
    # One positive phase at (column 1, row 0).  For the victim one column to
    # the left the heated (upper) arm sits 20 um away and the victim's lower
    # arm a further l_s = 9 um, so it picks up (gamma(20) - gamma(29)) * phi.
    phi = 1.2
    phases = np.zeros((2, 2))
    phases[1, 0] = phi
    out = perturbed_phases(phases, LAY)
    d_up, d_lo = aggressor_distances(0, 2, +1.0, LAY, k2=2)
    assert (d_up, d_lo) == (20.0, 29.0)
    expected = (gamma(20.0) - gamma(29.0)) * phi
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    # Same aggressor with a negative phase: the heated arm moves by -l_s,
    # landing 11 um from the victim's upper arm and 20 um from its lower.
    phases[1, 0] = -phi
    out = perturbed_phases(phases, LAY)
    expected = (gamma(11.0) - gamma(20.0)) * phi
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    # The aggressor itself is not its own victim.
    assert out[1, 0] == -phi


def test_perturbed_phases_batch_matches_loop():
    rng = np.random.default_rng(3)
    phases = rng.uniform(-math.pi / 2, math.pi / 2, size=(5, 4, 4))
    batched = perturbed_phases(phases, LAY)
    for i in range(5):
        assert np.allclose(batched[i], perturbed_phases(phases[i], LAY),
                           rtol=0, atol=1e-15)


@pytest.mark.parametrize("l_v_um", [120.0, 30.0])
def test_perturbed_phases_slices_a_large_batch_exactly(l_v_um):
    # A batch larger than HEAT_CHUNK runs in slices of its first axis.  At
    # either band width the result equals each core's alone bit for bit,
    # and written into a strided ``out`` too.
    k = 16
    step = HEAT_CHUNK // (k * k)
    phases = np.random.default_rng(4).uniform(
        -math.pi / 2, math.pi / 2, size=(2 * step + 3, k, k))
    layout = LayoutParams(l_v_um=l_v_um)
    whole = perturbed_phases(phases, layout)
    strided = np.moveaxis(np.empty((k, len(phases), k)), 1, 0)
    assert perturbed_phases(phases, layout, out=strided) is strided
    assert np.array_equal(strided, whole)
    for i in (0, step - 1, step, 2 * step, len(phases) - 1):
        assert np.array_equal(whole[i], perturbed_phases(phases[i], layout))


@pytest.mark.parametrize("l_v_um, band", [(120.0, 0), (30.0, 3)])
def test_perturbed_phases_keeps_float32(l_v_um, band):
    # Float32 phases are summed in float32, into a strided float32 ``out``
    # too, within 1e-6 rad of the float64 sum of the same values; float64
    # and integer phases give float64.
    lay = LayoutParams(l_g_um=1.0, l_v_um=l_v_um)
    assert len(row_kernels(16, 16, lay)) == 2 * band + 1
    single = np.random.default_rng(8).uniform(
        -math.pi / 2, math.pi / 2, size=(3, 16, 16)).astype(np.float32)
    got = perturbed_phases(single, lay)
    assert got.dtype == np.float32
    double = perturbed_phases(single.astype(np.float64), lay)
    assert double.dtype == np.float64
    assert np.abs(got - double).max() <= 1e-6
    strided = np.moveaxis(np.empty((16, 3, 16), np.float32), 1, 0)
    assert perturbed_phases(single, lay, out=strided) is strided
    assert np.array_equal(strided, got)
    ints = np.arange(-8, 8).reshape(4, 4) % 2
    assert perturbed_phases(ints, lay).dtype == np.float64


def _dense_crosstalk(phases, layout):
    """The full crosstalk sum over the dense coupling tables."""
    k1, k2 = phases.shape[-2:]
    g_pos, g_neg = coupling_matrices(k1, k2, layout)
    flat = phases.reshape(*phases.shape[:-2], k1 * k2)
    pos = np.where(flat >= 0, flat, 0.0)
    neg = np.where(flat < 0, -flat, 0.0)
    return phases + (pos @ g_pos.T + neg @ g_neg.T).reshape(phases.shape)


@pytest.mark.parametrize("l_g_um", [1.0, 5.0])
@pytest.mark.parametrize("l_v_um, band", [(120.0, 0), (30.0, 3), (10.0, 10)])
def test_row_band_kernel_matches_dense_tables(l_v_um, band, l_g_um):
    # The band widens as the row pitch shrinks; whatever it drops stays
    # within CROSSTALK_FLOOR per radian of the largest phase.
    lay = LayoutParams(l_g_um=l_g_um, l_v_um=l_v_um)
    assert len(row_kernels(16, 16, lay)) == 2 * band + 1
    rng = np.random.default_rng(7)
    for k1, k2 in ((16, 16), (4, 4), (16, 5), (3, 8), (1, 6), (5, 1)):
        phases = rng.uniform(-math.pi / 2, math.pi / 2, size=(3, k1, k2))
        phases[rng.uniform(size=phases.shape) < 0.5] = 0.0  # pruned MZIs
        error = np.abs(perturbed_phases(phases, lay)
                       - _dense_crosstalk(phases, lay)).max()
        assert error <= CROSSTALK_FLOOR * np.abs(phases).max(), (k1, k2)


def test_large_core_builds_no_dense_table(monkeypatch):
    # A 64x64 core's dense table pair would take 268 MB; the light path
    # runs on the row-band kernel and never builds it.
    built = []
    real = ptcsim.layout.coupling_matrices

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ptcsim.layout, "coupling_matrices", counting)
    rng = np.random.default_rng(8)
    w = rng.uniform(-1.0, 1.0, size=(64, 64))
    x = rng.uniform(0.0, 1.0, size=64)
    y = simulate_mvm(x, w, layout=LAY, rng_seed=1)
    free = simulate_mvm(x, w, layout=LAY, rng_seed=1, coupling_free=True)
    assert built == []
    assert not np.array_equal(y, free)
    assert row_kernels(64, 64, LAY).nbytes < 1e6
