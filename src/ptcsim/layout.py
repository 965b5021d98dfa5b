"""Physical placement of the weight-MZI array and thermal crosstalk.

A core is a grid of k1 x k2 weight MZIs: physical column ``i`` computes
output channel ``i`` (k1 columns at horizontal pitch ``l_h``), physical
row ``j`` carries input channel ``j`` (k2 rows at vertical pitch ``l_v``).
The two arms of an MZI sit ``l_s`` apart along the horizontal axis, and the
heater warms the upper arm for a positive phase, the lower arm for a
negative one - which is why aggressor distances depend on the sign of the
aggressor's phase.

Crosstalk is aggregated linearly: the victim's differential phase picks up
(gamma(d_up) - gamma(d_lo)) * |dphi_aggressor| from every other MZI in the
same core.  Cores on different tiles are treated as thermally isolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .devices import DeviceModelError, GammaFit, gamma


@dataclass(frozen=True)
class LayoutParams:
    """Crossbar geometry in micrometres.

    ``l_h`` is derived: one node width (arm spacing + heater width) plus the
    gap ``l_g`` to the next column.
    """

    l_s_um: float = 9.0    # arm-to-arm spacing inside one MZI
    l_g_um: float = 5.0    # gap between adjacent MZI nodes
    l_v_um: float = 120.0  # vertical (row) pitch
    ps_width_um: float = 6.0

    def __post_init__(self) -> None:
        for name in ("l_s_um", "l_g_um", "l_v_um", "ps_width_um"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DeviceModelError(f"{name} must be finite and positive")

    @property
    def l_h_um(self) -> float:
        """Horizontal (column) pitch: l_s + phase-shifter width + l_g."""
        return self.l_s_um + self.ps_width_um + self.l_g_um


def aggressor_distances(victim: int, aggressor: int, sign_aggressor: float,
                        layout: LayoutParams, k2: int) -> tuple[float, float]:
    """Distances (um) from an aggressor's heated arm to a victim's two arms.

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


@lru_cache(maxsize=64)
def coupling_matrices(k1: int, k2: int, layout: LayoutParams,
                      fit: GammaFit = GammaFit()) -> tuple[np.ndarray, np.ndarray]:
    """Precomputed (victim, aggressor) coupling tables for one core.

    Returns ``(g_pos, g_neg)``, each (k1*k2, k1*k2): entry [i, j] is
    gamma(d_up) - gamma(d_lo) from aggressor j onto victim i when the
    aggressor's phase is non-negative (g_pos) or negative (g_neg).
    Diagonals are zero.  Cached per (k1, k2, layout, fit).
    """
    n = k1 * k2
    idx = np.arange(n)
    col = idx // k2
    row = idx % k2
    vert = (row[None, :] - row[:, None]) * layout.l_v_um
    horiz = (col[None, :] - col[:, None]) * layout.l_h_um

    def g(offset):
        return gamma(np.hypot(vert, horiz + offset), fit)

    base = g(0.0)
    g_pos = base - g(+layout.l_s_um)
    g_neg = g(-layout.l_s_um) - base
    np.fill_diagonal(g_pos, 0.0)
    np.fill_diagonal(g_neg, 0.0)
    g_pos.setflags(write=False)
    g_neg.setflags(write=False)
    return g_pos, g_neg


def perturbed_phases(target_phases: np.ndarray, layout: LayoutParams,
                     fit: GammaFit = GammaFit()) -> np.ndarray:
    """Phases actually realized once thermal crosstalk is added.

    ``target_phases`` has shape (..., k1, k2); leading dimensions batch
    independent cores.  Every MZI aggresses every other in its own core
    with |dphi| weight; the perturbed phases are NOT clipped to the
    programmable range (the sine transfer handles any excursion).
    """
    phases = np.asarray(target_phases, dtype=float)
    k1, k2 = phases.shape[-2], phases.shape[-1]
    g_pos, g_neg = coupling_matrices(k1, k2, layout, fit)
    flat = phases.reshape(*phases.shape[:-2], k1 * k2)
    mag = np.abs(flat)
    pos = np.where(flat >= 0, mag, 0.0)
    neg = np.where(flat < 0, mag, 0.0)
    pert = pos @ g_pos.T + neg @ g_neg.T
    return phases + pert.reshape(phases.shape)

