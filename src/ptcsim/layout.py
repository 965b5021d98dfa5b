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

A coupling depends only on the (row, column) offset between aggressor and
victim, so :func:`perturbed_phases` applies it as a row-band kernel: one
k1 x k1 Toeplitz matrix per aggressor sign and row offset dr, applied along
k1, for |dr| <= B.  The band B is the smallest for which the couplings it
drops, summed over any one victim, stay under ``CROSSTALK_FLOOR`` rad per
rad of the largest aggressor phase (B = 0 at the default 120 um row
pitch), so the kernel equals the full sum to within ``CROSSTALK_FLOOR *
max|dphi|`` for any geometry and needs O(B k1^2) memory, not O(k1^2 k2^2).
The dense (k1*k2)^2 tables of :func:`coupling_matrices` are the test
oracle and the source of ``ptcsim report --dump-coupling``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .devices import DeviceModelError, GammaFit, float_array, gamma

# Crosstalk the row band may drop, in rad per rad of the largest aggressor
# phase, summed over one victim (see row_kernels).
CROSSTALK_FLOOR = 1e-6
# Target phases whose heats perturbed_phases holds at once (2 MB of them).
HEAT_CHUNK = 1 << 18


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


def _offset_couplings(d_rows, d_cols, layout: LayoutParams, fit: GammaFit):
    """(g_pos, g_neg) for aggressors ``d_rows`` rows and ``d_cols`` columns
    from the victim: gamma(d_up) - gamma(d_lo) for a non-negative and a
    negative aggressor phase.  Self-coupling (0, 0) is not zeroed here."""
    vert = d_rows * layout.l_v_um
    horiz = d_cols * layout.l_h_um

    def g(offset):
        return gamma(np.hypot(vert, horiz + offset), fit)

    base = g(0.0)
    return base - g(+layout.l_s_um), g(-layout.l_s_um) - base


@lru_cache(maxsize=64)
def coupling_matrices(k1: int, k2: int, layout: LayoutParams,
                      fit: GammaFit = GammaFit()) -> tuple[np.ndarray, np.ndarray]:
    """Dense (victim, aggressor) coupling tables for one core.

    Returns ``(g_pos, g_neg)``, each (k1*k2, k1*k2): entry [i, j] is
    gamma(d_up) - gamma(d_lo) from aggressor j onto victim i when the
    aggressor's phase is non-negative (g_pos) or negative (g_neg).
    Diagonals are zero.  Cached per (k1, k2, layout, fit).  The light path
    uses :func:`row_kernels` instead; these tables are its oracle and the
    ``report --dump-coupling`` output.
    """
    n = k1 * k2
    idx = np.arange(n)
    col = idx // k2
    row = idx % k2
    g_pos, g_neg = _offset_couplings(row[None, :] - row[:, None],
                                     col[None, :] - col[:, None], layout, fit)
    np.fill_diagonal(g_pos, 0.0)
    np.fill_diagonal(g_neg, 0.0)
    g_pos.setflags(write=False)
    g_neg.setflags(write=False)
    return g_pos, g_neg


@lru_cache(maxsize=64)
def row_kernels(k1: int, k2: int, layout: LayoutParams,
                fit: GammaFit = GammaFit()) -> np.ndarray:
    """Row-band crosstalk kernels of one core, shape (2B+1, k1, 2*k1).

    ``[B + dr]`` holds the couplings onto a victim in row ``j`` from the
    aggressors in row ``j + dr``: a pair of Toeplitz matrices over (victim
    column, aggressor column), side by side, for aggressors driven by a
    non-negative phase and (negated) for a negative one.  They multiply
    the stacked heats [max(phi, 0); min(phi, 0)].  B is the smallest band
    for which the couplings beyond it, summed over every column offset and
    both sides, stay within ``CROSSTALK_FLOOR``: a bound on what any one
    victim loses per radian of aggressor phase.  Cached per (k1, k2,
    layout, fit).
    """
    d_rows = np.arange(-(k2 - 1), k2)[:, None]
    d_cols = np.arange(-(k1 - 1), k1)[None, :]
    g_pos, g_neg = _offset_couplings(d_rows, d_cols, layout, fit)
    g_pos[k2 - 1, k1 - 1] = g_neg[k2 - 1, k1 - 1] = 0.0  # no self-coupling
    # The larger coupling at each row offset dr, summed over columns, then
    # folded to |dr| and summed from the far end: beyond[b] covers |dr| >= b.
    per_dr = np.maximum(np.abs(g_pos), np.abs(g_neg)).sum(axis=1)
    beyond = np.cumsum((per_dr[k2 - 1:] + per_dr[k2 - 1::-1])[::-1])[::-1]
    band = next((b for b in range(k2 - 1) if beyond[b + 1] <= CROSSTALK_FLOOR),
                k2 - 1)
    # Victim column i, aggressor column i + dc.
    idx = np.arange(k1)
    dc = idx[None, :] - idx[:, None] + (k1 - 1)
    rows = slice(k2 - 1 - band, k2 + band)
    kernels = np.concatenate([g_pos[rows][:, dc], -g_neg[rows][:, dc]], axis=-1)
    kernels.setflags(write=False)
    return kernels


def perturbed_phases(target_phases: np.ndarray, layout: LayoutParams,
                     fit: GammaFit = GammaFit(), out=None) -> np.ndarray:
    """Phases actually realized once thermal crosstalk is added.

    ``target_phases`` has shape (..., k1, k2); leading dimensions batch
    independent cores.  Every MZI aggresses every other in its own core
    with |dphi| weight, summed over the :func:`row_kernels` band (within
    ``CROSSTALK_FLOOR * max|dphi|`` of the full sum); the perturbed phases
    are NOT clipped to the programmable range (the sine transfer handles
    any excursion).  They are written into ``out`` when it is given (an
    array of the same shape, any strides, not sharing memory with
    ``target_phases``).  Float32 phases are summed in float32, any others
    in float64.
    """
    phases = float_array(target_phases)
    k1, k2 = phases.shape[-2], phases.shape[-1]
    kernels = row_kernels(k1, k2, layout, fit).astype(phases.dtype, copy=False)
    if out is None:
        out = np.empty(phases.shape, dtype=phases.dtype)
    # Every core is its own product, so a large batch runs in slices of its
    # first axis, which bounds the heats to about HEAT_CHUNK phases.
    batch, into = (phases, out) if phases.ndim > 2 else (phases[None], out[None])
    step = max(1, HEAT_CHUNK // max(1, math.prod(batch.shape[1:])))
    for i in range(0, len(batch), step):
        _band_sum(batch[i:i + step], kernels, into[i:i + step])
    return out


def _band_sum(phases, kernels, out):
    """Crosstalk of a batch of cores, summed over the row band into ``out``."""
    k1, k2 = phases.shape[-2], phases.shape[-1]
    band = len(kernels) // 2
    # Heated arm by sign: rows of the upper-arm heats, then the lower.
    heat = np.empty(phases.shape[:-2] + (2 * k1, k2), dtype=phases.dtype)
    np.maximum(phases, 0.0, out=heat[..., :k1, :])
    np.minimum(phases, 0.0, out=heat[..., k1:, :])
    np.matmul(kernels[band], heat, out=out)
    out += phases
    if band:
        part = np.empty(out.shape, dtype=phases.dtype)
        for dr, kernel in enumerate(kernels, start=-band):
            if dr:  # victims in rows lo..hi-1, their aggressors dr rows away
                lo, hi = max(0, -dr), k2 - max(0, dr)
                np.matmul(kernel, heat, out=part)
                out[..., lo:hi] += part[..., lo + dr:hi + dr]
