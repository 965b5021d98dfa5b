"""Structured sparsity: 6-D partitioning, row/column masks, prune/grow.

A layer's im2col weight matrix (C_o x fan_in) is zero-padded and split into
p x q chunks of shape (r*k1) x (c*k2), giving a 6-D view (p, q, r, c, k1, k2)
that mirrors how chunks map onto the accelerator.  Sparsity is structured at
two granularities:

* one **row mask** over the (r, k1) output rows, fixed at initialization
  with an interleaved pattern and shared by every chunk (interleaving keeps
  unpruned rows apart, which is what lets output gating cancel crosstalk);
* one **column mask** per chunk over the (c, k2) input columns, explored
  during training by a prune/grow cycle that scores candidate column sets
  by modeled on-chip power (input channels, weight devices, detectors and
  the splitter-tree rerouter all respond to which columns are on).

Column selection enumerates combinations from a small candidate pool
(smallest weight norm for pruning, largest gradient norm for growth) and
keeps the cheapest; enumeration is capped with a deterministic
lexicographically-spread sample so results never depend on timing or
thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arch import ArchConfig, ColumnPowerModel
from .devices import DeviceModelError, DeviceParams, GammaFit
from .layout import LayoutParams


def round_half_up(x: float) -> int:
    """Integer rounding with .5 going up, used for all count brackets."""
    return int(math.floor(x + 0.5))


def interleaved_ones(n: int, n_ones: int) -> np.ndarray:
    """Length-``n`` 0/1 row pattern with zeros alternating in from the tail.

    Six ones on eight rows gives 11111010; four on eight gives 10101010.
    Spreading the zeros keeps every surviving row next to a gated one, so
    its dominant crosstalk aggressors are powered off.  Densities below
    one half would need overlapping zero slots and are rejected (the row
    density floor max(s, 0.5) guarantees they never occur).
    """
    if not 0 <= n_ones <= n:
        raise DeviceModelError(f"need 0 <= n_ones <= {n}, got {n_ones}")
    n_zeros = n - n_ones
    if n_zeros > (n + 1) // 2:
        raise DeviceModelError(
            f"interleaved pattern needs density >= 0.5 ({n_ones}/{n} given)")
    mask = np.ones(n, dtype=bool)
    for i in range(n_zeros):
        mask[n - 1 - 2 * i] = False
    return mask


def partition_dims(c_out: int, fan_in: int, arch: ArchConfig) -> tuple[int, int]:
    """Chunk grid (p, q) covering a c_out x fan_in weight matrix."""
    if c_out < 1 or fan_in < 1:
        raise DeviceModelError("layer dimensions must be positive")
    p = -(-c_out // arch.chunk_rows)
    q = -(-fan_in // arch.chunk_cols)
    return p, q


def partition(w2d, arch: ArchConfig) -> np.ndarray:
    """Zero-pad a (C_o, fan_in) matrix and view it as (p, q, r, c, k1, k2)."""
    w = np.asarray(w2d, dtype=float)
    if w.ndim != 2:
        raise DeviceModelError("partition expects a 2-D weight matrix")
    c_out, fan_in = w.shape
    p, q = partition_dims(c_out, fan_in, arch)
    padded = np.zeros((p * arch.chunk_rows, q * arch.chunk_cols), dtype=w.dtype)
    padded[:c_out, :fan_in] = w
    six = padded.reshape(p, arch.r, arch.k1, q, arch.c, arch.k2)
    return six.transpose(0, 3, 1, 4, 2, 5)


def departition(w6, c_out: int, fan_in: int) -> np.ndarray:
    """Inverse of :func:`partition`; drops the zero padding."""
    w6 = np.asarray(w6)
    if w6.ndim != 6:
        raise DeviceModelError("departition expects a 6-D partitioned tensor")
    p, q, r, c, k1, k2 = w6.shape
    flat = w6.transpose(0, 2, 4, 1, 3, 5).reshape(p * r * k1, q * c * k2)
    if c_out > flat.shape[0] or fan_in > flat.shape[1]:
        raise DeviceModelError("target dimensions exceed the partitioned size")
    return flat[:c_out, :fan_in]


def padded_column_mask(fan_in: int, q: int, arch: ArchConfig) -> np.ndarray:
    """(q, c, k2) flags for input positions that are pure zero padding."""
    idx = np.arange(q * arch.chunk_cols).reshape(q, arch.c, arch.k2)
    return idx >= fan_in


@dataclass(frozen=True)
class SparsityMask:
    """Row mask shared by all chunks plus per-chunk column masks.

    ``row`` is (r, k1); ``col`` is (p, q, c, k2); ``padded_col`` is
    (q, c, k2) and marks structurally-dead input positions (zero padding)
    which must stay pruned forever.
    """

    row: np.ndarray
    col: np.ndarray
    padded_col: np.ndarray

    def __post_init__(self) -> None:
        row = np.asarray(self.row, dtype=bool)
        col = np.asarray(self.col, dtype=bool)
        pad = np.asarray(self.padded_col, dtype=bool)
        if row.ndim != 2:
            raise DeviceModelError("row mask must be (r, k1)")
        if col.ndim != 4:
            raise DeviceModelError("column mask must be (p, q, c, k2)")
        if pad.shape != col.shape[1:]:
            raise DeviceModelError("padded_col must be (q, c, k2)")
        if bool((col & pad[None]).any()):
            raise DeviceModelError("padded columns cannot be unpruned")
        for name, arr in (("row", row), ("col", col), ("padded_col", pad)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def shape6(self) -> tuple[int, int, int, int, int, int]:
        p, q, c, k2 = self.col.shape
        r, k1 = self.row.shape
        return p, q, r, c, k1, k2

    def effective6(self) -> np.ndarray:
        """Broadcast row x column product, shaped (p, q, r, c, k1, k2)."""
        return (self.row[None, None, :, None, :, None]
                & self.col[:, :, None, :, None, :])

    def density(self) -> float:
        return float(self.effective6().mean())

    def to_dense(self, c_out: int, fan_in: int) -> np.ndarray:
        return departition(self.effective6(), c_out, fan_in).astype(bool)

    def with_col(self, col) -> "SparsityMask":
        return SparsityMask(self.row, np.asarray(col, dtype=bool), self.padded_col)


@dataclass(frozen=True)
class DstSchedule:
    """Cosine-decayed prune/grow schedule, in mask-update (epoch) units."""

    alpha0: float = 0.5
    delta_t: int = 1          # epochs between mask updates
    t_end: int = 32           # epoch at which exploration stops
    delta_m: int = 2          # extra candidates beyond the required count
    max_combinations: int = 10000

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha0 <= 1.0:
            raise DeviceModelError("alpha0 must be in (0, 1]")
        if self.delta_t < 1 or self.t_end < 1:
            raise DeviceModelError("delta_t and t_end must be >= 1")
        if self.delta_m < 0:
            raise DeviceModelError("delta_m must be >= 0")
        if self.max_combinations < 1:
            raise DeviceModelError("max_combinations must be >= 1")

    @classmethod
    def for_epochs(cls, epochs: int, alpha0: float = 0.5,
                   t_end_frac: float = 0.8, delta_m: int = 2,
                   max_combinations: int = 10000) -> "DstSchedule":
        if epochs < 1:
            raise DeviceModelError("epochs must be >= 1")
        return cls(alpha0=alpha0, delta_t=1,
                   t_end=max(1, round_half_up(t_end_frac * epochs)),
                   delta_m=delta_m, max_combinations=max_combinations)

    def death_rate(self, t: int) -> float:
        """alpha(t) = (alpha0/2)(1 + cos(t*pi/t_end)), zero from t_end on."""
        if t < 0:
            raise DeviceModelError("schedule step must be >= 0")
        if t >= self.t_end:
            return 0.0
        return 0.5 * self.alpha0 * (1.0 + math.cos(t * math.pi / self.t_end))


def _comb_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """rank-th k-subset of range(n) in lexicographic order."""
    combo = []
    x = 0
    for remaining in range(k, 0, -1):
        while True:
            block = math.comb(n - x - 1, remaining - 1)
            if rank < block:
                break
            rank -= block
            x += 1
        combo.append(x)
        x += 1
    return tuple(combo)


def combinations_capped(n: int, k: int, cap: int) -> list[tuple[int, ...]]:
    """k-subsets of range(n) in lexicographic order, sampled when too many.

    When C(n, k) exceeds ``cap``, returns ``cap`` subsets whose
    lexicographic ranks are spread evenly from first to last — a
    deterministic slice of the full enumeration, independent of any RNG.
    """
    if k < 0 or n < 0 or k > n:
        raise DeviceModelError(f"invalid combination parameters n={n}, k={k}")
    if cap < 1:
        raise DeviceModelError("cap must be >= 1")
    total = math.comb(n, k)
    if total <= cap:
        return list(itertools.combinations(range(n), k))
    if cap == 1:
        return [_comb_unrank(n, k, 0)]
    ranks = [i * (total - 1) // (cap - 1) for i in range(cap)]
    return [_comb_unrank(n, k, rank) for rank in ranks]


def weight_scale(w) -> float:
    """Per-layer scale mapping weights onto [-1, 1] as the hardware backend
    does: the largest magnitude at full scale, 1 for an all-zero layer."""
    return float(np.max(np.abs(w))) or 1.0


def _objective(row, weights6, arch: ArchConfig, device: DeviceParams,
               layout: LayoutParams, fit: GammaFit) -> ColumnPowerModel:
    """The prune/grow objective: the layer's full-gating power model (input
    gating, light redistribution, output gating) on its scaled weights."""
    w6 = np.asarray(weights6, dtype=float)
    return ColumnPowerModel(row, w6 / weight_scale(w6), arch, device, layout, fit)


def mask_power(mask: SparsityMask, weights6, arch: ArchConfig,
               device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit()) -> float:
    """Modeled power (mW) of one layer's mapping, the prune/grow objective.

    Sums the per-chunk slice power over all p*q chunks under full gating
    (energy-proportional since every chunk runs the same cycle count).
    """
    return _objective(mask.row, weights6, arch, device, layout, fit).power(mask.col)


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]     # flat indices into col.reshape(-1)
    power_mw: float
    n_evaluated: int


def select_columns_min_power(model: ColumnPowerModel, col_mask, pool,
                             n_select: int, turn_on: bool, cap: int,
                             ensure: tuple[tuple[int, ...], ...] = ()) -> SelectionResult:
    """Pick ``n_select`` columns from ``pool`` (flat ids) minimizing power.

    Each candidate combination is applied to a copy of ``col_mask`` (set to
    ``turn_on``) and scored with the power model; ties go to the earlier
    combination, and lexicographic enumeration order makes that "lowest
    column index wins".  ``ensure`` prepends specific combinations (e.g. an
    incumbent selection) so they are always among those evaluated.
    """
    pool = [int(i) for i in pool]
    if n_select > len(pool):
        raise DeviceModelError("cannot select more columns than the pool holds")
    col = np.asarray(col_mask, dtype=bool)
    candidates: list[tuple[int, ...]] = [tuple(int(i) for i in combo) for combo in ensure]
    for combo in combinations_capped(len(pool), n_select, cap):
        candidates.append(tuple(pool[i] for i in combo))
    best: tuple[float, int] | None = None
    best_combo: tuple[int, ...] = ()
    for idx, ids in enumerate(candidates):
        trial = col.reshape(-1).copy()
        trial[list(ids)] = turn_on
        pw = model.power(trial.reshape(col.shape))
        key = (pw, idx)
        if best is None or key < best:
            best = key
            best_combo = ids
    return SelectionResult(tuple(sorted(best_combo)), best[0], len(candidates))


def _column_target(s: float, mask_shape6, row_ones: int) -> int:
    p, q, r, c, k1, k2 = mask_shape6
    total = p * q * r * c * k1 * k2
    return round_half_up(s * total / row_ones)


def init_masks(s: float, c_out: int, fan_in: int, arch: ArchConfig,
               weights2d, device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit(),
               max_combinations: int = 10000) -> SparsityMask:
    """Initial masks for one layer at target density ``s``.

    Rows: density max(s, 0.5), interleaved zeros.  Columns: the remaining
    density s / s_row, selecting the kept set to minimize modeled power
    among enumerated (capped) combinations.  Padding columns introduced by
    the chunk grid start pruned and stay pruned.
    """
    if not 0.0 < s <= 1.0:
        raise DeviceModelError(f"target density must be in (0, 1], got {s}")
    n_rows = arch.r * arch.k1
    s_row = max(s, 0.5)
    row = interleaved_ones(n_rows, round_half_up(s_row * n_rows))
    row = row.reshape(arch.r, arch.k1)

    p, q = partition_dims(c_out, fan_in, arch)
    pad = padded_column_mask(fan_in, q, arch)
    col = np.ones((p, q, arch.c, arch.k2), dtype=bool) & ~pad[None]
    usable = np.flatnonzero(col.reshape(-1))

    w6 = partition(weights2d, arch)
    row_ones = int(row.sum())
    n_keep = _column_target(s, (p, q, arch.r, arch.c, arch.k1, arch.k2), row_ones)
    if n_keep < len(usable):
        model = _objective(row, w6, arch, device, layout, fit)
        empty = np.zeros_like(col)
        sel = select_columns_min_power(model, empty, usable, n_keep,
                                       turn_on=True, cap=max_combinations)
        col = empty.reshape(-1)
        col[list(sel.chosen)] = True
        col = col.reshape(p, q, arch.c, arch.k2)
    return SparsityMask(row, col, pad)


@dataclass(frozen=True)
class MaskUpdateInfo:
    alpha: float
    n_changed: int
    power_mw: float          # modeled layer power after the update
    n_evaluated: int         # combinations scored (0 for a no-op)


def prune_step(mask: SparsityMask, weights6, schedule: DstSchedule, t: int,
               arch: ArchConfig, device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit()) -> tuple[SparsityMask, MaskUpdateInfo]:
    """Cosine-scheduled structured pruning of one layer's column mask.

    The death rate sets how many weights leave; divided by the per-column
    live-row count that becomes a column quota n_c.  The n_c + delta_m
    smallest-norm live columns form the candidate pool, and the pool
    combination with the lowest modeled power is pruned.  Asking for more
    columns than are live prunes everything live.
    """
    w6 = np.asarray(weights6, dtype=float)
    alpha = schedule.death_rate(t)
    row_ones = int(mask.row.sum())
    unpruned = int(mask.effective6().sum())
    n_c = round_half_up(round_half_up(alpha * unpruned) / row_ones)
    model = _objective(mask.row, w6, arch, device, layout, fit)
    if n_c == 0:
        return mask, MaskUpdateInfo(alpha, 0, model.power(mask.col), 0)

    alive = np.flatnonzero(mask.col.reshape(-1))
    n_c = min(n_c, len(alive))
    norms = np.sqrt((w6 ** 2).sum(axis=(2, 4))).reshape(-1)[alive]
    pool_n = min(n_c + schedule.delta_m, len(alive))
    pool = alive[np.lexsort((alive, norms))][:pool_n]
    sel = select_columns_min_power(model, mask.col, pool, n_c,
                                   turn_on=False, cap=schedule.max_combinations)
    new_col = mask.col.reshape(-1).copy()
    new_col[list(sel.chosen)] = False
    out = mask.with_col(new_col.reshape(mask.col.shape))
    return out, MaskUpdateInfo(alpha, n_c, sel.power_mw, sel.n_evaluated)


def grow_step(mask: SparsityMask, gradients6, weights6, s: float,
              schedule: DstSchedule, arch: ArchConfig, device: DeviceParams,
              layout: LayoutParams,
              fit: GammaFit = GammaFit()) -> tuple[SparsityMask, MaskUpdateInfo]:
    """Regrow pruned columns back up to the target density ``s``.

    The quota is (target weight count - current) / live rows per column.
    Candidates are the pruned, non-padding columns with the largest
    gradient norm over live rows; the pool combination with the lowest
    modeled power is revived.  Regrown weights re-enter at zero, so growth
    choices differ in power only through input channels, detectors and
    rerouter splits.  With no pruned columns available this is a no-op.
    """
    w6 = np.asarray(weights6, dtype=float)
    g6 = np.asarray(gradients6, dtype=float)
    if g6.shape != w6.shape:
        raise DeviceModelError("gradient tensor must match the weight tensor")
    row_ones = int(mask.row.sum())
    current = int(mask.effective6().sum())
    n_c = round_half_up((s * mask.effective6().size - current) / row_ones)
    model = _objective(mask.row, w6, arch, device, layout, fit)
    dead = np.flatnonzero(~mask.col.reshape(-1) & ~np.broadcast_to(
        mask.padded_col[None], mask.col.shape).reshape(-1))
    if n_c <= 0 or len(dead) == 0:
        return mask, MaskUpdateInfo(0.0, 0, model.power(mask.col), 0)

    n_c = min(n_c, len(dead))
    row6 = mask.row[None, None, :, None, :, None]
    gnorm = np.sqrt((g6 ** 2 * row6).sum(axis=(2, 4))).reshape(-1)[dead]
    pool_n = min(n_c + schedule.delta_m, len(dead))
    pool = dead[np.lexsort((dead, -gnorm))][:pool_n]
    sel = select_columns_min_power(model, mask.col, pool, n_c,
                                   turn_on=True, cap=schedule.max_combinations)
    new_col = mask.col.reshape(-1).copy()
    new_col[list(sel.chosen)] = True
    out = mask.with_col(new_col.reshape(mask.col.shape))
    return out, MaskUpdateInfo(0.0, n_c, sel.power_mw, sel.n_evaluated)
