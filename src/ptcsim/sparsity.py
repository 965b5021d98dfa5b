"""Structured sparsity: 6-D partitioning, row/column masks, prune/grow.

A layer's im2col weight matrix (C_o x fan_in) is zero-padded and split into
p x q chunks of shape (r*k1) x (c*k2), giving a 6-D view (p, q, r, c, k1, k2)
that mirrors how chunks map onto the accelerator.  Sparsity is structured at
two granularities:

* one **row mask** over the (r, k1) output rows, fixed at initialization
  with an interleaved pattern and shared by every chunk (interleaving keeps
  unpruned rows apart, which is what lets output gating cancel crosstalk);
* one **column mask** per chunk over the (c, k2) input columns, explored
  during training by a prune/grow cycle that picks columns by modeled
  on-chip power (input channels, weight devices, detectors and the
  splitter-tree rerouter all respond to which columns are on).

Column selection is exact: among all ways of switching ``n_select``
columns of a candidate pool (smallest weight norm for pruning, largest
gradient norm for growth; every usable column at initialization), it
returns one of lowest modeled power, with no cap on the search.  A
rerouter node's power depends only on how many live leaves sit under each
of its two subtrees, so a dynamic program over each input module's
splitter tree and then across modules finds the optimum in O(k2^2) per
module.  Ties go to the lowest column indices: the backtrack keeps the
choice whose sorted flat column ids are lexicographically smallest, so
results never depend on timing or thread count.  Sums taken in another
order differ in the last bits, so a choice counts as tied when it lies
within ``tol`` of the best, where ``tol`` is 1e-13 times the optimal power
of the modules that hold pool columns (the layer's constant power and the
other modules are left out).  The band is applied afresh at every tree
node and every module the backtrack passes, so the pick may lie above the
optimum by up to ``tol`` per such step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arch import ArchConfig, ColumnPowerModel
from .core import tree_counts
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


@dataclass(frozen=True, eq=False)
class SparsityMask:
    """Row mask shared by all chunks plus per-chunk column masks.

    ``row`` is (r, k1); ``col`` is (p, q, c, k2); ``padded_col`` is
    (q, c, k2) and marks structurally-dead input positions (zero padding)
    which must stay pruned forever.  Two masks are equal when all three
    arrays have the same shapes and entries; masks are not hashable.
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
        if not row.any():
            raise DeviceModelError("row mask must keep at least one row")
        if col.ndim != 4:
            raise DeviceModelError("column mask must be (p, q, c, k2)")
        if pad.shape != col.shape[1:]:
            raise DeviceModelError("padded_col must be (q, c, k2)")
        if bool((col & pad[None]).any()):
            raise DeviceModelError("padded columns cannot be unpruned")
        for name, arr in (("row", row), ("col", col), ("padded_col", pad)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, SparsityMask):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   ((self.row, other.row), (self.col, other.col),
                    (self.padded_col, other.padded_col)))

    @property
    def shape6(self) -> tuple[int, int, int, int, int, int]:
        p, q, c, k2 = self.col.shape
        r, k1 = self.row.shape
        return p, q, r, c, k1, k2

    def effective6(self) -> np.ndarray:
        """Broadcast row x column product, shaped (p, q, r, c, k1, k2)."""
        return (self.row[None, None, :, None, :, None]
                & self.col[:, :, None, :, None, :])

    @property
    def usable(self) -> np.ndarray:
        """(p, q, c, k2) flags of the columns that are not zero padding."""
        return ~np.broadcast_to(self.padded_col[None], self.col.shape)

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
    t_end: int = 32           # epoch at which exploration stops
    delta_m: int = 2          # extra candidates beyond the required count

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha0 <= 1.0:
            raise DeviceModelError("alpha0 must be in (0, 1]")
        if self.t_end < 1:
            raise DeviceModelError("t_end must be >= 1")
        if self.delta_m < 0:
            raise DeviceModelError("delta_m (the pool margin) must be >= 0")

    @classmethod
    def for_epochs(cls, epochs: int, alpha0: float = 0.5,
                   t_end_frac: float = 0.8, delta_m: int = 2) -> "DstSchedule":
        if epochs < 1:
            raise DeviceModelError("epochs must be >= 1")
        if not 0.0 < t_end_frac <= 1.0:
            raise DeviceModelError("t_end_frac must be in (0, 1]")
        return cls(alpha0=alpha0,
                   t_end=max(1, round_half_up(t_end_frac * epochs)),
                   delta_m=delta_m)

    def death_rate(self, t: int) -> float:
        """alpha(t) = (alpha0/2)(1 + cos(t*pi/t_end)), zero from t_end on."""
        if t < 0:
            raise DeviceModelError("schedule step must be >= 0")
        if t >= self.t_end:
            return 0.0
        return 0.5 * self.alpha0 * (1.0 + math.cos(t * math.pi / self.t_end))


def _unrank(n: int, t: int, ranks: np.ndarray, dtype) -> np.ndarray:
    """(m, t) rows: the t-subsets of range(n) at the given lexicographic
    ``ranks``.  Requires C(n, j) < 2**63 for every j <= t."""
    out = np.empty((ranks.size, t), dtype=dtype)
    rank = ranks
    start = np.zeros(ranks.size, dtype=np.int64)
    for j in range(t):
        # cum[x]: subsets whose next element is below x, given t - j left.
        cum = np.fromiter(itertools.accumulate(
            (math.comb(n - x - 1, t - j - 1) for x in range(n)), initial=0),
            dtype=np.int64, count=n + 1)
        offset = rank + cum[start]
        x = np.searchsorted(cum, offset, side="right") - 1
        out[:, j] = x
        rank = offset - cum[x]
        start = x + 1
    return out


def combinations_capped(n: int, k: int, cap: int) -> np.ndarray:
    """k-subsets of range(n) in lexicographic order, sampled when too many.

    Returns an (m, k) array, one subset per row, of the smallest unsigned
    dtype that holds n - 1.  When C(n, k) exceeds ``cap``, the m = ``cap``
    rows are the subsets whose lexicographic ranks i*(C(n, k) - 1)//(cap - 1)
    are spread evenly from first to last: a deterministic slice of the full
    enumeration, independent of any RNG.  Otherwise every subset is
    returned.

    All rows are unranked at once, one ``searchsorted`` per element, over
    whichever side is shorter: the subsets themselves, or their (n - k)
    complements, whose lexicographic rank is C(n, k) - 1 minus the
    subset's.  Ranks are int64, so C(n, k) must stay below 2**63, and a
    sample (C(n, k) > ``cap``) may hold at most 2**31 subsets.
    """
    if k < 0 or n < 0 or k > n:
        raise DeviceModelError(f"invalid combination parameters n={n}, k={k}")
    if cap < 1:
        raise DeviceModelError("cap must be >= 1")
    total = math.comb(n, k)
    if total >= 2 ** 63:
        raise DeviceModelError(f"C(n={n}, k={k}) = {total} subsets do not fit "
                               "int64 ranks")
    if total <= cap:
        ranks = np.arange(total, dtype=np.int64)
    elif cap == 1:
        ranks = np.zeros(1, dtype=np.int64)
    else:
        if cap > 2 ** 31:
            raise DeviceModelError(f"cap={cap} samples of C(n={n}, k={k}) "
                                   "must number at most 2**31")
        # i*(total - 1)//(cap - 1), split so no product leaves int64
        whole, part = divmod(total - 1, cap - 1)
        i = np.arange(cap, dtype=np.int64)
        ranks = i * whole + i * part // (cap - 1)
    dtype = np.min_scalar_type(max(n - 1, 0))
    if k <= n - k:
        return _unrank(n, k, ranks, dtype)
    dropped = _unrank(n, n - k, total - 1 - ranks, dtype)
    kept = np.broadcast_to(np.arange(k, dtype=dtype), (ranks.size, k)).copy()
    for j in range(n - k):
        # skip the j-th dropped element (ascending), shifting the rest up
        kept += kept >= dropped[:, j, None]
    return kept


def weight_scale(w) -> float:
    """Per-layer scale mapping weights onto [-1, 1] as the hardware backend
    does: the largest magnitude at full scale, 1 for an all-zero layer."""
    return float(np.max(np.abs(w))) or 1.0


def _objective(row, weights6, arch: ArchConfig, device: DeviceParams,
               layout: LayoutParams, fit: GammaFit) -> ColumnPowerModel:
    """The prune/grow objective: the layer's full-gating power model (input
    gating, light redistribution, output gating) on its weights over live
    rows, scaled by their largest magnitude; the model prices no dead row."""
    live = np.array(weights6, dtype=float)
    if live.ndim != 6 or live.shape[2:5:2] != np.shape(row):
        raise DeviceModelError(f"row mask {np.shape(row)} does not fit {live.shape}")
    live *= np.asarray(row, dtype=bool)[None, None, :, None, :, None]
    live /= weight_scale(live)
    return ColumnPowerModel(row, live, arch, device, layout, fit)


def mask_power(mask: SparsityMask, weights6, arch: ArchConfig,
               device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit()) -> float:
    """Modeled power (mW) of one layer's mapping, the prune/grow objective.

    Sums the per-chunk slice power over all p*q chunks under full gating
    (energy-proportional since every chunk runs the same cycle count).
    """
    return _objective(mask.row, weights6, arch, device, layout, fit).power(mask.col)


def column_norms(a6, row) -> np.ndarray:
    """Each (p, q, c, k2) column's L2 norm of ``a6`` (weights or gradients,
    (p, q, r, c, k1, k2)) over the live rows of the (r, k1) mask ``row``,
    flat in ``col.reshape(-1)`` order."""
    row6 = np.asarray(row, dtype=bool)[None, None, :, None, :, None]
    return np.sqrt((np.asarray(a6, dtype=float) ** 2 * row6).sum(axis=(2, 4))
                   ).reshape(-1)


def ranked(ids, key, n: int) -> np.ndarray:
    """The first ``n`` of ``ids`` by ascending ``key`` (one value per id),
    ties going to the lower id."""
    ids = np.asarray(ids)
    return ids[np.lexsort((ids, key))][:n]


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]     # flat indices into col.reshape(-1), ascending
    power_mw: float             # the model's power of the chosen mask
    n_evaluated: int            # DP cells filled (see select_columns_min_power)
    col: np.ndarray             # the column mask with ``chosen`` switched


# Tie band, relative to the optimal power of the modules holding pool
# columns; applied per tree node and per module (see the module docstring).
_TIE_RTOL = 1e-13


def select_columns_min_power(model: ColumnPowerModel, col_mask, pool,
                             n_select: int, turn_on: bool) -> SelectionResult:
    """Switch ``n_select`` columns of ``pool`` (flat ids into ``col_mask``)
    to ``turn_on``, choosing the set of lowest ``model.power``.

    The search is exact.  Per input module (p, q, c), a bottom-up pass over
    its splitter tree, padded to a power of two with always-dead leaves,
    gives the lowest additive-plus-rerouter power for each count j of pool
    columns switched inside it; a pool column is a free leaf and every
    other column keeps its current state.  A min-plus pass across the
    modules that hold pool columns then gives the layer optimum, and a
    backtrack recovers the columns, taking the lowest column indices on
    ties (see the module docstring).  ``n_evaluated`` counts the DP cells
    filled: one per (tree node, feasible j) in those modules, and one per
    (module suffix, feasible j <= n_select) across them.  ``col`` is the
    switched mask and ``power_mw`` one ``model.power`` call on it.

    Rejected: a negative ``n_select`` or one larger than the pool,
    duplicate or out-of-range pool ids, and pool columns already in the
    ``turn_on`` state.
    """
    col = model.check_mask(col_mask)
    flat = col.reshape(-1)
    ids = np.array([int(i) for i in pool], dtype=np.intp)
    if n_select < 0:
        raise DeviceModelError(f"n_select must be >= 0, got {n_select}")
    if n_select > ids.size:
        raise DeviceModelError("cannot select more columns than the pool holds")
    if np.unique(ids).size != ids.size:
        raise DeviceModelError("pool ids must be distinct")
    if ids.size and not (0 <= ids.min() and ids.max() < flat.size):
        raise DeviceModelError(f"pool ids must lie in [0, {flat.size})")
    if (flat[ids] == turn_on).any():
        raise DeviceModelError(
            f"pool columns must all be {'off' if turn_on else 'on'} to be switched")

    k2 = col.shape[-1]
    in_pool = np.zeros(flat.size, dtype=bool)
    in_pool[ids] = True
    in_pool = in_pool.reshape(-1, k2)
    # Modules without pool columns cost the same whatever is chosen.
    mods = np.flatnonzero(in_pool.any(axis=1))
    chosen, n_evaluated = _tree_dp(
        in_pool[mods], flat.reshape(-1, k2)[mods],
        model.col_unit_mw.reshape(-1, k2)[mods], model.node_mw,
        n_select, turn_on)
    flat_ids = tuple(int(mods[m]) * k2 + leaf for m, leaf in chosen)
    trial = col.copy()
    trial.reshape(-1)[list(flat_ids)] = turn_on
    return SelectionResult(flat_ids, model.power(trial), n_evaluated, trial)


def _tree_dp(free, live, unit_mw, node_mw, n_select: int, turn_on: bool):
    """Exact core of :func:`select_columns_min_power` on (M, k2) modules.

    ``free`` flags pool leaves, ``live`` the current column state and
    ``unit_mw`` each column's additive power; ``node_mw`` is the splitter
    table (None without redistribution).  Returns the chosen (module,
    leaf) pairs in ascending order and the number of DP cells filled.
    """
    n_mod, k2 = free.shape
    sign = 1 if turn_on else -1
    # counts[h][m, t]: live leaves under node t of level h with no pool
    # column switched (with j switched: counts[h][m, t] + sign*j).
    counts = tree_counts(live)
    n = counts[0].shape[-1]
    # Level 0: a leaf's power with j = 0 or 1 of its pool columns switched;
    # a padding leaf is dead and never free.
    cost = np.zeros((n_mod, n, 2))
    cost[:, k2:, 1] = np.inf
    cost[:, :k2, 0] = np.where(live, unit_mw, 0.0)
    cost[:, :k2, 1] = np.where(free, np.where(live, 0.0, unit_mw), np.inf)
    # costs[h][m, t, j]: lowest power of the subtree under node t of level
    # h (2**h leaves) with j pool columns switched.
    costs = [cost]
    for h, live0 in enumerate(counts[:-1]):
        size = 1 << h
        j = np.arange(size + 1)
        pair = cost[:, 0::2, :, None] + cost[:, 1::2, None, :]
        if node_mw is not None:
            up = np.clip(live0[:, 0::2, None] + sign * j, 0, size)
            lo = np.clip(live0[:, 1::2, None] + sign * j, 0, size)
            pair = pair + node_mw[up[..., :, None], lo[..., None, :]]
        cost = np.full(pair.shape[:2] + (2 * size + 1,), np.inf)
        for a in range(size + 1):
            np.minimum(cost[..., a:a + size + 1], pair[..., a, :],
                       out=cost[..., a:a + size + 1])
        costs.append(cost)

    root = costs[-1][:, 0, :n_select + 1]
    # suffix[m][j]: lowest power of modules m.. with j columns switched.
    suffix = [np.full(n_select + 1, np.inf) for _ in range(n_mod + 1)]
    suffix[n_mod][0] = 0.0
    for m in range(n_mod - 1, -1, -1):
        for a in range(root.shape[1]):
            np.minimum(suffix[m][a:], root[m, a] + suffix[m + 1][:n_select + 1 - a],
                       out=suffix[m][a:])
    n_evaluated = int(sum(np.isfinite(c).sum() for c in costs[1:])
                      + sum(np.isfinite(g).sum() for g in suffix[:n_mod]))

    # Backtrack on Python floats, which add exactly as the arrays did.
    cost_py = [c.tolist() for c in costs]
    live_py = [lv.tolist() for lv in counts]
    node_py = None if node_mw is None else node_mw.tolist()
    tol = _TIE_RTOL * float(suffix[0][n_select])
    memo: dict = {}

    def lowest(cands):
        # Among (leaves, count) choices, the one with the lowest column
        # indices: compare leaf tuples, a longer tuple winning past the end.
        return min(cands, key=lambda c: c[0] + (n,))

    def pick(m, h, t, j):
        """Lowest-index optimal leaves under node t of level h, j switched."""
        key = (m, h, t, j)
        if key not in memo:
            if h == 0:
                memo[key] = (t,) if j else ()
            else:
                half = 1 << (h - 1)
                below = cost_py[h - 1][m]
                target = cost_py[h][m][t][j] + tol
                cands = []
                for a in range(max(0, j - half), min(j, half) + 1):
                    val = below[2 * t][a] + below[2 * t + 1][j - a]
                    if node_py is not None:
                        lv = live_py[h - 1][m]
                        up = min(max(lv[2 * t] + sign * a, 0), half)
                        lo = min(max(lv[2 * t + 1] + sign * (j - a), 0), half)
                        val = val + node_py[up][lo]
                    if val <= target:
                        cands.append((pick(m, h - 1, 2 * t, a), a))
                upper, a = lowest(cands)
                memo[key] = upper + pick(m, h - 1, 2 * t + 1, j - a)
        return memo[key]

    chosen, j = [], n_select
    top = len(costs) - 1
    for m in range(n_mod):
        target = float(suffix[m][j]) + tol
        cands = [(pick(m, top, 0, a), a) for a in range(min(j, n) + 1)
                 if cost_py[top][m][0][a] + float(suffix[m + 1][j - a]) <= target]
        leaves, a = lowest(cands)
        chosen += [(m, leaf) for leaf in leaves]
        j -= a
    return chosen, n_evaluated


def interleaved_rows(s: float, arch: ArchConfig) -> np.ndarray:
    """The (r, k1) row mask of a layer at target density ``s``: density
    max(s, 0.5), zeros interleaved (:func:`interleaved_ones`)."""
    n_rows = arch.r * arch.k1
    return interleaved_ones(n_rows, round_half_up(max(s, 0.5) * n_rows)
                            ).reshape(arch.r, arch.k1)


def column_quota(n_weights: float, row) -> int:
    """Columns that hold ``n_weights`` partitioned weights under the row
    mask ``row``: a column holds one weight per live row."""
    return round_half_up(n_weights / int(np.sum(row)))


def init_masks(s: float, c_out: int, fan_in: int, arch: ArchConfig,
               weights2d, device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit()) -> SparsityMask:
    """Initial masks for one layer at target density ``s``.

    Rows: :func:`interleaved_rows`.  Columns: the :func:`column_quota` of
    s times the partitioned weights, the kept set being the one of lowest
    modeled power (:func:`select_columns_min_power`).  Padding columns
    introduced by the chunk grid start pruned and stay pruned.
    """
    if not 0.0 < s <= 1.0:
        raise DeviceModelError(f"target density must be in (0, 1], got {s}")
    w2d = np.asarray(weights2d)
    if w2d.shape != (c_out, fan_in):
        raise DeviceModelError(f"weights2d has shape {w2d.shape}, expected "
                               f"(c_out, fan_in) = ({c_out}, {fan_in})")
    row = interleaved_rows(s, arch)
    w6 = partition(w2d, arch)
    empty = SparsityMask(row, np.zeros(w6.shape[:2] + (arch.c, arch.k2), bool),
                         padded_column_mask(fan_in, w6.shape[1], arch))
    usable = np.flatnonzero(empty.usable)
    n_keep = column_quota(s * w6.size, row)
    if n_keep >= len(usable):
        return empty.with_col(empty.usable)
    model = _objective(row, w6, arch, device, layout, fit)
    return empty.with_col(select_columns_min_power(
        model, empty.col, usable, n_keep, turn_on=True).col)


@dataclass(frozen=True)
class MaskUpdateInfo:
    alpha: float
    n_changed: int
    power_mw: float          # modeled layer power after the update
    n_evaluated: int         # DP cells filled (0 for a no-op)


def _switch(mask: SparsityMask, model: ColumnPowerModel, cands, key,
            n_c: int, delta_m: int, turn_on: bool, alpha: float
            ) -> tuple[SparsityMask, MaskUpdateInfo]:
    """Switch the ``n_c`` columns of lowest modeled power among the
    ``n_c + delta_m`` candidates ``cands`` (flat ids) first by ``key`` (one
    value per flat column) to ``turn_on``; ``n_c`` is clipped to the
    candidates, and a quota of zero or less changes nothing."""
    n_c = min(n_c, len(cands))
    if n_c <= 0:
        return mask, MaskUpdateInfo(alpha, 0, model.power(mask.col), 0)
    pool = ranked(cands, key[cands], n_c + delta_m)
    sel = select_columns_min_power(model, mask.col, pool, n_c, turn_on)
    return mask.with_col(sel.col), MaskUpdateInfo(alpha, n_c, sel.power_mw,
                                                  sel.n_evaluated)


def prune_step(mask: SparsityMask, weights6, schedule: DstSchedule, t: int,
               arch: ArchConfig, device: DeviceParams, layout: LayoutParams,
               fit: GammaFit = GammaFit()) -> tuple[SparsityMask, MaskUpdateInfo]:
    """Cosine-scheduled structured pruning of one layer's column mask.

    The death rate sets how many weights leave, :func:`column_quota` how
    many columns n_c that is.  The n_c + delta_m live columns of smallest
    weight norm over live rows form the pool, and the pool combination of
    lowest modeled power is pruned.  Asking for more columns than are
    live prunes everything live.
    """
    alpha = schedule.death_rate(t)
    n_c = column_quota(round_half_up(alpha * int(mask.effective6().sum())),
                       mask.row)
    return _switch(mask, _objective(mask.row, weights6, arch, device, layout, fit),
                   np.flatnonzero(mask.col), column_norms(weights6, mask.row),
                   n_c, schedule.delta_m, turn_on=False, alpha=alpha)


def grow_step(mask: SparsityMask, gradients6, weights6, s: float,
              schedule: DstSchedule, arch: ArchConfig, device: DeviceParams,
              layout: LayoutParams,
              fit: GammaFit = GammaFit()) -> tuple[SparsityMask, MaskUpdateInfo]:
    """Regrow pruned columns back up to the target density ``s``.

    The quota is the :func:`column_quota` of (target weight count -
    current).  Candidates are the pruned, non-padding columns with the
    largest gradient norm over live rows; the pool combination with the
    lowest modeled power is revived.  Regrown weights re-enter at zero, so
    growth choices differ in power only through input channels, detectors
    and rerouter splits.  With no pruned columns available this is a no-op.
    """
    if np.shape(gradients6) != np.shape(weights6):
        raise DeviceModelError("gradient tensor must match the weight tensor")
    eff = mask.effective6()
    n_c = column_quota(s * eff.size - int(eff.sum()), mask.row)
    return _switch(mask, _objective(mask.row, weights6, arch, device, layout, fit),
                   np.flatnonzero(mask.usable & ~mask.col),
                   -column_norms(gradients6, mask.row),
                   n_c, schedule.delta_m, turn_on=True, alpha=0.0)
