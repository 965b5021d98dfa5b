"""Noisy products of photonic cores and mapped layers, plus the light rerouter.

The core computes y = W x with the length-k2 input encoded as light
intensity, weights as MZI phases, and per-node balanced detectors summed
along each of the k1 output columns.  Three execution modes differ in what
happens to pruned input columns:

* ``PRUNE_ONLY``   - weight MZIs on pruned entries are powered off, but the
  full input still reaches them; extinction-ratio leakage, crosstalk and
  phase noise make the pruned weights slightly non-zero.
* ``INPUT_GATING`` - pruned columns' modulators are powered off too, so only
  the leakage fraction of the input reaches the dead weights.
* ``INPUT_GATING_LR`` - a binary-tree rerouter steers all light into the
  surviving columns (boost k2/k2'), and the readout gain is scaled back by
  k2'/k2, which rescales detector noise by the same factor.

Output gating (``output_gating=True``) forces rows whose row-mask bit is 0
to exactly zero, removing their leakage and noise from the readout.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import Executor, ThreadPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .devices import (
    DeviceModelError,
    DeviceParams,
    GammaFit,
    leakage_transmission,
    mzi_power,
    phase_to_weight,
    weight_to_phase,
)
from .layout import LayoutParams, perturbed_phases


class ExecutionMode(enum.Enum):
    PRUNE_ONLY = "prune_only"
    INPUT_GATING = "input_gating"
    INPUT_GATING_LR = "input_gating_lr"

    @classmethod
    def parse(cls, name: str) -> "ExecutionMode":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DeviceModelError(f"unknown execution mode {name!r}; expected one of {valid}")

    # Which devices each mode powers, read by the light path below and by
    # the power model in ``arch``.
    @property
    def gates_inputs(self) -> bool:
        """Pruned columns' modulators and DACs are off."""
        return self is not ExecutionMode.PRUNE_ONLY

    @property
    def redistributes(self) -> bool:
        """Rerouter on, dark columns' detectors idle, readout gain k2'/k2."""
        return self is ExecutionMode.INPUT_GATING_LR


def derive_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Deterministic per-task RNG: (root, scenario, point, trial, ...).

    Every concurrent unit of work derives its own generator from the root
    seed and an integer path, so results are independent of scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, path)]))


def check_threads(threads) -> None:
    """The one rule for a worker-thread count: an integer (not a bool) of
    at least 1, else :class:`DeviceModelError`."""
    if (isinstance(threads, bool) or not isinstance(threads, (int, np.integer))
            or threads < 1):
        raise DeviceModelError(
            f"threads must be at least 1 and an integer, got {threads!r}")


# ---------------------------------------------------------------------------
# light rerouter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RerouterState:
    """Configured binary-tree rerouter for one k2-port input module.

    ``node_phases_rad`` is heap-ordered (root first, then level by level);
    node i's children are 2i+1 and 2i+2.  ``leaf_intensities`` is the
    normalized intensity landing on each input port for unit input power.
    """

    col_mask: tuple[int, ...]
    node_phases_rad: tuple[float, ...]
    node_ratios: tuple[tuple[int, int], ...]
    leaf_intensities: tuple[float, ...]
    total_power_mw: float


def tree_leaves(k2: int) -> int:
    """Leaf count of the splitter tree serving ``k2`` ports: the next power
    of two, the extra leaves being permanently pruned dummies."""
    return 1 << (k2 - 1).bit_length()


def tree_counts(col_mask) -> list[np.ndarray]:
    """Live-leaf counts of each level of the splitter tree, leaves first.

    For (..., k2) column patterns, level h is (..., n >> h) with n =
    :func:`tree_leaves` (padding leaves dead): entry t counts the live
    leaves under node t of that level, whose children are entries 2t and
    2t+1 of level h - 1.  The last level is the root, (..., 1).
    """
    col = np.asarray(col_mask, dtype=bool)
    counts = np.zeros(col.shape[:-1] + (tree_leaves(col.shape[-1]),), dtype=np.intp)
    counts[..., :col.shape[-1]] = col
    levels = [counts]
    while counts.shape[-1] > 1:
        counts = counts[..., 0::2] + counts[..., 1::2]
        levels.append(counts)
    return levels


def _split_phase(half: int) -> np.ndarray:
    """Node phases (rad): [u, l] realizes the split u:(u+l) of a node with u
    live leaves under its upper subtree and l under its lower one (0 <= u,
    l <= ``half``), 2*arccos(sqrt(u/(u+l))) - pi/2; a dead subtree (u + l
    = 0) leaves the splitter at its zero-power balanced point."""
    return np.array([[2.0 * math.acos(math.sqrt(u / (u + lo))) - math.pi / 2
                      if u + lo else 0.0 for lo in range(half + 1)]
                     for u in range(half + 1)])


def rerouter_node_mw(k2: int, arm_spacing_um: float = 9.0,
                     params: DeviceParams = DeviceParams(),
                     fit: GammaFit = GammaFit()) -> np.ndarray:
    """Heater power (mW) of one splitter node of a ``k2``-port rerouter.

    ``node_mw[u, l]`` is the power of a node with u unpruned leaves under
    its upper subtree and l under its lower one (0 <= u, l <= n/2, n =
    :func:`tree_leaves`).  A node's power depends on nothing else, so a
    configured tree's power is this table summed over its nodes.
    """
    if k2 < 1:
        raise DeviceModelError("a rerouter needs at least one port")
    return mzi_power(np.abs(_split_phase(tree_leaves(k2) // 2)),
                     arm_spacing_um, params, fit)


def rerouter_tree_mw(col_mask, node_mw) -> np.ndarray:
    """Rerouter power (mW) of each (..., k2) column pattern: ``node_mw``
    (from :func:`rerouter_node_mw`) summed over the tree, level by level."""
    levels = tree_counts(col_mask)
    total = np.zeros(levels[0].shape[:-1])
    for counts in levels[:-1]:
        total += node_mw[counts[..., 0::2], counts[..., 1::2]].sum(axis=-1)
    return total


def rerouter_configure(col_mask, arm_spacing_um: float = 9.0,
                       params: DeviceParams = DeviceParams(),
                       fit: GammaFit = GammaFit()) -> RerouterState:
    """Set the tree splitters so active ports share the light evenly.

    Each internal node splits its intensity in the ratio u:(u+l) of
    unpruned leaves under its upper vs. lower subtree (counted by
    :func:`tree_counts`), at the phase :func:`rerouter_node_mw` prices; a
    dead subtree leaves the splitter at its zero-power balanced point.  A
    leaf's intensity is the product of the ratios on its path, so a dead
    leaf reads exactly 0.0.  Non-power-of-two port counts are padded with
    permanently pruned dummy leaves.  ``col_mask`` must be 1-D and
    non-empty.
    """
    mask = np.asarray(col_mask).astype(bool)
    if mask.ndim != 1:
        raise DeviceModelError(f"column mask must be 1-D, got shape {mask.shape}")
    if mask.size == 0:
        raise DeviceModelError("column mask must be non-empty")
    levels = tree_counts(mask)
    phase = _split_phase(levels[0].size // 2)

    # Level by level from the root (unit input): heap order.
    ups, los = [], []
    intens = np.ones(1)
    for counts in levels[-2::-1]:
        up, lo = counts[0::2], counts[1::2]
        frac_up = np.divide(up, up + lo, out=np.full(up.shape, 0.5),
                            where=up + lo > 0)
        intens = np.stack([intens * frac_up, intens * (1.0 - frac_up)],
                          axis=-1).reshape(-1)
        ups += up.tolist()
        los += lo.tolist()

    node_mw = rerouter_node_mw(mask.size, arm_spacing_um, params, fit)
    return RerouterState(
        col_mask=tuple(mask.astype(int).tolist()),
        node_phases_rad=tuple(phase[ups, los].tolist()),
        node_ratios=tuple(zip(ups, los)),
        leaf_intensities=tuple(intens[:mask.size].tolist()),
        total_power_mw=float(rerouter_tree_mw(mask, node_mw)),
    )


# ---------------------------------------------------------------------------
# noisy MVM
# ---------------------------------------------------------------------------

def _mvm_args(x, w, row_mask, col_mask, rng):
    """Arrays and generator of a product call, range-checked."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    row = np.asarray(row_mask, dtype=bool)
    col = np.asarray(col_mask, dtype=bool)
    if w.ndim < 2:
        raise DeviceModelError("weight array must be at least 2-D (k1, k2)")
    k1, k2 = w.shape[-2], w.shape[-1]
    # Reductions, so no full-size temporaries; NaN (the min and max of an
    # array holding one) fails the range checks.
    if w.size and not (-1.0 <= w.min() and w.max() <= 1.0):
        raise DeviceModelError("weights must lie in [-1, 1]")
    if x.size and not (0.0 <= x.min() and x.max() <= 1.0):
        raise DeviceModelError("inputs must lie in [0, 1]")
    if row.shape[-1:] != (k1,):
        raise DeviceModelError(f"row mask must have {k1} entries")
    if col.shape[-1:] != (k2,):
        raise DeviceModelError(f"column mask must have {k2} entries")
    if not isinstance(rng, np.random.Generator):
        rng = derive_rng(0 if rng is None else rng)
    return x, w, row, col, rng


def _readouts(readouts) -> list[tuple[ExecutionMode, bool]]:
    """(mode, output_gating) pairs, modes parsed; at least one."""
    pairs = [(m if isinstance(m, ExecutionMode) else ExecutionMode.parse(str(m)),
              bool(og)) for m, og in readouts]
    if not pairs:
        raise DeviceModelError("readouts must name at least one (mode, output_gating) pair")
    return pairs


def _batch_shape(**leads) -> tuple[int, ...]:
    """The broadcast of the named leading (batch) shapes."""
    try:
        return np.broadcast_shapes(*leads.values())
    except ValueError:
        raise DeviceModelError("leading dimensions do not broadcast: " + ", ".join(
            f"{name} {shape}" for name, shape in leads.items())) from None


def _phase_noise(shape, params: DeviceParams, rng: np.random.Generator):
    """One phase-noise draw per MZI of ``shape``, or None when it is off."""
    if params.phase_noise_sigma_rad > 0:
        return rng.normal(0.0, params.phase_noise_sigma_rad, size=shape)
    return None


def _target(phases, row, col):
    """Masked target phases (..., p, q, r, c, k1, k2) of the (..., p, q, r,
    c, k1, k2) ``phases`` under a (..., r, k1) row mask and a (..., p, q,
    c, k2) column mask.  A pruned MZI drives zero phase, weight_to_phase(0)
    = -0.0."""
    return np.where(col[..., :, :, None, :, None, :],
                    np.where(row[..., None, None, :, None, :, None], phases, -0.0),
                    -0.0)


def _realize(w_out, buf, phases, noise, row_p, col_p, layout, params, fit):
    """Realized weights of a batch of cores, written into ``w_out``.

    ``phases`` holds masked phases, (..., p, q, r, c, k1, k2) (see
    :func:`_target`): a pruned MZI drives zero phase, so it aggresses
    nobody but still receives crosstalk.  ``layout``'s crosstalk is written
    straight into the realization; with ``layout`` None the phases are
    taken as they are (crosstalk off, or a shared mapping already crossed,
    see :func:`_light_path`).  ``noise`` (from :func:`_phase_noise`, one
    draw per core) is added after it.  The light path is realized in
    ``buf``, laid out as the contraction's matrix (..., p, r*k1, q*c*k2):
    ``w_out`` itself, or under phase noise a float32 array of its shape,
    cast into ``w_out`` after the sine.  ``row_p`` (..., 1, r*k1, 1) and
    ``col_p`` (..., p, 1, q*c*k2) are the masks in that layout.  A
    powered-off weight keeps the extinction-ratio floor.  No step depends
    on the mode, so one realization serves every mode, each folding its
    input side into it (see :func:`_light_path`).
    """
    p, q, r, c, k1, k2 = phases.shape[-6:]
    w_cores = np.moveaxis(buf.reshape(buf.shape[:-3] + (p, r, k1, q, c, k2)),
                          (-3, -2), (-5, -3))  # a (..., p, q, r, c, k1, k2) view
    if layout is not None:
        phases = perturbed_phases(phases, layout, fit, out=w_cores)
    if noise is not None:
        np.add(phases, noise, out=w_cores)
    elif phases is not w_cores:
        np.copyto(w_cores, phases)
    phase_to_weight(buf, out=buf)
    if buf is not w_out:
        np.copyto(w_out, buf)

    # Extinction-ratio floor: a powered-off weight cannot sit closer to zero
    # than the leakage transmission; it keeps its sign (0 counts as +).
    if not (row_p.all() and col_p.all()):
        tau = leakage_transmission(params)
        small = w_out < tau
        small &= w_out > -tau
        np.less(row_p & col_p, small, out=small)  # and powered off
        flat = w_out.reshape(-1)
        lifted = np.flatnonzero(small)
        flat[lifted] = np.where(flat[lifted] >= 0, tau, -tau)
    return w_out


def _detector_sd(row, col, mode, params, shape):
    """Detector-noise sd of each output of a mode's readout, (..., p*r*k1, 1).

    A core's sigma is sigma_pd*sqrt(k2) (k2 nodes summed along an output
    column), times k2'/k2 under redistribution; an output sums its (q, c)
    cores' normals, of variance sum_{q,c} sigma^2.
    """
    row = row[..., :, None, :]        # (..., r, 1, k1)
    col = col[..., None, :, :]        # (..., p, q, 1, c, k2)
    sigma = np.full(row.shape, params.pd_noise_sigma * math.sqrt(col.shape[-1]))
    if mode.redistributes:
        sigma = sigma * col.mean(axis=-1, keepdims=True)
    var = np.broadcast_to(sigma ** 2, shape)
    p, r, k1 = shape[-5], shape[-3], shape[-1]  # no -1: a batch may be empty
    return np.sqrt(var.sum(axis=(-4, -2))).reshape(shape[:-5] + (p * r * k1, 1))


def _light_path(x2d, w, rows, col, readouts, layouts, lead, params, fit, rng,
                coupling_free, threads=1, out=None, pool=None):
    """Noisy products of a batch of mapped layers: the one light path of
    :func:`simulate_mvm_batch` and :func:`simulate_layer_readouts`.

    ``w`` is (..., p, q, r, c, k1, k2), ``x2d`` (..., q*c*k2, m), ``rows`` a
    (g, ..., r, k1) stack of row masks, ``col`` (..., p, q, c, k2), and
    ``lead`` the broadcast of the leading (batch) shapes.  The phase noise
    (one draw per core) and the detector normals (one per output and
    vector) are drawn once, in that order, for every layout and row mask.
    Each (row mask, layout) is realized in turn into one buffer.  Each mode
    folds its input side into that buffer in place, and one contraction
    with ``x2d``, written into the mode's first readout, gives its product;
    the mode's other readouts copy it.  Output gating acts on the product:
    a gated readout has its dead rows set to 0.0.  Returns one array,
    (len(layouts), g, len(readouts)) + lead + (p*r*k1, m): ``out`` when it
    is given.

    The seed axis is cut into n = min(``threads``, seeds) contiguous
    slices after the draws (n = 1 when the realized cores carry no seed
    axis), and row mask by row mask each slice is realized, folded,
    contracted and gated into its own slice of the buffer and the result:
    inline for n = 1, else on n worker threads.  A mapping several
    realized cores share (its batch shape is not theirs) is crossed on the
    caller's thread once per (row mask, layout); any other is crossed
    slice by slice straight into the buffer.  Each seed's arithmetic is
    the same in every slice, so the products do not depend on ``threads``.

    With ``pool`` (an executor) and n = 1, the detector normals are drawn
    on it, into an array allocated here, while this thread realizes and
    contracts; it waits for them just before the first noise add.  They
    come from ``rng`` after the phase noise, as inline, and nothing else
    reads ``rng`` before the wait, so the stream and the products are the
    same.  The draw is waited for before this returns, also on an error.

    Precision: under phase noise (sigma 1e-2 rad by default, far above
    float32's 6e-8) the crosstalk, the noise add and the sine run in
    float32; the target phases, the folds, the contraction and the
    detector noise stay float64.  Without phase noise every step is
    float64, so a quiet product is exact.
    """
    *_, p, q, r, c, k1, k2 = w.shape
    m = x2d.shape[-1]
    noise = _phase_noise(lead + w.shape[-6:], params, rng)
    phases = weight_to_phase(w)
    if noise is not None:
        phases = phases.astype(np.float32)
    # Under phase noise each core of the lead is realized on its own, so
    # several of them can read one mapping (row, weight and column leads).
    mapped = np.broadcast_shapes(rows.shape[1:-2], w.shape[:-6], col.shape[:-4])
    cores = lead if noise is not None else mapped
    shared = not coupling_free and mapped != cores
    # One buffer serves every realization.
    w_real = np.empty(cores + (p, r * k1, q * c * k2))
    buf = w_real if noise is None else np.empty(w_real.shape, np.float32)
    if out is None:
        out = np.empty((len(layouts), len(rows), len(readouts)) + lead
                       + (p * r * k1, m))
    n = min(threads, cores[0]) if len(cores) == len(lead) > 0 else 1
    slices = ([slice(cores[0] * i // n, cores[0] * (i + 1) // n) for i in range(n)]
              if n > 1 else [slice(None)])

    def run(seeds, row, ys, crossed):
        def cut(a, tail, axis=0):
            # Batch axes start at ``axis`` and end before ``tail`` core
            # axes; a broadcast seed axis is shared whole.
            if a is None or a.ndim - axis - tail != len(lead) or a.shape[axis] == 1:
                return a
            return a[(slice(None),) * axis + (seeds,)]

        _read_seeds(cut(x2d, 2), cut(phases, 6), cut(row, 2), cut(col, 4),
                    cut(noise, 6), cut(normals, 2), cut(w_real, 3), cut(buf, 3),
                    cut(ys, 2, 2), readouts, layouts, params, fit,
                    coupling_free, crossed and [cut(a, 6) for a in crossed],
                    drawn)

    normals = drawn = None
    if params.pd_noise_sigma > 0:
        normals = np.empty(lead + (p * r * k1, m))
        draw = partial(rng.standard_normal, out=normals)
        if pool is None or n > 1:
            draw()
        else:
            drawn = pool.submit(draw)
    try:
        with ThreadPoolExecutor(max_workers=n) if n > 1 else nullcontext() as workers:
            for ig, row in enumerate(rows):
                crossed = None
                if shared:
                    target = _target(phases, row, col)
                    crossed = [perturbed_phases(target, layout, fit)
                               for layout in layouts]
                work = partial(run, row=row, ys=out[:, ig], crossed=crossed)
                list(map(work, slices) if workers is None else workers.map(work, slices))
    finally:
        if drawn is not None:
            wait([drawn])
    return out


def _read_seeds(x2d, phases, row, col, noise, normals, w_real, buf, ys,
                readouts, layouts, params, fit, coupling_free, crossed, drawn):
    """The body of :func:`_light_path` for one row mask and the seeds of
    ``ys``, its (len(layouts), len(readouts), ..., p*r*k1, m) products:
    realize, fold, contract and gate every layout into ``ys``, with
    ``w_real`` and ``buf`` the realization buffers of those seeds.
    ``crossed[layout]``, when given, is the crosstalk pass of a shared
    mapping.  ``drawn``, when given, is the job filling ``normals``."""
    *_, p, q, r, c, k1, k2 = phases.shape
    lead, m = ys.shape[2:-2], ys.shape[-1]
    cores = w_real.shape[:-3]
    row_p = row.reshape(row.shape[:-2] + (1, r * k1, 1))
    dead_rows = ~row_p
    col_p = col.reshape(col.shape[:-3] + (1, q * c * k2))
    dead_cols = ~col_p
    col_gain = np.where(col_p, 1.0, leakage_transmission(params))
    # Declaration order: each mode only adds zeroing or scaling of dead
    # columns to the one before, so they fold one realization in place.
    modes = [mode for mode in ExecutionMode
             if any(each is mode for each, _ in readouts)]
    sds = {} if normals is None else {
        mode: _detector_sd(row, col, mode, params, lead + (p, q, r, c, k1))
        for mode in modes}
    target = _target(phases, row, col) if crossed is None else None
    for il, layout in enumerate(layouts):
        _realize(w_real, buf, target if crossed is None else crossed[il], noise,
                 row_p, col_p, None if crossed or coupling_free else layout,
                 params, fit)
        for mode in modes:
            # Rerouted light reads dead columns as 0 (boost k2/k2'
            # times readout gain k2'/k2 is 1); a gated modulator scales
            # them by its leakage tau.
            if mode.redistributes:
                np.copyto(w_real, 0.0, where=dead_cols)
            elif mode.gates_inputs:
                w_real *= col_gain
            first, *rest = [i for i, (each, _) in enumerate(readouts) if each is mode]
            np.matmul(w_real.reshape(cores + (p * r * k1, q * c * k2)), x2d,
                      out=ys[il, first])
            if mode in sds:
                if drawn is not None:
                    drawn.result()
                ys[il, first] += sds[mode] * normals
            ys[il, rest] = ys[il, first]
        for y, (_, output_gating) in zip(ys[il], readouts):
            if output_gating:
                np.copyto(y.reshape(lead + (p, r * k1, m)), 0.0,
                          where=dead_rows)


def simulate_mvm_batch(x, w, row_mask, col_mask, mode: ExecutionMode,
                       layout: LayoutParams,
                       params: DeviceParams = DeviceParams(),
                       fit: GammaFit = GammaFit(),
                       rng: np.random.Generator | int | None = 0,
                       output_gating: bool = True,
                       coupling_free: bool = False) -> np.ndarray:
    """Vectorized engine behind :func:`simulate_mvm`, one output per core.

    ``w`` has shape (..., k1, k2) and ``x`` (..., k2, n); leading dimensions
    batch independent cores sharing one RNG stream.  Phase noise is drawn
    once per core; detector noise is one N(0, sigma) draw per output and
    vector, sigma = sigma_pd*sqrt(k2) (k2 nodes summed along an output
    column) times k2'/k2 under redistribution, 0 on gated rows.
    """
    x, w, row, col, rng = _mvm_args(x, w, row_mask, col_mask, rng)
    if x.ndim < 2 or x.shape[-2] != w.shape[-1]:
        raise DeviceModelError(f"inputs {x.shape} must be (..., {w.shape[-1]}, n) "
                               f"for weights {w.shape}")
    readouts = _readouts([(mode, output_gating)])
    cores = _batch_shape(x=x.shape[:-2], w=w.shape[:-2], row_mask=row.shape[:-1],
                         col_mask=col.shape[:-1])
    # A core is the p = q = r = c = 1 layer.
    return _light_path(x, w[..., None, None, None, None, :, :],
                       row[None, ..., None, :], col[..., None, None, None, :],
                       readouts, [layout], cores, params, fit, rng,
                       coupling_free)[0, 0, 0]


def simulate_layer_readouts(x, w6, row_masks, col_mask, readouts, layouts,
                            params: DeviceParams = DeviceParams(),
                            fit: GammaFit = GammaFit(),
                            rng: np.random.Generator | int | None = 0,
                            coupling_free: bool = False, threads: int = 1,
                            out: np.ndarray | None = None,
                            pool: Executor | None = None) -> np.ndarray:
    """One mapped layer's noisy products under several layouts, row masks
    and readouts, sharing every noise draw.

    ``w6`` is the (p, q, r, c, k1, k2) weight partition, ``x`` (..., q, c,
    k2, m), ``row_masks`` a (g, r, k1) stack of row masks, ``col_mask``
    (..., p, q, c, k2), ``readouts`` a sequence of (mode, output_gating)
    pairs and ``layouts`` a sequence of :class:`LayoutParams`.  The phase
    noise and the detector normals are drawn once.  Each (layout, row
    mask) is realized in turn, one realization alive at a time, into the
    contraction's matrix (p*r*k1, q*c*k2); each mode folds it in place and
    one contraction gives (..., p*r*k1, m).  Detector noise is one normal
    per output and vector, of variance sum_{q,c} sigma^2 (per-core normals
    summed), scaled by each mode's sigma.  Output gating sets the dead
    rows of a mode's product to 0.0.

    Returns one array, (len(layouts), g, len(readouts), ..., p*r*k1, m),
    whose [layout, row mask, readout] slice equals bit for bit a
    :func:`simulate_layer` call with that layout, row mask and readout and
    an identically seeded generator.  ``out``, a C-contiguous float64 array
    of that shape, receives the products when it is given.

    The products do not depend on ``threads``, of which at most one worker
    per seed runs, nor on ``pool``, an executor that draws the detector
    normals of a call that does not split its seeds (see
    :func:`_light_path`).
    """
    x, w6, row, col, rng = _mvm_args(x, w6, row_masks, col_mask, rng)
    readouts = _readouts(readouts)
    if w6.ndim != 6:
        raise DeviceModelError("layer weights must be partitioned (p, q, r, c, k1, k2)")
    p, q, r, c, k1, k2 = w6.shape
    if (row.ndim != 3
            or (x.shape[-4:-1], row.shape[-2:], col.shape[-4:])
            != ((q, c, k2), (r, k1), (p, q, c, k2))):
        raise DeviceModelError(
            f"inputs {x.shape}, row masks {row.shape} or column mask "
            f"{col.shape} does not fit the {w6.shape} partition")
    layouts = list(layouts) if np.iterable(layouts) else []
    if not layouts or not all(isinstance(lay, LayoutParams) for lay in layouts):
        raise DeviceModelError("layouts must be a non-empty sequence of LayoutParams")
    check_threads(threads)
    lead = _batch_shape(x=x.shape[:-4], col_mask=col.shape[:-4])
    shape = (len(layouts), len(row), len(readouts)) + lead + (p * r * k1, x.shape[-1])
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == shape
                                and out.dtype == np.float64
                                and out.flags.c_contiguous and out.flags.writeable):
        raise DeviceModelError(f"out must be a writeable C-contiguous float64 "
                               f"array of shape {shape}")
    return _light_path(x.reshape(x.shape[:-4] + (q * c * k2, x.shape[-1])), w6,
                       row, col, readouts, layouts, lead, params, fit, rng,
                       coupling_free, threads, out, pool)


def simulate_layer(x, w6, row_mask, col_mask, mode: ExecutionMode,
                   layout: LayoutParams,
                   params: DeviceParams = DeviceParams(),
                   fit: GammaFit = GammaFit(),
                   rng: np.random.Generator | int | None = 0,
                   output_gating: bool = True,
                   coupling_free: bool = False,
                   pool: Executor | None = None) -> np.ndarray:
    """One mapped layer's noisy product (..., p*r*k1, m), every chunk and
    core in one pass: the [0, 0, 0] slice of
    :func:`simulate_layer_readouts` with one layout, row mask and readout
    (and ``pool``).  ``row_mask`` is (r, k1)."""
    return simulate_layer_readouts(x, w6, np.asarray(row_mask)[None], col_mask,
                                   [(mode, output_gating)], [layout], params,
                                   fit, rng, coupling_free,
                                   pool=pool)[0, 0, 0]


def simulate_mvm(x, w, row_mask=None, col_mask=None,
                 mode: ExecutionMode = ExecutionMode.PRUNE_ONLY,
                 layout: LayoutParams = LayoutParams(),
                 params: DeviceParams = DeviceParams(),
                 fit: GammaFit = GammaFit(),
                 rng_seed: np.random.Generator | int | None = 0,
                 output_gating: bool = True,
                 coupling_free: bool = False) -> np.ndarray:
    """One noisy MVM on a single k1 x k2 core.

    ``x`` is a length-k2 vector in [0, 1] (or a (k2, n) batch sharing one
    weight mapping), ``w`` a (k1, k2) weight matrix in [-1, 1]; masks
    default to all-ones.  Identical arguments and seed reproduce the result
    bit for bit.
    """
    k1, k2 = np.shape(w)
    row = np.ones(k1, dtype=bool) if row_mask is None else row_mask
    col = np.ones(k2, dtype=bool) if col_mask is None else col_mask
    squeeze = np.ndim(x) == 1
    y = simulate_mvm_batch(np.asarray(x)[:, None] if squeeze else x, w, row,
                           col, mode, layout, params, fit, rng_seed,
                           output_gating, coupling_free=coupling_free)
    return y[:, 0] if squeeze else y


def ideal_mvm(x, w, row_mask=None, col_mask=None) -> np.ndarray:
    """Noise-free masked product, the reference for error metrics."""
    w = np.asarray(w, dtype=float)
    k1, k2 = w.shape[-2], w.shape[-1]
    row = np.ones(k1, dtype=bool) if row_mask is None else np.asarray(row_mask, dtype=bool)
    col = np.ones(k2, dtype=bool) if col_mask is None else np.asarray(col_mask, dtype=bool)
    masked = np.where(row[..., :, None] & col[..., None, :], w, 0.0)
    return masked @ np.asarray(x, dtype=float)


def nmae(y_actual, y_reference, scratch: np.ndarray | None = None) -> float:
    """Normalized mean absolute error: mean|y - ref| / mean|ref|.

    ``scratch``, a float64 array of the operands' shape, takes |ref| and
    |y - ref| in turn instead of new arrays; the value is the same.
    Raises when the operands are empty or the reference is identically zero
    (the metric is undefined).
    """
    actual = np.asarray(y_actual, dtype=float)
    ref = np.asarray(y_reference, dtype=float)
    if actual.shape != ref.shape:
        raise DeviceModelError("N-MAE operands must have identical shapes")
    if ref.size == 0:
        raise DeviceModelError("N-MAE is undefined for empty operands")
    denom = np.mean(np.abs(ref, out=scratch))
    if denom == 0.0:
        raise DeviceModelError("N-MAE is undefined for an all-zero reference")
    diff = np.subtract(actual, ref, out=scratch)
    return float(np.mean(np.abs(diff, out=diff)) / denom)
