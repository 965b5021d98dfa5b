"""Structured masks, partitioning, schedules and power-aware prune/grow."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ptcsim.arch import UNIFORM_MEAN_PHASE_RAD, ArchConfig
from ptcsim.core import ExecutionMode
from ptcsim.devices import DeviceModelError, DeviceParams
from ptcsim.layout import LayoutParams
from ptcsim.sparsity import (
    ColumnPowerModel,
    DstSchedule,
    SparsityMask,
    column_norms,
    column_quota,
    combinations_capped,
    departition,
    grow_step,
    init_masks,
    interleaved_ones,
    interleaved_rows,
    mask_power,
    padded_column_mask,
    partition,
    partition_dims,
    prune_step,
    ranked,
    round_half_up,
    select_columns_min_power,
)
from ptcsim.training import DESK_ARCH

DEV = DeviceParams()
LAY = LayoutParams()
# 2x2 chunks: small enough that combination search is exhaustively checkable.
SMALL = ArchConfig(R=2, C=2, k1=2, k2=2, r=1, c=1)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(3.5) == 4
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(-1.5) == -1
    assert round_half_up(0.0) == 0
    assert round_half_up(7.0) == 7


# ---------------------------------------------------------------------------
# row patterns and partitioning
# ---------------------------------------------------------------------------

def test_interleaved_ones_known_patterns():
    assert interleaved_ones(8, 6).astype(int).tolist() == [1, 1, 1, 1, 1, 0, 1, 0]
    assert interleaved_ones(8, 4).astype(int).tolist() == [1, 0, 1, 0, 1, 0, 1, 0]
    assert interleaved_ones(8, 8).all()
    assert interleaved_ones(7, 4).astype(int).tolist() == [1, 1, 0, 1, 0, 1, 0]


def test_interleaved_ones_rejects_low_density():
    with pytest.raises(DeviceModelError, match="density >= 0.5"):
        interleaved_ones(8, 3)
    with pytest.raises(DeviceModelError):
        interleaved_ones(8, 9)
    with pytest.raises(DeviceModelError):
        interleaved_ones(8, -1)


@given(st.integers(1, 32), st.data())
def test_interleaved_ones_never_puts_zeros_adjacent(n, data):
    lo = n - (n + 1) // 2
    n_ones = data.draw(st.integers(lo, n))
    mask = interleaved_ones(n, n_ones)
    assert int(mask.sum()) == n_ones
    assert not np.any(~mask[:-1] & ~mask[1:])


def test_partition_dims_and_roundtrip():
    assert partition_dims(5, 7, SMALL) == (3, 4)  # 2x2 chunks
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 7))
    w6 = partition(w, SMALL)
    assert w6.shape == (3, 4, 1, 1, 2, 2)
    assert np.array_equal(departition(w6, 5, 7), w)
    # the padding introduced by the chunk grid is exactly zero
    full = departition(w6, 6, 8)
    assert np.all(full[5:, :] == 0.0) and np.all(full[:, 7:] == 0.0)


def test_partition_validation():
    with pytest.raises(DeviceModelError):
        partition(np.zeros(4), SMALL)
    with pytest.raises(DeviceModelError):
        partition_dims(0, 3, SMALL)
    with pytest.raises(DeviceModelError, match="exceed"):
        departition(partition(np.zeros((2, 2)), SMALL), 3, 2)


def test_padded_column_mask_flags_tail_positions():
    pad = padded_column_mask(7, 4, SMALL)
    assert pad.shape == (4, 1, 2)
    assert int(pad.sum()) == 1 and bool(pad[3, 0, 1])
    assert not padded_column_mask(8, 4, SMALL).any()


# ---------------------------------------------------------------------------
# SparsityMask
# ---------------------------------------------------------------------------

def _mask_2x2() -> SparsityMask:
    row = np.array([[True, False], [True, True]])       # (r, k1) = (2, 2)
    col = np.ones((1, 2, 1, 2), dtype=bool)
    col[0, 1, 0, 1] = False
    pad = np.zeros((2, 1, 2), dtype=bool)
    return SparsityMask(row, col, pad)


def test_sparsity_mask_effective_and_density():
    arch = ArchConfig(R=2, C=2, k1=2, k2=2, r=2, c=1)
    mask = _mask_2x2()
    assert mask.shape6 == (1, 2, 2, 1, 2, 2)
    eff = mask.effective6()
    assert eff.shape == mask.shape6
    # an element is live iff both its row and its chunk's column are live
    for p, q, r, c, k1, k2 in itertools.product(*(range(s) for s in eff.shape)):
        assert eff[p, q, r, c, k1, k2] == (mask.row[r, k1] and mask.col[p, q, c, k2])
    assert mask.density() == pytest.approx(eff.mean())
    dense = mask.to_dense(4, 4)
    assert dense.shape == (4, 4)
    assert np.array_equal(dense, departition(eff, 4, 4))
    del arch


def test_sparsity_mask_validation_and_immutability():
    mask = _mask_2x2()
    with pytest.raises(ValueError):
        mask.row[0, 0] = False
    with pytest.raises(DeviceModelError, match="row mask"):
        SparsityMask(np.ones(4, dtype=bool), mask.col, mask.padded_col)
    with pytest.raises(DeviceModelError, match="column mask"):
        SparsityMask(mask.row, np.ones((2, 1, 2), dtype=bool), mask.padded_col)
    pad = np.zeros((2, 1, 2), dtype=bool)
    pad[1, 0, 1] = True  # overlaps a live column
    with pytest.raises(DeviceModelError, match="padded columns"):
        SparsityMask(mask.row, np.ones((1, 2, 1, 2), dtype=bool), pad)
    with pytest.raises(DeviceModelError, match="at least one row"):
        SparsityMask(np.zeros_like(mask.row), mask.col, mask.padded_col)


def test_usable_marks_every_non_padding_column():
    pad = np.zeros((2, 1, 2), dtype=bool)
    pad[1, 0, 1] = True
    col = np.zeros((3, 2, 1, 2), dtype=bool)
    mask = SparsityMask(np.ones((1, 2), dtype=bool), col, pad)
    assert mask.usable.shape == col.shape
    assert np.array_equal(mask.usable, ~np.broadcast_to(pad, col.shape))
    assert int(mask.usable.sum()) == 3 * 3


def test_column_norms_read_only_live_rows():
    rng = np.random.default_rng(3)
    a6 = rng.normal(size=(2, 3, 2, 2, 3, 4))
    row = np.array([[True, False, True], [False, True, False]])
    got = column_norms(a6, row)
    assert got.shape == (2 * 3 * 2 * 4,)
    want = np.array([math.sqrt(sum(a6[p, q, r, c, k1, k2] ** 2
                                   for r in range(2) for k1 in range(3)
                                   if row[r, k1]))
                     for p, q, c, k2 in itertools.product(
                         range(2), range(3), range(2), range(4))])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_ranked_orders_by_key_then_lower_id():
    ids = np.array([9, 4, 7, 2, 5])
    key = np.array([1.0, 0.5, 1.0, 2.0, 0.5])
    assert ranked(ids, key, 3).tolist() == [4, 5, 7]
    assert ranked(ids, key, 10).tolist() == [4, 5, 7, 9, 2]
    assert ranked(ids, -key, 2).tolist() == [2, 7]
    assert ranked(ids[:0], key[:0], 2).size == 0


def test_column_quota_counts_one_weight_per_live_row():
    row = np.array([[True, False, True, True]])
    assert column_quota(12, row) == 4
    assert column_quota(4.5, row) == 2       # 1.5 rounds half up
    assert column_quota(-3, row) == -1


def test_with_col_replaces_only_the_column_mask():
    mask = _mask_2x2()
    new_col = np.zeros_like(mask.col)
    out = mask.with_col(new_col)
    assert not out.col.any()
    assert np.array_equal(out.row, mask.row)
    assert np.array_equal(out.padded_col, mask.padded_col)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_death_rate_cosine_endpoints():
    sched = DstSchedule(alpha0=0.4, t_end=10)
    assert sched.death_rate(0) == pytest.approx(0.4)
    assert sched.death_rate(5) == pytest.approx(0.2)
    assert sched.death_rate(9) > 0.0
    assert sched.death_rate(10) == 0.0
    assert sched.death_rate(999) == 0.0
    rates = [sched.death_rate(t) for t in range(11)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(DeviceModelError):
        sched.death_rate(-1)


def test_schedule_for_epochs_and_validation():
    assert DstSchedule.for_epochs(50).t_end == 40
    assert DstSchedule.for_epochs(1).t_end == 1
    assert DstSchedule.for_epochs(4, t_end_frac=0.8).t_end == 3
    with pytest.raises(DeviceModelError):
        DstSchedule(alpha0=0.0)
    with pytest.raises(DeviceModelError):
        DstSchedule(alpha0=1.5)
    with pytest.raises(DeviceModelError):
        DstSchedule(t_end=0)
    with pytest.raises(DeviceModelError):
        DstSchedule(delta_m=-1)
    with pytest.raises(DeviceModelError):
        DstSchedule.for_epochs(0)
    for t_end_frac in (0.0, 1.5):
        with pytest.raises(DeviceModelError, match="t_end_frac"):
            DstSchedule.for_epochs(10, t_end_frac=t_end_frac)


# ---------------------------------------------------------------------------
# capped combination enumeration
# ---------------------------------------------------------------------------

def _comb_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """Reference: rank-th k-subset of range(n) in lexicographic order."""
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


def _rows(combos: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(row) for row in combos.tolist()]


def test_combinations_capped_matches_itertools_when_small():
    for n, k in [(5, 2), (4, 4), (3, 0), (6, 1)]:
        assert _rows(combinations_capped(n, k, 10000)) == list(
            itertools.combinations(range(n), k))


def test_combinations_capped_sampling_is_a_lex_slice():
    full = list(itertools.combinations(range(6), 3))   # 20 subsets
    got = _rows(combinations_capped(6, 3, 5))
    assert len(got) == 5
    assert got[0] == full[0] and got[-1] == full[-1]
    assert got == sorted(got)                          # still lexicographic
    assert len(set(got)) == 5
    assert all(combo in full for combo in got)
    # ranks follow i*(total-1)//(cap-1)
    assert got == [full[i * 19 // 4] for i in range(5)]


def test_combinations_capped_edge_cases():
    assert _rows(combinations_capped(6, 3, 1)) == [(0, 1, 2)]
    with pytest.raises(DeviceModelError):
        combinations_capped(3, 4, 10)
    with pytest.raises(DeviceModelError):
        combinations_capped(3, 2, 0)


@given(st.data())
def test_combinations_capped_matches_the_reference_unrank(data):
    n = data.draw(st.integers(0, 30), label="n")
    k = data.draw(st.integers(0, n), label="k")
    total = math.comb(n, k)
    # caps past 2000 only add rows to the slice; the reference is slow there
    cap = data.draw(st.integers(1, min(total + 2, 2000)), label="cap")
    got = combinations_capped(n, k, cap)
    if total <= cap:
        ranks = range(total)
    elif cap == 1:
        ranks = [0]
    else:
        ranks = [i * (total - 1) // (cap - 1) for i in range(cap)]
    assert _rows(got) == [_comb_unrank(n, k, rank) for rank in ranks]
    assert got.shape == (len(ranks), k)
    assert got.dtype == np.min_scalar_type(max(n - 1, 0))


def test_combinations_capped_walk_pool_is_uint16_and_ends_on_the_last_subset():
    got = combinations_capped(348, 346, 10000)
    assert got.shape == (10000, 346) and got.dtype == np.uint16
    total = math.comb(348, 346)
    for i in (0, 1, 4999, 9999):
        assert tuple(got[i].tolist()) == _comb_unrank(348, 346,
                                                      i * (total - 1) // 9999)


@pytest.mark.parametrize("n, k", [(67, 33), (100, 50), (100, 60)])
def test_combinations_capped_rejects_ranks_past_int64(n, k):
    assert math.comb(n, k) >= 2 ** 63
    with pytest.raises(DeviceModelError, match=f"n={n}, k={k}"):
        combinations_capped(n, k, 10)


def test_combinations_capped_rejects_samples_past_2_pow_31():
    assert math.comb(40, 20) > 2 ** 31 + 1
    with pytest.raises(DeviceModelError, match="n=40, k=20"):
        combinations_capped(40, 20, 2 ** 31 + 1)
    # a cap above the subset count is no sample: every subset is returned
    assert combinations_capped(5, 2, 2 ** 40).shape == (10, 2)


def test_combinations_capped_takes_the_largest_int64_domain():
    n, k = 66, 33    # C(66, 33) < 2**63 <= C(67, 33)
    total = math.comb(n, k)
    assert total < 2 ** 63 <= math.comb(n + 1, k)
    got = combinations_capped(n, k, 3)
    assert _rows(got) == [_comb_unrank(n, k, r)
                          for r in (0, (total - 1) // 2, total - 1)]


# ---------------------------------------------------------------------------
# power model
# ---------------------------------------------------------------------------

def test_column_power_model_matches_chunk_power_sum():
    """The p*q model must equal the sum of its one-chunk models, in every
    mode and with output gating on and off; the uniform-phase estimate
    (weights6=None) must price one chunk of weights at the mean phase."""
    arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=2, c=1)
    rng = np.random.default_rng(11)
    w = rng.uniform(-1.0, 1.0, size=(7, 9))
    w6 = partition(w, arch)
    wn6 = w6 / np.max(np.abs(w6))
    row = interleaved_ones(arch.chunk_rows, 3).reshape(arch.r, arch.k1)
    p, q = partition_dims(7, 9, arch)
    col = rng.random((p, q, arch.c, arch.k2)) < 0.6
    w_mean = np.full((1, 1, arch.r, arch.c, arch.k1, arch.k2),
                     np.sin(UNIFORM_MEAN_PHASE_RAD))

    for mode, output_gating in itertools.product(ExecutionMode, (True, False)):
        kw = dict(mode=mode, output_gating=output_gating)
        model = ColumnPowerModel(row, wn6, arch, DEV, LAY, **kw)
        expected = sum(
            ColumnPowerModel(row, wn6[pi:pi + 1, qi:qi + 1], arch, DEV, LAY,
                             **kw).power(col[pi:pi + 1, qi:qi + 1])
            for pi in range(p) for qi in range(q))
        assert model.power(col) == pytest.approx(expected, rel=1e-9)
        assert model.breakdown(col).total_mw == pytest.approx(expected, rel=1e-9)
        uniform = ColumnPowerModel(row, None, arch, DEV, LAY, **kw)
        assert uniform.power(col[:1, :1]) == pytest.approx(
            ColumnPowerModel(row, w_mean, arch, DEV, LAY, **kw).power(col[:1, :1]),
            rel=1e-12)


def test_column_power_model_validation():
    w6 = partition(np.ones((2, 2)), SMALL)
    row = np.ones((1, 2), dtype=bool)
    with pytest.raises(DeviceModelError, match="6-D"):
        ColumnPowerModel(row, np.ones((2, 2)), SMALL, DEV, LAY)
    with pytest.raises(DeviceModelError, match="disagree"):
        ColumnPowerModel(np.ones((2, 2), dtype=bool), w6, SMALL, DEV, LAY)
    model = ColumnPowerModel(row, w6, SMALL, DEV, LAY)
    with pytest.raises(DeviceModelError, match="column mask"):
        model.power(np.ones((2, 2), dtype=bool))


def test_mask_power_wires_model_and_mask_together():
    arch = ArchConfig(R=2, C=2, k1=2, k2=2, r=2, c=1)
    rng = np.random.default_rng(3)
    w6 = partition(rng.normal(size=(4, 4)), arch)
    mask = _mask_2x2()
    model = ColumnPowerModel(mask.row, w6 / np.max(np.abs(w6)), arch, DEV, LAY)
    assert mask_power(mask, w6, arch, DEV, LAY) == model.power(mask.col)
    # pruning a column can only reduce modeled power
    fewer = mask.col.copy()
    fewer[0, 0, 0, 0] = False
    assert model.power(fewer) < model.power(mask.col)


def test_select_columns_matches_brute_force():
    arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=2, c=1)
    rng = np.random.default_rng(5)
    w6 = partition(rng.uniform(-1, 1, size=(4, 8)), arch)
    model = ColumnPowerModel(np.ones((2, 2), dtype=bool), w6, arch, DEV, LAY)
    empty = np.zeros((1, 2, 1, 4), dtype=bool)
    pool = list(range(8))
    sel = select_columns_min_power(model, empty, pool, 3, turn_on=True)
    best = None
    for ids in itertools.combinations(pool, 3):
        trial = empty.reshape(-1).copy()
        trial[list(ids)] = True
        pw = model.power(trial.reshape(empty.shape))
        if best is None or pw < best[0]:
            best = (pw, ids)
    assert sel.chosen == best[1]
    assert sel.power_mw == pytest.approx(best[0])
    # DP cells: per module, two 2-leaf nodes with j in 0..2 and the root
    # with j in 0..4; across the two modules, j in 0..3 for each suffix.
    assert sel.n_evaluated == 2 * (2 * 3 + 5) + 2 * 4


def test_select_columns_ties_go_to_lowest_index():
    # with all-zero weights the two singleton choices cost the same, so the
    # lower column index must win
    w6 = partition(np.zeros((2, 2)), SMALL)
    model = ColumnPowerModel(np.ones((1, 2), dtype=bool), w6, SMALL, DEV, LAY)
    empty = np.zeros((1, 1, 1, 2), dtype=bool)
    sel = select_columns_min_power(model, empty, [0, 1], 1, turn_on=True)
    assert sel.chosen == (0,)
    sel = select_columns_min_power(model, empty, [1, 0], 1, turn_on=True)
    assert sel.chosen == (0,)
    with pytest.raises(DeviceModelError, match="pool"):
        select_columns_min_power(model, empty, [0], 2, turn_on=True)


def test_select_columns_finds_the_cheap_last_column():
    # weights make column 3, the lexicographically last candidate, the
    # cheapest; the exact search finds it with no incumbent hint
    w = np.zeros((2, 4))
    w[:, :3] = (0.95, 0.5, 0.3)
    arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=1, c=1)
    w6 = partition(w, arch)
    model = ColumnPowerModel(np.ones((1, 2), dtype=bool), w6, arch, DEV, LAY)
    empty = np.zeros((1, 1, 1, 4), dtype=bool)
    sel = select_columns_min_power(model, empty, [0, 1, 2, 3], 1, turn_on=True)
    assert sel.chosen == (3,)


def test_select_columns_rejects_pools_it_would_miscount():
    arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=1, c=1)
    w6 = partition(np.ones((2, 3)), arch)               # pads one column
    model = ColumnPowerModel(np.ones((1, 2), dtype=bool), w6, arch, DEV, LAY)
    col = np.array([True, False, False, False]).reshape(1, 1, 1, 4)
    bad = {"n_select": ([1, 2], -1, True),
           "distinct": ([1, 1], 1, True),
           "lie in": ([1, 4], 1, True),
           "all be off": ([0, 1], 1, True),
           "all be on": ([0, 1], 1, False)}
    for match, (pool, n_select, turn_on) in bad.items():
        with pytest.raises(DeviceModelError, match=match):
            select_columns_min_power(model, col, pool, n_select, turn_on)
    sel = select_columns_min_power(model, col, [1, 2], 2, True)
    assert sel.chosen == (1, 2)


def _brute_force(model, col, pool, n_select, turn_on):
    """Every n_select-subset of the pool with its power, in lexicographic
    order of sorted column ids."""
    out = []
    for ids in itertools.combinations(sorted(pool), n_select):
        trial = col.reshape(-1).copy()
        trial[list(ids)] = turn_on
        out.append((model.power(trial.reshape(col.shape)), ids))
    return out


@st.composite
def _selection_cases(draw):
    k2 = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    c = draw(st.integers(1, 2))
    k1 = draw(st.integers(1, 2))
    arch = ArchConfig(R=1, C=c, k1=k1, k2=k2, r=1, c=c)
    c_out = draw(st.integers(1, 2))
    fan_in = draw(st.integers(1, 2 * c * k2))
    # Weights on a grid of quarters: exact ties are common, and distinct
    # powers differ far above the tie tolerance.
    grid = st.integers(-4, 4).map(lambda v: v / 4)
    w = np.array(draw(st.lists(grid, min_size=c_out * fan_in,
                               max_size=c_out * fan_in))).reshape(c_out, fan_in)
    p, q = partition_dims(c_out, fan_in, arch)
    pad = padded_column_mask(fan_in, q, arch)
    shape = (p, q, c, k2)
    usable = ~np.broadcast_to(pad[None], shape).reshape(-1)
    col = np.array(draw(st.lists(st.booleans(), min_size=usable.size,
                                 max_size=usable.size))) & usable
    turn_on = draw(st.booleans())
    cand = np.flatnonzero((col != turn_on) & usable).tolist()
    pool = draw(st.lists(st.sampled_from(cand), max_size=6, unique=True)
                if cand else st.just([]))
    row = np.array(draw(st.lists(st.booleans(), min_size=k1, max_size=k1)))
    return (arch, partition(w, arch), row.reshape(1, k1), col.reshape(shape),
            pool, turn_on)


@given(case=_selection_cases(), mode=st.sampled_from(list(ExecutionMode)),
       output_gating=st.booleans())
def test_select_columns_dp_matches_brute_force(case, mode, output_gating):
    """The DP's power is the brute-force minimum and its pick the
    lowest-index minimiser, for every mode, padding, pool and direction."""
    arch, w6, row, col, pool, turn_on = case
    model = ColumnPowerModel(row, w6, arch, DEV, LAY, mode=mode,
                             output_gating=output_gating)
    for n_select in range(len(pool) + 1):
        sel = select_columns_min_power(model, col, pool, n_select, turn_on)
        scored = _brute_force(model, col, pool, n_select, turn_on)
        best = min(pw for pw, _ in scored)
        assert sel.power_mw == pytest.approx(best, rel=1e-12, abs=0)
        # Quarter-grid weights: powers that differ at all differ far above
        # the DP's tie band, so this band holds just the exact minimisers.
        tied = [ids for pw, ids in scored if pw <= best * (1 + 1e-13)]
        assert sel.chosen == tied[0]
        # the result carries its mask: col with exactly the chosen switched
        switched = col.reshape(-1).copy()
        switched[list(sel.chosen)] = turn_on
        assert np.array_equal(sel.col, switched.reshape(col.shape))
        assert sel.power_mw == model.power(sel.col)


# ---------------------------------------------------------------------------
# mask initialization
# ---------------------------------------------------------------------------

def test_init_masks_dense_target_keeps_everything():
    arch = ArchConfig(R=2, C=2, k1=2, k2=2, r=1, c=1)
    w = np.random.default_rng(0).normal(size=(2, 2))
    mask = init_masks(1.0, 2, 2, arch, w, DEV, LAY)
    assert mask.density() == 1.0
    assert mask.row.all() and mask.col.all()


def test_init_masks_row_floor_and_split():
    arch = ArchConfig(R=2, C=2, k1=4, k2=4, r=1, c=1)
    w = np.random.default_rng(1).normal(size=(4, 8))
    mask = init_masks(0.75, 4, 8, arch, w, DEV, LAY)
    assert int(mask.row.sum()) == 3          # max(0.75, 0.5) * 4 rows
    assert mask.density() == pytest.approx(0.75)

    # below the 0.5 row floor the rest of the thinning moves to columns
    mask = init_masks(0.3, 4, 8, arch, w, DEV, LAY)
    assert int(mask.row.sum()) == 2
    granule = mask.row.sum() / mask.effective6().size
    assert abs(mask.density() - 0.3) <= granule / 2 + 1e-12


def test_masks_compare_by_value():
    w = np.random.default_rng(3).uniform(-1, 1, size=(8, 32))
    a = init_masks(0.3, 8, 32, DESK_ARCH, w, DEV, LAY)
    b = init_masks(0.3, 8, 32, DESK_ARCH, w, DEV, LAY)
    assert a is not b and a == b and not a != b
    col = a.col.copy()
    flip = tuple(np.argwhere(a.usable)[0])
    col[flip] = ~col[flip]
    flipped = SparsityMask(a.row, col, a.padded_col)
    assert flipped != a and not flipped == a
    # another shape is unequal, not a broadcast
    wide = init_masks(0.3, 8, 64, DESK_ARCH, np.zeros((8, 64)), DEV, LAY)
    assert wide != a
    assert a != "mask"
    with pytest.raises(TypeError):
        hash(a)


def test_init_masks_selection_is_power_minimal():
    arch = ArchConfig(R=2, C=2, k1=2, k2=4, r=1, c=1)
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, size=(2, 8))
    mask = init_masks(0.5, 2, 8, arch, w, DEV, LAY)
    w6 = partition(w, arch)
    model = ColumnPowerModel(mask.row, w6, arch, DEV, LAY)
    n_keep = int(mask.col.sum())
    best = min(
        model.power(np.reshape(
            np.isin(np.arange(mask.col.size), ids), mask.col.shape))
        for ids in itertools.combinations(range(mask.col.size), n_keep))
    assert model.power(mask.col) == pytest.approx(best)


def test_init_masks_never_unprunes_padding():
    arch = ArchConfig(R=2, C=2, k1=2, k2=2, r=1, c=1)
    w = np.random.default_rng(2).normal(size=(2, 7))   # pads one column
    mask = init_masks(1.0, 2, 7, arch, w, DEV, LAY)
    assert not (mask.col & mask.padded_col[None]).any()
    assert int(mask.padded_col.sum()) == 1
    with pytest.raises(DeviceModelError):
        init_masks(0.0, 2, 4, arch, w[:, :4], DEV, LAY)


@pytest.mark.parametrize("s, fan_in", [(1.0, 8), (0.3, 8), (0.3, 12), (0.3, 4)])
def test_init_masks_rejects_weights_of_another_shape(s, fan_in):
    arch = ArchConfig(R=2, C=2, k1=4, k2=4, r=1, c=1)
    w = np.random.default_rng(4).normal(size=(4, 6))
    with pytest.raises(DeviceModelError, match=rf"\(4, 6\).*\(4, {fan_in}\)"):
        init_masks(s, 4, fan_in, arch, w, DEV, LAY)


# ---------------------------------------------------------------------------
# prune / grow
# ---------------------------------------------------------------------------

def _training_setup():
    arch = ArchConfig(R=2, C=2, k1=4, k2=4, r=1, c=1)
    rng = np.random.default_rng(9)
    w = rng.uniform(-1, 1, size=(4, 8))
    mask = init_masks(0.75, 4, 8, arch, w, DEV, LAY)
    return arch, w, partition(w, arch), mask


def test_prune_step_quota_and_pool():
    arch, _, w6, mask = _training_setup()
    sched = DstSchedule(alpha0=0.5, t_end=4, delta_m=2)
    out, info = prune_step(mask, w6, sched, 0, arch, DEV, LAY)
    # alpha(0) = 0.5 kills half the 24 live weights: 12 / 3 rows = 4 columns
    assert info.alpha == pytest.approx(0.5)
    assert info.n_changed == 4
    assert int(mask.col.sum()) - int(out.col.sum()) == 4
    # every removed column came from the six live columns of smallest norm
    # over live rows
    row6 = mask.row[None, None, :, None, :, None]
    norms = np.sqrt((w6 ** 2 * row6).sum(axis=(2, 4))).reshape(-1)
    pool = np.argsort(norms, kind="stable")[:6]
    removed = np.flatnonzero(mask.col.reshape(-1) & ~out.col.reshape(-1))
    assert set(removed) <= set(pool)
    assert info.power_mw == pytest.approx(
        mask_power(out, w6, arch, DEV, LAY))


def test_prune_step_ignores_weights_on_dead_rows():
    # Rows 0-2 live, row 3 dead; columns 0-3 are the smallest over live
    # rows.  Dead-row weights as large as the layer's largest (so its
    # weight scale holds) on columns 0-3 must not change the pruned set.
    arch = ArchConfig(R=2, C=2, k1=4, k2=4, r=1, c=1)
    row = interleaved_rows(0.75, arch)
    assert row.tolist() == [[True, True, True, False]]
    mask = SparsityMask(row, np.ones((1, 2, 1, 4), dtype=bool),
                        np.zeros((2, 1, 4), dtype=bool))
    quiet = np.zeros((4, 8))
    quiet[:3, :4], quiet[:3, 4:], quiet[0, 7] = 0.1, 0.3, 1.0
    loud = quiet.copy()
    loud[3, :4] = 1.0
    sched = DstSchedule(alpha0=0.5, t_end=4, delta_m=0)
    out, info = prune_step(mask, partition(loud, arch), sched, 0, arch, DEV, LAY)
    ref, ref_info = prune_step(mask, partition(quiet, arch), sched, 0, arch,
                               DEV, LAY)
    # 12 of 24 live weights over 3 live rows: 4 columns, and with no pool
    # margin exactly the 4 of smallest live-row norm
    assert np.flatnonzero(~out.col).tolist() == [0, 1, 2, 3]
    assert np.array_equal(out.col, ref.col)
    assert info == ref_info


def test_prune_and_grow_ignore_weights_on_dead_rows():
    # The objective prices live rows only, and so does its weight scale:
    # dead-row weights of +-100 instead of 0 change no prune or grow pick
    # and no modeled power, over 50 draws of the desk CNN's 8x32 layer.
    sched = DstSchedule()
    for draw in range(50):
        rng = np.random.default_rng(draw)
        w = rng.uniform(-1, 1, size=(8, 32))
        mask = init_masks(0.3, 8, 32, DESK_ARCH, w, DEV, LAY)
        dead = ~mask.row[None, None, :, None, :, None]
        assert dead.any()
        quiet = np.where(dead, 0.0, partition(w, DESK_ARCH))
        loud = np.where(dead, rng.choice([-100.0, 100.0], size=quiet.shape), quiet)
        pruned, info = prune_step(mask, quiet, sched, 0, DESK_ARCH, DEV, LAY)
        g6 = rng.normal(size=quiet.shape)
        grown, grown_info = grow_step(pruned, g6, quiet, 0.3, sched, DESK_ARCH,
                                      DEV, LAY)
        assert grown_info.n_changed > 0
        loud_pruned, loud_info = prune_step(mask, loud, sched, 0, DESK_ARCH,
                                            DEV, LAY)
        assert np.array_equal(loud_pruned.col, pruned.col) and loud_info == info
        loud_grown, loud_info = grow_step(pruned, g6, loud, 0.3, sched,
                                          DESK_ARCH, DEV, LAY)
        assert np.array_equal(loud_grown.col, grown.col) and loud_info == grown_info
    # Weights whose rows are not the mask's are rejected, not broadcast.
    for bad in (quiet[:, :, :1], quiet[0]):
        with pytest.raises(DeviceModelError, match="does not fit"):
            mask_power(mask, bad, DESK_ARCH, DEV, LAY)


def test_prune_step_noop_after_schedule_end():
    arch, _, w6, mask = _training_setup()
    sched = DstSchedule(alpha0=0.5, t_end=4)
    out, info = prune_step(mask, w6, sched, 4, arch, DEV, LAY)
    assert out is mask
    assert info.n_changed == 0 and info.n_evaluated == 0
    assert info.alpha == 0.0


def test_grow_step_restores_target_density():
    arch, _, w6, mask = _training_setup()
    sched = DstSchedule(alpha0=0.5, t_end=4)
    pruned, _ = prune_step(mask, w6, sched, 0, arch, DEV, LAY)
    g6 = np.abs(w6) + 0.1
    grown, info = grow_step(pruned, g6, w6, 0.75, sched, arch, DEV, LAY)
    assert info.n_changed == 4
    assert int(grown.col.sum()) == int(mask.col.sum())
    assert grown.density() == pytest.approx(0.75)


def test_grow_step_noop_when_nothing_dead():
    arch, _, w6, mask = _training_setup()
    sched = DstSchedule()
    out, info = grow_step(mask, w6, w6, 0.75, sched, arch, DEV, LAY)
    assert out is mask and info.n_changed == 0
    with pytest.raises(DeviceModelError, match="gradient"):
        grow_step(mask, w6[..., :1], w6, 0.75, sched, arch, DEV, LAY)


def test_grow_step_never_revives_padding():
    arch = ArchConfig(R=2, C=2, k1=4, k2=4, r=1, c=1)
    rng = np.random.default_rng(13)
    w = rng.uniform(-1, 1, size=(4, 6))                # two padded columns
    mask = init_masks(0.75, 4, 6, arch, w, DEV, LAY)
    w6 = partition(w, arch)
    sched = DstSchedule(alpha0=1.0, t_end=4)
    pruned, _ = prune_step(mask, w6, sched, 0, arch, DEV, LAY)
    assert int(pruned.col.sum()) == 0                  # alpha=1 clears all
    g6 = np.ones_like(w6)                              # padding ties for max norm
    grown, info = grow_step(pruned, g6, w6, 0.5, sched, arch, DEV, LAY)
    assert info.n_changed == 5
    assert not (grown.col & grown.padded_col[None]).any()
    assert int(grown.col.sum()) == 5


def test_prune_grow_determinism():
    arch, _, w6, mask = _training_setup()
    sched = DstSchedule(alpha0=0.6, t_end=8)
    a1, _ = prune_step(mask, w6, sched, 1, arch, DEV, LAY)
    a2, _ = prune_step(mask, w6, sched, 1, arch, DEV, LAY)
    assert np.array_equal(a1.col, a2.col)
    g6 = np.abs(w6) * 2.0
    b1, _ = grow_step(a1, g6, w6, 0.75, sched, arch, DEV, LAY)
    b2, _ = grow_step(a2, g6, w6, 0.75, sched, arch, DEV, LAY)
    assert np.array_equal(b1.col, b2.col)
