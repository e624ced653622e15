import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsim.adversaries import Adversary, DegreeTargeter, RandomCrasher
from qconsim.consensus import ConsensusParams
from qconsim.counting import fast_counting, partition, partition_levels
from qconsim.engine import SimContext


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60), st.integers(2, 9))
def test_partition_sizes_balanced_and_contiguous(m, x):
    members = list(range(m))
    groups = partition(members, x)
    assert len(groups) == x
    assert sum(len(g) for g in groups) == m
    for g in groups:
        assert len(g) in (m // x, -(-m // x), 0) or len(g) == m // x
        assert math.floor(m / x) <= len(g) <= math.ceil(m / x) or len(g) == 0
    flat = [p for g in groups for p in g]
    assert flat == members  # contiguous by id


def test_partition_example_10_by_3():
    assert [len(g) for g in partition(list(range(10)), 3)] == [4, 3, 3]


def test_partition_levels_depth_formula():
    for n in (2, 3, 4, 8, 9, 16, 27, 31, 64, 100):
        for x in (2, 3, 4, 7):
            levels = partition_levels(n, x)
            assert len(levels) == math.ceil(math.log2(n) / math.log2(x) - 1e-12)
            assert all(len(g) == 1 for g in levels[-1])


def _exact_counts(a, active):
    ones = int((a.astype(bool) & active).sum())
    return ones, int(active.sum()) - ones


def test_crash_free_counting_exact():
    for seed in range(20):
        for n, x in ((7, 2), (12, 3), (16, 2), (20, 4)):
            ctx = SimContext(n, max(1, n // 3), Adversary(), seed=seed)
            a = (np.arange(n) * 5 + seed) % 3 == 1
            params = ConsensusParams(x, 4, 4)
            ones, zeros = fast_counting(ctx, a.astype(int), params)
            o, z = _exact_counts(a, np.ones(n, dtype=bool))
            assert (ones == o).all() and (zeros == z).all(), (n, x, seed)


def test_sandwich_under_crashes():
    for seed in range(25):
        for adv in (RandomCrasher(0.02), DegreeTargeter(per_round=1)):
            n = 18
            ctx = SimContext(n, 6, adv, seed=seed)
            a = (np.arange(n) % 2).astype(int)
            start = ctx.active.copy()
            ones, zeros = fast_counting(ctx, a, ConsensusParams(3, 4, 4))
            end = ctx.active
            hi1, hi0 = _exact_counts(a, start)
            lo1, lo0 = _exact_counts(a, end)
            assert (ones[end] >= lo1).all() and (ones[end] <= hi1).all()
            assert (zeros[end] >= lo0).all() and (zeros[end] <= hi0).all()


def test_counting_counts_both_sides_in_one_run():
    ctx = SimContext(10, 3, Adversary(), seed=4)
    ones, zeros = fast_counting(ctx, np.ones(10, dtype=int),
                                ConsensusParams(2, 3, 3))
    assert (ones == 10).all() and (zeros == 0).all()


def test_counting_single_process():
    ctx = SimContext(1, 0, Adversary(), seed=0)
    ones, zeros = fast_counting(ctx, np.array([1]), ConsensusParams(2, 2, 2))
    assert ones[0] == 1 and zeros[0] == 0 and ctx.round == 0


def test_counting_halted_processes_excluded_from_start():
    n = 8
    ctx = SimContext(n, 3, Adversary(), seed=1)
    ctx.halt(np.arange(n) < 2)
    ones, zeros = fast_counting(ctx, np.ones(n, dtype=int),
                                ConsensusParams(2, 3, 3))
    active = ctx.active
    assert (ones[active] == 6).all()


def test_counting_depth_equals_window_count():
    # rounds consumed = sum over levels of the level's window rounds
    from qconsim.exchange import Window
    n, x, d, alpha = 16, 2, 3, 3
    ctx = SimContext(n, 5, Adversary(), seed=2)
    fast_counting(ctx, np.zeros(n, dtype=int), ConsensusParams(x, d, alpha))
    levels = partition_levels(n, x)
    sizes = [n] + [max(len(g) for g in lvl) for lvl in levels[:-1]]
    expect = sum(Window.for_size(m, d, alpha).rounds for m in sizes)
    assert ctx.round == expect
    assert len(sizes) == math.ceil(math.log2(n) / math.log2(x))
