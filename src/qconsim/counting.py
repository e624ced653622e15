"""Fuzzy counting by recursive gossip.

Processes are split into x contiguous-by-id groups, each group recursively
counts itself, and the per-group subtotals are merged by a gossip window at
every recursion level, deepest first.  A level's groups are a sorted bound
array b: group i is the id range [b[i], b[i+1]).  All groups at one level
run their gossip in lock-step inside a shared window sized for the largest
group.  The result is fuzzy: crashes during the run can make subtotals
stale, but every output is sandwiched between the number of qualifying
processes alive at the end and at the start.  Both the ones and the zeros
are counted in the same messages (each rumor carries a pair of subtotals).
"""

from __future__ import annotations

import numpy as np

from .engine import SimContext
from .exchange import RumorCarrier, Window, clog2, run_relay, shared_group_layers


def partition(bounds, x: int) -> np.ndarray:
    """Split every group of the level ``bounds`` into x contiguous groups,
    sizes differing by <= 1, and return the new level's bounds; the empty
    groups that a group smaller than x leaves are dropped."""
    b = np.asarray(bounds, dtype=np.int64)
    sizes, i = np.diff(b)[:, None], np.arange(x)
    base, extra = np.divmod(sizes, x)
    starts = b[:-1, None] + i * base + np.minimum(i, extra)
    return np.append(starts[i < sizes], b[-1])  # empty iff i >= size


def partition_levels(n: int, x: int) -> list[np.ndarray]:
    """Recursive partition of [0, n): levels[j] holds the bounds of the
    groups after j + 1 splits.

    The last level consists of singletons; the number of levels equals the
    recursion depth ceil(log n / log x).
    """
    if x < 2:
        raise ValueError("branching factor must be >= 2")
    levels = []
    bounds = np.array([0, n])
    while np.diff(bounds).max() > 1:
        bounds = partition(bounds, x)
        levels.append(bounds)
    return levels


def level_graph(n: int, bounds, params, seed: int, tag):
    """(window, layers, k_caps) of the counting level with groups ``bounds``:
    its relay window, and its shared layers certified for that window."""
    window = Window.for_size(int(np.diff(bounds).max()), params.d,
                             params.alpha)
    return (window, *shared_group_layers(
        n, bounds, params.d, params.alpha, seed, tag,
        max_steps=window.epochs * window.iterations))


def fast_counting(ctx: SimContext, a: np.ndarray, params, tag="count"
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Count processes holding a=1 and a=0 among the currently active set,
    with x, d and alpha from ``params`` (a ``ConsensusParams``).

    Returns (ones, zeros) per-process fuzzy counts.  Every active process
    relays regardless of its own bit; crashed and halted processes are
    counted only while their subtotals still circulate.
    """
    n = ctx.n
    x = params.x
    active0 = ctx.active
    ones = (a.astype(np.int64) & 1) * active0
    zeros = (1 - (a.astype(np.int64) & 1)) * active0
    # gossip happens at every internal node of the recursion tree, deepest
    # first: each group of a non-singleton level gossips among its children
    # in the next level, and rumor keys are the child indices in the group
    levels = [np.array([0, n])] + partition_levels(n, x)
    ids = np.arange(n)
    for lvl_idx in range(len(levels) - 2, -1, -1):
        bounds, children = levels[lvl_idx], levels[lvl_idx + 1]
        # every group's bounds are bounds of its children too
        group = np.searchsorted(bounds, ids, side="right") - 1
        child = np.searchsorted(children, ids, side="right") - 1
        key = child - np.searchsorted(children, bounds)[group]
        # ones and zeros subtotals share one array, so one gather per merge
        # serves both counts; r1 and r0 are views of its column halves
        rumors = np.full((n, 2 * x), -1, dtype=np.int64)
        r1, r0 = rumors[:, :x], rumors[:, x:]
        r1[ids, key] = ones
        r0[ids, key] = zeros
        window, layers, k_caps = level_graph(n, bounds, params, ctx.seed,
                                             (tag, lvl_idx))
        carrier = RumorCarrier([rumors], 2 * x * clog2(n + 1))  # 2x subtotals
        # packed once, the bool stack dropped; every layer is symmetric, so
        # the packed stack is its own transpose
        layers = np.packbits(layers, axis=-1)
        run_relay(ctx, layers, layers, k_caps, window, carrier)
        ones = np.where(r1 >= 0, r1, 0).sum(axis=1)
        zeros = np.where(r0 >= 0, r0, 0).sum(axis=1)
    return ones, zeros
