"""Fuzzy counting by recursive gossip.

Processes are split into x contiguous-by-id groups, each group recursively
counts itself, and the per-group subtotals are merged by a gossip window at
every recursion level, deepest first.  All groups at one level run their
gossip in lock-step inside a shared window sized for the largest group.  The
result is fuzzy: crashes during the run can make subtotals stale, but every
output is sandwiched between the number of qualifying processes alive at the
end and at the start.  Both the ones and the zeros are counted in the same
messages (each rumor carries a pair of subtotals).
"""

from __future__ import annotations

import numpy as np

from .engine import SimContext
from .exchange import RumorCarrier, Window, clog2, run_relay, shared_group_layers


def partition(members: list[int], x: int) -> list[list[int]]:
    """Split sorted ids into x contiguous groups, sizes differing by <= 1.

    When len(members) < x the tail groups come out empty and are dropped by
    the caller.
    """
    m = len(members)
    base, extra = divmod(m, x)
    out = []
    start = 0
    for i in range(x):
        size = base + (1 if i < extra else 0)
        out.append(members[start:start + size])
        start += size
    return out


def partition_levels(n: int, x: int) -> list[list[list[int]]]:
    """Recursive partition of [0, n): levels[j] holds the groups after j splits.

    The last level consists of singletons; its length equals the recursion
    depth ceil(log n / log x).
    """
    if x < 2:
        raise ValueError("branching factor must be >= 2")
    levels = []
    current = [list(range(n))]
    while max(len(g) for g in current) > 1:
        nxt = []
        for g in current:
            nxt.extend(p for p in partition(g, x) if p)
        levels.append(nxt)
        current = nxt
    return levels


def rumor_response_bits(n_keys: int, value_bits: int, k: int,
                        instances: int) -> int:
    """Bits per response: the encoded rumor sets plus the adaptive degree."""
    return n_keys * value_bits * instances + clog2(k + 1)


def fast_counting(ctx: SimContext, a: np.ndarray, params, tag="count",
                  state: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
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
    if n == 1:
        return ones.copy(), zeros.copy()
    levels = partition_levels(n, x)
    # gossip happens at every internal node of the recursion tree: the whole
    # set plus each non-singleton level, deepest first; rumor keys are the
    # child-group indices within the gossiping group.
    gossip_levels = [[list(range(n))]] + levels[:-1]
    for lvl_idx in range(len(gossip_levels) - 1, -1, -1):
        groups = [np.array(g) for g in gossip_levels[lvl_idx]]
        # ones and zeros subtotals share one array, so one gather per merge
        # serves both counts; r1 and r0 are views of its column halves
        rumors = np.full((n, 2 * x), -1, dtype=np.int64)
        r1, r0 = rumors[:, :x], rumors[:, x:]
        for g in groups:
            children = partition(g.tolist(), x)
            for ci, child in enumerate(children):
                for p in child:
                    r1[p, ci] = ones[p]
                    r0[p, ci] = zeros[p]
        window = Window.for_size(max(len(g) for g in groups),
                                 params.d, params.alpha)
        layers, k_caps = shared_group_layers(
            n, groups, params.d, params.alpha, ctx.seed, (tag, lvl_idx),
            max_steps=window.epochs * window.iterations)
        bits = rumor_response_bits(x, clog2(n + 1), int(k_caps.max(initial=0)),
                                   instances=2)
        carrier = RumorCarrier([rumors], bits)
        run_relay(ctx, layers, k_caps, window, carrier, state=state)
        ones = np.where(r1 >= 0, r1, 0).sum(axis=1)
        zeros = np.where(r0 >= 0, r0, 0).sum(axis=1)
    return ones, zeros
