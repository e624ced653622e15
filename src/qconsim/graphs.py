"""Property certifiers behind ``qconsim check-graphs``, which runs them on
the layers fuzzy counting gossips over (``qconsim.counting.level_graph``).

Graphs are symmetric boolean adjacency matrices over nodes 0..n-1.  Property
checks are exhaustive while the amount of work fits a configurable budget
and fall back to one-sided randomized certification otherwise; every report
records which method produced its verdict, and a found counterexample is
always a valid witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .rng import substream

DEFAULT_BUDGET = 10 ** 6  # exhaustive checks up to this many cases
DEFAULT_TRIALS = 10 ** 4  # randomized checks otherwise


@dataclass
class PropertyReport:
    property: str
    params: dict
    verdict: bool
    method: str  # "exhaustive" or "randomized(<trials>)"
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"property": self.property, "params": self.params,
               "verdict": self.verdict, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _internal_edges(adj: np.ndarray, nodes: np.ndarray) -> int:
    sub = adj[np.ix_(nodes, nodes)]
    return int(sub.sum()) // 2


def delta_core(adj: np.ndarray, delta: int, members: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """Maximum subset of ``members`` inducing min degree >= delta (bool mask).

    Iteratively deletes nodes of internal degree < delta; the result is the
    unique maximum subgraph with min degree >= delta.
    """
    n = adj.shape[0]
    keep = np.ones(n, dtype=bool) if members is None else members.copy()
    while True:
        deg = (adj & keep[None, :])[keep].sum(axis=1)
        bad = deg < delta
        if not bad.any():
            return keep
        idx = np.nonzero(keep)[0]
        keep[idx[bad]] = False
        if not keep.any():
            return keep


def is_expanding(adj: np.ndarray, ell: int, budget: int = DEFAULT_BUDGET,
                 trials: int = DEFAULT_TRIALS, seed: int = 0) -> PropertyReport:
    """Every two disjoint ell-subsets are joined by at least one edge."""
    n = adj.shape[0]
    params = {"ell": ell}
    if 2 * ell > n:
        # no two disjoint ell-subsets exist: the quantifier is empty
        return PropertyReport("expanding", params, True, "exhaustive")
    pairs = math.comb(n, ell) ** 2
    if pairs <= budget:
        nodes = range(n)
        for a_set in combinations(nodes, ell):
            a = np.array(a_set)
            rest = np.setdiff1d(np.arange(n), a)
            for b_set in combinations(rest.tolist(), ell):
                b = np.array(b_set)
                if not adj[np.ix_(a, b)].any():
                    return PropertyReport("expanding", params, False, "exhaustive",
                                          {"A": a.tolist(), "B": b.tolist()})
        return PropertyReport("expanding", params, True, "exhaustive")
    rng = substream(seed, "check-expanding", ell)
    for _ in range(trials):
        both = rng.choice(n, size=2 * ell, replace=False)
        a, b = both[:ell], both[ell:]
        if not adj[np.ix_(a, b)].any():
            return PropertyReport("expanding", params, False,
                                  f"randomized({trials})",
                                  {"A": sorted(a.tolist()), "B": sorted(b.tolist())})
    return PropertyReport("expanding", params, True, f"randomized({trials})")


def is_edge_dense(adj: np.ndarray, ell: int, a: float, b: float,
                  budget: int = DEFAULT_BUDGET, trials: int = DEFAULT_TRIALS,
                  seed: int = 0) -> PropertyReport:
    """(ell, a, b)-edge-density: >= a|X| internal edges for every |X| >= ell,
    and <= b|Y| internal edges for every |Y| <= ell."""
    n = adj.shape[0]
    params = {"ell": ell, "a": a, "b": b}
    if 2 ** n <= budget:
        for size in range(1, n + 1):
            for sub in combinations(range(n), size):
                nodes = np.array(sub)
                e = _internal_edges(adj, nodes)
                if size >= ell and e < a * size:
                    return PropertyReport("edge_dense", params, False, "exhaustive",
                                          {"X": list(sub), "edges": e})
                if size <= ell and e > b * size:
                    return PropertyReport("edge_dense", params, False, "exhaustive",
                                          {"Y": list(sub), "edges": e})
        return PropertyReport("edge_dense", params, True, "exhaustive")
    rng = substream(seed, "check-edge-dense", ell)
    for _ in range(trials):
        # no X reaches size ell > n, and no Y exceeds n
        lo_size = int(rng.integers(1, min(ell, n) + 1))
        hi_size = int(rng.integers(ell, n + 1)) if ell <= n else 0
        y_nodes = rng.choice(n, size=lo_size, replace=False)
        x_nodes = rng.choice(n, size=hi_size, replace=False)
        ex = _internal_edges(adj, x_nodes)
        if ex < a * hi_size:
            return PropertyReport("edge_dense", params, False,
                                  f"randomized({trials})",
                                  {"X": sorted(x_nodes.tolist()), "edges": ex})
        ey = _internal_edges(adj, y_nodes)
        if ey > b * lo_size:
            return PropertyReport("edge_dense", params, False,
                                  f"randomized({trials})",
                                  {"Y": sorted(y_nodes.tolist()), "edges": ey})
    return PropertyReport("edge_dense", params, True, f"randomized({trials})")


def is_compact(adj: np.ndarray, ell: int, eps: float, delta: int,
               budget: int = DEFAULT_BUDGET, trials: int = DEFAULT_TRIALS,
               seed: int = 0) -> PropertyReport:
    """(ell, eps, delta)-compactness: every B with |B| >= ell contains a
    survival set (subgraph of min degree >= delta) of size >= eps*ell.

    The delta-core of G|_B is the maximum such subgraph, so checking its size
    is exact per tested B.  Randomized certification samples B of size ell,
    the worst case: enlarging B can only grow the core.
    """
    n = adj.shape[0]
    params = {"ell": ell, "eps": eps, "delta": delta}
    if delta <= 0:
        return PropertyReport("compact", params, True, "exhaustive")
    if ell > n:
        # no subset reaches size ell: the quantifier is empty
        return PropertyReport("compact", params, True, "exhaustive")
    count = sum(math.comb(n, s) for s in range(ell, n + 1))
    if count <= budget:
        for size in range(ell, n + 1):
            for sub in combinations(range(n), size):
                members = np.zeros(n, dtype=bool)
                members[list(sub)] = True
                core = delta_core(adj, delta, members)
                if int(core.sum()) < eps * ell:
                    return PropertyReport("compact", params, False, "exhaustive",
                                          {"B": list(sub),
                                           "core_size": int(core.sum())})
        return PropertyReport("compact", params, True, "exhaustive")
    rng = substream(seed, "check-compact", ell)
    size = min(ell, n)
    for _ in range(trials):
        members = np.zeros(n, dtype=bool)
        members[rng.choice(n, size=size, replace=False)] = True
        core = delta_core(adj, delta, members)
        if int(core.sum()) < eps * ell:
            return PropertyReport("compact", params, False,
                                  f"randomized({trials})",
                                  {"B": sorted(np.nonzero(members)[0].tolist()),
                                   "core_size": int(core.sum())})
    return PropertyReport("compact", params, True, f"randomized({trials})")
