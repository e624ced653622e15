"""Property certifiers behind ``qconsim check-graphs``, which runs them on
the layers fuzzy counting gossips over (``qconsim.counting.level_graph``).

Graphs are symmetric boolean adjacency matrices over nodes 0..n-1.  Every
check tests batches of node subsets (bool mask rows): all subsets of the
sizes it needs, in ``itertools.combinations`` order, while their number fits
a budget of subsets tested, else one-sided randomized draws from its own
stream.  The first failing subset is the witness, and every report records
which method produced its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, islice
from typing import Optional

import numpy as np

from .rng import substream

DEFAULT_BUDGET = 10 ** 6  # exhaustive checks up to this many subsets tested
DEFAULT_TRIALS = 10 ** 4  # randomized checks otherwise
_CHUNK = 1024  # subsets (exhaustive) or trials (randomized) per batch


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


def _degrees(members: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Each node's neighbours inside each row's subset: one float32 product,
    exact below 2**24 nodes.  Each check converts ``adj`` to float32 once."""
    return members.astype(np.float32) @ adj


def _nodes(mask: np.ndarray) -> list:
    return np.flatnonzero(mask).tolist()


def delta_core(adj: np.ndarray, delta: int, members: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """Maximum subset of ``members`` (one mask or a (B, n) batch) inducing
    min degree >= delta: iteratively deletes nodes of internal degree < delta,
    which leaves the unique maximum such subgraph."""
    keep = np.ones(adj.shape[0], dtype=bool) if members is None \
        else members.copy()
    adj = adj.astype(np.float32, copy=False)  # is_compact's is already
    while (bad := keep & (_degrees(keep, adj) < delta)).any():
        keep &= ~bad
    return keep


def _batches(n: int, trials):
    """Mask rows of the node sets of each _CHUNK trials (tuples of sets), and
    each row's place in its trial."""
    while chunk := list(islice(trials, _CHUNK)):
        sets = [nodes for trial in chunk for nodes in trial]
        lengths = [len(s) for s in sets]
        flat = np.fromiter(chain.from_iterable(sets), np.intp, sum(lengths))
        masks = np.zeros((len(sets), n), dtype=bool)
        masks[np.repeat(np.arange(len(sets)), lengths), flat] = True
        yield masks, np.tile(np.arange(len(chunk[0])), len(chunk))


def _certify(name: str, params: dict, n: int, sizes, budget: int,
             trials: int, draw, fails) -> PropertyReport:
    """Test every subset of each of ``sizes`` if there are at most ``budget``
    of them, and otherwise the sets that ``trials`` calls of ``draw()``
    return.  ``fails(masks, slot)`` marks a batch's failing rows and maps a
    row to its witness; ``slot`` is a drawn row's place in its trial (None
    when exhaustive)."""
    exhaustive = all(total <= budget for total in
                     accumulate(math.comb(n, s) for s in sizes))
    method = "exhaustive" if exhaustive else f"randomized({trials})"
    tested = (((c,) for s in sizes for c in combinations(range(n), s))
              if exhaustive else (draw() for _ in range(trials)))
    for masks, slot in _batches(n, tested):
        bad, witness = fails(masks, None if exhaustive else slot)
        if bad.any():
            return PropertyReport(name, params, False, method,
                                  witness(int(bad.argmax())))
    return PropertyReport(name, params, True, method)


def is_expanding(adj: np.ndarray, ell: int, budget: int = DEFAULT_BUDGET,
                 trials: int = DEFAULT_TRIALS, seed: int = 0) -> PropertyReport:
    """Every two disjoint ell-subsets are joined by at least one edge: an
    ell-subset A fails iff ell nodes lie outside A and its neighbourhood, and
    the witness B is the first ell of them."""
    n = adj.shape[0]
    params = {"ell": ell}
    if 2 * ell > n:
        # no two disjoint ell-subsets exist: the quantifier is empty
        return PropertyReport("expanding", params, True, "exhaustive")
    rng = substream(seed, "check-expanding", ell)
    adj = adj.astype(np.float32)

    def fails(masks, _slot):
        free = (_degrees(masks, adj) == 0) & ~masks
        return free.sum(axis=1) >= ell, lambda i: {
            "A": _nodes(masks[i]), "B": _nodes(free[i])[:ell]}

    return _certify("expanding", params, n, [ell], budget, trials,
                    lambda: [rng.choice(n, size=ell, replace=False)], fails)


def is_edge_dense(adj: np.ndarray, ell: int, a: float, b: float,
                  budget: int = DEFAULT_BUDGET, trials: int = DEFAULT_TRIALS,
                  seed: int = 0) -> PropertyReport:
    """(ell, a, b)-edge-density: >= a|X| internal edges for every |X| >= ell,
    and <= b|Y| internal edges for every |Y| <= ell.

    Exhaustively, each subset meets every clause its size falls under (the
    empty set fails neither); a random trial tests its X, then its Y.
    """
    n = adj.shape[0]
    params = {"ell": ell, "a": a, "b": b}
    rng = substream(seed, "check-edge-dense", ell)
    adj = adj.astype(np.float32)

    def draw():
        # no X reaches size ell > n, and no Y exceeds n
        lo_size = int(rng.integers(1, min(ell, n) + 1))
        hi_size = int(rng.integers(ell, n + 1)) if ell <= n else 0
        y_nodes = rng.choice(n, size=lo_size, replace=False)
        return rng.choice(n, size=hi_size, replace=False), y_nodes

    def fails(masks, slot):
        size = masks.sum(axis=1)
        edges = (_degrees(masks, adj) * masks).sum(axis=1, dtype=np.int64) // 2
        x_rows = size >= ell if slot is None else slot == 0
        y_rows = size <= ell if slot is None else slot == 1
        # float(): a config's a or b may be an integer beyond int64
        x_bad = x_rows & (edges < float(a) * size)
        return x_bad | (y_rows & (edges > float(b) * size)), lambda i: {
            "X" if x_bad[i] else "Y": _nodes(masks[i]), "edges": int(edges[i])}

    return _certify("edge_dense", params, n, range(n + 1), budget, trials,
                    draw, fails)


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
    if delta <= 0 or ell > n:
        # delta <= 0 holds trivially, and no B reaches size ell > n
        return PropertyReport("compact", params, True, "exhaustive")
    rng = substream(seed, "check-compact", ell)
    adj = adj.astype(np.float32)

    def fails(masks, _slot):
        core = delta_core(adj, delta, masks).sum(axis=1)
        return core < eps * ell, lambda i: {"B": _nodes(masks[i]),
                                            "core_size": int(core[i])}

    return _certify("compact", params, n, range(ell, n + 1), budget, trials,
                    lambda: [rng.choice(n, size=ell, replace=False)], fails)
