"""Reference oracles: slow, obviously correct forms of protocol rules.

The package runs one vectorized implementation of each rule; the tests check
it against the scalar or per-message forms kept here.
"""

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any

import numpy as np

from qconsim.adversaries import Adversary
from qconsim.consensus import PhaseAction
from qconsim.engine import EMPTY_DECISION, CrashDecision
from qconsim.exchange import _adapt_vec, clog2, end_epoch_update, layer_count


def philox_stream(seed: int, *coords) -> np.random.Generator:
    """``rng.substream`` as a new Philox generator built from the key: the
    first 16 bytes, little-endian, of SHA-256 of "seed|coord|...".  Every
    oracle below draws from these."""
    text = "|".join([str(seed), *(str(c) for c in coords)])
    key = int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def phase_action_rational(ones: int, total: int) -> PhaseAction:
    """The phase rule's thresholds evaluated with exact rationals."""
    o = Fraction(ones)
    if o > Fraction(7 * total - 1, 10):
        return PhaseAction.DECIDE1
    if o > Fraction(6 * total - 1, 10):
        return PhaseAction.LEAN1
    if o < Fraction(4 * total - 1, 10):
        return PhaseAction.DECIDE0
    if o < Fraction(5 * total - 1, 10):
        return PhaseAction.LEAN0
    return PhaseAction.FLIP


@dataclass(frozen=True)
class HiddenRegister:
    """One process's coin register: adversary-invisible classical state."""

    leader_value: int
    coin_bit: int
    origin: int  # process id of the original drawer; exact tie-break


def draw_register(seed: int, p: int, n: int, tag="coin") -> HiddenRegister:
    """The register process p draws in the coin invocation ``tag``, from a
    fresh philox_stream: a leader value of 3*ceil(log2 n) bits, then a coin
    bit."""
    rng = philox_stream(seed, "proc", p, tag, "register")
    leader_bits = 3 * clog2(n)
    leader = int(rng.integers(0, 2 ** leader_bits)) if leader_bits else 0
    return HiddenRegister(leader, int(rng.integers(0, 2)), p)


def merge_registers(a: HiddenRegister, b: HiddenRegister) -> HiddenRegister:
    """Keep the lexicographically larger (leader_value, origin) register."""
    return a if (a.leader_value, a.origin) >= (b.leader_value, b.origin) else b


def adapt_degree(responder_levels: list[int], current: int, delta: int) -> int:
    """New adaptive-degree level after one response round.

    ``responder_levels`` are the adaptive-degree levels reported by the
    processes that responded this iteration; levels encode degrees d*alpha^x,
    with level -1 standing for the underflow value d/alpha.  Loop-exact: while
    fewer than ``delta`` responders report a level >= the current one and the
    current level is still >= 0 (degree >= d), the level drops by one.
    """
    x = current
    while x >= 0 and sum(1 for r in responder_levels if r >= x) < delta:
        x -= 1
    return x


@dataclass(frozen=True)
class MessageIntent:
    """One attempted message.  Ids are 0-based engine indices."""

    sender: int
    recipient: int
    classical_bits: int
    qubit_count: int
    payload: Any = None


def deliver_round(intents: list[MessageIntent], decision: CrashDecision,
                  alive: np.ndarray) -> dict[int, list[MessageIntent]]:
    """Per-message delivery semantics of one engine round.

    Given an intent list, a crash decision, and the alive mask *before* the
    round, return recipient -> delivered messages.
    """
    newly = set(int(p) for p in np.asarray(decision.newly_crashed).tolist())
    alive_after = alive.copy()
    for p in newly:
        alive_after[p] = False
    inbox: dict[int, list[MessageIntent]] = {}
    for m in intents:
        if not alive[m.sender]:
            continue
        if m.sender in newly:
            keep = decision.partial_delivery.get(m.sender)
            if keep is None or not keep[m.recipient]:
                continue
        if not alive_after[m.recipient]:
            continue
        inbox.setdefault(m.recipient, []).append(m)
    return inbox


def private_layers_oracle(n: int, d: int, alpha: int, seed: int, tag
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``exchange.private_layers`` as one fresh philox_stream per process that
    draws every layer, saturated ones included, row by row."""
    k = layer_count(n, d, alpha)
    layers = np.zeros((k + 1, n, n), dtype=bool)
    for p in range(n):
        rng = philox_stream(seed, "private-layers", tag, p)
        for i in range(k + 1):
            prob = min(1.0, d * alpha ** i / n)
            row = rng.random(n) < prob
            row[p] = False
            layers[i, p] = row
    return layers, np.full(n, k, dtype=np.int64)


def bfs_diameter(adj):
    """Largest shortest-path distance, or None if the graph is disconnected."""
    m = adj.shape[0]
    worst = 0
    for start in range(m):
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for p in frontier:
                for q in np.flatnonzero(adj[p]).tolist():
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        if len(dist) < m:
            return None
        worst = max(worst, max(dist.values()))
    return worst


def shared_group_layers_oracle(n: int, groups: list, d: int, alpha: int,
                               seed: int, tag, max_steps: int,
                               attempts: list | None = None
                               ) -> tuple[np.ndarray, np.ndarray]:
    """``exchange.shared_group_layers`` as one fresh philox_stream per attempt
    that draws a top-up for every layer, 0 and 1 included, and writes the
    blocks through ``np.ix_`` (so any group of ids works), and certifies
    each base layer by breadth-first search.  The resamples each group
    needed are appended to ``attempts``."""
    k_caps = np.zeros(n, dtype=np.int64)
    k_max = 0
    for g in groups:
        k_g = layer_count(len(g), d, alpha)
        k_caps[g] = k_g
        k_max = max(k_max, k_g)
    layers = np.zeros((k_max + 1, n, n), dtype=bool)
    for g in groups:
        m = len(g)
        if m <= 1:
            continue
        k_g = layer_count(m, d, alpha)
        iu = np.triu_indices(m, k=1)
        for attempt in range(1000):
            rng = philox_stream(seed, "shared-layers", tag, d, alpha,
                                int(g[0]), attempt)
            edges = np.zeros(iu[0].size, dtype=bool)
            blocks = []
            prev_prob = 0.0
            for i in range(k_g + 1):
                prob = min(1.0, d * alpha ** i / m)
                top_up = ((prob - prev_prob) / (1.0 - prev_prob)
                          if prev_prob < 1.0 else 0.0)
                edges |= rng.random(iu[0].size) < top_up
                prev_prob = prob
                block = np.zeros((m, m), dtype=bool)
                block[iu] = edges
                blocks.append(block | block.T)
            diameter = bfs_diameter(blocks[0])
            if diameter is not None and diameter <= max_steps:
                break
        else:
            raise RuntimeError("could not certify a connected base layer")
        if attempts is not None:
            attempts.append(attempt)
        for i in range(k_max + 1):
            layers[np.ix_([i], g, g)] = blocks[min(i, k_g)]
    return layers, k_caps


def run_relay_oracle(ctx, layers: np.ndarray, k_caps: np.ndarray, window,
                     carrier) -> np.ndarray:
    """``exchange.run_relay`` with nothing carried from one round to the
    next: every iteration gathers its inquiry rows afresh, both rounds hand
    the engine a raw matrix, so each is masked and delivered anew, and the
    carrier merges every response round.  It prices and builds each response
    itself: the carrier's part plus a clog2(k_max + 1)-bit adaptive degree."""
    n = ctx.n
    rows = np.arange(n)
    lvl = np.zeros(n, dtype=np.int64)
    k_max = int(k_caps.max(initial=0))
    degree_bits = clog2(k_max + 1)
    for _ in range(window.epochs):
        ad = lvl.copy()
        for _ in range(window.iterations):
            inq = layers[np.minimum(lvl, k_caps), rows, :]
            got_inq = ctx.exchange(inq, 1)
            payload = dict(carrier.classical, adaptive_degree=ad)
            got_resp = ctx.exchange(got_inq.T, carrier.bits + degree_bits,
                                    carrier.qubits, payload=payload)
            carrier.merge(got_resp)
            ad = _adapt_vec(ad, got_resp, window.delta, k_max)
        lvl = end_epoch_update(lvl, ad, k_caps)
    return lvl


# -- graph properties by brute force: each returns the first counterexample
# -- in combinations order (as the certifier's witness names it), or None

def brute_expanding(adj, ell):
    n = adj.shape[0]
    for a_set in combinations(range(n), ell):
        rest = [v for v in range(n) if v not in a_set]
        for b_set in combinations(rest, ell):
            if not adj[np.ix_(list(a_set), list(b_set))].any():
                return {"A": list(a_set), "B": list(b_set)}
    return None


def brute_edge_dense(adj, ell, a, b):
    n = adj.shape[0]
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            nodes = np.array(sub)
            e = int(adj[np.ix_(nodes, nodes)].sum()) // 2
            if size >= ell and e < a * size:
                return {"X": list(sub), "edges": e}
            if size <= ell and e > b * size:
                return {"Y": list(sub), "edges": e}
    return None


def brute_compact(adj, ell, eps, delta):
    n = adj.shape[0]
    for size in range(ell, n + 1):
        for sub in combinations(range(n), size):
            best = 0
            nodes = list(sub)
            for inner_size in range(len(nodes), int(eps * ell) - 1, -1):
                for cand in combinations(nodes, inner_size):
                    idx = np.array(cand, dtype=np.intp)  # () must index too
                    deg = adj[np.ix_(idx, idx)].sum(axis=1)
                    if (deg >= delta).all():
                        best = inner_size
                        break
                if best:
                    break
            if best < eps * ell:
                return {"B": list(sub)}
    return None


class StateReader(Adversary):
    """A test-only adversary that acts on the protocol state in the view:
    every 61st round, while budget lasts, it crashes the lowest-id alive
    process that holds b = 1 and has not decided."""

    name = "state_reader"

    def decide(self, view):
        if view.round % 61 or view.crash_budget_left <= 0:
            return EMPTY_DECISION
        state = view.state
        prey = np.flatnonzero(view.alive & (state["b"] == 1)
                              & ~state["decided"])
        return CrashDecision(prey[:1]) if prey.size else EMPTY_DECISION
