"""Crash-fault adversary strategies.

An adversary sees the full classical state every round (intent matrix,
per-message costs, classical payloads, who is alive/halted, its own budget)
and returns a CrashDecision.  It never sees hidden register contents; views
simply do not carry them.  All of its randomness comes from a dedicated
substream disjoint from every process stream.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .engine import CrashDecision, EMPTY_DECISION, AdversaryView
from .rng import adversary_rng


_KIND_NAMES = {Integral: "an integer", Real: "a real number"}


def _check_param(name: str, value, kind: type, low, high=math.inf) -> None:
    """TypeError unless ``value`` is a ``kind`` number (a bool is not one),
    ValueError unless low <= value <= high."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")


class Adversary:
    """Base strategy: crash nobody.  It takes no params, so any param given
    to it is a TypeError, as an unknown param is for the other strategies."""

    name = "none"

    def reset(self, n: int, t: int, seed: int) -> None:
        """Prepare for a run on n processes; ValueError if the strategy's
        params do not fit n."""
        self.n = n
        self.t = t
        self.rng = adversary_rng(seed, self.name)

    def decide(self, view: AdversaryView) -> CrashDecision:
        return EMPTY_DECISION


class RandomCrasher(Adversary):
    """Crash each alive process with a fixed per-round probability.

    Every crash delivers a uniformly random subset of the victim's pending
    multicast.  Stays strictly inside the budget of t-1 total crashes.
    """

    name = "random_crasher"

    def __init__(self, rate: float = 0.002):
        _check_param("rate", rate, Real, 0, 1)
        self.rate = rate

    def decide(self, view: AdversaryView) -> CrashDecision:
        budget = view.crash_budget_left
        if budget <= 0:
            return EMPTY_DECISION
        candidates = np.nonzero(view.alive)[0]
        hit = candidates[self.rng.random(candidates.size) < self.rate]
        if hit.size == 0:
            return EMPTY_DECISION
        if hit.size > budget:
            hit = self.rng.choice(hit, size=budget, replace=False)
            hit.sort()
        partial = {}
        for s in hit.tolist():
            if view.targets[s].any():
                partial[s] = self.rng.random(view.n) < 0.5
        return CrashDecision(hit, partial)


class DegreeTargeter(Adversary):
    """Each round crash the busiest senders (largest out-degree first).

    Crashed multicasts are dropped entirely.  ``per_round`` bounds how many
    victims are taken in one round; ties break toward the lowest id.
    """

    name = "degree_targeter"

    def __init__(self, per_round: int = 1, min_degree: int = 1):
        _check_param("per_round", per_round, Integral, 1)
        _check_param("min_degree", min_degree, Integral, 0)
        self.per_round = per_round
        self.min_degree = min_degree

    def decide(self, view: AdversaryView) -> CrashDecision:
        budget = view.crash_budget_left
        if budget <= 0:
            return EMPTY_DECISION
        deg = view.attempts
        # a crashed sender attempts nothing, but min_degree 0 admits it
        eligible = np.nonzero((deg >= self.min_degree) & view.alive)[0]
        if eligible.size == 0:
            return EMPTY_DECISION
        take = min(self.per_round, budget, eligible.size)
        # stable top-`take` by degree, lowest id wins ties (attempts are
        # unsigned, so widen before negating)
        order = np.lexsort((eligible, -deg[eligible].astype(np.int64)))
        hit = np.sort(eligible[order[:take]])
        return CrashDecision(hit)


class SplitAttacker(Adversary):
    """Try to keep two seed processes in separate communication components.

    Tracks the component of each seed as messages are delivered and crashes
    any sender whose multicast would bridge the two, dropping its messages.
    Gives up (and saves budget) once the components must merge anyway.
    """

    name = "split_attacker"

    def __init__(self, pair: tuple[int, int] | None = None):
        if pair is not None:
            if len(pair) != 2:
                raise ValueError(f"pair must hold two ids, got {pair!r}")
            for p in pair:
                _check_param("pair id", p, Integral, 0)
        self.pair = pair

    def reset(self, n: int, t: int, seed: int) -> None:
        super().reset(n, t, seed)
        a, b = self.pair if self.pair is not None else (0, n - 1)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a}, {b}) must lie in [0, {n})")
        self.side_a = np.zeros(n, dtype=bool)
        self.side_b = np.zeros(n, dtype=bool)
        self.side_a[a] = True
        self.side_b[b] = True
        self.given_up = a == b

    def decide(self, view: AdversaryView) -> CrashDecision:
        if self.given_up:
            return EMPTY_DECISION
        tgt = view.targets
        touches_a = self.side_a | (tgt & self.side_a[None, :]).any(axis=1)
        touches_b = self.side_b | (tgt & self.side_b[None, :]).any(axis=1)
        bridges = np.nonzero(touches_a & touches_b & view.alive)[0]
        budget = view.crash_budget_left
        hit = bridges[:budget]
        if hit.size < bridges.size:
            # a bridge survives: the sides merge, stop burning budget
            self.given_up = True
        delivered = tgt.copy()
        delivered[hit] = False
        # grow each side with everything it exchanged messages with
        for side in (self.side_a, self.side_b):
            senders_in = side | (delivered & side[None, :]).any(axis=1)
            side |= senders_in
            side |= (delivered[senders_in].any(axis=0))
        return CrashDecision(hit) if hit.size else EMPTY_DECISION


_REGISTRY = {cls.name: cls for cls in
             (Adversary, RandomCrasher, DegreeTargeter, SplitAttacker)}


def make_adversary(name: str, **params) -> Adversary:
    """Instantiate a strategy from the registry by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown adversary {name!r}; "
                         f"known: {sorted(_REGISTRY)}") from None
    return cls(**params)


ADVERSARY_NAMES = tuple(sorted(_REGISTRY))
