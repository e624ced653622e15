"""Reference oracles: slow, obviously correct forms of protocol rules.

The package runs one vectorized implementation of each rule; the tests check
it against the scalar or per-message forms kept here.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from qconsim.coin import HiddenRegister
from qconsim.consensus import PhaseAction
from qconsim.engine import CrashDecision


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
