"""Binary consensus from fuzzy counting and the weak coin.

Each phase every still-running process fuzzily counts the ones (O) and zeros
(Z) among the running set, setting N = O + Z, then applies exact integer
threshold rules on (O, N): decide 1 / lean 1 / decide 0 / lean 0 / flip.  A
flip takes the process's bit from a fresh weak-coin invocation, which runs
every phase so that non-flippers relay registers even when their own bit is
already pinned.  A process that finds itself decided re-checks survivor
counts three phases apart and fully halts when the running set has stopped
shrinking fast; halting is final (crash-stop model, no terminal relaying).

Two safety nets make termination unconditional: a process seeing fewer than
sqrt(n / log n) survivors triggers a deterministic all-to-all fallback, and
every phase reserves a fixed window for it so the global round schedule never
depends on hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from types import MappingProxyType

import numpy as np

from .coin import CoinParams, run_coin
from .counting import fast_counting
from .engine import ROUND_CAP, CapExceeded, SimContext, Transcript, read_only
from .exchange import clog2


class PhaseAction(IntEnum):
    """Outcome of the phase rule for one process; phase_rule returns these."""

    DECIDE1 = 0
    LEAN1 = 1
    DECIDE0 = 2
    LEAN0 = 3
    FLIP = 4


def phase_rule(ones, totals) -> np.ndarray:
    """Threshold rule on the fuzzy counts, per process, as PhaseAction codes.

    The first of these holds: 10*O > 7N-1 decides 1, 10*O > 6N-1 leans 1,
    10*O < 4N-1 decides 0, 10*O < 5N-1 leans 0; otherwise the process
    flips.  That is O compared against (7N-1)/10, (6N-1)/10, (4N-1)/10 and
    (5N-1)/10 in exact integer arithmetic.
    """
    ones = np.asarray(ones, dtype=np.int64)
    totals = np.asarray(totals, dtype=np.int64)
    if ((ones < 0) | (ones > totals)).any():
        raise ValueError("need 0 <= ones <= total")
    o10 = 10 * ones
    return np.select(
        [o10 > 7 * totals - 1, o10 > 6 * totals - 1,
         o10 < 4 * totals - 1, o10 < 5 * totals - 1],
        [PhaseAction.DECIDE1, PhaseAction.LEAN1,
         PhaseAction.DECIDE0, PhaseAction.LEAN0], PhaseAction.FLIP)


def should_stop(n_minus3, n_minus2, n_now):
    """Decided processes halt when the running set shrank by at most a tenth
    of its recent size over the last three phases.  Works per process on
    arrays of survivor counts."""
    return 10 * (n_minus3 - n_now) <= n_minus2


def fallback_threshold(n: int) -> int:
    """Survivor count below which a process abandons the phase loop."""
    if n < 2:
        return 1
    return math.ceil(math.sqrt(n / math.log2(n)))


def fallback_rounds(n: int) -> int:
    """Flood rounds reserved per phase: enough for min-value convergence."""
    return fallback_threshold(n) + 1


@dataclass(frozen=True)
class ConsensusParams:
    """Protocol shape: counting branch x, base degree d, growth factor alpha."""

    x: int
    d: int
    alpha: int

    @classmethod
    def constant(cls, n: int, epsilon: float = 0.5) -> "ConsensusParams":
        """x = alpha = n^epsilon (rounded, floored at 2), d = log n."""
        scale = max(2, round(n ** epsilon))
        return cls(x=scale, d=max(2, clog2(n)), alpha=scale)

    @classmethod
    def polylog(cls, n: int) -> "ConsensusParams":
        """x = 2, d = alpha = log n."""
        base = max(2, clog2(n))
        return cls(x=2, d=base, alpha=base)

    def coin_params(self, n: int) -> CoinParams:
        return CoinParams.make(n, d=self.d, alpha=self.alpha)


@dataclass
class PhaseStats:
    phase: int
    max_ones: int
    max_total: int
    flips: int
    decided: int
    stopped: int
    fallback: int


@dataclass
class ConsensusResult:
    decisions: np.ndarray  # -1 for processes that crashed undecided
    phases: int
    transcript: Transcript
    phase_stats: list[PhaseStats] = field(default_factory=list)

    @property
    def agreed(self) -> bool:
        vals = set(self.decisions[self.decisions >= 0].tolist())
        return len(vals) <= 1

    def valid(self, inputs: np.ndarray) -> bool:
        vals = set(self.decisions[self.decisions >= 0].tolist())
        return vals <= set(inputs.tolist())


class PhaseCapExceeded(CapExceeded):
    pass


def _fallback_window(ctx: SimContext, b: np.ndarray, trigger: np.ndarray,
                     decisions: np.ndarray) -> None:
    """Fixed per-phase window: announcement round plus min-value flooding.

    Triggering processes multicast their bit; anyone hearing an announcement
    joins.  Joiners then flood their current minimum to everybody for a fixed
    number of rounds, decide the minimum they hold, and halt.  The window
    always consumes the same number of rounds, sends nothing when idle, and
    floods to all so late joiners catch up within one round.
    """
    n = ctx.n
    val = b.astype(np.int64).copy()
    shown = {"bit": read_only(val)}
    senders = trigger
    prep = ctx.prepare(np.broadcast_to(senders[:, None], (n, n)))
    delivered = ctx.exchange(prep, 1, payload=shown)
    joined = trigger | delivered.any(axis=0)
    for _ in range(fallback_rounds(n)):
        if not np.array_equal(joined, senders):  # else its delivery is kept
            senders = joined.copy()
            prep = ctx.prepare(np.broadcast_to(senders[:, None], (n, n)), prep)
        delivered = ctx.exchange(prep, 1, payload=shown)
        if delivered.any():
            # 2, above any bit, where nothing was heard
            incoming = np.where(delivered, val[:, None], 2).min(axis=0)
            np.minimum(val, incoming, out=val)
            joined |= delivered.any(axis=0)
    deciders = joined & ctx.active
    decisions[deciders] = val[deciders]
    ctx.halt(deciders)


def _consensus_protocol(ctx: SimContext, inputs: np.ndarray,
                        params: ConsensusParams, phase_cap: int,
                        stats_out: list[PhaseStats]) -> np.ndarray:
    n = ctx.n
    b = inputs.astype(np.int64).copy()
    decisions = np.full(n, -1, dtype=np.int64)
    decided = np.zeros(n, dtype=bool)
    if n == 1:
        decisions[0] = b[0]
        return decisions
    coin = params.coin_params(n)
    threshold = fallback_threshold(n)
    shown = {"b": read_only(b), "decided": read_only(decided)}
    totals_history: list[np.ndarray] = []
    for phase in range(1, phase_cap + 1):
        if not ctx.active.any():
            return decisions
        ctx.state = MappingProxyType({"phase": phase, **shown})
        ones, zeros = fast_counting(ctx, b, params, tag=("count", phase))
        totals = ones + zeros
        totals_history.append(totals.copy())

        trigger = ctx.active & (totals < threshold)
        _fallback_window(ctx, b, trigger, decisions)

        stopped = np.zeros(n, dtype=bool)
        if phase >= 4:
            n3 = totals_history[-4]
            n2 = totals_history[-3]
            check = decided & ctx.active
            stopped = check & should_stop(n3, n2, totals)
            decisions[stopped] = b[stopped]
            ctx.halt(stopped)
            decided &= ~check  # survivors of the check start over undecided

        running = ctx.active
        action = np.where(running, phase_rule(ones, totals), -1)
        decide1 = action == PhaseAction.DECIDE1
        decide0 = action == PhaseAction.DECIDE0
        flip = action == PhaseAction.FLIP
        # in place: the coin's rounds show the adversary state["decided"]
        decided |= decide1 | decide0
        decided &= running
        b[decide1 | (action == PhaseAction.LEAN1)] = 1
        b[decide0 | (action == PhaseAction.LEAN0)] = 0

        coin_bits = run_coin(ctx, coin, tag=("coin", phase))
        b[flip] = coin_bits[flip]

        stats_out.append(PhaseStats(
            phase=phase,
            max_ones=int(ones[running].max(initial=0)),
            max_total=int(totals[running].max(initial=0)),
            flips=int(flip.sum()),
            decided=int(decided.sum()),
            stopped=int(stopped.sum()),
            fallback=int(trigger.sum()),
        ))
        if not ctx.active.any():
            return decisions
    raise PhaseCapExceeded(f"no termination within {phase_cap} phases", ctx)


def run_consensus(inputs: np.ndarray, params: ConsensusParams, t: int,
                  adversary, seed: int, phase_cap: int = 120,
                  round_cap: int = ROUND_CAP,
                  record_rounds: bool = False) -> ConsensusResult:
    """Full protocol run; raises PhaseCapExceeded (or RoundCapExceeded) if it
    cannot terminate, with the phases it completed attached."""
    inputs = np.asarray(inputs, dtype=np.int64)
    stats: list[PhaseStats] = []
    ctx = SimContext(inputs.size, t, adversary, seed, round_cap=round_cap,
                     record_rounds=record_rounds)
    try:
        decisions = _consensus_protocol(ctx, inputs, params, phase_cap, stats)
    except CapExceeded as exc:
        exc.phases = len(stats)
        raise
    transcript = ctx.finish({"decisions": [int(v) for v in decisions.tolist()],
                             "phases": len(stats)},
                            getattr(adversary, "name", "unknown"))
    return ConsensusResult(decisions=decisions, phases=len(stats),
                           transcript=transcript, phase_stats=stats)
