"""Weak global coin via hidden leader registers.

Each process privately draws a register holding a uniform leader value of
3*ceil(log2 n) bits and a uniform coin bit.  Registers propagate through the
adaptive inquiry/response relay; on contact a process keeps the register with
the lexicographically larger (leader_value, origin) pair, so the tie-break is
exact and the surviving register is the max over every relay path.  The final
output of a process is the coin bit of the register it holds.

Register contents are hidden: the relay hands only the adaptive degrees to
the engine, so the adversary schedules crashes with full classical
information but never observes leader values or coin bits, and it cannot
target the eventual leader except by luck.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimContext
from .exchange import KeyCarrier, Window, clog2, private_layers, run_relay
from .rng import Restream


@dataclass(frozen=True)
class CoinParams:
    """Schedule for one coin invocation on n processes."""

    n: int
    d: int
    alpha: int
    window: Window

    @classmethod
    def make(cls, n: int, d: int | None = None, alpha: int | None = None
             ) -> "CoinParams":
        """d and alpha default to max(2, ceil(log2 n))."""
        base = max(2, clog2(n))
        d = base if d is None else d
        alpha = base if alpha is None else alpha
        if d < 1 or alpha < 2:
            raise ValueError("need d >= 1 and alpha >= 2")
        return cls(n=n, d=d, alpha=alpha, window=Window.for_size(n, d, alpha))

    @property
    def rounds(self) -> int:
        """Exact number of engine rounds one invocation consumes."""
        return self.window.rounds

    @property
    def register_qubits(self) -> int:
        return 3 * clog2(self.n) + 1

    @property
    def response_bits(self) -> int:
        return clog2(self.n) + clog2(self.window.k + 1)


def run_coin(ctx: SimContext, params: CoinParams, tag="coin") -> np.ndarray:
    """One coin invocation; returns the per-process output bit array.

    Output bits of crashed/halted processes are whatever register they last
    held; callers ignore them.
    """
    n = ctx.n
    leader_bits = 3 * clog2(n)
    leaders = np.zeros(n, dtype=np.int64)
    coin_bits = np.zeros(n, dtype=np.int64)
    streams = Restream()
    for p in range(n):
        # process p's register: a leader value, then a coin bit
        rng = streams.at(ctx.seed, "proc", p, tag, "register")
        if leader_bits:
            leaders[p] = rng.integers(0, 2 ** leader_bits)
        coin_bits[p] = rng.integers(0, 2)
    # (leader_value, origin) as a single max-comparable key
    keys = leaders * n + np.arange(n)
    layers, k_caps = private_layers(n, params.d, params.alpha, ctx.seed, tag)
    carrier = KeyCarrier(keys, params.response_bits, params.register_qubits)
    run_relay(ctx, layers, k_caps, params.window, carrier)
    origin = carrier.keys % n
    return coin_bits[origin]
