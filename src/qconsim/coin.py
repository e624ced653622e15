"""Weak global coin via hidden leader registers.

Each process active when the coin starts privately draws a register
holding a uniform leader value of 3*ceil(log2 n) bits and a uniform coin
bit.  Registers propagate through the adaptive inquiry/response relay; on
contact a process keeps the register with the lexicographically larger
(leader_value, origin) pair, so the tie-break is exact and the surviving
register is the max over every relay path.  The final output of a process
is the coin bit of the register it holds.

Registers are decoded from two raw Philox words per process
(``draw_registers``), exactly as ``integers(0, 2**b)`` then ``integers(0,
2)`` would draw them (b = 3*ceil(log2 n)): numpy draws a range of at most
2**32 with Lemire's method on a 32-bit word (a Philox word's low half
first, then its buffered high half), a larger one on a 64-bit word, and
with a power-of-two range it never rejects, so each draw is the top bits
of its word.

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
        return clog2(self.n)  # a register's; the relay adds the degree's


def draw_registers(n: int, seed: int, tag, live: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(leader values, coin bits) of every process, each decoded from the
    first two words w0, w1 of its own stream.  With b = 3*ceil(log2 n) the
    leader is 0 (b = 0), the top b bits of w0's low half (b <= 32) or of w0
    (b > 32), and the coin bit is bit 31 of w0, bit 63 of w0 or bit 31 of
    w1 in the same three cases.  Only the processes where the bool mask
    ``live`` is True get a stream; the others' words, and so their leader
    values and coin bits, are 0."""
    b = 3 * clog2(n)
    streams = Restream().each(seed, ("proc", ..., tag, "register"),
                              np.flatnonzero(live).tolist())
    w0, w1 = np.zeros((2, n), dtype=np.uint64)
    w0[live], w1[live] = np.array(
        [rng.bit_generator.random_raw(2) for rng in streams],
        dtype=np.uint64).reshape(-1, 2).T
    if b > 32:
        leaders, coins = w0 >> (64 - b), w1 >> 31
    else:
        leaders, coins = (w0 & 0xFFFFFFFF) >> (32 - b), w0 >> (63 if b else 31)
    return leaders.astype(np.int64), (coins & 1).astype(np.int64)


def run_coin(ctx: SimContext, params: CoinParams, tag="coin") -> np.ndarray:
    """One coin invocation; returns the per-process output bit array.

    Registers are decoded from raw Philox words (``draw_registers``).  Only
    the processes active when the coin starts draw a register and private
    layers: crash and halt are final, so no other process sends in the
    window, and every delivery, view, cost and digest, and every bit of a
    process active at the start, is the one a draw for all n gives.  The
    output of a process that was inactive at the start is 0 (its own
    all-zero register, which it never sends); a process that crashes or
    halts during the window outputs the register it last held.  Callers
    ignore both.
    """
    n = ctx.n
    leaders, coin_bits = draw_registers(n, ctx.seed, tag, ctx.active)
    # (leader_value, origin) as a single max-comparable key
    keys = leaders * n + np.arange(n)
    stacks = private_layers(n, params.d, params.alpha, ctx.seed, tag,
                            ctx.active)
    carrier = KeyCarrier(keys, params.response_bits, params.register_qubits)
    run_relay(ctx, *stacks, params.window, carrier)
    origin = carrier.keys % n
    return coin_bits[origin]
