"""Synchronous round engine with an adaptive full-information crash adversary.

Execution proceeds in lock-step rounds.  Each round the protocol hands the
engine an intent batch: a boolean (n, n) matrix of sender->recipient targets
plus per-sender cost in classical bits and qubits and an optional classical
payload (dict of per-sender arrays).  The adversary is consulted with a view
of everything the engine holds -- targets, costs, classical payloads,
protocol state (``SimContext.state``), the full crash/halt picture.
Every array in a view is read-only, and the payload's and state's stay
live: the protocol publishes them as ``read_only`` views, built once where
each array is made.  Hidden state (the coin's registers) is never handed to
the engine, so no view can reach it.  The adversary may crash senders
mid-multicast, choosing which subset of their messages is still delivered,
subject to a strict total budget of fewer than t crashes.

Cost accounting: an alive sender pays for every message it attempts; a sender
crashed in the very round of its multicast pays only for the delivered
subset.  Recipients that are crashed or halted receive nothing.

The engine keeps a running SHA-256 digest over canonical per-round bytes so
that two runs of the same configuration can be compared exactly.  The byte
layout is versioned by ``DIGEST_VERSION``; a digest made under another
version (such as a v1 digest in an older transcript) will not match.
Version 2 feeds, in order:

* the header ``f"v{DIGEST_VERSION}|{n}|{t}|{seed}"`` (UTF-8);
* per round: the round number (4 bytes, little-endian); the delivered
  (n, n) matrix as ``np.packbits`` of its row-major bits, eight to a byte
  with the first bit highest and the last byte padded with zero bits; the
  newly crashed ids, then the per-sender bits and qubits per message (each
  int64 in native byte order); and the ``alive`` and ``halted`` masks (one
  byte per process);
* at ``finish``: the outputs and then the ledger summary, each as
  ``json.dumps(..., sort_keys=True)`` (outputs with ``default=str``).

n is in the header, so the packed bytes still determine the matrix exactly.

Prepared rounds.  ``exchange`` masks a round's targets to the senders that
can send (C-ordered, diagonal cleared) into a ``PreparedRound`` with their
attempt counts, which a caller sending the same targets again passes back
(``SimContext.prepare``).  A round without a crash delivers exactly
``targets & active``, so the first one stores that matrix and its digest
bytes for the next.  Halts and crashes move ``SimContext.version`` on, and
``exchange`` then re-masks the round in place.  Returned deliveries and the
view's ``targets`` are read-only: a returned matrix's identity stands for
its contents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

DIGEST_VERSION = 2
ROUND_CAP = 5_000_000  # default round cap of every run


class SimulationError(Exception):
    """Base class for engine failures."""


class CapExceeded(SimulationError):
    """A run hit a cap without terminating: ``rounds``, ``total_bits`` and
    ``total_qubits`` are its progress then, and consensus attaches the
    ``phases`` it completed (None elsewhere)."""

    def __init__(self, message: str, ctx: "SimContext | None" = None):
        super().__init__(message)
        self.rounds, self.total_bits, self.total_qubits = (
            (ctx.round, ctx.ledger.total_bits, ctx.ledger.total_qubits)
            if ctx else (None, None, None))
        self.phases = None


class RoundCapExceeded(CapExceeded):
    """The protocol ran past the configured round cap."""


class AdversaryViolation(SimulationError):
    """The adversary returned an illegal crash decision."""


@dataclass(frozen=True)
class CrashDecision:
    """Adversary output for one round.

    ``newly_crashed`` lists distinct 0-based ids of alive senders to crash
    this round.  ``partial_delivery`` maps a newly crashed sender to a
    boolean recipient mask selecting which of its intended messages are
    still delivered (missing entry means nothing is delivered).
    """

    newly_crashed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    partial_delivery: Mapping[int, np.ndarray] = field(default_factory=dict)


def read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, live while ``a`` is written in place."""
    shown = a.view()
    shown.flags.writeable = False
    return shown


# The no-crash decision, shared by every adversary that passes a round.  Its
# array is a read-only view (which cannot be resized either) and its mapping
# a read-only proxy, so an adversary that mutates the shared instance fails
# at once instead of leaking crashes into every later round that returns it.
EMPTY_DECISION = CrashDecision(read_only(np.zeros(0, dtype=np.int64)),
                               MappingProxyType({}))


@dataclass(eq=False, slots=True)  # array fields: compare views by identity
class AdversaryView:
    """Read-only classical snapshot handed to the adversary each round.

    Every array in it is read-only, so a write raises ``ValueError``; the
    masks, targets, payload and state arrays are live views, and the state
    a read-only mapping.  Hidden state is not reachable from a view.
    """

    round: int
    n: int
    t: int
    alive: np.ndarray
    halted: np.ndarray
    targets: np.ndarray
    bits_per_message: np.ndarray
    qubits_per_message: np.ndarray
    payload: Optional[dict]
    state: Optional[Mapping]
    crashes_used: int

    @property
    def crash_budget_left(self) -> int:
        return max(0, self.t - 1 - self.crashes_used)


@dataclass
class CostLedger:
    """Per-process communication totals."""

    rounds_active: np.ndarray
    bits: np.ndarray
    qubits: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "CostLedger":
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                   np.zeros(n, dtype=np.int64))

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    @property
    def total_qubits(self) -> int:
        return int(self.qubits.sum())

    def amortized_bits(self) -> Fraction:
        """Exact bits per process: total over all senders divided by n."""
        return Fraction(self.total_bits, self.bits.size)

    def amortized_qubits(self) -> Fraction:
        return Fraction(self.total_qubits, self.qubits.size)

    def summary(self) -> dict:
        return {
            "total_bits": self.total_bits,
            "total_qubits": self.total_qubits,
            "process_rounds": int(self.rounds_active.sum()),
            "amortized_bits": str(self.amortized_bits()),
            "amortized_qubits": str(self.amortized_qubits()),
        }


@dataclass
class Transcript:
    """Replayable summary of one simulation."""

    n: int
    t: int
    seed: int
    adversary: str
    rounds: int
    crashed: list[int]
    outputs: dict
    ledger: dict
    digest: str
    round_records: Optional[list] = None

    def to_json(self) -> str:
        body = {
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "adversary": self.adversary,
            "rounds": self.rounds,
            "crashed": [p + 1 for p in self.crashed],
            "outputs": self.outputs,
            "ledger": self.ledger,
            "digest": self.digest,
            "digest_version": DIGEST_VERSION,
        }
        if self.round_records is not None:
            body["round_records"] = self.round_records
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


class PreparedRound:
    """One round's targets as ``exchange`` uses them (see module docstring)."""

    __slots__ = ("raw", "targets", "sent", "version", "delivered", "packed")


class SimContext:
    """Mutable engine state threaded through a protocol run.

    Process ids are 0-based indices everywhere inside the engine; exported
    artifacts (transcript JSON) translate to 1-based ids.
    """

    def __init__(self, n: int, t: int, adversary, seed: int,
                 round_cap: int = ROUND_CAP, record_rounds: bool = False):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not (0 <= t <= n):
            raise ValueError("t must be in [0, n]")
        self.n = n
        self.t = t
        self.seed = seed
        self.round = 0
        self.round_cap = round_cap
        self.alive = np.ones(n, dtype=bool)
        self.halted = np.zeros(n, dtype=bool)
        # what adversary views show: live but read-only, so that no write
        # changes the active set without moving the version on
        self._shown = (read_only(self.alive), read_only(self.halted))
        self.crashes_used = 0
        self.version = 0  # moved on by every halt and crash
        self.state: Optional[Mapping] = None  # set by the protocol, read-only
        self.ledger = CostLedger.empty(n)
        self.adversary = adversary
        adversary.reset(n, t, seed)
        self._hash = hashlib.sha256(
            f"v{DIGEST_VERSION}|{n}|{t}|{seed}".encode())
        self.round_records: list = [] if record_rounds else None

    # -- state queries -------------------------------------------------

    @property
    def active(self) -> np.ndarray:
        """Alive and not halted."""
        return self.alive & ~self.halted

    def halt(self, mask: np.ndarray) -> None:
        """Remove processes from the computation (they keep their output)."""
        self.halted |= mask
        self.version += 1

    def prepare(self, targets: np.ndarray,
                prep: Optional[PreparedRound] = None) -> PreparedRound:
        """``targets`` masked for the current active set, in place into
        ``prep`` if given; ``targets`` must not change while it is used."""
        if prep is None:
            prep = PreparedRound()
            prep.targets = np.empty((self.n,) * 2, dtype=bool)
        prep.raw, t = targets, prep.targets
        t.flags.writeable = True
        # one pass that also turns a transposed (F-ordered) matrix into C order
        np.logical_and(targets, self.active[:, None], out=t)
        np.fill_diagonal(t, False)
        t.flags.writeable = False
        # a row holds at most n - 1 messages
        prep.sent = np.add.reduce(t, axis=1, dtype=np.min_scalar_type(self.n))
        prep.version = self.version
        prep.delivered = prep.packed = None
        return prep

    # -- the one communication primitive --------------------------------

    def exchange(self, targets, bits, qubits=0,
                 payload: Optional[dict] = None) -> np.ndarray:
        """Run one synchronous round; return the delivered (n, n) bool matrix
        (read-only).

        ``targets`` is a raw (n, n) bool matrix or a ``PreparedRound``.
        ``bits``/``qubits`` are per-message costs, scalar or per-sender
        arrays.  ``payload`` (classical) is shown to the adversary, as is
        ``self.state``.
        """
        if self.round >= self.round_cap:
            raise RoundCapExceeded(f"round cap {self.round_cap} reached",
                                   self)
        n = self.n
        bits_arr = np.full(n, bits, dtype=np.int64)
        qubits_arr = np.full(n, qubits, dtype=np.int64)
        bits_arr.flags.writeable = qubits_arr.flags.writeable = False
        prep = (targets if isinstance(targets, PreparedRound)
                else self.prepare(targets))
        if prep.version != self.version:
            self.prepare(prep.raw, prep)

        view = AdversaryView(self.round, n, self.t, *self._shown,
                             prep.targets, bits_arr, qubits_arr, payload,
                             self.state, self.crashes_used)
        decision = self.adversary.decide(view)
        newly = np.asarray(decision.newly_crashed, dtype=np.int64)
        sent = prep.sent
        if newly.size:
            ids = newly.tolist()
            if len(set(ids)) < len(ids) or min(ids) < 0 or max(ids) >= n:
                raise AdversaryViolation("crash ids must be distinct, in [0, n)")
            if not self.alive[newly].all():
                raise AdversaryViolation("adversary crashed a dead process")
            if self.crashes_used + newly.size >= self.t:
                raise AdversaryViolation("crash budget exceeded")
            self.crashes_used += int(newly.size)
            self.alive[newly] = False
            self.version += 1
            # recipients crashed or halted (including crashed this round)
            # get nothing; a sender crashed this round delivers its kept
            # subset only, and pays for that subset only
            delivered = prep.targets & self.active[None, :]
            for s in ids:
                keep = decision.partial_delivery.get(s)
                if keep is None:
                    delivered[s] = False
                else:
                    delivered[s] &= keep
            sent = sent.copy()
            sent[newly] = delivered[newly].sum(axis=1)
            delivered.flags.writeable = False
            packed = np.packbits(delivered)  # row-major, zero-padded bytes
        else:
            if prep.delivered is None:
                prep.delivered = prep.targets & self.active[None, :]
                prep.delivered.flags.writeable = False
                prep.packed = np.packbits(prep.delivered)
            delivered, packed = prep.delivered, prep.packed

        self.ledger.bits += bits_arr * sent
        self.ledger.qubits += qubits_arr * sent
        self.ledger.rounds_active += self.active

        h = self._hash
        h.update(self.round.to_bytes(4, "little"))
        h.update(packed)
        h.update(newly.tobytes())
        h.update(bits_arr.tobytes())
        h.update(qubits_arr.tobytes())
        h.update(self.alive.tobytes())
        h.update(self.halted.tobytes())

        if self.round_records is not None:
            self.round_records.append({
                "round": self.round,
                "crashed": [int(p) + 1 for p in newly.tolist()],
                "messages": int(delivered.sum()),
            })

        self.round += 1
        return delivered

    # -- wrap-up ---------------------------------------------------------

    def finish(self, outputs: dict, adversary_name: str) -> Transcript:
        canon = json.dumps(outputs, sort_keys=True, default=str).encode()
        self._hash.update(canon)
        self._hash.update(json.dumps(self.ledger.summary(), sort_keys=True).encode())
        return Transcript(
            n=self.n, t=self.t, seed=self.seed, adversary=adversary_name,
            rounds=self.round,
            crashed=np.nonzero(~self.alive)[0].tolist(),
            outputs=outputs, ledger=self.ledger.summary(),
            digest=self._hash.hexdigest(),
            round_records=self.round_records,
        )

