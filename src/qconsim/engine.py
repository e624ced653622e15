"""Synchronous round engine with an adaptive full-information crash adversary.

Execution proceeds in lock-step rounds.  Each round the protocol hands the
engine an intent batch: a boolean (n, n) matrix of sender->recipient targets
plus an integer cost per message in classical bits and qubits and an
optional classical payload (dict of per-sender arrays).  The adversary is consulted with a view
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
subset.  Recipients that are crashed or halted receive nothing.  The
``CostLedger`` charges a crash round at once and a crash-free round as one
more round of a run: the same read-only attempt counts and active mask
(their identity stands for their contents) at the same (bits, qubits).  A
relay sends the same prepared rounds for many rounds, so a run is folded
into the totals once, when the ledger holds more than a few runs or when a
total is read, and every read is exact.

The engine keeps a running SHA-256 digest over canonical per-round bytes so
that two runs of the same configuration can be compared exactly.  The byte
layout is versioned by ``DIGEST_VERSION``; a digest made under another
version (such as a v2 digest in an older transcript) will not match.
Version 3 feeds, in order:

* the header ``f"v{DIGEST_VERSION}|{n}|{t}|{seed}"`` (UTF-8);
* per round: the round number (4 bytes, little-endian); the delivered
  (n, n) matrix as ``np.packbits`` of its row-major bits, eight to a byte
  with the first bit highest and the last byte padded with zero bits; the
  newly crashed ids, then the round's bits and qubits per message (each
  int64 in native byte order, two words in all); and the ``alive`` and
  ``halted`` masks (one byte per process);
* at ``finish``: the outputs and then the ledger summary, each as
  ``json.dumps(..., sort_keys=True)`` (outputs with ``default=str``).

n is in the header, so the packed bytes still determine the matrix exactly.

Prepared rounds.  ``SimContext.prepare`` copies a round's targets C-ordered
into a ``PreparedRound``, clears the diagonal, counts each row's attempts
and clears the rows of the senders outside the active mask, which the
round keeps.  A caller sending the same targets again passes the round
back; it caches its delivery when nobody crashes (exactly ``targets &
active``) with that delivery's digest bytes.  Each halt and crash makes a
new active mask, so ``exchange`` finds a round masked with an older one
stale and clears, with the same helper, the rows of the senders that left,
which also drops that cache.  Deliveries, active masks and attempt counts
are read-only and never written once shown: a returned matrix's identity
stands for its contents, and an active mask or attempt counts taken
earlier keep their values.
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

DIGEST_VERSION = 3
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
    bool recipient mask of shape (n,) selecting which of its intended
    messages are still delivered (missing entry means nothing is delivered;
    anything else is an ``AdversaryViolation``).
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
    a read-only mapping.  ``attempts[p]`` is the number of messages sender
    p attempts this round, the row sums of ``targets`` (unsigned, the
    narrowest type that holds n).  ``bits_per_message`` and
    ``qubits_per_message`` are the round's two costs, plain ints that every
    sender pays per message; rebinding them changes only the view.  Hidden
    state is not reachable from a view.
    """

    round: int
    n: int
    t: int
    alive: np.ndarray
    halted: np.ndarray
    targets: np.ndarray
    attempts: np.ndarray
    bits_per_message: int
    qubits_per_message: int
    payload: Optional[dict]
    state: Optional[Mapping]
    crashes_used: int

    @property
    def crash_budget_left(self) -> int:
        return max(0, self.t - 1 - self.crashes_used)


_RUNS = 4  # pending runs a CostLedger holds before it folds them


class CostLedger:
    """Per-process communication totals: ``bits``, ``qubits`` and
    ``rounds_active``, int64 arrays of shape (n,), exact whenever read.

    A crash round is charged at once (``charge``).  A crash-free round only
    adds 1 to a pending run (``queue``), keyed by the identity of its attempt
    counts and of its active mask and by its two costs.  Both arrays are
    read-only and never written once shown, so their identity stands for
    their contents; the run keeps a reference to each, so their ids cannot
    be reused while it is pending.  Runs are folded into the totals, count x
    cost x counts and count x active, when a new run would make more than
    ``_RUNS`` or when a total is read, so every read sees exact totals.
    """

    __slots__ = ("_bits", "_qubits", "_rounds", "_runs")

    def __init__(self, n: int):
        self._bits, self._qubits, self._rounds = np.zeros((3, n),
                                                          dtype=np.int64)
        self._runs: dict = {}

    def charge(self, sent: np.ndarray, active: np.ndarray, bits: int,
               qubits: int, count: int = 1) -> None:
        """Charge ``count`` rounds of ``sent`` messages per sender at once."""
        sent = np.multiply(sent, count, dtype=np.int64)  # widened first
        self._bits += bits * sent
        self._qubits += qubits * sent
        self._rounds += np.multiply(active, count, dtype=np.int64)

    def queue(self, sent: np.ndarray, active: np.ndarray, bits: int,
              qubits: int) -> None:
        """One crash-free round: one more round of its pending run."""
        key = (id(sent), id(active), bits, qubits)
        run = self._runs.get(key)
        if run is not None:
            run[0] += 1
            return
        if len(self._runs) == _RUNS:
            self._fold()
        self._runs[key] = [1, sent, active]

    def _fold(self) -> None:
        for (_, _, bits, qubits), (count, sent, active) in self._runs.items():
            self.charge(sent, active, bits, qubits, count)
        self._runs.clear()

    @property
    def bits(self) -> np.ndarray:
        self._fold()
        return read_only(self._bits)

    @property
    def qubits(self) -> np.ndarray:
        self._fold()
        return read_only(self._qubits)

    @property
    def rounds_active(self) -> np.ndarray:
        self._fold()
        return read_only(self._rounds)

    @property
    def total_bits(self) -> int:
        return int(self.bits.sum())

    @property
    def total_qubits(self) -> int:
        return int(self.qubits.sum())

    def amortized_bits(self) -> Fraction:
        """Exact bits per process: total over all senders divided by n."""
        return Fraction(self.total_bits, self._bits.size)

    def amortized_qubits(self) -> Fraction:
        return Fraction(self.total_qubits, self._qubits.size)

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

    __slots__ = ("active", "targets", "sent", "delivered", "packed")


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
        # changes the active set without a new active mask
        self._shown = (read_only(self.alive), read_only(self.halted))
        self.crashes_used = 0
        self._moved_on()
        self.state: Optional[Mapping] = None  # set by the protocol, read-only
        self.ledger = CostLedger(n)
        self.adversary = adversary
        adversary.reset(n, t, seed)
        self._hash = hashlib.sha256(
            f"v{DIGEST_VERSION}|{n}|{t}|{seed}".encode())
        self.round_records: list = [] if record_rounds else None

    # -- state queries -------------------------------------------------

    @property
    def active(self) -> np.ndarray:
        """Alive and not halted (read-only; later changes do not reach it)."""
        return self._active

    def _moved_on(self) -> None:
        """After every halt and crash: a new active mask (old ones stay
        snapshots, and a round masked with one is stale) and the masks'
        digest bytes."""
        self._active = self.alive & ~self.halted
        self._active.flags.writeable = False
        self._mask_bytes = self.alive.tobytes() + self.halted.tobytes()

    def halt(self, mask: np.ndarray) -> None:
        """Remove processes from the computation (they keep their output)."""
        self.halted |= mask
        self._moved_on()

    def prepare(self, targets: np.ndarray,
                prep: Optional[PreparedRound] = None) -> PreparedRound:
        """``targets`` masked for the current active set, in place into
        ``prep`` if given; after a halt or crash ``exchange`` re-masks its
        rows, so ``targets`` may change or go once this returns."""
        if prep is None:
            prep = PreparedRound()
            prep.targets = np.empty((self.n,) * 2, dtype=bool)
        t = prep.targets
        t.flags.writeable = True
        t[...] = targets  # a transposed (F-ordered) matrix comes out C-ordered
        t.reshape(-1)[::self.n + 1] = False  # the diagonal
        # a row holds at most n - 1 messages
        prep.sent = np.add.reduce(t, axis=1, dtype=np.min_scalar_type(self.n))
        self._clear_rows(prep, ~self._active)
        return prep

    def _clear_rows(self, prep: PreparedRound, gone: np.ndarray) -> None:
        """Clear the targets and attempt counts of the senders in ``gone``
        (the counts in a copy, so views taken earlier keep theirs), mask
        ``prep`` with the current active mask and drop its cached delivery."""
        prep.targets.flags.writeable = True
        prep.targets[gone] = False
        prep.targets.flags.writeable = False
        prep.sent = prep.sent.copy()
        prep.sent[gone] = 0
        prep.sent.flags.writeable = False
        prep.active = self._active
        prep.delivered = prep.packed = None

    # -- the one communication primitive --------------------------------

    def exchange(self, targets, bits, qubits=0,
                 payload: Optional[dict] = None) -> np.ndarray:
        """Run one synchronous round; return the delivered (n, n) bool matrix
        (read-only).

        ``targets`` is a raw (n, n) bool matrix or a ``PreparedRound``.
        ``bits``/``qubits`` are integer costs per message, the same for
        every sender; anything else (a float, a per-sender array) raises
        ``TypeError`` here, whatever ``targets`` is.  ``payload``
        (classical) is shown to the adversary, as is ``self.state``.
        """
        bits, qubits = operator.index(bits), operator.index(qubits)
        if self.round >= self.round_cap:
            raise RoundCapExceeded(f"round cap {self.round_cap} reached",
                                   self)
        n = self.n
        prep = (targets if isinstance(targets, PreparedRound)
                else self.prepare(targets))
        if prep.active is not self._active:  # stale: re-mask by rows
            self._clear_rows(prep, prep.active & ~self._active)

        view = AdversaryView(self.round, n, self.t, *self._shown,
                             prep.targets, prep.sent, bits, qubits,
                             payload, self.state, self.crashes_used)
        decision = self.adversary.decide(view)
        newly = np.asarray(decision.newly_crashed, dtype=np.int64)
        if newly.ndim != 1:
            raise AdversaryViolation("crash ids must be a 1-D array")
        ids, partial = newly.tolist(), decision.partial_delivery
        if partial and (not set(partial) <= set(ids) or any(
                np.asarray(m).dtype != bool or np.shape(m) != (n,)
                for m in partial.values())):
            raise AdversaryViolation("partial delivery must map ids crashed "
                                     "this round to bool masks of shape (n,)")
        if ids:
            if len(set(ids)) < len(ids) or min(ids) < 0 or max(ids) >= n:
                raise AdversaryViolation("crash ids must be distinct, in [0, n)")
            if not self.alive[newly].all():
                raise AdversaryViolation("adversary crashed a dead process")
            if self.crashes_used + newly.size >= self.t:
                raise AdversaryViolation("crash budget exceeded")
            self.crashes_used += int(newly.size)
            self.alive[newly] = False
            self._moved_on()
            # recipients crashed or halted (including crashed this round)
            # get nothing; a sender crashed this round delivers its kept
            # subset only, and pays for that subset only
            delivered = prep.targets & self._active[None, :]
            for s in ids:
                keep = partial.get(s)
                if keep is None:
                    delivered[s] = False
                else:
                    delivered[s] &= keep
            sent = prep.sent.copy()
            sent[newly] = delivered[newly].sum(axis=1)
            self.ledger.charge(sent, self._active, bits, qubits)
            delivered.flags.writeable = False
            packed = np.packbits(delivered)  # row-major, zero-padded bytes
        else:
            if prep.delivered is None:
                prep.delivered = prep.targets & self._active[None, :]
                prep.delivered.flags.writeable = False
                prep.packed = np.packbits(prep.delivered)
            delivered, packed = prep.delivered, prep.packed
            self.ledger.queue(prep.sent, self._active, bits, qubits)

        h = self._hash
        h.update(self.round.to_bytes(4, "little"))
        h.update(packed)
        h.update(newly.tobytes())
        h.update(struct.pack("=2q", bits, qubits))
        h.update(self._mask_bytes)

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

