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
``CostLedger`` keeps three exact int totals over all processes: bits and
qubits (the round's paid messages times its per-message costs) and
process-rounds (the processes active after each round).  A round's paid
messages are its prepared attempt count, less the attempts of the senders
that crash in it, plus what those senders deliver.

The engine keeps a running SHA-256 digest over canonical per-round bytes so
that two runs of the same configuration can be compared exactly.  The byte
layout is versioned by ``DIGEST_VERSION``; a digest made under another
version (such as a v3 digest in an older transcript) will not match.
Version 4 feeds, in order:

* the header ``f"v{DIGEST_VERSION}|{n}|{t}|{seed}"`` (UTF-8);
* per round, one bytes object: the round number (4 bytes, little-endian);
  the 32-byte SHA-256 of the delivered (n, n) matrix as ``np.packbits`` of
  its row-major bits, eight to a byte with the first bit highest and the
  last byte padded with zero bits; the newly crashed ids, then the round's
  bits and qubits per message (each int64 in native byte order, two words
  in all); and the ``alive`` and ``halted`` masks (one byte per process);
* at ``finish``: the outputs and then the ledger summary, each as
  ``json.dumps(..., sort_keys=True)`` (outputs with ``default=str``).

n is in the header, so the packed bytes determine the matrix and their
SHA-256 identifies it.  Each delivery is hashed once, when it is built: a
round that reuses a cached delivery feeds its stored SHA-256 again.

Prepared rounds.  ``SimContext.prepare`` copies a round's targets C-ordered
into a ``PreparedRound``, clears the diagonal, counts each row's attempts
and clears the rows of the senders outside the active mask, which the
round keeps with the attempts' total.  A caller sending the same targets
again passes the round back; it caches its delivery when nobody crashes
(exactly ``targets & active``) with that delivery's SHA-256.  Each halt
and crash makes a new active mask, so ``exchange`` finds a round masked
with an older one stale and clears, with the same helper, the rows of the
senders that left, which also drops that cache.  Deliveries, active masks
and attempt counts are read-only and never written once shown: a returned
matrix's identity stands for its contents, and an active mask or attempt
counts taken earlier keep their values.
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

DIGEST_VERSION = 4
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


class CostLedger:
    """Communication totals over all n processes, exact Python ints:
    ``total_bits``, ``total_qubits`` and ``process_rounds``."""

    __slots__ = ("n", "total_bits", "total_qubits", "process_rounds")

    def __init__(self, n: int):
        self.n = n
        self.total_bits = self.total_qubits = self.process_rounds = 0

    def charge(self, messages: int, active: int, bits: int,
               qubits: int) -> None:
        """One round: ``messages`` paid messages at (bits, qubits) each,
        ``active`` processes active after it."""
        self.total_bits += bits * messages
        self.total_qubits += qubits * messages
        self.process_rounds += active

    def summary(self) -> dict:
        """The totals, and bits and qubits per process as exact fractions."""
        return {
            "total_bits": self.total_bits,
            "total_qubits": self.total_qubits,
            "process_rounds": self.process_rounds,
            "amortized_bits": str(Fraction(self.total_bits, self.n)),
            "amortized_qubits": str(Fraction(self.total_qubits, self.n)),
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


def _sha(delivered: np.ndarray) -> bytes:
    """The SHA-256 of a delivery's row-major bits, packed eight to a byte
    with zero pad bits: what the digest feeds for it (module docstring)."""
    return hashlib.sha256(np.packbits(delivered)).digest()


class PreparedRound:
    """One round's targets as ``exchange`` uses them (see module docstring)."""

    __slots__ = ("active", "targets", "sent", "messages", "delivered",
                 "sha")


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
        self._n_active = int(np.count_nonzero(self._active))
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
        (the counts in a copy, so views taken earlier keep theirs), total
        them, mask ``prep`` with the current active mask and drop its cached
        delivery."""
        prep.targets.flags.writeable = True
        prep.targets[gone] = False
        prep.targets.flags.writeable = False
        prep.sent = prep.sent.copy()
        prep.sent[gone] = 0
        prep.sent.flags.writeable = False
        prep.messages = int(prep.sent.sum())
        prep.active = self._active
        prep.delivered = prep.sha = None

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
        messages = prep.messages
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
            messages += (int(np.count_nonzero(delivered[newly]))
                         - int(prep.sent[newly].sum()))
            delivered.flags.writeable = False
            sha = _sha(delivered)
        else:
            if prep.delivered is None:
                prep.delivered = prep.targets & self._active[None, :]
                prep.delivered.flags.writeable = False
                prep.sha = _sha(prep.delivered)
            delivered, sha = prep.delivered, prep.sha
        self.ledger.charge(messages, self._n_active, bits, qubits)

        self._hash.update(b"".join((
            self.round.to_bytes(4, "little"), sha, newly.tobytes(),
            struct.pack("=2q", bits, qubits), self._mask_bytes)))

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

