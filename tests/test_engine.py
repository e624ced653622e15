import hashlib
import json
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import MessageIntent, deliver_round
from qconsim.adversaries import Adversary
from qconsim.coin import CoinParams, run_coin
from qconsim.engine import (_RUNS, DIGEST_VERSION, EMPTY_DECISION,
                            AdversaryViolation, CrashDecision,
                            RoundCapExceeded, SimContext)
from qconsim.rng import substream


class ScriptedAdversary(Adversary):
    """Replays a fixed list of CrashDecisions, one per round."""

    name = "scripted"

    def __init__(self, script):
        super().__init__()
        self.script = list(script)

    def decide(self, view):
        if self.script:
            return self.script.pop(0)
        return CrashDecision()


def _full_targets(n):
    return ~np.eye(n, dtype=bool)


def test_all_to_all_delivery_no_crashes():
    ctx = SimContext(4, 2, Adversary(), seed=0)
    delivered = ctx.exchange(_full_targets(4), bits=3)
    assert delivered.sum() == 12
    assert (ctx.ledger.bits == 9).all()
    assert ctx.round == 1


def test_no_self_delivery():
    ctx = SimContext(3, 1, Adversary(), seed=0)
    delivered = ctx.exchange(np.ones((3, 3), dtype=bool), bits=1)
    assert not delivered.diagonal().any()


def test_partial_delivery_on_crash():
    n = 4
    # a bool mask, or a list of bools
    for keep in (np.arange(n) == 2, [False, False, True, False]):
        script = [CrashDecision(np.array([0]), {0: keep})]
        ctx = SimContext(n, 2, ScriptedAdversary(script), seed=0)
        delivered = ctx.exchange(_full_targets(n), bits=5)
        assert delivered[0].sum() == 1 and delivered[0, 2]
        assert not ctx.alive[0]
        # crashed sender pays only for the delivered subset
        assert ctx.ledger.bits[0] == 5
        assert ctx.ledger.bits[1] == 15


def test_crash_with_no_partial_drops_everything():
    script = [CrashDecision(np.array([1]))]
    ctx = SimContext(3, 2, ScriptedAdversary(script), seed=0)
    delivered = ctx.exchange(_full_targets(3), bits=1)
    assert not delivered[1].any()
    assert ctx.ledger.bits[1] == 0


def test_crashed_recipient_gets_nothing():
    script = [CrashDecision(np.array([2]))]
    ctx = SimContext(3, 2, ScriptedAdversary(script), seed=0)
    delivered = ctx.exchange(_full_targets(3), bits=1)
    assert not delivered[:, 2].any()


def test_halted_processes_neither_send_nor_receive():
    ctx = SimContext(3, 1, Adversary(), seed=0)
    ctx.halt(np.array([True, False, False]))
    delivered = ctx.exchange(_full_targets(3), bits=1)
    assert not delivered[0].any() and not delivered[:, 0].any()
    assert ctx.ledger.rounds_active[0] == 0


def test_crash_budget_strictly_below_t():
    script = [CrashDecision(np.array([0, 1]))]
    ctx = SimContext(4, 2, ScriptedAdversary(script), seed=0)
    with pytest.raises(AdversaryViolation):
        ctx.exchange(_full_targets(4), bits=1)


def test_cannot_crash_dead_process():
    script = [CrashDecision(np.array([0])), CrashDecision(np.array([0]))]
    ctx = SimContext(4, 3, ScriptedAdversary(script), seed=0)
    ctx.exchange(_full_targets(4), bits=1)
    with pytest.raises(AdversaryViolation):
        ctx.exchange(_full_targets(4), bits=1)


@pytest.mark.parametrize("crash_ids,message", [
    ([-1], "distinct"), ([2, 2], "distinct"), ([4], "distinct"),
    (1, "1-D")], ids=["negative", "repeated", "out-of-range", "scalar"])
def test_malformed_crash_ids_are_a_violation(crash_ids, message):
    """Crash ids must be a 1-D array of distinct ids in [0, n): -1 would
    crash process 3 through negative indexing, [2, 2] would charge two
    crashes for one, 4 would be an IndexError and a zero-dimensional array
    a TypeError.  Nothing is crashed or charged."""
    script = [CrashDecision(np.array(crash_ids))]
    ctx = SimContext(4, 4, ScriptedAdversary(script), seed=0)
    with pytest.raises(AdversaryViolation, match=message):
        ctx.exchange(_full_targets(4), bits=1)
    assert ctx.alive.all() and ctx.crashes_used == 0


@pytest.mark.parametrize("partial", [
    {0: np.ones(5, dtype=bool)}, {0: np.ones((1, 4), dtype=bool)},
    {0: np.ones(4, dtype=np.int64)}, {0: [1, 0, 1, 0]},
    {0: np.ones(4, dtype=bool), 1: np.ones(4, dtype=bool)}],
    ids=["long", "2-D", "int", "int-list", "not-crashed"])
def test_malformed_partial_delivery_is_a_violation(partial):
    """A kept set must be a bool mask of shape (n,) for an id crashed this
    round: a wrong shape would fail in numpy's broadcasting and an int mask
    in its casting, after the crash was already counted, and a mask for a
    process not crashed would be ignored.  The round leaves no trace."""
    script = [CrashDecision(np.array([0]), partial)]
    ctx = SimContext(4, 4, ScriptedAdversary(script), seed=0)
    with pytest.raises(AdversaryViolation, match="partial delivery"):
        ctx.exchange(_full_targets(4), bits=1)
    assert ctx.alive.all() and ctx.crashes_used == 0 and ctx.round == 0


def test_round_cap():
    ctx = SimContext(2, 1, Adversary(), seed=0, round_cap=3)
    nobody = np.zeros((2, 2), dtype=bool)
    for _ in range(3):
        ctx.exchange(nobody, 0)
    with pytest.raises(RoundCapExceeded):
        ctx.exchange(nobody, 0)


def test_round_cap_carries_progress():
    """The exception says how far the run got: rounds, bits and qubits."""
    ctx = SimContext(3, 1, Adversary(), seed=0, round_cap=2)
    ctx.exchange(_full_targets(3), bits=2, qubits=1)
    ctx.exchange(_full_targets(3), bits=1)
    with pytest.raises(RoundCapExceeded) as info:
        ctx.exchange(_full_targets(3), bits=1)
    exc = info.value
    assert (exc.rounds, exc.total_bits, exc.total_qubits) == (2, 18, 6)
    assert exc.phases is None


def test_vectorized_engine_matches_reference_delivery():
    """The engine's matrix path agrees with the per-message reference."""
    n = 6
    rng = substream(42, "engine-oracle")
    for trial in range(50):
        targets = rng.random((n, n)) < 0.5
        np.fill_diagonal(targets, False)
        alive = np.ones(n, dtype=bool)
        crash = rng.choice(n, size=2, replace=False)
        keep = rng.random(n) < 0.5
        decision = CrashDecision(np.sort(crash), {int(crash[0]): keep})
        script = [CrashDecision(np.sort(crash).copy(),
                                {int(crash[0]): keep.copy()})]
        ctx = SimContext(n, 3, ScriptedAdversary(script), seed=trial)
        delivered = ctx.exchange(targets.copy(), bits=1)

        intents = [MessageIntent(s, r, 1, 0)
                   for s in range(n) for r in range(n) if targets[s, r]]
        inbox = deliver_round(intents, decision, alive)
        ref = np.zeros((n, n), dtype=bool)
        for r, msgs in inbox.items():
            for m in msgs:
                ref[m.sender, r] = True
        assert (delivered == ref).all(), trial


def test_transposed_targets_match_contiguous_copy():
    """An F-ordered targets view (the relay's response round passes the
    transpose of the inquiry matrix) gives the same delivered matrix, ledger
    and digest as its C-contiguous copy, also when a crash delivers part of
    a multicast."""
    n = 7
    rng = substream(5, "engine-layout")
    inquiries = [rng.random((n, n)) < 0.5 for _ in range(3)]
    keep = rng.random(n) < 0.5
    runs = []
    for layout in (lambda m: m.T, lambda m: np.ascontiguousarray(m.T)):
        script = [CrashDecision(np.array([2, 4]), {2: keep.copy()}),
                  CrashDecision(), CrashDecision(np.array([0]))]
        ctx = SimContext(n, 5, ScriptedAdversary(script), seed=8)
        ctx.halt(np.arange(n) == 6)
        targets = [layout(m) for m in inquiries]
        assert targets[0].flags.f_contiguous != targets[0].flags.c_contiguous
        delivered = [ctx.exchange(t, bits=3, qubits=2)
                     for t in targets]
        runs.append((delivered, ctx.ledger, ctx.finish({}, "scripted")))
    (d_view, ledger_view, tr_view), (d_copy, ledger_copy, tr_copy) = runs
    assert delivered[0][2].any() and not delivered[0][2].all()  # partial
    for a, b in zip(d_view, d_copy):
        assert a.flags.c_contiguous and (a == b).all()
    for field in ("bits", "qubits", "rounds_active"):
        assert (getattr(ledger_view, field) == getattr(ledger_copy, field)).all()
    assert tr_view.digest == tr_copy.digest


def test_transcript_digest_replay_identical():
    def run(seed):
        ctx = SimContext(5, 2, Adversary(), seed=seed)
        for i in range(5):
            ctx.exchange(_full_targets(ctx.n), bits=i + 1)
        return ctx.finish({"done": 1}, "none")

    t1, t2, t3 = run(9), run(9), run(10)
    assert t1.digest == t2.digest
    assert t3.digest != t1.digest


def _packed_rows(matrix):
    """The matrix's bits in row-major order, eight to a byte with the first
    bit highest, the last byte padded with zero bits."""
    bits = "".join("1" if v else "0" for v in matrix.ravel().tolist())
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def _int64s(values):
    return struct.pack(f"={len(values)}q", *values)


def _v3_digest(n, t, seed, rounds, outputs, ledger):
    """The digest built by hand from the documented version-3 byte layout.

    ``rounds`` holds one (delivered, newly, bits, qubits, alive, halted)
    tuple per round; ``bits`` and ``qubits`` are the round's two ints, the
    other per-process fields lists of ints.
    """
    h = hashlib.sha256(f"v3|{n}|{t}|{seed}".encode())
    for r, (delivered, newly, bits, qubits, alive, halted) in enumerate(
            rounds):
        h.update(r.to_bytes(4, "little"))
        h.update(_packed_rows(delivered))
        h.update(_int64s(newly))
        h.update(_int64s([bits, qubits]))
        h.update(bytes(alive))
        h.update(bytes(halted))
    h.update(json.dumps(outputs, sort_keys=True, default=str).encode())
    h.update(json.dumps(ledger, sort_keys=True).encode())
    return h.hexdigest()


def test_digest_v3_layout():
    """The transcript digest is the documented v3 byte sequence: the 9-bit
    matrix at n = 3 packs into two bytes with seven zero pad bits, each
    round's costs are two int64 words, and every delivered bit, the last
    one included, reaches the digest."""
    assert DIGEST_VERSION == 3
    keep = np.array([True, False, False])
    script = [CrashDecision(), CrashDecision(np.array([1]), {1: keep})]
    ctx = SimContext(3, 2, ScriptedAdversary(script), seed=6)
    full = ctx.exchange(_full_targets(3), bits=2, qubits=1)
    partial = ctx.exchange(_full_targets(3), bits=4)
    outputs = {"decisions": [0, 1, 1]}
    transcript = ctx.finish(outputs, "scripted")

    assert (full == _full_targets(3)).all()
    assert partial.tolist() == [[False, False, True],
                                [True, False, False],
                                [True, False, False]]
    rounds = [(full, [], 2, 1, [1, 1, 1], [0, 0, 0]),
              (partial, [1], 4, 0, [1, 0, 1], [0, 0, 0])]
    expected = _v3_digest(3, 2, 6, rounds, outputs, transcript.ledger)
    assert transcript.digest == expected
    assert json.loads(transcript.to_json())["digest_version"] == 3

    for r in range(len(rounds)):
        for i in range(9):
            flipped = [list(rd) for rd in rounds]
            flipped[r][0] = rounds[r][0].copy()
            flipped[r][0].flat[i] ^= True
            assert _v3_digest(3, 2, 6, flipped, outputs,
                              transcript.ledger) != expected, (r, i)


def test_transcript_json_uses_one_based_ids():
    ctx = SimContext(3, 2, ScriptedAdversary([CrashDecision(np.array([0]))]),
                     seed=0)
    ctx.exchange(_full_targets(ctx.n), bits=1)
    tr = ctx.finish({}, "scripted")
    assert tr.crashed == [0]
    assert '"crashed": [\n    1\n  ]' in tr.to_json()


def test_view_exposes_classical_but_not_hidden():
    seen = {}

    class Spy(Adversary):
        name = "spy"

        def decide(self, view):
            seen["payload"] = view.payload
            seen["has_hidden"] = any("hidden" in a for a in dir(view))
            return CrashDecision()

    ctx = SimContext(3, 1, Spy(), seed=0)
    ctx.exchange(_full_targets(3), bits=1, payload={"level": np.zeros(3)})
    assert "level" in seen["payload"]
    assert not seen["has_hidden"]


def test_empty_decision_is_immutable():
    """The shared no-crash decision cannot be changed by an adversary."""
    with pytest.raises(ValueError):
        EMPTY_DECISION.newly_crashed.resize(1, refcheck=False)
    with pytest.raises(ValueError):
        EMPTY_DECISION.newly_crashed[...] = 0
    with pytest.raises(TypeError):
        EMPTY_DECISION.partial_delivery[0] = np.ones(3, dtype=bool)
    with pytest.raises(AttributeError):
        EMPTY_DECISION.newly_crashed = np.array([0])
    assert EMPTY_DECISION.newly_crashed.size == 0
    assert len(EMPTY_DECISION.partial_delivery) == 0


# -- prepared rounds ----------------------------------------------------------

class TargetRecorder(Adversary):
    """Replays a script like ScriptedAdversary and records what each view's
    targets hold, each view's attempt counts (the array shown, and a copy),
    and whether writing into its targets, alive and halted masks raised."""

    name = "recorder"

    def __init__(self, script=()):
        self.script = list(script)
        self.seen = []
        self.attempts = []
        self.write_raised = []

    def decide(self, view):
        self.seen.append(view.targets.copy())
        self.attempts.append((view.attempts, view.attempts.copy()))
        for mask in (view.targets, view.alive, view.halted):
            try:
                mask[0] = False
            except ValueError:
                self.write_raised.append(True)
            else:
                self.write_raised.append(False)
        return self.script.pop(0) if self.script else EMPTY_DECISION


def _prepared_vs_raw(n, t, script, events, targets):
    """Runs ``events`` ("x" = exchange, or a halt mask) twice: once passing
    one prepared round every time, once passing the raw matrix, which
    ``exchange`` prepares afresh each round; returns (deliveries, views'
    targets, views' attempts, ledger, digest) of each run."""
    runs = []
    for prepared in (True, False):
        adversary = TargetRecorder([CrashDecision(d.newly_crashed.copy(),
                                                  dict(d.partial_delivery))
                                    for d in script])
        ctx = SimContext(n, t, adversary, seed=4)
        prep = ctx.prepare(targets) if prepared else None
        delivered = []
        for event in events:
            if isinstance(event, str):
                delivered.append(ctx.exchange(prep or targets, bits=2,
                                              qubits=1))
            else:
                ctx.halt(event)
        runs.append((delivered, adversary.seen, adversary.attempts,
                     ctx.ledger, ctx.finish({}, "recorder").digest))
    return runs


def test_prepared_round_is_remasked_after_halt():
    n = 5
    stop = np.arange(n) == 3
    events = ["x", "x", stop, "x", "x"]
    (got, seen, _, ledger, digest), (ref, ref_seen, _, ref_ledger,
                                     ref_digest) = (
        _prepared_vs_raw(n, 2, [], events, _full_targets(n)))
    assert got[0] is got[1]  # nobody crashed: the same delivery
    assert not got[2][3].any() and not got[2][:, 3].any()
    assert not seen[2][3].any()
    assert got[2] is not got[1] and got[2] is got[3]
    for a, b in zip(got + seen, ref + ref_seen):
        assert (a == b).all()
    assert (ledger.bits == ref_ledger.bits).all()
    assert digest == ref_digest


def test_prepared_round_is_remasked_after_crash():
    """A crash round builds a fresh delivery instead of the cached one, and
    the rounds after it re-mask the crashed sender out."""
    n = 5
    keep = np.array([True, False, True, False, False])
    script = [EMPTY_DECISION, CrashDecision(np.array([1]), {1: keep}),
              EMPTY_DECISION, CrashDecision(np.array([4])), EMPTY_DECISION]
    (got, seen, _, ledger, digest), (ref, ref_seen, _, ref_ledger,
                                     ref_digest) = (
        _prepared_vs_raw(n, 4, script, ["x"] * 5, _full_targets(n)))
    assert got[1] is not got[0]
    assert got[1][1].tolist() == [True, False, True, False, False]
    assert not got[1][:, 1].any()  # crashed this round: receives nothing
    assert not got[2][1].any() and not seen[2][1].any()
    assert not got[3][4].any() and not got[3][:, 4].any()
    for a, b in zip(got + seen, ref + ref_seen):
        assert (a == b).all()
    assert (ledger.bits == ref_ledger.bits).all()
    assert digest == ref_digest


def test_row_remask_matches_fresh_prepare():
    """One prepared round of drawn targets, re-masked by rows after halts
    and after crashes with partial delivery, shows the adversary the
    targets and attempt counts a fresh ``prepare`` of the original targets
    gives, and delivers, charges and hashes the same.  Attempt counts shown
    before a re-mask keep their values."""
    n = 9
    rng = substream(6, "row-remask")
    targets = rng.random((n, n)) < 0.6
    keep = rng.random(n) < 0.5
    script = [EMPTY_DECISION, CrashDecision(np.array([1, 7]), {1: keep}),
              EMPTY_DECISION, CrashDecision(np.array([3])),
              CrashDecision(np.array([0]), {0: ~keep}), EMPTY_DECISION,
              EMPTY_DECISION]
    events = ["x", "x", "x", np.arange(n) == 5, "x", "x", "x",
              np.arange(n) == 2, "x", "x"]
    (got, seen, attempts, ledger, digest), (ref, ref_seen, ref_attempts,
                                            ref_ledger, ref_digest) = (
        _prepared_vs_raw(n, 5, script, events, targets))
    assert not got[1][1].all() and got[1][1].any()  # a partial delivery
    assert attempts[0][0] is not attempts[-1][0]  # re-masked
    for a, b in zip(got + seen, ref + ref_seen):
        assert (a == b).all()
    for (shown, then), (ref_shown, _) in zip(attempts, ref_attempts):
        assert (shown == then).all() and (shown == ref_shown).all()
    for field in ("bits", "qubits", "rounds_active"):
        assert (getattr(ledger, field) == getattr(ref_ledger, field)).all()
    assert digest == ref_digest


def test_view_taken_before_a_halt_keeps_its_attempts():
    """Re-masking a prepared round after a halt leaves the attempt counts
    an earlier view was shown as they were."""
    n = 4
    adversary = TargetRecorder()
    ctx = SimContext(n, 2, adversary, seed=0)
    prep = ctx.prepare(_full_targets(n))
    ctx.exchange(prep, bits=1)
    ctx.halt(np.arange(n) == 2)
    ctx.exchange(prep, bits=1)
    (before, _), (after, _) = adversary.attempts
    assert before.tolist() == [3, 3, 3, 3]
    assert after.tolist() == [3, 3, 0, 3]


def test_returned_delivery_and_view_masks_are_read_only():
    adversary = TargetRecorder([EMPTY_DECISION, CrashDecision(np.array([0]))])
    ctx = SimContext(4, 2, adversary, seed=0)
    prep = ctx.prepare(_full_targets(4))
    for targets in (prep, prep, _full_targets(4)):
        delivered = ctx.exchange(targets, bits=1)
        with pytest.raises(ValueError):
            delivered[1, 2] = False
    assert adversary.write_raised == [True] * 9
    assert ctx.alive[1:].all() and not ctx.halted.any()


class CostRecorder(ScriptedAdversary):
    """A ScriptedAdversary that keeps what each view's attempts and costs
    held (the costs are the round's two ints), and checks that writing into
    its attempts raises."""

    name = "cost-recorder"

    def __init__(self, script):
        super().__init__(script)
        self.seen = []

    def decide(self, view):
        self.seen.append((view.attempts.copy(), view.bits_per_message,
                          view.qubits_per_message))
        with pytest.raises(ValueError):
            view.attempts[0] = 0
        return super().decide(view)


def test_round_costs_follow_pairs_halts_and_crashes():
    """One prepared round sent again and again: cost pairs alternate, a new
    pair comes in between, then a halt and a crash with partial delivery.
    Each view shows the round's pair as two ints, the digest is the
    documented v3 byte sequence and the ledger the sum, round by round, of
    each sender's attempts (its delivered messages in its crash round)
    times the round's costs."""
    n = 5
    targets = substream(3, "cost-entry").random((n, n)) < 0.7
    targets[0] = targets[:, 1] = True  # sender 0 reaches all, all reach 1
    keep = np.array([True, True, False, True, True])
    halt = np.arange(n) == 4
    # (bits, qubits, crashed, partial delivery), or a halt mask
    events = [(1, 0, [], {}), (5, 2, [], {}), (1, 0, [], {}), (1, 2, [], {}),
              (3, 2, [], {}), (1, 2, [], {}), (1, 0, [], {}), halt,
              (1, 0, [], {}),
              (5, 2, [0], {0: keep}), (5, 2, [], {}), (1, 0, [], {})]
    script = [CrashDecision(np.array(e[2], dtype=np.int64), e[3])
              for e in events if isinstance(e, tuple)]
    adversary = CostRecorder(script)
    ctx = SimContext(n, 3, adversary, seed=11)
    prep = ctx.prepare(targets)

    alive, halted = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    bits = np.zeros(n, dtype=np.int64)
    qubits = np.zeros(n, dtype=np.int64)
    active_rounds = np.zeros(n, dtype=np.int64)
    rounds = []
    for event in events:
        if not isinstance(event, tuple):
            ctx.halt(event)
            halted |= event
            continue
        b, q, crashed, partial = event
        delivered = ctx.exchange(prep, b, q)
        can_send = alive & ~halted
        attempted = targets & can_send[:, None] & ~np.eye(n, dtype=bool)
        alive[crashed] = False
        expected = attempted & (alive & ~halted)[None, :]
        for s in crashed:
            expected[s] &= partial.get(s, False)
        assert (delivered == expected).all()
        attempts = attempted.sum(axis=1)
        seen_attempts, seen_bits, seen_qubits = adversary.seen[len(rounds)]
        assert (seen_attempts == attempts).all()
        attempts[crashed] = expected[crashed].sum(axis=1)
        assert type(seen_bits) is type(seen_qubits) is int
        assert (seen_bits, seen_qubits) == (b, q)
        bits += b * attempts
        qubits += q * attempts
        active_rounds += alive & ~halted
        rounds.append((expected, crashed, b, q,
                       alive.astype(int).tolist(),
                       halted.astype(int).tolist()))
    transcript = ctx.finish({}, "cost-recorder")

    assert (ctx.ledger.bits == bits).all()
    assert (ctx.ledger.qubits == qubits).all()
    assert (ctx.ledger.rounds_active == active_rounds).all()
    assert transcript.digest == _v3_digest(n, 3, 11, rounds, {},
                                           transcript.ledger)


def test_ledger_charges_costs_past_the_attempt_dtype():
    """Attempt counts are uint8 at n = 4, yet costs far past 255 (and past
    2**32) are charged exactly, in a crash-free round and in a crash round
    with partial delivery alike."""
    keep = np.array([False, True, False, True])
    script = [EMPTY_DECISION, CrashDecision(np.array([0]), {0: keep})]
    ctx = SimContext(4, 3, ScriptedAdversary(script), seed=0)
    prep = ctx.prepare(_full_targets(4))
    assert prep.sent.dtype == np.uint8
    big = 3 << 40
    ctx.exchange(prep, bits=300, qubits=big)
    ctx.exchange(prep, bits=300, qubits=big)
    # sender 0 pays 3 messages, then the 2 it delivers in its crash round;
    # the others pay all 3 attempts in both rounds
    assert ctx.ledger.bits.tolist() == [300 * 5] + [300 * 6] * 3
    assert ctx.ledger.qubits.tolist() == [big * 5] + [big * 6] * 3


@st.composite
def ledger_case(draw):
    """n, three target matrices (two prepared rounds and a raw one) and a
    list of events: an exchange (which round, bits, qubits, crash ids,
    partial delivery), a halt mask, or "read".  Cost pairs come from a small
    pool, so runs repeat; crashes stay within the budget of t = n."""
    n = draw(st.integers(2, 7))
    matrix = st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v).reshape(n, n))
    mask = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    pairs = draw(st.lists(st.tuples(st.integers(0, 300),
                                    st.integers(0, 3 << 40)),
                          min_size=1, max_size=7))
    alive, events = list(range(n)), []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["a", "b", "a", "b", "raw", "halt",
                                     "read"]))
        if kind == "halt":
            events.append(draw(mask))
        elif kind == "read":
            events.append(kind)
        else:
            ids = []
            if len(alive) > 2 and draw(st.integers(0, 4)) == 0:
                ids = draw(st.lists(st.sampled_from(alive), min_size=1,
                                    max_size=2, unique=True))
            partial = {p: draw(mask) for p in ids if draw(st.booleans())}
            events.append((kind, *draw(st.sampled_from(pairs)), ids, partial))
            alive = [p for p in alive if p not in ids]
    return n, [draw(matrix) for _ in range(3)], events


# two rounds alternating over six cost pairs, more runs than the ledger
# holds, read in the middle; then a halt and a crash with partial delivery
_MANY_RUNS = (5, [_full_targets(5), np.eye(5, k=1, dtype=bool),
                  _full_targets(5)],
              [(r, b, q, [], {}) for b, q in [(1, 0), (2, 1), (3, 0),
                                              (1, 1 << 40), (5, 2), (300, 7)]
               for r in "abab"]
              + ["read", np.arange(5) == 4, ("a", 2, 1, [], {}),
                 ("b", 2, 1, [0], {0: np.arange(5) == 1}), ("a", 2, 1, [], {}),
                 "read", ("raw", 2, 1, [], {}), ("raw", 2, 1, [], {})])


def _ledger_fields(ledger):
    return (ledger.bits.tolist(), ledger.qubits.tolist(),
            ledger.rounds_active.tolist(), ledger.summary())


@settings(max_examples=150, deadline=None)
@given(ledger_case())
@example(_MANY_RUNS)
def test_run_length_ledger_matches_per_round_charging(case):
    """The ledger, which queues crash-free rounds as runs, holds at every
    read what charging each round on its own gives: two prepared rounds used
    alternately, raw-matrix rounds, changing cost pairs, halts and crashes
    with partial delivery.  Reading mid-run changes no later total: a run
    without the reads ends with the same ledger and digest, and the digest
    is the documented v3 byte sequence over the per-round ledger."""
    n, (a, b, raw), events = case
    ends = []
    for reading in (True, False):
        script = [CrashDecision(np.array(e[3], dtype=np.int64), e[4])
                  for e in events if isinstance(e, tuple)]
        ctx = SimContext(n, n, ScriptedAdversary(script), seed=2)
        rounds_by_name = {"a": ctx.prepare(a), "b": ctx.prepare(b), "raw": raw}
        targets_by_name = {"a": a, "b": b, "raw": raw}
        alive, halted = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        bits, qubits, active_rounds = np.zeros((3, n), dtype=np.int64)
        rounds = []

        def expected():
            total_bits, total_qubits = int(bits.sum()), int(qubits.sum())
            return (bits.tolist(), qubits.tolist(), active_rounds.tolist(),
                    {"total_bits": total_bits, "total_qubits": total_qubits,
                     "process_rounds": int(active_rounds.sum()),
                     "amortized_bits": str(Fraction(total_bits, n)),
                     "amortized_qubits": str(Fraction(total_qubits, n))})

        for event in events:
            if isinstance(event, str):
                if reading:
                    assert _ledger_fields(ctx.ledger) == expected()
                continue
            if not isinstance(event, tuple):
                ctx.halt(event)
                halted |= event
                continue
            name, b_, q, crashed, partial = event
            delivered = ctx.exchange(rounds_by_name[name], b_, q)
            attempted = (targets_by_name[name] & (alive & ~halted)[:, None]
                         & ~np.eye(n, dtype=bool))
            alive[crashed] = False
            want = attempted & (alive & ~halted)[None, :]
            for s in crashed:
                want[s] &= partial.get(s, False)
            assert (delivered == want).all()
            attempts = attempted.sum(axis=1)
            attempts[crashed] = want[crashed].sum(axis=1)
            bits += b_ * attempts
            qubits += q * attempts
            active_rounds += alive & ~halted
            rounds.append((want, crashed, b_, q, alive.astype(int).tolist(),
                           halted.astype(int).tolist()))
        transcript = ctx.finish({}, "scripted")
        assert _ledger_fields(ctx.ledger) == expected()
        assert transcript.ledger == expected()[3]
        assert transcript.digest == _v3_digest(n, n, 2, rounds, {},
                                               expected()[3])
        ends.append((_ledger_fields(ctx.ledger), transcript.digest))
    assert ends[0] == ends[1]


def test_many_runs_example_overflows_the_run_table():
    """The explicit example of the ledger test queues more distinct runs
    before its first read than the ledger holds."""
    _, _, events = _MANY_RUNS
    first = events[:events.index("read")]
    assert len({(e[0], e[1], e[2]) for e in first}) > _RUNS


def test_round_cap_mid_relay_carries_exact_totals():
    """A coin relay cut by the round cap mid-window, with runs still
    pending, reports exactly the bits and qubits of the rounds it ran: the
    sum of each view's attempts times its costs (nobody crashes)."""
    seen = []

    class Recorder(Adversary):
        def decide(self, view):
            seen.append((int(view.attempts.sum()), view.bits_per_message,
                         view.qubits_per_message))
            return EMPTY_DECISION

    n = 24
    params = CoinParams.make(n)
    cap = params.rounds // 2 + 1
    ctx = SimContext(n, 8, Recorder(), seed=4, round_cap=cap)
    with pytest.raises(RoundCapExceeded) as info:
        run_coin(ctx, params)
    assert info.value.rounds == cap == len(seen)
    assert info.value.total_bits == sum(m * b for m, b, _ in seen) > 0
    assert info.value.total_qubits == sum(m * q for m, _, q in seen) > 0


def test_active_mask_is_a_read_only_snapshot():
    """A mask taken from ``ctx.active`` keeps its values across a halt and
    a crash, and writing into it raises and leaves delivery unchanged."""
    n = 4
    ctx = SimContext(n, 3, ScriptedAdversary([CrashDecision(np.array([1]))]),
                     seed=0)
    first = ctx.active
    ctx.halt(np.arange(n) == 3)
    second = ctx.active
    ctx.exchange(_full_targets(n), bits=1)  # crashes process 1
    third = ctx.active
    assert first.tolist() == [True, True, True, True]
    assert second.tolist() == [True, True, True, False]
    assert third.tolist() == [True, False, True, False]
    for mask in (first, second, third):
        with pytest.raises(ValueError):
            mask[0] = False
        with pytest.raises(ValueError):
            mask |= True
    delivered = ctx.exchange(_full_targets(n), bits=1)
    assert delivered.tolist() == [[False, False, True, False],
                                  [False, False, False, False],
                                  [True, False, False, False],
                                  [False, False, False, False]]


@pytest.mark.parametrize("costs", [
    {"bits": np.arange(4) + 1}, {"bits": 1, "qubits": np.full(4, 2)},
    {"bits": 1.5}, {"bits": 1, "qubits": 2.0}],
    ids=["bits-array", "qubits-array", "bits-float", "qubits-float"])
def test_non_integer_costs_are_rejected_on_every_path(costs):
    """A per-sender cost array or a float fails with the same TypeError on
    a raw matrix, a fresh prepared round and a reused one, before the round
    counts or the ledger moves."""
    n = 4
    ctx = SimContext(n, 2, Adversary(), seed=0)
    prep = ctx.prepare(_full_targets(n))
    ctx.exchange(prep, 1)  # the round is now cached
    for targets in (_full_targets(n), ctx.prepare(_full_targets(n)), prep):
        with pytest.raises(TypeError, match="integer"):
            ctx.exchange(targets, **costs)
    assert ctx.round == 1 and ctx.ledger.total_bits == n * (n - 1)
