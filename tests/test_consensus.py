import numpy as np
import pytest

from oracles import phase_action_rational
from qconsim.adversaries import (Adversary, DegreeTargeter, RandomCrasher,
                                 SplitAttacker, make_adversary)
from qconsim.consensus import (ConsensusParams, PhaseAction,
                               PhaseCapExceeded, fallback_rounds,
                               fallback_threshold, phase_rule, run_consensus,
                               should_stop)
from qconsim.engine import EMPTY_DECISION, RoundCapExceeded


def test_phase_decision_examples():
    assert phase_rule(8, 10) == PhaseAction.DECIDE1
    assert phase_rule(0, 1) == PhaseAction.DECIDE0
    assert phase_rule(5, 10) == PhaseAction.FLIP
    codes = phase_rule(np.array([8, 0, 5]), np.array([10, 1, 10]))
    assert codes.tolist() == [PhaseAction.DECIDE1, PhaseAction.DECIDE0,
                              PhaseAction.FLIP]


def test_phase_decision_rejects_bad_input():
    with pytest.raises(ValueError):
        phase_rule(5, 4)
    with pytest.raises(ValueError):
        phase_rule(np.array([1, -1]), np.array([2, 2]))


def test_phase_decision_matches_rational_oracle_small_grid():
    totals, ones = np.nonzero(np.tri(60, dtype=bool))  # all 0 <= O <= N < 60
    got = phase_rule(ones, totals)
    want = [phase_action_rational(o, n) for o, n in zip(ones, totals)]
    assert got.tolist() == want


def test_should_stop_examples():
    assert not should_stop(100, 95, 80)   # shrank by 20 > 9.5
    assert should_stop(100, 98, 95)       # shrank by 5 <= 9.8
    assert should_stop(10, 10, 10)        # no shrink at all
    stop = should_stop(np.array([100, 100, 10]), np.array([95, 98, 10]),
                       np.array([80, 95, 10]))
    assert stop.tolist() == [False, True, True]


def test_fallback_threshold_shape():
    assert fallback_threshold(1) == 1
    assert fallback_threshold(64) == 4    # ceil(sqrt(64/6)) = ceil(3.27)
    assert fallback_rounds(64) == 5


def test_presets():
    c = ConsensusParams.constant(64, 0.5)
    assert (c.x, c.d, c.alpha) == (8, 6, 8)
    p = ConsensusParams.polylog(64)
    assert (p.x, p.d, p.alpha) == (2, 6, 6)


def test_single_process_decides_own_input():
    r = run_consensus(np.array([1]), ConsensusParams.polylog(1), t=0,
                      adversary=Adversary(), seed=0)
    assert r.decisions.tolist() == [1] and r.agreed


def test_unanimous_inputs_decide_that_value():
    for value in (0, 1):
        for n in (4, 9):
            inputs = np.full(n, value)
            r = run_consensus(inputs, ConsensusParams.polylog(n),
                              t=max(1, n // 3), adversary=Adversary(), seed=3)
            assert r.agreed and r.valid(inputs)
            assert set(r.decisions.tolist()) == {value}


@pytest.mark.parametrize("adv_name", ["none", "random_crasher",
                                      "degree_targeter", "split_attacker"])
@pytest.mark.parametrize("preset", ["polylog", "constant"])
def test_agreement_and_validity_small(adv_name, preset):
    for seed in range(6):
        n = 12
        params = (ConsensusParams.polylog(n) if preset == "polylog"
                  else ConsensusParams.constant(n, 0.5))
        inputs = (np.arange(n) + seed) % 2
        r = run_consensus(inputs, params, t=4,
                          adversary=make_adversary(adv_name), seed=seed)
        assert r.agreed, (adv_name, preset, seed)
        assert r.valid(inputs)
        # every never-crashed process decided
        alive_undecided = (r.decisions < 0) & \
            np.isin(np.arange(n), r.transcript.crashed, invert=True)
        assert not alive_undecided.any()


def test_every_phase_runs_the_coin_block():
    r = run_consensus(np.arange(8) % 2, ConsensusParams.polylog(8), t=2,
                      adversary=Adversary(), seed=5)
    coin_rounds = ConsensusParams.polylog(8).coin_params(8).rounds
    assert r.phases >= 1
    # round count per phase includes counting windows + fallback + coin
    from qconsim.counting import partition_levels
    from qconsim.exchange import Window
    p = ConsensusParams.polylog(8)
    levels = partition_levels(8, p.x)
    sizes = [8] + [np.diff(lvl).max() for lvl in levels[:-1]]
    per_phase = sum(Window.for_size(m, p.d, p.alpha).rounds for m in sizes) \
        + 1 + fallback_rounds(8) + coin_rounds
    assert r.transcript.rounds == r.phases * per_phase


def test_phase_schedule_identical_across_inputs():
    """Round schedule is input-independent while no one halts."""
    r0 = run_consensus(np.zeros(8, dtype=int), ConsensusParams.polylog(8),
                       t=2, adversary=Adversary(), seed=6)
    r1 = run_consensus(np.arange(8) % 2, ConsensusParams.polylog(8),
                       t=2, adversary=Adversary(), seed=6)
    per_phase0 = r0.transcript.rounds / r0.phases
    per_phase1 = r1.transcript.rounds / r1.phases
    assert per_phase0 == per_phase1


def test_fallback_decides_when_survivors_below_threshold():
    # crash almost everyone early: survivors < sqrt(n/log n) forces fallback,
    # which must still yield agreement + validity
    class Massacre(Adversary):
        name = "massacre"

        def decide(self, view):
            from qconsim.engine import CrashDecision
            if view.round == 10:
                alive = np.nonzero(view.alive)[0]
                victims = alive[1:1 + view.crash_budget_left]
                return CrashDecision(victims)
            return CrashDecision()

    n = 16
    inputs = np.arange(n) % 2
    r = run_consensus(inputs, ConsensusParams.polylog(n), t=n,
                      adversary=Massacre(), seed=7)
    assert r.agreed and r.valid(inputs)
    assert any(s.fallback > 0 for s in r.phase_stats)


def test_adversary_sees_the_live_phase_state_every_round():
    """Every round, the fallback window's included, shows the adversary its
    phase's state, and the coin's rounds show the decided set that the phase
    rule left: here all 16 processes decide in phase 1."""

    class Recorder(Adversary):
        name = "recorder"

        def __init__(self):
            super().__init__()
            self.seen = []

        def decide(self, view):
            self.seen.append(view.state and (view.state["phase"],
                                             int(view.state["decided"].sum())))
            return EMPTY_DECISION

    n = 16
    params = ConsensusParams.polylog(n)
    recorder = Recorder()
    r = run_consensus(np.array([1] * 12 + [0] * 4), params, 5, recorder,
                      seed=3)
    assert None not in recorder.seen
    coin_rounds = params.coin_params(n).rounds
    phase1 = [decided for phase, decided in recorder.seen if phase == 1]
    assert r.phase_stats[0].decided == n
    assert phase1[-coin_rounds:] == [n] * coin_rounds


def test_transcript_digest_replay():
    kw = dict(params=ConsensusParams.constant(16, 0.5), t=5,
              seed=11)
    a = run_consensus(np.arange(16) % 2, adversary=RandomCrasher(0.01), **kw)
    b = run_consensus(np.arange(16) % 2, adversary=RandomCrasher(0.01), **kw)
    assert a.transcript.digest == b.transcript.digest
    assert (a.decisions == b.decisions).all()


def test_decided_processes_halt_and_release_counts():
    r = run_consensus(np.ones(10, dtype=int), ConsensusParams.polylog(10),
                      t=3, adversary=Adversary(), seed=2)
    # unanimity: everyone decides in the first termination-check window
    assert r.phases <= 6
    assert all(s.stopped == 0 for s in r.phase_stats[:3])


def test_cap_exceptions_carry_progress():
    """A capped run reports the phases it completed and what it spent."""
    inputs = np.array([0, 1] * 4)
    params = ConsensusParams.polylog(8)
    full = run_consensus(inputs, params, 2, Adversary(), seed=3)
    per_phase = full.transcript.rounds // full.phases
    with pytest.raises(PhaseCapExceeded) as info:
        run_consensus(inputs, params, 2, Adversary(), seed=3, phase_cap=1)
    assert (info.value.phases, info.value.rounds) == (1, per_phase)
    assert 0 < info.value.total_bits < full.transcript.ledger["total_bits"]
    with pytest.raises(RoundCapExceeded) as info:
        run_consensus(inputs, params, 2, Adversary(), seed=3,
                      round_cap=per_phase + 5)
    assert (info.value.phases, info.value.rounds) == (1, per_phase + 5)
    assert info.value.total_qubits > 0


class Writer(Adversary):
    """In the first round of one kind (counting, coin or fallback, told apart
    by the payload keys) it writes zeros into one payload or state array of
    its view, and records whether the write raised; or it rebinds one of
    the view's two costs (ints) to another value, which cannot raise."""

    name = "writer"

    def __init__(self, kind, where, key):
        super().__init__()
        self.kind, self.where, self.key = kind, where, key
        self.raised = []

    def decide(self, view):
        payload = view.payload or {}
        kind = ("count" if "rumors0" in payload else
                "fallback" if "bit" in payload else
                "coin" if payload else None)
        if kind != self.kind or self.raised:
            return EMPTY_DECISION
        if self.where == "view":
            setattr(view, self.key, getattr(view, self.key) + 1)
            self.raised.append(False)
            return EMPTY_DECISION
        arrays = {"payload": payload, "state": view.state}
        try:
            arrays[self.where][self.key][...] = 0
        except ValueError:
            self.raised.append(True)
        else:
            self.raised.append(False)
        if self.where == "state":
            with pytest.raises(TypeError):
                view.state[self.key] = None
        return EMPTY_DECISION


_ROUND_PAYLOADS = {"count": ["rumors0", "adaptive_degree"],
                   "coin": ["adaptive_degree"], "fallback": ["bit"]}
_WRITES = [(kind, where, key) for kind, keys in _ROUND_PAYLOADS.items()
           for where, key in [("payload", k) for k in keys]
           + [("state", "b"), ("state", "decided"),
              ("view", "bits_per_message"), ("view", "qubits_per_message")]]


@pytest.mark.parametrize("kind,where,key", _WRITES)
def test_adversary_cannot_write_through_its_view(kind, where, key):
    """Every payload and state array in a view is read-only, and its costs
    are ints that the engine does not read back, in counting, coin and
    fallback rounds alike, so a writing adversary leaves the run exactly as
    a passive one does (all inputs 1, no crash)."""
    n = 8
    params = ConsensusParams.polylog(n)
    inputs = np.ones(n, dtype=np.int64)
    writer = Writer(kind, where, key)
    r = run_consensus(inputs, params, 2, writer, seed=3)
    clean = run_consensus(inputs, params, 2, Adversary(), seed=3)
    assert writer.raised == [where != "view"]
    assert r.valid(inputs) and (r.decisions == 1).all()
    assert r.transcript.ledger == clean.transcript.ledger
    assert r.transcript.digest == clean.transcript.digest
