import numpy as np
import pytest

from qconsim.adversaries import (DegreeTargeter, RandomCrasher, SplitAttacker,
                                 make_adversary)
from qconsim.engine import SimContext


def _full(n):
    return ~np.eye(n, dtype=bool)


def test_registry():
    assert make_adversary("none").name == "none"
    assert make_adversary("random_crasher", rate=0.5).rate == 0.5
    with pytest.raises(ValueError):
        make_adversary("nope")


def test_random_crasher_respects_budget():
    n, t = 20, 5
    ctx = SimContext(n, t, RandomCrasher(rate=0.9), seed=1)
    for _ in range(50):
        ctx.exchange(_full(n), bits=1)
    assert ctx.crashes_used <= t - 1
    assert ctx.alive.sum() >= n - (t - 1)


def test_random_crasher_deterministic():
    crashed = []
    for _ in range(2):
        ctx = SimContext(16, 6, RandomCrasher(rate=0.3), seed=9)
        for _ in range(10):
            ctx.exchange(_full(16), bits=1)
        crashed.append(np.nonzero(~ctx.alive)[0].tolist())
    assert crashed[0] == crashed[1]


def test_degree_targeter_hits_busiest_sender():
    n = 6
    ctx = SimContext(n, 3, DegreeTargeter(per_round=1), seed=0)
    targets = np.zeros((n, n), dtype=bool)
    targets[2, :] = True   # degree 5
    targets[4, :3] = True  # degree 3
    ctx.exchange(targets, bits=1)
    assert not ctx.alive[2] and ctx.alive[4]


def test_degree_targeter_tie_breaks_low_id():
    n = 5
    ctx = SimContext(n, 3, DegreeTargeter(per_round=1), seed=0)
    targets = np.zeros((n, n), dtype=bool)
    targets[1, 2:4] = True
    targets[3, 0:2] = True
    ctx.exchange(targets, bits=1)
    assert not ctx.alive[1] and ctx.alive[3]


def test_degree_targeter_skips_silent_rounds():
    ctx = SimContext(4, 2, DegreeTargeter(), seed=0)
    ctx.exchange(np.zeros((4, 4), dtype=bool), bits=1)
    assert ctx.alive.all()


def test_degree_targeter_min_degree_zero_spares_the_dead():
    """With min_degree=0 a silent sender is eligible, but a crashed one is
    not: after process 0 is crashed in an all-to-all round, an empty round
    crashes the lowest-id alive process instead of process 0 again."""
    ctx = SimContext(4, 4, DegreeTargeter(min_degree=0), seed=0)
    ctx.exchange(_full(4), bits=1)
    ctx.exchange(np.zeros((4, 4), dtype=bool), bits=1)
    assert ctx.alive.tolist() == [False, False, True, True]


def test_split_attacker_crashes_first_bridge():
    n = 4
    ctx = SimContext(n, 2, SplitAttacker(pair=(0, 3)), seed=0)
    targets = np.zeros((n, n), dtype=bool)
    targets[1, 0] = targets[1, 3] = True  # process 1 bridges 0 and 3
    delivered = ctx.exchange(targets, bits=1)
    assert not ctx.alive[1]
    assert not delivered.any()


def test_split_attacker_gives_up_when_budget_spent():
    n = 5
    ctx = SimContext(n, 2, SplitAttacker(pair=(0, 4)), seed=0)
    targets = np.zeros((n, n), dtype=bool)
    targets[1, 0] = targets[1, 4] = True
    ctx.exchange(targets, bits=1)          # budget (t-1 = 1) now spent
    targets2 = np.zeros((n, n), dtype=bool)
    targets2[2, 0] = targets2[2, 4] = True
    delivered = ctx.exchange(targets2, bits=1)
    assert ctx.alive[2] and delivered.sum() == 2
    ctx.exchange(targets2, bits=1)  # given up: no further interference
    assert ctx.crashes_used == 1


@pytest.mark.parametrize("make,error", [
    (lambda: RandomCrasher("x"), TypeError),
    (lambda: RandomCrasher(True), TypeError),
    (lambda: RandomCrasher(-0.1), ValueError),
    (lambda: RandomCrasher(1.5), ValueError),
    (lambda: RandomCrasher(float("nan")), ValueError),
    (lambda: DegreeTargeter(per_round=0), ValueError),
    (lambda: DegreeTargeter(per_round=-1), ValueError),
    (lambda: DegreeTargeter(per_round=2.0), TypeError),
    (lambda: DegreeTargeter(min_degree=-1), ValueError),
    (lambda: DegreeTargeter(min_degree="1"), TypeError),
])
def test_bad_params_rejected_at_construction(make, error):
    with pytest.raises(error):
        make()


def test_boundary_params_accepted():
    assert RandomCrasher(0).rate == 0 and RandomCrasher(1).rate == 1
    targeter = DegreeTargeter(per_round=np.int64(3), min_degree=0)
    assert (targeter.per_round, targeter.min_degree) == (3, 0)
