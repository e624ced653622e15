import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (HiddenRegister, draw_register, merge_registers,
                     unpack_layers)
from qconsim import coin
from qconsim.adversaries import Adversary, RandomCrasher
from qconsim.coin import CoinParams, draw_registers, run_coin
from qconsim.engine import CrashDecision, SimContext
from qconsim.exchange import KeyCarrier, Window


def test_params_n16_d2_alpha2():
    p = CoinParams.make(16, d=2, alpha=2)
    assert (p.window.k, p.window.gamma) == (3, 4)
    assert (p.window.epochs, p.window.iterations) == (25, 5)
    assert p.rounds == 250
    assert p.window.delta == 2  # ceil(2/3 * 2)


def test_params_defaults_log_n():
    p = CoinParams.make(64)
    assert p.d == p.alpha == 6
    assert p.window.delta == 4
    assert p.register_qubits == 3 * 6 + 1


def test_coin_registers_uniform_leader_bits(monkeypatch):
    """run_coin draws each register from its process's own stream, as the
    oracle does; leader values fit in 3*ceil(log2 n) bits and rarely
    collide, and coin bits look fair."""
    drawn = []

    class Recording(KeyCarrier):
        def __init__(self, keys, *args):
            drawn.append(keys.copy())
            super().__init__(keys, *args)

    monkeypatch.setattr(coin, "KeyCarrier", Recording)
    n = 200
    # no epochs: every process outputs the coin bit of its own register
    params = dataclasses.replace(CoinParams.make(n),
                                 window=Window(k=-2, gamma=0, delta=1))
    bits = run_coin(SimContext(n, 1, Adversary(), seed=0), params, tag="t")
    regs = [draw_register(0, p, n, "t") for p in range(n)]
    assert drawn[0].tolist() == [r.leader_value * n + p
                                 for p, r in enumerate(regs)]
    assert bits.tolist() == [r.coin_bit for r in regs]
    leaders = drawn[0] // n
    assert leaders.max() < 2 ** 24
    assert len(set(leaders.tolist())) > 190  # collisions rare at 24 bits
    assert 0.3 < bits.mean() < 0.7


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1024, 1025, 2048])
def test_registers_decode_as_numpy_draws(n):
    """Registers decoded from raw words equal the oracle's integers draws
    for leader widths 3*ceil(log2 n) = 0, 3, 6, 18, 30, 33 and 33: no
    leader, 32-bit draws, and a 64-bit draw followed by a 32-bit one."""
    leaders, coins = draw_registers(n, 5, ("coin", 2))
    regs = [draw_register(5, p, n, ("coin", 2)) for p in range(n)]
    assert leaders.tolist() == [r.leader_value for r in regs]
    assert coins.tolist() == [r.coin_bit for r in regs]


def test_merge_keeps_lexicographic_max():
    a = HiddenRegister(10, 0, 3)
    b = HiddenRegister(10, 1, 5)
    c = HiddenRegister(9, 1, 7)
    assert merge_registers(a, b) is b  # origin breaks the tie
    assert merge_registers(b, a) is b
    assert merge_registers(a, c) is a


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 7), st.integers(0, 1), st.integers(0, 9)),
       st.tuples(st.integers(0, 7), st.integers(0, 1), st.integers(0, 9)),
       st.tuples(st.integers(0, 7), st.integers(0, 1), st.integers(0, 9)))
def test_merge_associative_commutative(x, y, z):
    rx, ry, rz = (HiddenRegister(*v) for v in (x, y, z))
    m = merge_registers
    assert m(m(rx, ry), rz) == m(rx, m(ry, rz))
    if (rx.leader_value, rx.origin) != (ry.leader_value, ry.origin):
        assert m(rx, ry) == m(ry, rx)


def test_coin_rounds_exact():
    for n, d, alpha in [(8, 3, 3), (16, 2, 2), (32, 5, 5)]:
        params = CoinParams.make(n, d=d, alpha=alpha)
        ctx = SimContext(n, max(1, n // 3), Adversary(), seed=2)
        run_coin(ctx, params)
        w = params.window
        assert ctx.round == params.rounds == (w.k + 2) ** 2 \
            * (w.gamma + 1) * 2


def test_coin_crash_free_agreement():
    """Without crashes everyone outputs the coin bit of the largest
    (leader, origin) register, each drawn from the process's own stream."""
    for seed in range(25):
        n = 24
        ctx = SimContext(n, 8, Adversary(), seed=seed)
        bits = run_coin(ctx, CoinParams.make(n, d=2 * 5, alpha=5))
        assert (bits == bits[0]).all(), seed
        regs = [draw_register(seed, p, n) for p in range(n)]
        top = max(regs, key=lambda r: (r.leader_value, r.origin))
        assert bits[0] == top.coin_bit, seed


def test_coin_deterministic_replay():
    ctx1 = SimContext(16, 5, RandomCrasher(0.01), seed=7)
    b1 = run_coin(ctx1, CoinParams.make(16))
    ctx2 = SimContext(16, 5, RandomCrasher(0.01), seed=7)
    b2 = run_coin(ctx2, CoinParams.make(16))
    assert (b1 == b2).all()


def test_coin_single_process():
    ctx = SimContext(1, 0, Adversary(), seed=1)
    bits = run_coin(ctx, CoinParams.make(1))
    assert bits[0] in (0, 1)


def test_adversary_never_sees_register_contents():
    """Views carry the classical payload only; no array in any view aliases
    or equals the hidden leader keys."""
    leader_keys = []
    views_payloads = []

    class Spy(Adversary):
        name = "spy"

        def decide(self, view):
            if view.payload:
                views_payloads.append({k: np.array(v)
                                       for k, v in view.payload.items()})
            return CrashDecision()

    n = 16
    ctx = SimContext(n, 5, Spy(), seed=11)
    params = CoinParams.make(n)
    for p in range(n):
        reg = draw_register(ctx.seed, p, n)
        leader_keys.append(reg.leader_value * n + p)
    run_coin(ctx, params, tag="coin")
    keys = np.array(leader_keys)
    assert views_payloads, "adversary saw no rounds"
    for payload in views_payloads:
        assert set(payload) <= {"adaptive_degree"}
        for arr in payload.values():
            assert arr.shape != keys.shape or not (np.sort(arr) ==
                                                   np.sort(keys % (16 ** 3))).all()


def test_fairness_rough_at_small_n():
    ones = zeros = 0
    for seed in range(120):
        ctx = SimContext(8, 3, Adversary(), seed=seed)
        bits = run_coin(ctx, CoinParams.make(8, d=6, alpha=3))
        if (bits == 1).all():
            ones += 1
        elif (bits == 0).all():
            zeros += 1
    assert ones / 120 > 0.3 and zeros / 120 > 0.3


@pytest.mark.parametrize("n", [13, 300])
def test_coin_relays_the_packed_transpose(n, monkeypatch):
    """The coin hands ``run_relay`` its private layers packed and, as the
    transposed stack, exactly the packed transpose of their bool stack,
    C-ordered (n = 300 spans two chunks of columns, the second partial)."""
    seen = []
    relay = coin.run_relay

    def spy(ctx, layers, flipped, *rest):
        seen.append((layers, flipped))
        return relay(ctx, layers, flipped, *rest)

    monkeypatch.setattr(coin, "run_relay", spy)
    run_coin(SimContext(n, 1, Adversary(), seed=2),
             CoinParams.make(n, d=2, alpha=max(2, n // 4)))
    (layers, flipped), = seen
    bool_layers = unpack_layers(layers, n)
    assert layers.dtype == flipped.dtype == np.uint8
    assert flipped.flags.c_contiguous
    assert np.array_equal(
        flipped, np.packbits(bool_layers.transpose(0, 2, 1), axis=-1))
