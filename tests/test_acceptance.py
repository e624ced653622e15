"""Acceptance suite: one test per release criterion.

Each test prints exactly one `[criterion N] PASS/FAIL: ...` line and asserts
the verdict, so `pytest -v tests/test_acceptance.py` doubles as the release
checklist.  Budgets: the whole file stays inside a ten-minute single-core
run; the safety batch (criterion 1) dominates.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from oracles import (HiddenRegister, brute_compact, brute_edge_dense,
                     brute_expanding, merge_registers, phase_action_rational)
from qconsim.adversaries import Adversary, RandomCrasher, make_adversary
from qconsim.cli import main as cli_main, wilson_lower
from qconsim.coin import CoinParams, run_coin
from qconsim.consensus import ConsensusParams, phase_rule, run_consensus
from qconsim.counting import fast_counting, level_graph, partition_levels
from qconsim.engine import SimContext
from qconsim.exchange import KeyCarrier
from qconsim.graphs import (delta_core, is_compact, is_edge_dense,
                            is_expanding)
from qconsim.rng import substream


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


ADVERSARIES = ["none", "random_crasher", "degree_targeter", "split_attacker"]


def _make_adv(name: str):
    if name == "random_crasher":
        return make_adversary(name, rate=0.005)
    return make_adversary(name)


def _preset(name: str, n: int) -> ConsensusParams:
    return (ConsensusParams.polylog(n) if name == "polylog"
            else ConsensusParams.constant(n, 0.5))


# -- 1: agreement + validity, probability 1 ---------------------------------

def test_criterion_1_safety():
    seeds_per_n = {8: 180, 16: 130, 32: 55, 64: 40}
    runs = failures = 0
    for n, n_seeds in seeds_per_n.items():
        for adv_name in ADVERSARIES:
            for preset in ("polylog", "constant"):
                for seed in range(n_seeds):
                    inputs = substream(seed, "acc1", n, adv_name,
                                       preset).integers(0, 2, size=n)
                    r = run_consensus(inputs, _preset(preset, n),
                                      t=max(1, n // 3),
                                      adversary=_make_adv(adv_name),
                                      seed=seed)
                    runs += 1
                    if not (r.agreed and r.valid(inputs)):
                        failures += 1
    _report(1, runs >= 3000 and failures == 0,
            f"{runs - failures}/{runs} runs satisfied agreement+validity "
            f"(needed 100% of >= 3000)")


# -- 2: fuzzy-counting sandwich ----------------------------------------------

def test_criterion_2_fuzzy_sandwich():
    runs = sandwich_bad = exact_bad = crash_free = 0
    cases = [(n, x) for n in (6, 9, 13, 16, 20, 24) for x in (2, 3, 4)]
    for n, x in cases:
        for adv_name in ADVERSARIES:
            for seed in range(28):
                ctx = SimContext(n, max(1, n // 3), _make_adv(adv_name),
                                 seed=seed)
                a = substream(seed, "acc2", n, x,
                              adv_name).integers(0, 2, size=n)
                start = ctx.active.copy()
                ones, zeros = fast_counting(ctx, a, ConsensusParams(x, 4, 4))
                end = ctx.active
                runs += 1
                hi1 = int((a & start).sum())
                hi0 = int(((1 - a) & start).sum())
                lo1 = int((a & end).sum())
                lo0 = int(((1 - a) & end).sum())
                ok = ((ones[end] >= lo1).all() and (ones[end] <= hi1).all()
                      and (zeros[end] >= lo0).all()
                      and (zeros[end] <= hi0).all())
                sandwich_bad += not ok
                if end.all():  # nobody crashed: counts must be exact
                    crash_free += 1
                    if not ((ones == hi1).all() and (zeros == hi0).all()):
                        exact_bad += 1
    _report(2, runs >= 2000 and sandwich_bad == 0 and exact_bad == 0,
            f"sandwich held in {runs - sandwich_bad}/{runs} runs; "
            f"{crash_free - exact_bad}/{crash_free} crash-free runs exact")


# -- 3: weak-coin fairness ----------------------------------------------------

def test_criterion_3_coin_fairness():
    n, t, seeds = 64, 22, 2000  # t-1 = 21 crashes <= n/3
    params = CoinParams.make(n, d=2 * 6, alpha=6)
    all_one = all_zero = 0
    for seed in range(seeds):
        ctx = SimContext(n, t, RandomCrasher(0.005), seed=seed)
        bits = run_coin(ctx, params)
        survivors = bits[ctx.active]
        if (survivors == 1).all():
            all_one += 1
        elif (survivors == 0).all():
            all_zero += 1
    w1 = wilson_lower(all_one, seeds)
    w0 = wilson_lower(all_zero, seeds)

    crash_free_bad = 0
    for seed in range(seeds):
        ctx = SimContext(n, t, Adversary(), seed=seed + 10 ** 6)
        bits = run_coin(ctx, params)
        if not (bits == bits[0]).all():
            crash_free_bad += 1
    _report(3, w1 >= 0.25 and w0 >= 0.25 and crash_free_bad == 0,
            f"Wilson lower bounds: P(all 1) >= {w1:.3f}, "
            f"P(all 0) >= {w0:.3f} (need 0.25); "
            f"crash-free disagreements {crash_free_bad}/{seeds}")


# -- 4: expected O(1) phases --------------------------------------------------

def test_criterion_4_constant_phases():
    # pilot-calibrated bound: observed means ~~ 5.0 across sizes; the
    # acceptance bound of 12 leaves ample head-room for seed noise
    bound = 12.0
    seeds = 40
    means, sems = [], []
    for n in (32, 64, 128):
        counts = []
        for seed in range(seeds):
            inputs = substream(seed, "acc4", n).integers(0, 2, size=n)
            r = run_consensus(inputs, ConsensusParams.constant(n, 0.5),
                              t=n // 3, adversary=RandomCrasher(0.002),
                              seed=seed)
            counts.append(r.phases)
        counts = np.array(counts)
        means.append(counts.mean())
        sems.append(counts.std(ddof=1) / math.sqrt(seeds))
    # no monotone growth beyond noise: the largest size may not exceed the
    # smallest by more than two combined standard errors
    growth = means[2] - means[0]
    noise = 2 * math.hypot(sems[0], sems[2])
    ok = all(m <= bound for m in means) and \
        not (means[0] < means[1] < means[2] and growth > noise)
    _report(4, ok,
            f"mean phases {[round(float(m), 2) for m in means]} at n=32/64/128 "
            f"(bound {bound}); growth {growth:.2f} vs noise {noise:.2f}")


# -- 5: structural round counts ------------------------------------------------

def test_criterion_5_structural_counts():
    coin_ok = True
    for n, d, alpha in [(8, 3, 3), (16, 2, 2), (32, 5, 5), (64, 6, 6),
                        (64, 12, 6), (20, 4, 3)]:
        params = CoinParams.make(n, d=d, alpha=alpha)
        ctx = SimContext(n, max(1, n // 3), Adversary(), seed=1)
        run_coin(ctx, params)
        w = params.window
        expected = (w.k + 2) ** 2 * (w.gamma + 1) * 2
        coin_ok &= ctx.round == expected

    depth_ok = True
    for n in (4, 8, 9, 16, 27, 32, 64, 100):
        for x in (2, 3, 4, 5):
            depth = len(partition_levels(n, x))
            depth_ok &= depth == math.ceil(math.log2(n) / math.log2(x) - 1e-12)
    _report(5, coin_ok and depth_ok,
            f"coin rounds == (k+2)^2*(gamma+1)*2 on 6 configs: {coin_ok}; "
            f"counting depth == ceil(log n/log x) on 32 configs: {depth_ok}")


# -- 6: communication shape -----------------------------------------------------

def _coin_formula(n, d, alpha):
    ln = math.log2(n)
    return (ln / math.log2(alpha)) ** 4 * d * alpha ** 2 * ln


def _count_formula(n, x, d, alpha):
    ln = math.log2(n)
    return (ln / math.log2(x)) * (ln / math.log2(alpha)) ** 4 \
        * d * alpha ** 2 * x * ln


def test_criterion_6_communication_shape():
    details = []
    ok = True
    for preset in ("polylog", "constant"):
        coin_cs, count_cs = [], []
        for n in (32, 64, 128):
            cp = _preset(preset, n)
            qubits = []
            for seed in range(100):
                ctx = SimContext(n, n // 3, RandomCrasher(0.002), seed=seed)
                run_coin(ctx, CoinParams.make(n, d=cp.d, alpha=cp.alpha))
                qubits.append(ctx.ledger.total_qubits)
            coin_cs.append(np.mean(qubits) /
                           (n * _coin_formula(n, cp.d, cp.alpha)))
            bits = []
            for seed in range(60):
                ctx = SimContext(n, n // 3, RandomCrasher(0.002),
                                 seed=seed + 5000)
                a = substream(seed, "acc6", n).integers(0, 2, size=n)
                fast_counting(ctx, a, cp)
                bits.append(ctx.ledger.total_bits)
            count_cs.append(np.mean(bits) /
                            (n * _count_formula(n, cp.x, cp.d, cp.alpha)))
        for label, cs in (("coin", coin_cs), ("count", count_cs)):
            fit = float(np.exp(np.mean(np.log(cs))))
            dev = max(max(c / fit, fit / c) for c in cs)
            ok &= dev < 2.0
            details.append(f"{preset}/{label} fit={fit:.3f} maxdev={dev:.2f}")
    _report(6, ok, "fitted constants within factor 2 of fit: "
            + "; ".join(details))


# -- 7: graph certification -------------------------------------------------------

def _run_layers(n: int, preset: str, seed: int) -> np.ndarray:
    """The shared layers of phase 1's top-level counting in a run of n
    processes, as a bool stack (``check-graphs`` certifies it; counting
    packs it before relaying it)."""
    return level_graph(n, [0, n], _preset(preset, n), seed,
                       (("count", 1), 0))[1]


def test_criterion_7_graph_certification():
    # one run's graph at n = 256, constant preset: d = 8 and alpha = 16 give
    # layers with y = 8/256, 128/256 and 1
    n = 256
    layers = _run_layers(n, "constant", 0)
    # the published parameter point: y = 64*log2(n)/n clamps to 1, so it
    # runs on the complete top layer, and ell = 130*log2(n)/y makes 16*ell
    # exceed n, so the compactness quantifier is empty -- the certifier must
    # recognize and report that
    y = min(1.0, 64 * math.log2(n) / n)
    ell = math.ceil(130 * math.log2(n) / y)
    adj = layers[-1]
    complete = bool((adj == ~np.eye(n, dtype=bool)).all())
    delta = math.ceil((2 / 3) * y * ell)
    literal = is_compact(adj, 16 * ell, 0.75, delta, trials=10 ** 4, seed=1)

    # non-vacuous companion on the same graph: same 16x shape, scaled down,
    # on layer 1, whose edge probability is y2
    y2, ell2 = 0.5, 8
    adj2 = layers[1]
    delta2 = math.ceil((2 / 3) * y2 * ell2)
    scaled = is_compact(adj2, 16 * ell2, 0.75, delta2,
                        budget=10, trials=10 ** 4, seed=3)

    # exact certifiers against brute force on every layer of small runs
    # (constant preset: a base layer with y = 3/8, 4/10, 4/12, 4/14 or 4/9
    # and a complete top layer)
    exact_ok = True
    for seed in range(6):
        m = 8 + 2 * (seed % 4)  # sizes 8..14
        for sub in _run_layers(m, "constant", seed):
            exact_ok &= (is_expanding(sub, 2).verdict
                         == (brute_expanding(sub, 2) is None))
            exact_ok &= (is_edge_dense(sub, 3, 0.5, 3.0).verdict
                         == (brute_edge_dense(sub, 3, 0.5, 3.0) is None))
    for seed in range(4):
        for sub in _run_layers(9, "constant", seed):
            exact_ok &= (is_compact(sub, 7, 0.5, 2).verdict
                         == (brute_compact(sub, 7, 0.5, 2) is None))

    cp = _preset("constant", n)
    on_layer = cp.d * cp.alpha == y2 * n  # layer 1's edge probability
    ok = (complete and on_layer and literal.verdict and scaled.verdict
          and exact_ok)
    _report(7, ok,
            f"published point on the complete top layer (complete: "
            f"{complete}) vacuously holds ({literal.method}); scaled point "
            f"on layer 1 (y={y2}, ell'={16 * ell2}, delta={delta2}) zero "
            f"counterexamples in {scaled.method}; exact-vs-brute-force on "
            f"run layers n<=14: {exact_ok}")


# -- 8: oracle equivalence ---------------------------------------------------------

def _brute_max_core(adj, delta):
    n = adj.shape[0]
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            idx = np.array(sub)
            deg = adj[np.ix_(idx, idx)].sum(axis=1)
            if (deg >= delta).all():
                return size
    return 0


def test_criterion_8_oracle_equivalence():
    core_ok = True
    rng = substream(0, "acc8-core")
    for trial in range(200):
        m = int(rng.integers(4, 13))
        adj = np.zeros((m, m), dtype=bool)
        iu = np.triu_indices(m, k=1)
        adj[iu] = rng.random(iu[0].size) < 0.45
        adj |= adj.T
        delta = int(rng.integers(1, 4))
        core_ok &= int(delta_core(adj, delta).sum()) == \
            _brute_max_core(adj, delta)

    # the coin's register merge as it runs: leader*n + origin keys merged by
    # KeyCarrier along the chain 0 -> 1 -> 2, against the register fold
    merge_ok = True
    rng2 = substream(0, "acc8-merge")
    chain = [np.zeros((3, 3), dtype=bool) for _ in range(2)]
    chain[0][0, 1] = chain[1][1, 2] = True
    for _ in range(10 ** 4):
        regs = [HiddenRegister(int(rng2.integers(0, 64)), int(rng2.integers(0, 2)),
                               int(rng2.integers(0, 16))) for _ in range(3)]
        folded = merge_registers(merge_registers(regs[0], regs[1]), regs[2])
        carrier = KeyCarrier(np.array([r.leader_value * 16 + r.origin
                                       for r in regs]), bits=0, qubits=0)
        for delivered in chain:
            carrier.merge(delivered)
        merge_ok &= divmod(int(carrier.keys[2]), 16) == (folded.leader_value,
                                                         folded.origin)

    totals, ones = np.nonzero(np.tri(201, dtype=bool))  # all O <= N <= 200
    phase_ok = phase_rule(ones, totals).tolist() == [
        phase_action_rational(o, n_) for o, n_ in zip(ones, totals)]
    _report(8, core_ok and merge_ok and phase_ok,
            f"delta-core vs exhaustive (200 graphs): {core_ok}; "
            f"KeyCarrier.merge vs register fold (10^4 triples): {merge_ok}; "
            f"phase_rule vs rationals (all O<=N<=200): {phase_ok}")


# -- 9: determinism ----------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    import json
    digests = []
    for _ in range(2):
        r = run_consensus(np.arange(24) % 2, ConsensusParams.polylog(24),
                          t=8, adversary=RandomCrasher(0.01), seed=13)
        digests.append(r.transcript.digest)
    replay_ok = digests[0] == digests[1]

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"n_list": [8, 12], "seeds": 4,
                               "presets": ["constant"],
                               "adversary": {"name": "random_crasher"}}))
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(o1)]) == 0
    assert cli_main(["sweep", "--config", str(cfg), "--jobs", "3",
                     "--out", str(o2)]) == 0
    jobs_ok = o1.read_bytes() == o2.read_bytes()
    _report(9, replay_ok and jobs_ok,
            f"replayed transcript digests identical: {replay_ok}; "
            f"sweep outputs byte-identical across --jobs 1/3: {jobs_ok}")
