"""Golden outputs: fixed run_consensus and run_coin configs with every result
pinned.

The replay tests in test_engine only compare a run with itself, so a change
that alters the protocol would pass them.  These cases pin the decisions,
phase and round counts, bit and qubit totals, crashed ids, the number of
fallback triggers and the transcript digest.  A refactor that is meant to
change nothing must leave every value here byte-identical; a change that
alters behaviour must say so and regenerate them.
"""

import numpy as np
import pytest

from qconsim.adversaries import make_adversary
from qconsim.coin import CoinParams, run_coin
from qconsim.consensus import ConsensusParams, run_consensus
from qconsim.engine import SimContext

# (id, n, t, preset, adversary, params, seed, inputs, expected)
GOLDEN = [
    ("n16-polylog-random_crasher", 16, 5, "polylog", "random_crasher",
     {"rate": 0.01}, 3, "0110111010110011",
     {"decisions": [-1, -1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, 1, 1, 1, 1],
      "phases": 5, "rounds": 990,
      "total_bits": 589255, "total_qubits": 163761,
      "crashed": [0, 1, 5, 10],
      "fallback_triggers": 0,
      "digest": "c031f85b28c08fad21580fa367da257016070239"
                "178a380cf25873edc60207a3"}),
    ("n32-constant-split_attacker", 32, 10, "constant", "split_attacker",
     {}, 5, "10110111101000110110010101001000",
     {"decisions": [0, -1, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0,
                    -1, -1, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 1165,
      "total_bits": 9079039, "total_qubits": 1372224,
      "crashed": [1, 3, 9, 16, 17, 23, 24, 25, 26],
      "fallback_triggers": 0,
      "digest": "14be0c21fc7f8ddbdb391dbd4e9f191d486b82dbb"
                "2a8d6489cabf96de0fdbf23"}),
    # t = n lets the crasher take all but one process, so the survivor
    # count drops under the fallback threshold and the fallback window runs.
    ("n64-constant-random_crasher-fallback", 64, 64, "constant",
     "random_crasher", {"rate": 0.01}, 2,
     "0110110011011100001000000100010000111001111011011000010110101100",
     {"decisions": [-1] * 6 + [0] + [-1] * 57,
      "phases": 3, "rounds": 702,
      "total_bits": 2707852, "total_qubits": 63821,
      "crashed": [p for p in range(64) if p != 6],
      "fallback_triggers": 1,
      "digest": "99ac79e4363ef20d3b99485f00772c9a15407ff6"
                "9a34114e26e690c45108e7ee"}),
    ("n24-polylog-degree_targeter", 24, 8, "polylog", "degree_targeter",
     {}, 11, "000011101010110110110101",
     {"decisions": [-1, -1, 1, -1, -1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 4, "rounds": 1012,
      "total_bits": 1193742, "total_qubits": 321552,
      "crashed": [0, 1, 3, 4, 6, 7, 9],
      "fallback_triggers": 0,
      "digest": "fb38a4356b1a4b44e86e5cdd1c4b474ca40112d9b"
                "c972f83fc50122a5d3f499b"}),
    # n = 1 takes the early return: no phase, no round
    ("n1-polylog-none", 1, 0, "polylog", "none", {}, 4, "1",
     {"decisions": [1], "phases": 0, "rounds": 0,
      "total_bits": 0, "total_qubits": 0, "crashed": [],
      "fallback_triggers": 0,
      "digest": "20d2ac23a3f0432d262473b015b02d5d34bd930c0"
                "26d501bca502be2ad644f62"}),
    ("n2-constant-random_crasher", 2, 2, "constant", "random_crasher",
     {"rate": 0.01}, 9, "01",
     {"decisions": [-1, 0], "phases": 2, "rounds": 72,
      "total_bits": 175, "total_qubits": 28, "crashed": [0],
      "fallback_triggers": 1,
      "digest": "6f42bd32fc370d53359aecdb80d03553a04813733"
                "aa97a00356911003e3454bf"}),
    ("n8-polylog-split_attacker", 8, 2, "polylog", "split_attacker",
     {}, 6, "01101001",
     {"decisions": [-1, 0, 0, 0, 0, 0, 0, 0], "phases": 5, "rounds": 910,
      "total_bits": 125548, "total_qubits": 27780, "crashed": [0],
      "fallback_triggers": 0,
      "digest": "ed413784821ef55e6deabcd5502f92c79cd3857f7"
                "29652ff9c6a2d6747a9b722"}),
    # unanimous inputs: every process decides by the phase rule in phase 1
    ("n16-constant-none-all-zero", 16, 5, "constant", "none", {}, 8,
     "0" * 16,
     {"decisions": [0] * 16, "phases": 4, "rounds": 512,
      "total_bits": 794928, "total_qubits": 179946, "crashed": [],
      "fallback_triggers": 0,
      "digest": "67bade5dab42a05c4a36ad3b3740c2fdc5ec7a2988"
                "d9bc77433197339c81f4e7"}),
    ("n16-polylog-random_crasher-all-one", 16, 5, "polylog",
     "random_crasher", {"rate": 0.01}, 12, "1" * 16,
     {"decisions": [1, -1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1],
      "phases": 5, "rounds": 990,
      "total_bits": 556916, "total_qubits": 169650,
      "crashed": [1, 4, 8, 15],
      "fallback_triggers": 0,
      "digest": "66b8255e717eb1cce168c5f74ff93a081105ed8d5c"
                "cffcae0f0b57934ca13323"}),
    ("n32-constant-degree_targeter", 32, 10, "constant", "degree_targeter",
     {}, 17, "11000110000010110100100100111100",
     {"decisions": [-1] * 8 + [0] * 4 + [-1] + [0] * 19,
      "phases": 5, "rounds": 1165,
      "total_bits": 9345220, "total_qubits": 1376496,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 12],
      "fallback_triggers": 0,
      "digest": "bd948d6ca16922421ad319cbbfc52296a55850a8c2"
                "5df1f167eeb54dece03cfe"}),
    # the preset and adversary of the consensus-large benchmark at a quarter
    # of its size; the crasher spends its whole budget
    ("n96-constant-random_crasher", 96, 32, "constant", "random_crasher",
     {"rate": 0.002}, 19,
     "10100111101011000111101111000001010001101000100000110000000111110"
     "1111111110110001011101100001010",
     {"decisions": [0, -1, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, 0, -1, 0, 0,
                    0, 0, 0, -1, 0, 0, -1, 0, -1, 0, -1, 0, -1, 0, 0, 0, -1,
                    0, 0, 0, 0, 0, 0, 0, -1, 0, -1, 0, 0, -1, 0, 0, -1, 0, 0,
                    0, -1, -1, -1, 0, 0, -1, 0, -1, -1, 0, -1, 0, 0, -1, -1,
                    0, 0, -1, -1, 0, -1, 0, -1, 0, 0, -1, 0, 0, -1, 0, 0, 0,
                    0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0],
      "phases": 5, "rounds": 1170,
      "total_bits": 127328393, "total_qubits": 13078406,
      "crashed": [1, 8, 10, 14, 20, 23, 25, 27, 29, 33, 41, 43, 46, 49, 53,
                  54, 55, 58, 60, 61, 63, 66, 67, 70, 71, 73, 75, 78, 81,
                  88, 91],
      "fallback_triggers": 0,
      "digest": "4b7eae0db753812b87bcc9bf3c3a521bee09c9fcefc14d9423f3895"
                "5e57de77d"}),
]


@pytest.mark.parametrize(
    "n,t,preset,adversary,params,seed,inputs,expected",
    [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_golden_run(n, t, preset, adversary, params, seed, inputs, expected):
    consensus_params = (ConsensusParams.constant(n) if preset == "constant"
                        else ConsensusParams.polylog(n))
    bits = np.array([int(c) for c in inputs], dtype=np.int64)
    result = run_consensus(bits, consensus_params, t,
                           make_adversary(adversary, **params), seed)
    transcript = result.transcript
    got = {
        "decisions": result.decisions.tolist(),
        "phases": result.phases,
        "rounds": transcript.rounds,
        "total_bits": transcript.ledger["total_bits"],
        "total_qubits": transcript.ledger["total_qubits"],
        "crashed": transcript.crashed,
        "digest": transcript.digest,
        "fallback_triggers": sum(s.fallback for s in result.phase_stats),
    }
    assert got == expected



# (id, n, t, adversary, params, seed, expected); default CoinParams
GOLDEN_COIN = [
    ("coin-n64-degree_targeter", 64, 21, "degree_targeter", {}, 13,
     {"bits": [0] * 6 + [1] + [0] * 3 + [1] + [0] * 20 + [1] + [0] * 32,
      "rounds": 128, "total_bits": 548225, "total_qubits": 1099226,
      "crashed": [2, 5, 6, 7, 8, 10, 17, 18, 22, 25, 29, 31, 36, 41, 44, 48,
                  54, 57, 62, 63],
      "digest": "c256ad71fe293e369aa89f2d3c81c33b612b19c1adf715382fbf446"
                "9f6743524"}),
    ("coin-n48-random_crasher", 48, 16, "random_crasher", {"rate": 0.02}, 21,
     {"bits": [0] * 18 + [1] + [0] * 29,
      "rounds": 128, "total_bits": 394748, "total_qubits": 796062,
      "crashed": [1, 4, 5, 11, 16, 17, 18, 23, 24, 32, 34, 36, 38, 40, 45],
      "digest": "21fc708575589ad7e142908b21aff5d72724fa96b4c65f745ec32c9"
                "59bd3af78"}),
]


@pytest.mark.parametrize(
    "n,t,adversary,params,seed,expected",
    [case[1:] for case in GOLDEN_COIN], ids=[case[0] for case in GOLDEN_COIN])
def test_golden_coin(n, t, adversary, params, seed, expected):
    adv = make_adversary(adversary, **params)
    ctx = SimContext(n, t, adv, seed)
    bits = run_coin(ctx, CoinParams.make(n))
    transcript = ctx.finish({"bits": bits.tolist()}, adv.name)
    got = {
        "bits": bits.tolist(),
        "rounds": transcript.rounds,
        "total_bits": transcript.ledger["total_bits"],
        "total_qubits": transcript.ledger["total_qubits"],
        "crashed": transcript.crashed,
        "digest": transcript.digest,
    }
    assert got == expected
