"""Golden outputs: fixed run_consensus and run_coin configs with every result
pinned.

The replay tests in test_engine only compare a run with itself, so a change
that alters the protocol would pass them.  These cases pin the decisions,
phase and round counts, bit and qubit totals, crashed ids, the number of
fallback triggers and the transcript digest.  A refactor that is meant to
change nothing must leave every value here byte-identical; a change that
alters behaviour must say so and regenerate them.

The digests are DIGEST_VERSION 2 digests (see qconsim.engine).  A change to
the digest format alone bumps DIGEST_VERSION and regenerates the digests
only; every other pinned value must stay as it is.
"""

import numpy as np
import pytest

from qconsim.adversaries import make_adversary
from qconsim.coin import CoinParams, run_coin
from qconsim.consensus import ConsensusParams, run_consensus
from qconsim.engine import SimContext

# (id, n, t, preset, epsilon, adversary, params, seed, inputs, expected);
# epsilon is the constant preset's exponent and None for polylog
GOLDEN = [
    ("n16-polylog-random_crasher", 16, 5, "polylog", None, "random_crasher",
     {"rate": 0.01}, 3, "0110111010110011",
     {"decisions": [-1, -1, 1, 1, 1, -1, 1, 1, 1, 1, -1, 1, 1, 1, 1, 1],
      "phases": 5, "rounds": 990,
      "total_bits": 589255, "total_qubits": 163761,
      "crashed": [0, 1, 5, 10],
      "fallback_triggers": 0,
      "digest": "5e2a4fb342be3f8dfa80ca2472462aeea22601ff"
                "53b61c36f10247e9d851501e"}),
    ("n32-constant-split_attacker", 32, 10, "constant", 0.5, "split_attacker",
     {}, 5, "10110111101000110110010101001000",
     {"decisions": [0, -1, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0,
                    -1, -1, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 1165,
      "total_bits": 9079039, "total_qubits": 1372224,
      "crashed": [1, 3, 9, 16, 17, 23, 24, 25, 26],
      "fallback_triggers": 0,
      "digest": "a1af2a5949c32d945594d39c408d24b4481e99afd"
                "57e55ffba06f23a98c2ac38"}),
    # t = n lets the crasher take all but one process, so the survivor
    # count drops under the fallback threshold and the fallback window runs.
    ("n64-constant-random_crasher-fallback", 64, 64, "constant", 0.5,
     "random_crasher", {"rate": 0.01}, 2,
     "0110110011011100001000000100010000111001111011011000010110101100",
     {"decisions": [-1] * 6 + [0] + [-1] * 57,
      "phases": 3, "rounds": 702,
      "total_bits": 2707852, "total_qubits": 63821,
      "crashed": [p for p in range(64) if p != 6],
      "fallback_triggers": 1,
      "digest": "c04ccc251bdc2796ca1d1dade659970d2cd25b40"
                "7c7a9aad24c0ca9e93f9dd8c"}),
    ("n24-polylog-degree_targeter", 24, 8, "polylog", None, "degree_targeter",
     {}, 11, "000011101010110110110101",
     {"decisions": [-1, -1, 1, -1, -1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 4, "rounds": 1012,
      "total_bits": 1193742, "total_qubits": 321552,
      "crashed": [0, 1, 3, 4, 6, 7, 9],
      "fallback_triggers": 0,
      "digest": "e72c776c274624aacd87394699bae11a8b4367fd0"
                "7a9049f90b9c2f2c67d41d0"}),
    # n = 1 takes the early return: no phase, no round
    ("n1-polylog-none", 1, 0, "polylog", None, "none", {}, 4, "1",
     {"decisions": [1], "phases": 0, "rounds": 0,
      "total_bits": 0, "total_qubits": 0, "crashed": [],
      "fallback_triggers": 0,
      "digest": "3d8329ad4bceb8011e29adbd3b20d8700b95a35eb"
                "163edbbbffd29e644cda43a"}),
    ("n2-constant-random_crasher", 2, 2, "constant", 0.5, "random_crasher",
     {"rate": 0.01}, 9, "01",
     {"decisions": [-1, 0], "phases": 2, "rounds": 72,
      "total_bits": 175, "total_qubits": 28, "crashed": [0],
      "fallback_triggers": 1,
      "digest": "68b27809fdec9d4fb80e8f091127a0e2ba4615bb2"
                "eab363a120c14620806b94c"}),
    ("n8-polylog-split_attacker", 8, 2, "polylog", None, "split_attacker",
     {}, 6, "01101001",
     {"decisions": [-1, 0, 0, 0, 0, 0, 0, 0], "phases": 5, "rounds": 910,
      "total_bits": 125548, "total_qubits": 27780, "crashed": [0],
      "fallback_triggers": 0,
      "digest": "31b5e5b990bdba7dce9e6a992e92166aec0b0630b"
                "d905f5ad914fceb7707352c"}),
    # unanimous inputs: every process decides by the phase rule in phase 1
    ("n16-constant-none-all-zero", 16, 5, "constant", 0.5, "none", {}, 8,
     "0" * 16,
     {"decisions": [0] * 16, "phases": 4, "rounds": 512,
      "total_bits": 794928, "total_qubits": 179946, "crashed": [],
      "fallback_triggers": 0,
      "digest": "f27ca8faa2e08b7bf25f5bd5ebeba4826c4a050552"
                "817c42390ea122425fb48f"}),
    ("n16-polylog-random_crasher-all-one", 16, 5, "polylog", None,
     "random_crasher", {"rate": 0.01}, 12, "1" * 16,
     {"decisions": [1, -1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1],
      "phases": 5, "rounds": 990,
      "total_bits": 556916, "total_qubits": 169650,
      "crashed": [1, 4, 8, 15],
      "fallback_triggers": 0,
      "digest": "6caefa91466cb292d989e9f9411e0efaefb06e16a2"
                "ec0fe77627be2e6fbcdee0"}),
    ("n32-constant-degree_targeter", 32, 10, "constant", 0.5,
     "degree_targeter", {}, 17, "11000110000010110100100100111100",
     {"decisions": [-1] * 8 + [0] * 4 + [-1] + [0] * 19,
      "phases": 5, "rounds": 1165,
      "total_bits": 9345220, "total_qubits": 1376496,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 12],
      "fallback_triggers": 0,
      "digest": "9321f89b1e1c07b03330ba40cd09d8a267b744b3f7"
                "72dbc51e1d4a40ae59c52a"}),
    # the preset and adversary of the consensus-large benchmark at a quarter
    # of its size; the crasher spends its whole budget
    ("n96-constant-random_crasher", 96, 32, "constant", 0.5, "random_crasher",
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
      "digest": "8ec75cb0d4e0c5bbe6b32b2cce4b4e972f7990dcf84e98340eb6964"
                "0bedf8253"}),
    # the constant preset away from its default exponent: x = alpha = 3
    # (epsilon 0.3) and x = alpha = 15 (epsilon 0.7) at n = 48
    ("n48-constant-eps0.3-random_crasher", 48, 16, "constant", 0.3,
     "random_crasher", {"rate": 0.01}, 27,
     "001011110011110010010110110111011001111110001100",
     {"decisions": [1, -1, -1, -1, 1, -1, 1, 1, 1, 1, 1, -1, 1, 1, 1, 1, -1,
                    1, -1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, 1, 1, -1, 1, 1,
                    1, 1, 1, 1, 1, -1, 1, 1, 1, -1, 1, -1, -1, 1],
      "phases": 5, "rounds": 2185,
      "total_bits": 4973700, "total_qubits": 1357740,
      "crashed": [1, 2, 3, 5, 11, 16, 18, 21, 24, 25, 31, 39, 43, 45, 46],
      "fallback_triggers": 0,
      "digest": "7263b434161219490a9fc8c8373ee4f72a3ae52c95623390e8c5cee"
                "b7289d8e5"}),
    ("n48-constant-eps0.7-random_crasher", 48, 16, "constant", 0.7,
     "random_crasher", {"rate": 0.01}, 31,
     "001111010001111011110010011110101101001000010001",
     {"decisions": [1, 1, -1, 1, 1, 1, -1, 1, 1, -1, -1, 1, 1, 1, 1, -1, 1,
                    -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1,
                    1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 5, "rounds": 645,
      "total_bits": 25316669, "total_qubits": 1956297,
      "crashed": [2, 6, 9, 10, 15, 17, 19, 26, 27, 30, 31, 35, 36, 38, 40],
      "fallback_triggers": 0,
      "digest": "1c5d2c96b14d4c7c0130dfd7cdd2572c518b35922f72392cff92d94"
                "ac22946f1"}),
]


@pytest.mark.parametrize(
    "n,t,preset,epsilon,adversary,params,seed,inputs,expected",
    [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_golden_run(n, t, preset, epsilon, adversary, params, seed, inputs,
                    expected):
    consensus_params = (ConsensusParams.constant(n, epsilon)
                        if preset == "constant"
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
      "digest": "f66301d2dbe505b19e93f18127ea4b656c5a2da17976292eb1e6213"
                "a8f2c7e58"}),
    ("coin-n48-random_crasher", 48, 16, "random_crasher", {"rate": 0.02}, 21,
     {"bits": [0] * 18 + [1] + [0] * 29,
      "rounds": 128, "total_bits": 394748, "total_qubits": 796062,
      "crashed": [1, 4, 5, 11, 16, 17, 18, 23, 24, 32, 34, 36, 38, 40, 45],
      "digest": "90a1270fe65116b9e3cadce7677facf811f57d9f20621a1e6c37392"
                "339f604b0"}),
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
