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

_N128_DT_CRASHED = [*range(17), 24, 25, 26, 31, 36, 37, 39, 48, 49, 50, 60,
                    61, 62, 72, 73, 74, 84, 90, 95, 98, 106, 116, 117, 118]

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
    # both presets against the two structured adversaries at n = 64, and
    # split inputs (alternating 0 and 1) at n = 8
    ("n64-polylog-degree_targeter", 64, 21, "polylog", None, "degree_targeter",
     {}, 41,
     "100100001011111011000111011101111000000011000110001000010010"
     "1011",
     {"decisions": [-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                   -1, -1, -1, -1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "phases": 4, "rounds": 1824,
      "total_bits": 12704759, "total_qubits": 3678704,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                 17, 20, 24],
      "fallback_triggers": 0,
      "digest": "25c586234edd4eea75e1e494fff6014ac5f57335"
                "71383ddbbc9ec3708ffd3f30"}),
    ("n64-constant-degree_targeter", 64, 21, "constant", 0.5,
     "degree_targeter", {}, 43,
     "111100011110010001000001001001100111010000101001111010011110"
     "1000",
     {"decisions": [-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0,
                   -1, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, -1, -1,
                   0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0,
                   0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 1170,
      "total_bits": 42323729, "total_qubits": 4885698,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 25, 28, 32, 33,
                 40, 48, 56],
      "fallback_triggers": 0,
      "digest": "0e80c8498646b362597217f43d930c0a21b5b7b7"
                "f8bc89e38c77931ca1bd19a9"}),
    ("n64-polylog-split_attacker", 64, 21, "polylog", None, "split_attacker",
     {}, 47,
     "010100001110011001111111000100001001000000111011011101000101"
     "1101",
     {"decisions": [-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                   -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 2280,
      "total_bits": 17015003, "total_qubits": 4916212,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                 17, 18, 19],
      "fallback_triggers": 0,
      "digest": "9a44ad987300ea27fd1b804e3d49011ff81dbcf0"
                "cada633fcff91566a2bc8d53"}),
    ("n64-constant-split_attacker", 64, 21, "constant", 0.5, "split_attacker",
     {}, 53,
     "011110111100110001000111011001101110000000110011111110101000"
     "0101",
     {"decisions": [-1, -1, 0, -1, -1, -1, -1, -1, 0, 0, 0, -1, -1, 0, -1, -1,
                   0, -1, -1, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 0, 0,
                   -1, 0, 0, 0, 0, 0, -1, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 1170,
      "total_bits": 42922678, "total_qubits": 4937340,
      "crashed": [0, 1, 3, 4, 5, 6, 7, 11, 12, 14, 15, 17, 18, 20, 30, 31, 34,
                 40, 43, 45],
      "fallback_triggers": 0,
      "digest": "161666d791510fa589fa007da8f612a9fc358502"
                "67f8c31de1b816fdbd227bd5"}),
    ("n8-polylog-random_crasher-split", 8, 2, "polylog", None,
     "random_crasher", {"rate": 0.02}, 59,
     "01010101",
     {"decisions": [0, 0, 0, 0, 0, -1, 0, 0],
      "phases": 5, "rounds": 910,
      "total_bits": 118059, "total_qubits": 34590,
      "crashed": [5],
      "fallback_triggers": 0,
      "digest": "958e512cad820c6c1834f691c09e471dc357104b"
                "1ae767dd4516ceb5816209eb"}),
    ("n8-constant-none-split", 8, 2, "constant", 0.5, "none",
     {}, 61,
     "01010101",
     {"decisions": [1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 4, "rounds": 512,
      "total_bits": 109684, "total_qubits": 19440,
      "crashed": [],
      "fallback_triggers": 0,
      "digest": "aa24c3a6238aa78d4662dd4adaed0ee60956fd4f"
                "c6d3e93d6c86c3a1779659b9"}),
    # runs that stop and restart the reuse of a relay round: one burst of
    # split_attacker crashes at n = 128; steady crashes under all-one
    # inputs; a crash budget of 3 spent in the first counting window
    ("n128-polylog-split_attacker", 128, 42, "polylog", None,
     "split_attacker", {}, 71,
     "10011101100011000100110000110110111100100000110001011001111110010111"
     "001111110110110011111011011010011111000101101011000101000100",
     {"decisions": [-1] * 41 + [1] * 87,
      "phases": 5, "rounds": 2925,
      "total_bits": 70179114, "total_qubits": 15296248,
      "crashed": list(range(41)),
      "fallback_triggers": 0,
      "digest": "59950d7d4e96674cbdc316e3b458eaf6"
                "14738ce452ad29eddf7094fab403b2ec"}),
    ("n48-constant-random_crasher-all-one", 48, 16, "constant", 0.5,
     "random_crasher", {"rate": 0.01}, 73, "1" * 48,
     {"decisions": [1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1,
                    1, 1, -1, 1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, 1, 1, 1,
                    1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1, 1],
      "phases": 5, "rounds": 1165,
      "total_bits": 21047004, "total_qubits": 3199011,
      "crashed": [3, 5, 13, 17, 20, 26, 28, 30, 31, 36, 38, 40, 41, 43, 45],
      "fallback_triggers": 0,
      "digest": "0b7d0f7ef7a3df0766d96bf89e3cf113"
                "dd6359682cd14d6d572c3ee364fb7509"}),
    ("n128-constant-random_crasher-budget3", 128, 4, "constant", 0.5,
     "random_crasher", {"rate": 0.002}, 79,
     "01101100101000101011111100101110010100011100010110100111001101110111"
     "110110011011010111111010011001000110100111001101110111011110",
     {"decisions": [-1 if p in (18, 39, 82) else 1 for p in range(128)],
      "phases": 4, "rounds": 1332,
      "total_bits": 444693476, "total_qubits": 37163984,
      "crashed": [18, 39, 82],
      "fallback_triggers": 0,
      "digest": "e37c2e909803c6f13be40a22d4c241b6"
                "85f00b632ad448b0fea34b76572dfcf5"}),
    # halts: the lone survivor decides in the phase-2 fallback window and
    # halts, and the coin after it runs with nobody active; all-zero inputs
    # halt at the phase-4 stop check, before that phase's coin
    ("n40-polylog-random_crasher-fallback-halt", 40, 40, "polylog", None,
     "random_crasher", {"rate": 0.015}, 103,
     "1000101111000011111000110001100010001101",
     {"decisions": [-1] * 17 + [0] + [-1] * 22,
      "phases": 2, "rounds": 834,
      "total_bits": 138194, "total_qubits": 0,
      "crashed": [p for p in range(40) if p != 17],
      "fallback_triggers": 1,
      "digest": "5c87acd86d0ada7cafc2d84ecc85863d"
                "9ff66d966606e22810dda2e0af5a185c"}),
    ("n32-polylog-random_crasher-all-zero", 32, 10, "polylog", None,
     "random_crasher", {"rate": 0.01}, 101, "0" * 32,
     {"decisions": [-1 if p in (2, 4, 9, 10, 17, 20, 23, 24, 31) else 0
                    for p in range(32)],
      "phases": 5, "rounds": 2005,
      "total_bits": 5200592, "total_qubits": 1522496,
      "crashed": [2, 4, 9, 10, 17, 20, 23, 24, 31],
      "fallback_triggers": 0,
      "digest": "95c4bbe9fb3bc9594b5e060ebee901c5"
                "910268e225438fe37b9ffb5452c0358d"}),
    # degree_targeter past n = 64; it spends its whole budget of 41 crashes
    ("n128-constant-degree_targeter", 128, 42, "constant", 0.5,
     "degree_targeter", {}, 107,
     "01101101100000011001000010101101001010010001110011111100000110101000"
     "000101101010011010000010001101101000101110010001110111100010",
     {"decisions": [-1 if p in _N128_DT_CRASHED else 0 for p in range(128)],
      "phases": 5, "rounds": 1665,
      "total_bits": 270779080, "total_qubits": 24005608,
      "crashed": _N128_DT_CRASHED,
      "fallback_triggers": 0,
      "digest": "7c43edc68b8b9cc9b949a9d0ec4dc4c7"
                "ebc8213be3716bc9672071703d92dde8"}),
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
    # the coin-stats benchmark shape: d = alpha = 9, so the top layer
    # (729/512) saturates
    ("coin-n512-degree_targeter", 512, 170, "degree_targeter", {}, 67,
     {"bits": [1] * 69 + [0] + [1] * 11 + [0] + [1] * 366 + [0] + [1] * 63,
      "rounds": 128, "total_bits": 14605545,
      "total_qubits": 33614504,
      "crashed": [4, 6, 9, 11, 13, 20, 21, 25, 26, 30, 38, 39, 41, 42, 43, 49,
                 56, 69, 70, 71, 72, 73, 76, 77, 79, 80, 81, 82, 83, 86, 87,
                 91, 92, 94, 98, 107, 109, 113, 116, 117, 132, 139, 147, 150,
                 154, 155, 162, 165, 166, 169, 173, 179, 181, 184, 186, 188,
                 192, 195, 200, 204, 207, 211, 218, 219, 227, 234, 235, 243,
                 249, 251, 258, 261, 262, 266, 274, 278, 283, 286, 291, 292,
                 293, 294, 296, 297, 299, 307, 308, 316, 319, 324, 327, 343,
                 348, 350, 359, 362, 363, 369, 372, 375, 380, 383, 387, 389,
                 395, 404, 405, 406, 409, 412, 414, 425, 426, 429, 434, 447,
                 448, 455, 457, 461, 463, 473, 477, 487, 488, 492, 495, 497],
      "digest": "9bd157be3f9d6600e2c9e3277b5b13263e1f5c41560834fcc14097e"
                "e4113a423"}),
    # crash budgets that run out inside the relay (last crashes in rounds
    # 47 and 28 of 128), so the rounds after them repeat
    ("coin-n64-random_crasher-budget7", 64, 8, "random_crasher",
     {"rate": 0.002}, 83,
     {"bits": [0, 0, 1] + [0] * 61,
      "rounds": 128, "total_bits": 606593, "total_qubits": 1263766,
      "crashed": [2, 3, 27, 39, 41, 58, 63],
      "digest": "c19884f235dde611bfddc4de480effbb"
                "8ec8a1097e5d49a0bfaf95728c6e69d5"}),
    ("coin-n96-random_crasher-budget5", 96, 6, "random_crasher",
     {"rate": 0.002}, 89,
     {"bits": [1] * 96,
      "rounds": 128, "total_bits": 2485001, "total_qubits": 5440490,
      "crashed": [18, 23, 65, 78, 85],
      "digest": "917a654e32b39af4794231f8735145b6"
                "091291ecb6e86602aa4515e2288e3d2e"}),
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
