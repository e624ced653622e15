"""Golden outputs: fixed run_consensus and run_coin configs with every result
pinned.

The replay tests in test_engine only compare a run with itself, so a change
that alters the protocol would pass them.  These cases pin the decisions,
phase and round counts, bit and qubit totals, crashed ids, the number of
fallback triggers and the transcript digest.  A refactor that is meant to
change nothing must leave every value here byte-identical; a change that
alters behaviour must say so and regenerate them.

The digests are DIGEST_VERSION 4 digests (see qconsim.engine): each round
hashes the SHA-256 of its delivery, not the packed delivery itself.  They
were regenerated from the version 3 digests with every other pinned value
asserted equal first.  A change to the digest format alone bumps
DIGEST_VERSION and regenerates the digests only; every other pinned value
must stay as it is.
"""

import numpy as np
import pytest
from oracles import StateReader

from qconsim.adversaries import make_adversary
from qconsim.coin import CoinParams, run_coin
from qconsim.consensus import ConsensusParams, run_consensus
from qconsim.engine import DIGEST_VERSION, SimContext

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
      "digest": "57bf3318e98857f2a2bc0c625076744d"
                "a45da1e8092d0468347fbe86e4d798c5"}),
    ("n32-constant-split_attacker", 32, 10, "constant", 0.5, "split_attacker",
     {}, 5, "10110111101000110110010101001000",
     {"decisions": [0, -1, 0, -1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0,
                    -1, -1, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0, 0, 0, 0, 0],
      "phases": 5, "rounds": 1165,
      "total_bits": 9079039, "total_qubits": 1372224,
      "crashed": [1, 3, 9, 16, 17, 23, 24, 25, 26],
      "fallback_triggers": 0,
      "digest": "4b3468a1a39d3637c5c83ef6e17294f1"
                "612120f8f06dcbdeba6222d784bdbc36"}),
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
      "digest": "ff5180048cacde20aaef28a8f9b86d18"
                "2fb490c9c9837ca32e3ea49fcbb35dc1"}),
    ("n24-polylog-degree_targeter", 24, 8, "polylog", None, "degree_targeter",
     {}, 11, "000011101010110110110101",
     {"decisions": [-1, -1, 1, -1, -1, 1, -1, -1, 1, -1, 1, 1, 1, 1, 1, 1,
                    1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 4, "rounds": 1012,
      "total_bits": 1193742, "total_qubits": 321552,
      "crashed": [0, 1, 3, 4, 6, 7, 9],
      "fallback_triggers": 0,
      "digest": "f740ff7bd0f1ca71f8ac677a3100c316"
                "947b0bea09611b4667f879e69ebfd001"}),
    # n = 1 takes the early return: no phase, no round
    ("n1-polylog-none", 1, 0, "polylog", None, "none", {}, 4, "1",
     {"decisions": [1], "phases": 0, "rounds": 0,
      "total_bits": 0, "total_qubits": 0, "crashed": [],
      "fallback_triggers": 0,
      "digest": "5adffb3a46b096cca03df7c77799cec6"
                "ebef4de12cb64f81e3d913570911722b"}),
    ("n2-constant-random_crasher", 2, 2, "constant", 0.5, "random_crasher",
     {"rate": 0.01}, 9, "01",
     {"decisions": [-1, 0], "phases": 2, "rounds": 72,
      "total_bits": 175, "total_qubits": 28, "crashed": [0],
      "fallback_triggers": 1,
      "digest": "4b1f6a0fada1e8b23fbdadcee865eda6"
                "18607b23e6c395498d91cec51735ef58"}),
    ("n8-polylog-split_attacker", 8, 2, "polylog", None, "split_attacker",
     {}, 6, "01101001",
     {"decisions": [-1, 0, 0, 0, 0, 0, 0, 0], "phases": 5, "rounds": 910,
      "total_bits": 125548, "total_qubits": 27780, "crashed": [0],
      "fallback_triggers": 0,
      "digest": "7cdb0696b9c46d605f67b635ac8dc276"
                "783c8cda24cc765bdb18b845e30f2c78"}),
    # unanimous inputs: every process decides by the phase rule in phase 1
    ("n16-constant-none-all-zero", 16, 5, "constant", 0.5, "none", {}, 8,
     "0" * 16,
     {"decisions": [0] * 16, "phases": 4, "rounds": 512,
      "total_bits": 794928, "total_qubits": 179946, "crashed": [],
      "fallback_triggers": 0,
      "digest": "ec78bbfd370becd5dd91ebc0a5c07258"
                "aa9364b250f0878de42df040fff891b2"}),
    ("n16-polylog-random_crasher-all-one", 16, 5, "polylog", None,
     "random_crasher", {"rate": 0.01}, 12, "1" * 16,
     {"decisions": [1, -1, 1, 1, -1, 1, 1, 1, -1, 1, 1, 1, 1, 1, 1, -1],
      "phases": 5, "rounds": 990,
      "total_bits": 556916, "total_qubits": 169650,
      "crashed": [1, 4, 8, 15],
      "fallback_triggers": 0,
      "digest": "7e3c1800a6801a338976f84aaf62664b"
                "a1767004fa85afdc52a74fe5c5ac608e"}),
    ("n32-constant-degree_targeter", 32, 10, "constant", 0.5,
     "degree_targeter", {}, 17, "11000110000010110100100100111100",
     {"decisions": [-1] * 8 + [0] * 4 + [-1] + [0] * 19,
      "phases": 5, "rounds": 1165,
      "total_bits": 9345220, "total_qubits": 1376496,
      "crashed": [0, 1, 2, 3, 4, 5, 6, 7, 12],
      "fallback_triggers": 0,
      "digest": "3c55597f29aba9d2133052254ecfdee1"
                "0be6aa3f3a8dde4e67846fd7a32bbdc2"}),
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
      "digest": "f4770f75b4a31508ca00e6917590232d"
                "9f2f563f23bece8715c522fbfda5e915"}),
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
      "digest": "22147dd74310acc9aff4ec68137dee61"
                "e16f9195f0289b30e365b225cedea8ad"}),
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
      "digest": "6f626af0897fcbf01dcd748e31c5b2d4"
                "e96134e5587c7437a5e4533180175ef8"}),
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
      "digest": "26858ce63ebc15cd4f9c374dbc8054f2"
                "88f5adce0e541c108a1c8f021b3afee1"}),
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
      "digest": "71c486af0d88fb8a31c855374d15a215"
                "a99f7c793477ffb339f3ed5ece33e32c"}),
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
      "digest": "8ab547adf1212325d1a012190c57ee45"
                "1ab51eecb0097957d6886c7da83647b9"}),
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
      "digest": "4a12573865b2cdc193ed0dec7cf12e75"
                "aaf0c167114846dac152926a5e86de5b"}),
    ("n8-polylog-random_crasher-split", 8, 2, "polylog", None,
     "random_crasher", {"rate": 0.02}, 59,
     "01010101",
     {"decisions": [0, 0, 0, 0, 0, -1, 0, 0],
      "phases": 5, "rounds": 910,
      "total_bits": 118059, "total_qubits": 34590,
      "crashed": [5],
      "fallback_triggers": 0,
      "digest": "1a3818f00f8e1f96b5c86deed2f215b4"
                "94058c9a21fdb3bfa6354f9582d0d04b"}),
    ("n8-constant-none-split", 8, 2, "constant", 0.5, "none",
     {}, 61,
     "01010101",
     {"decisions": [1, 1, 1, 1, 1, 1, 1, 1],
      "phases": 4, "rounds": 512,
      "total_bits": 109684, "total_qubits": 19440,
      "crashed": [],
      "fallback_triggers": 0,
      "digest": "a16bd655a9c2e3051cb052e8ff394650"
                "d04e278c7acf265cfa6b018da8efdae9"}),
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
      "digest": "439f37786f0aa2915df8c3fd445097dd"
                "79a125277972b73f552a8983095da3d1"}),
    ("n48-constant-random_crasher-all-one", 48, 16, "constant", 0.5,
     "random_crasher", {"rate": 0.01}, 73, "1" * 48,
     {"decisions": [1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1, -1,
                    1, 1, -1, 1, 1, 1, 1, 1, -1, 1, -1, 1, -1, -1, 1, 1, 1,
                    1, -1, 1, -1, 1, -1, -1, 1, -1, 1, -1, 1, 1],
      "phases": 5, "rounds": 1165,
      "total_bits": 21047004, "total_qubits": 3199011,
      "crashed": [3, 5, 13, 17, 20, 26, 28, 30, 31, 36, 38, 40, 41, 43, 45],
      "fallback_triggers": 0,
      "digest": "465327a7e88a8a41c9254b953d4b84c7"
                "1e3124738659b79e1e64526543696f4b"}),
    ("n128-constant-random_crasher-budget3", 128, 4, "constant", 0.5,
     "random_crasher", {"rate": 0.002}, 79,
     "01101100101000101011111100101110010100011100010110100111001101110111"
     "110110011011010111111010011001000110100111001101110111011110",
     {"decisions": [-1 if p in (18, 39, 82) else 1 for p in range(128)],
      "phases": 4, "rounds": 1332,
      "total_bits": 444693476, "total_qubits": 37163984,
      "crashed": [18, 39, 82],
      "fallback_triggers": 0,
      "digest": "857063d521677ebfce61b55dc4dbee61"
                "b05052d46bf4a569698038bd998c4a79"}),
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
      "digest": "679fbd75502acc44185c9b119f8db00e"
                "ca94bac2d2733a975b886de4d15656e4"}),
    ("n32-polylog-random_crasher-all-zero", 32, 10, "polylog", None,
     "random_crasher", {"rate": 0.01}, 101, "0" * 32,
     {"decisions": [-1 if p in (2, 4, 9, 10, 17, 20, 23, 24, 31) else 0
                    for p in range(32)],
      "phases": 5, "rounds": 2005,
      "total_bits": 5200592, "total_qubits": 1522496,
      "crashed": [2, 4, 9, 10, 17, 20, 23, 24, 31],
      "fallback_triggers": 0,
      "digest": "e76ee76110cb564d8e179e019d72bdbd"
                "ca72962692ab640d8043dbf4ee569fde"}),
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
      "digest": "702852f8f6aea1224e278e828bd9564e"
                "1025a46ade454b085d5a729240c29385"}),
    # crashes chosen from view.state: the oracles' StateReader takes the
    # lowest-id undecided holder of b = 1 every 61st round
    ("n32-polylog-state_reader-split", 32, 11, "polylog", None,
     "state_reader", {}, 5, "01" * 16,
     {"decisions": [0, -1] * 5 + [0] * 22,
      "phases": 5, "rounds": 2005,
      "total_bits": 6816109, "total_qubits": 2128000,
      "crashed": [1, 3, 5, 7, 9],
      "fallback_triggers": 0,
      "digest": "4cb9afa954ee1144d25f5a15f25f4f2d"
                "2e4ac4cdf7c5620f70b36ff6ba76fe85"}),
    ("n32-constant-state_reader-split", 32, 11, "constant", 0.5,
     "state_reader", {}, 5, "01" * 16,
     {"decisions": [0, -1] * 3 + [0] * 26,
      "phases": 4, "rounds": 932,
      "total_bits": 8359327, "total_qubits": 1505424,
      "crashed": [1, 3, 5],
      "fallback_triggers": 0,
      "digest": "e5a1f8dc8f1cd245994531b82cd99532"
                "ce00b5be1396280b2d43688ca97f649c"}),
]


def test_digests_are_version_4():
    """The pinned digests are only valid for the byte layout they were made
    under."""
    assert DIGEST_VERSION == 4


@pytest.mark.parametrize(
    "n,t,preset,epsilon,adversary,params,seed,inputs,expected",
    [case[1:] for case in GOLDEN], ids=[case[0] for case in GOLDEN])
def test_golden_run(n, t, preset, epsilon, adversary, params, seed, inputs,
                    expected):
    consensus_params = (ConsensusParams.constant(n, epsilon)
                        if preset == "constant"
                        else ConsensusParams.polylog(n))
    bits = np.array([int(c) for c in inputs], dtype=np.int64)
    adv = (StateReader() if adversary == StateReader.name
           else make_adversary(adversary, **params))
    result = run_consensus(bits, consensus_params, t, adv, seed)
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
      "digest": "f65d346e802c5394f4d4809becc5345a"
                "bbab4d39e166c17099b6b464d4d5c53b"}),
    ("coin-n48-random_crasher", 48, 16, "random_crasher", {"rate": 0.02}, 21,
     {"bits": [0] * 18 + [1] + [0] * 29,
      "rounds": 128, "total_bits": 394748, "total_qubits": 796062,
      "crashed": [1, 4, 5, 11, 16, 17, 18, 23, 24, 32, 34, 36, 38, 40, 45],
      "digest": "4613e0b9cc3015fc3ef21ba882cd35e4"
                "f8631bb3707b4dcb6b66144570a88ff4"}),
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
      "digest": "1496c4614d0382153e19879df8b3386f"
                "a63ad85c4b17123ff57dd3089c111d8d"}),
    # crash budgets that run out inside the relay (last crashes in rounds
    # 47 and 28 of 128), so the rounds after them repeat
    ("coin-n64-random_crasher-budget7", 64, 8, "random_crasher",
     {"rate": 0.002}, 83,
     {"bits": [0, 0, 1] + [0] * 61,
      "rounds": 128, "total_bits": 606593, "total_qubits": 1263766,
      "crashed": [2, 3, 27, 39, 41, 58, 63],
      "digest": "3091731535d31fc8a8fc0d93e8c7bec2"
                "9a28fb4af9051e91f3cc1eb176e345a2"}),
    ("coin-n96-random_crasher-budget5", 96, 6, "random_crasher",
     {"rate": 0.002}, 89,
     {"bits": [1] * 96,
      "rounds": 128, "total_bits": 2485001, "total_qubits": 5440490,
      "crashed": [18, 23, 65, 78, 85],
      "digest": "10a147aa645b5511742622dbdbfb5ad3"
                "bc3b8bf5e9cb63dc9c1f257cc3da10e0"}),
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
