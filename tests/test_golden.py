"""Golden outputs: fixed run_consensus configs with every result pinned.

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
from qconsim.consensus import ConsensusParams, run_consensus

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

