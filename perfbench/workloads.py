"""The benchmark's workloads: which top-level calls each one makes.

A workload is a fixed list of calls (a "pass") derived from the workload
seed.  The timed loop cycles through the pass, so every call in it runs at
least once and most run several times; repeats must reproduce the first
fingerprint exactly.

Each call goes through a public entry point looked up on its module at call
time (``consensus.run_consensus``, ``coin.run_coin``), so the tracer can wrap
it from outside.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from qconsim import adversaries, coin, consensus, engine

WORKLOADS = ("consensus-large", "sweep-small", "coin-stats")

# Sizes per scale.  "tiny" keeps the same structure at sizes the self-test
# can run in a few seconds.
_SIZES = {
    "full": {"large_n": 384, "large_calls": 2, "sweep_n": (16, 32, 64),
             "coin_n": 512, "coin_calls": 8},
    "tiny": {"large_n": 48, "large_calls": 1, "sweep_n": (8, 16),
             "coin_n": 64, "coin_calls": 2},
}
_SWEEP_ADVERSARIES = ("none", "random_crasher", "degree_targeter",
                      "split_attacker")


@dataclass(frozen=True)
class Call:
    """One top-level call: a consensus run, or one coin invocation."""

    kind: str  # "consensus" or "coin"
    n: int
    t: int
    adversary: str
    adversary_params: tuple
    seed: int
    preset: str = ""
    inputs: tuple = ()

    def label(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.adversary_params)
        preset = f" {self.preset}" if self.preset else ""
        return (f"{self.kind} n={self.n} t={self.t}{preset} "
                f"{self.adversary}({params}) seed={self.seed}")


def build_calls(workload: str, seed: int, scale: str = "full") -> list[Call]:
    """The pass of calls for ``workload``; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = _SIZES[scale]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def consensus_call(n, t, preset, adversary, params=()):
        return Call("consensus", n, t, adversary, params,
                    int(rng.integers(0, 2**31)), preset,
                    tuple(int(v) for v in rng.integers(0, 2, size=n)))

    if workload == "consensus-large":
        n = size["large_n"]
        return [consensus_call(n, n // 3, "constant", "random_crasher",
                               (("rate", 0.002),))
                for _ in range(size["large_calls"])]
    if workload == "sweep-small":
        calls = [consensus_call(n, max(1, n // 3), preset, adv)
                 for n in size["sweep_n"]
                 for preset in ("polylog", "constant")
                 for adv in _SWEEP_ADVERSARIES]
        # near-death cells: a budget of n - 1 crashes drives the survivor
        # count under the fallback threshold, so the fallback window runs
        n = size["sweep_n"][-1]
        calls += [consensus_call(n, n, preset, "random_crasher",
                                 (("rate", 0.01),))
                  for preset in ("polylog", "constant")]
        return calls
    n = size["coin_n"]
    return [Call("coin", n, n // 3, "degree_targeter", (),
                 int(rng.integers(0, 2**31)))
            for _ in range(size["coin_calls"])]


def prepare(call: Call):
    """Everything a call needs before its timed region: inputs and params."""
    if call.kind == "consensus":
        params = (consensus.ConsensusParams.constant(call.n, 0.5)
                  if call.preset == "constant"
                  else consensus.ConsensusParams.polylog(call.n))
        return np.array(call.inputs, dtype=np.int64), params
    return None, coin.CoinParams.make(call.n)


def run_call(call: Call, prepared):
    """Make the call; return (outcome dict, failure reason or None).

    The outcome holds the simulated statistics that make up the fingerprint.
    The transcript digest is left out on purpose, so that a change to the
    digest format alone is not read as a change of behaviour.
    """
    inputs, params = prepared
    adversary = adversaries.make_adversary(call.adversary,
                                           **dict(call.adversary_params))
    if call.kind == "consensus":
        result = consensus.run_consensus(inputs, params, call.t, adversary,
                                         call.seed)
        tr = result.transcript
        outcome = {"decisions": result.decisions.tolist(),
                   "phases": result.phases, "rounds": tr.rounds,
                   "total_bits": tr.ledger["total_bits"],
                   "total_qubits": tr.ledger["total_qubits"],
                   "crashed": list(tr.crashed)}
        if not result.agreed:
            return outcome, "disagreement"
        if not result.valid(inputs):
            return outcome, "invalid decision"
        return outcome, None
    ctx = engine.SimContext(call.n, call.t, adversary, call.seed)
    bits = coin.run_coin(ctx, params)
    outcome = {"bits": bits.tolist(), "rounds": ctx.round,
               "total_bits": ctx.ledger.total_bits,
               "total_qubits": ctx.ledger.total_qubits,
               "crashed": np.nonzero(~ctx.alive)[0].tolist()}
    if not np.isin(bits, (0, 1)).all():
        return outcome, "coin bit outside {0, 1}"
    return outcome, None


def fingerprint(outcome: dict) -> str:
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def combine(fingerprints: list[str]) -> str:
    """One fingerprint for a whole pass, in call order."""
    return hashlib.sha256("|".join(fingerprints).encode()).hexdigest()[:16]
