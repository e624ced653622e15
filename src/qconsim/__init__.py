"""Deterministic simulator for quantum-coin consensus under crash faults."""

from .adversaries import (Adversary, DegreeTargeter, RandomCrasher,
                          SplitAttacker, make_adversary)
from .coin import CoinParams, run_coin
from .consensus import (ConsensusParams, ConsensusResult, PhaseAction,
                        phase_rule, run_consensus, should_stop)
from .counting import fast_counting, partition, partition_levels
from .engine import CostLedger, CrashDecision, SimContext, Transcript
from .graphs import (PropertyReport, delta_core, is_compact, is_edge_dense,
                     is_expanding, sample_gnp)
from .rng import substream

__version__ = "0.1.0"
