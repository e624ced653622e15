"""Command-line front end.

Subcommands:
  run          one consensus run, transcript JSON out
  sweep        batch of runs over sizes/seeds/presets, CSV or JSON out
  coin-stats   per-bit frequency and agreement stats for the weak coin
  check-graphs property certification on a sampled G(n, y)

All commands take --config (JSON, validated against a schema) and --out;
sweep also takes --format and --jobs, and coin-stats --jobs.  --jobs is at
least 1 and starts no more worker processes than there are cells.  QSIM_SEED
in the environment overrides the config seed.  Exit codes: 0 success, 2 bad
configuration, 3 a protocol invariant (agreement/validity) was violated, 4 a
run hit its phase or round cap without terminating (liveness failure).  A
sweep records a non-terminating cell as a row with ``terminated`` false and
the phases, rounds, bits and qubits it reached, and exits 4 only if no cell
disagreed or decided an invalid value (that exits 3).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import jsonschema
import numpy as np

from .adversaries import ADVERSARY_NAMES, make_adversary
from .coin import CoinParams, run_coin
from .consensus import ConsensusParams, run_consensus
from .engine import CapExceeded, SimContext, SimulationError
from .graphs import (DEFAULT_BUDGET, DEFAULT_TRIALS, is_compact,
                     is_edge_dense, is_expanding, sample_gnp)
from .rng import substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_LIVENESS = 4

_ADVERSARY_SCHEMA = {
    "type": "object",
    "properties": {
        "name": {"enum": list(ADVERSARY_NAMES)},
        "params": {"type": "object"},
    },
    "required": ["name"],
    "additionalProperties": False,
}

_RUN_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "t": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
        "preset": {"enum": ["constant", "polylog"]},
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "adversary": _ADVERSARY_SCHEMA,
        "inputs": {
            "oneOf": [
                {"enum": ["random", "all-zero", "all-one", "split"]},
                {"type": "array", "items": {"enum": [0, 1]}},
            ]
        },
        "record_rounds": {"type": "boolean"},
    },
    "required": ["n", "seed", "preset"],
    "additionalProperties": False,
}

_SWEEP_SCHEMA = {
    "type": "object",
    "properties": {
        "n_list": {"type": "array", "items": {"type": "integer", "minimum": 1},
                   "minItems": 1},
        "seeds": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer"}, "minItems": 1},
            ]
        },
        "seed": {"type": "integer"},
        "presets": {"type": "array", "items": {"enum": ["constant", "polylog"]},
                    "minItems": 1},
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "adversary": _ADVERSARY_SCHEMA,
        "inputs": {"enum": ["random", "all-zero", "all-one", "split"]},
    },
    "required": ["n_list", "seeds", "presets"],
    "additionalProperties": False,
}

_COIN_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "t": {"type": "integer", "minimum": 0},
        "d": {"type": "integer", "minimum": 1},
        "alpha": {"type": "integer", "minimum": 2},
        "seeds": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "adversary": _ADVERSARY_SCHEMA,
    },
    "required": ["n", "seeds"],
    "additionalProperties": False,
}

_GRAPH_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "y": {"type": "number", "minimum": 0, "maximum": 1},
        "seed": {"type": "integer"},
        "budget": {"type": "integer", "minimum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "properties": {
                    "property": {"enum": ["expanding", "edge_dense", "compact"]},
                    "ell": {"type": "integer", "minimum": 1},
                    "a": {"type": "number"},
                    "b": {"type": "number"},
                    "eps": {"type": "number"},
                    "delta": {"type": "integer"},
                },
                "required": ["property", "ell"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["n", "y", "checks"],
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


# JSON Schema counts 2.0 as an integer; a count or an id here must be an int
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer",
        lambda _, v: isinstance(v, int) and not isinstance(v, bool)))


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_config(path: str, schema: dict) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_no_constant)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        _Validator(schema).validate(cfg)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config: {exc.message}") from exc
    env_seed = os.environ.get("QSIM_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError("QSIM_SEED must be an integer") from None
    return cfg


def _make_inputs(spec, n: int, seed: int) -> np.ndarray:
    if isinstance(spec, list):
        if len(spec) != n:
            raise ConfigError("explicit inputs must have length n")
        return np.array(spec, dtype=np.int64)
    if spec == "all-zero":
        return np.zeros(n, dtype=np.int64)
    if spec == "all-one":
        return np.ones(n, dtype=np.int64)
    if spec == "split":
        return (np.arange(n) % 2).astype(np.int64)
    return substream(seed, "inputs").integers(0, 2, size=n)


def _params_for(preset: str, n: int, epsilon: float) -> ConsensusParams:
    if preset == "constant":
        return ConsensusParams.constant(n, epsilon)
    return ConsensusParams.polylog(n)


def _default_t(n: int) -> int:
    return max(1, n // 3)


def _crash_bound(cfg: dict, n: int) -> int:
    """The config's t (default n // 3); a t above n is a config error."""
    t = cfg.get("t", _default_t(n))
    if t > n:
        raise ConfigError(f"t must be at most n (got t={t}, n={n})")
    return t


def _adversary(adv_cfg: dict, n: int, t: int, seed: int):
    """The configured adversary, checked against n; bad params are a config
    error."""
    try:
        adversary = make_adversary(adv_cfg["name"],
                                   **adv_cfg.get("params", {}))
        adversary.reset(n, t, seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad adversary params: {exc}") from None
    return adversary


def _one_run(cfg: dict) -> dict:
    n = cfg["n"]
    seed = cfg["seed"]
    t = _crash_bound(cfg, n)
    params = _params_for(cfg["preset"], n, cfg.get("epsilon", 0.5))
    adversary = _adversary(cfg.get("adversary", {"name": "none"}), n, t, seed)
    inputs = _make_inputs(cfg.get("inputs", "random"), n, seed)
    result = run_consensus(inputs, params, t, adversary, seed,
                           record_rounds=cfg.get("record_rounds", False))
    report = json.loads(result.transcript.to_json())
    report["preset"] = cfg["preset"]
    report["decisions"] = report["outputs"]["decisions"]
    report["inputs"] = [int(v) for v in inputs.tolist()]
    report["agreed"] = result.agreed
    report["valid"] = result.valid(inputs)
    report["phases"] = result.phases
    return report


def cmd_run(args) -> int:
    cfg = _load_config(args.config, _RUN_SCHEMA)
    report = _one_run(cfg)
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if report["agreed"] and report["valid"] else EXIT_INVARIANT


_SWEEP_COLUMNS = ["n", "t", "preset", "adversary", "seed", "phases", "rounds",
                  "total_bits", "total_qubits", "terminated", "agreed",
                  "valid"]


def _sweep_cell(job: tuple) -> dict:
    """One sweep row.  A run that hits its phase or round cap is a row with
    ``terminated`` false, the progress it reached and ``agreed`` and
    ``valid`` empty, not an abort."""
    n, t, preset, epsilon, adv_cfg, seed, inputs_spec = job
    params = _params_for(preset, n, epsilon)
    adversary = _adversary(adv_cfg, n, t, seed)
    inputs = _make_inputs(inputs_spec, n, seed)
    row = {"n": n, "t": t, "preset": preset, "adversary": adv_cfg["name"],
           "seed": seed}
    try:
        result = run_consensus(inputs, params, t, adversary, seed)
    except CapExceeded as exc:
        return {**row, "phases": exc.phases, "rounds": exc.rounds,
                "total_bits": exc.total_bits,
                "total_qubits": exc.total_qubits, "terminated": False,
                "agreed": None, "valid": None}
    led = result.transcript.ledger
    return {
        **row, "phases": result.phases,
        "rounds": result.transcript.rounds,
        "total_bits": led["total_bits"], "total_qubits": led["total_qubits"],
        "terminated": True,
        "agreed": result.agreed, "valid": result.valid(inputs),
    }


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, _SWEEP_SCHEMA)
    seeds = cfg["seeds"]
    if isinstance(seeds, int):
        base = cfg.get("seed", 0)
        seeds = list(range(base, base + seeds))
    uniq = sorted(set(seeds))
    if len(uniq) != len(seeds):
        print("warning: duplicate seeds removed", file=sys.stderr)
    adv_cfg = cfg.get("adversary", {"name": "none"})
    eps = cfg.get("epsilon", 0.5)
    jobs = [(n, _default_t(n), preset, eps, adv_cfg, seed,
             cfg.get("inputs", "random"))
            for n in cfg["n_list"] for preset in cfg["presets"]
            for seed in uniq]
    rows = _fan_out(_sweep_cell, jobs, args.jobs)
    ended = [r for r in rows if r["terminated"]]
    safe = all(r["agreed"] and r["valid"] for r in ended)
    if len(ended) < len(rows):
        print(f"liveness failure: {len(rows) - len(ended)} of {len(rows)} "
              "cells did not terminate", file=sys.stderr)
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    if not safe:
        return EXIT_INVARIANT
    return EXIT_OK if len(ended) == len(rows) else EXIT_LIVENESS


def wilson_lower(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower bound of the Wilson 95% score interval."""
    if trials == 0:
        return 0.0
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt((phat * (1 - phat) + z * z / (4 * trials)) / trials)
    return (centre - margin) / denom


def _coin_cell(job: tuple) -> tuple[int, int, bool]:
    params, t, adv_cfg, seed = job
    adversary = _adversary(adv_cfg, params.n, t, seed)
    ctx = SimContext(params.n, t, adversary, seed)
    bits = run_coin(ctx, params)
    alive_bits = bits[ctx.active]
    agree = alive_bits.size > 0 and (alive_bits == alive_bits[0]).all()
    ones = int(alive_bits.sum())
    return ones, int(alive_bits.size), bool(agree)


def cmd_coin_stats(args) -> int:
    cfg = _load_config(args.config, _COIN_SCHEMA)
    n = cfg["n"]
    t = _crash_bound(cfg, n)
    adv_cfg = cfg.get("adversary", {"name": "none"})
    base = cfg.get("seed", 0)
    params = CoinParams.make(n, d=cfg.get("d"), alpha=cfg.get("alpha"))
    jobs = [(params, t, adv_cfg, base + i) for i in range(cfg["seeds"])]
    cells = _fan_out(_coin_cell, jobs, args.jobs)
    runs = len(cells)
    agree_runs = [(o, s) for o, s, a in cells if a]
    all_one = sum(1 for o, s in agree_runs if s and o == s)
    all_zero = sum(1 for o, s in agree_runs if o == 0)
    report = {
        "n": n, "t": t, "d": params.d, "alpha": params.alpha,
        "runs": runs,
        "rounds_per_run": params.rounds,
        "agreement_rate": sum(1 for _, _, a in cells if a) / runs,
        "all_one_rate": all_one / runs,
        "all_zero_rate": all_zero / runs,
        "wilson_lower_one": round(wilson_lower(all_one, runs), 6),
        "wilson_lower_zero": round(wilson_lower(all_zero, runs), 6),
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_check_graphs(args) -> int:
    cfg = _load_config(args.config, _GRAPH_SCHEMA)
    n, y = cfg["n"], cfg["y"]
    seed = cfg.get("seed", 0)
    budget = cfg.get("budget", DEFAULT_BUDGET)
    trials = cfg.get("trials", DEFAULT_TRIALS)
    adj = sample_gnp(n, y, seed)
    reports = []
    for chk in cfg["checks"]:
        prop = chk["property"]
        if prop == "expanding":
            rep = is_expanding(adj, chk["ell"], budget, trials, seed)
        elif prop == "edge_dense":
            rep = is_edge_dense(adj, chk["ell"], chk.get("a", 1.0),
                                chk.get("b", 1.0), budget, trials, seed)
        else:
            rep = is_compact(adj, chk["ell"], chk.get("eps", 0.75),
                             chk.get("delta", 1), budget, trials, seed)
        reports.append(rep.to_dict())
    body = {"n": n, "y": y, "seed": seed, "edges": int(adj.sum()) // 2,
            "reports": reports,
            "all_hold": all(r["verdict"] for r in reports)}
    _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _fan_out(cell, jobs: list, workers: int) -> list:
    """``cell`` of every job, in order, in at most ``workers`` processes
    and never more processes than jobs."""
    if workers < 1:
        raise ConfigError(f"--jobs must be at least 1 (got {workers})")
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [cell(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(cell, jobs))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qconsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("sweep", cmd_sweep),
                     ("coin-stats", cmd_coin_stats),
                     ("check-graphs", cmd_check_graphs)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if name in ("sweep", "coin-stats"):
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (at most one per cell)")
        if name == "sweep":
            p.add_argument("--format", choices=["json", "csv"], default="csv")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceeded as exc:
        print(f"liveness failure: {exc}", file=sys.stderr)
        return EXIT_LIVENESS
    except SimulationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
