"""Command-line front end.

Subcommands:
  run          one consensus run, transcript JSON out
  sweep        batch of runs over sizes/seeds/presets, CSV or JSON out
  coin-stats   per-bit frequency and agreement stats for the weak coin
  check-graphs property certification of phase 1's top-level counting layers

All commands take --config (JSON, validated against a schema) and --out;
sweep also takes --format and --jobs, and coin-stats --jobs.  --jobs is at
least 1 and starts no more worker processes than there are cells.  QSIM_SEED
in the environment replaces the config's ``seed``: the seed of run and
check-graphs, the first of a seed count in sweep and coin-stats (so a sweep
with an explicit seed list ignores it).  Exit codes: 0 success, 2 bad
configuration (or one too large for memory: run, sweep and coin-stats
refuse, before any cell runs, cells whose estimated peaks, one per worker,
exceed physical memory; a failed allocation or a dead worker exits 2), 3 a
protocol invariant (agreement/validity) was violated, 4 a run hit its phase
or round cap without terminating (liveness failure).  run is a one-cell
sweep: both make a non-terminating cell a row with ``terminated`` false and
the phases, rounds, bits and qubits it reached (run then writes no report),
and exit 4 only if no cell disagreed or decided an invalid value (that
exits 3).
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
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import jsonschema
import numpy as np

from .adversaries import ADVERSARY_NAMES, make_adversary
from .coin import CoinParams, run_coin
from .consensus import ConsensusParams, run_consensus
from .counting import level_graph
from .engine import CapExceeded, SimContext, SimulationError, Transcript
from .exchange import block_rows, layer_count
from .graphs import (DEFAULT_BUDGET, DEFAULT_TRIALS, is_compact,
                     is_edge_dense, is_expanding)
from .rng import substream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_LIVENESS = 4


def _object(required: list, **properties) -> dict:
    """Schema of a JSON object with these properties and no others."""
    return {"type": "object", "properties": properties, "required": required,
            "additionalProperties": False}


def _list(items: dict) -> dict:
    return {"type": "array", "items": items, "minItems": 1}


# fragments the command schemas share
_COUNT = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer"}
_T = {"type": "integer", "minimum": 0}
_EPSILON = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}
_PRESET = {"enum": ["constant", "polylog"]}
_INPUTS = {"enum": ["random", "all-zero", "all-one", "split"]}
_ADVERSARY_SCHEMA = _object(["name"], name={"enum": list(ADVERSARY_NAMES)},
                            params={"type": "object"})

_RUN_SCHEMA = _object(
    ["n", "seed", "preset"], n=_COUNT, t=_T, seed=_SEED, preset=_PRESET,
    epsilon=_EPSILON, adversary=_ADVERSARY_SCHEMA,
    inputs={"oneOf": [_INPUTS, {"type": "array",
                                "items": {"enum": [0, 1]}}]},
    record_rounds={"type": "boolean"})

_SWEEP_SCHEMA = _object(
    ["n_list", "seeds", "presets"], n_list=_list(_COUNT),
    seeds={"oneOf": [_COUNT, _list(_SEED)]}, seed=_SEED,
    presets=_list(_PRESET), epsilon=_EPSILON, adversary=_ADVERSARY_SCHEMA,
    inputs=_INPUTS)

_COIN_SCHEMA = _object(
    ["n", "seeds"], n=_COUNT, t=_T, d=_COUNT,
    alpha={"type": "integer", "minimum": 2}, seeds=_COUNT, seed=_SEED,
    adversary=_ADVERSARY_SCHEMA)

_CERTIFIERS = {"expanding": (is_expanding, {}),
               "edge_dense": (is_edge_dense, {"a": 1.0, "b": 1.0}),
               "compact": (is_compact, {"eps": 0.75, "delta": 1})}
_GRAPH_SCHEMA = _object(
    ["n", "preset", "checks"], n=_COUNT, preset=_PRESET, seed=_SEED,
    budget=_COUNT, trials=_COUNT,
    checks=_list(_object(
        ["property", "ell"],
        property={"enum": list(_CERTIFIERS)},
        ell=_COUNT, a={"type": "number"}, b={"type": "number"},
        eps={"type": "number"}, delta={"type": "integer"})))


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


def _crash_bound(cfg: dict, n: int) -> int:
    """The config's t (default n // 3, at least 1); a t above n is a config
    error."""
    t = cfg.get("t", max(1, n // 3))
    if t > n:
        raise ConfigError(f"t must be at most n (got t={t}, n={n})")
    return t


def _seeds(cfg: dict) -> list[int]:
    """The config's seeds in order, duplicates removed: an explicit list,
    or a count of seeds from ``seed`` (default 0) on."""
    seeds = cfg["seeds"]
    if isinstance(seeds, int):
        base = cfg.get("seed", 0)
        seeds = list(range(base, base + seeds))
    uniq = sorted(set(seeds))
    if len(uniq) != len(seeds):
        print("warning: duplicate seeds removed", file=sys.stderr)
    return uniq


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


_BASE_BYTES = 40 << 20  # the interpreter with numpy and qconsim imported


def _peak_bytes(n: int, k: int, counting: bool) -> int:
    """Estimated peak bytes of one cell on n processes whose relays climb
    to layer k.  A relay holds two packed (k+1, n, n/8) stacks (the coin's
    layers and their transpose), about nine (n, n) bool matrices (two
    prepared rounds with their cached deliveries, ``asked``,
    ``KeyCarrier.larger``, a merge's mask and a few temporaries) and one
    float32 block of ``_adapt_vec``.  Counting adds its rumor merge as two
    (n, n) matrices, the mask and its edge lists (about 50 bytes per useful
    edge, up to 0.02 n^2 edges at n = 4096 under the constant preset), and
    two for the heap holes, each a little smaller than a matrix, that
    glibc's heap leaves between phases.  Its level-0 build, the bool stack
    and about six (n, n) matrices, is the peak only for large k.
    Calibrated on the peak RSS of crash-free coins at n = 4096 and 8192
    (177 and 558 MiB) and of constant-preset consensus runs at n = 2048
    and 4096 (82 and 212 MiB, the largest of seeds 1 to 3)."""
    square = n * n
    peak = (2 * (k + 1) * n * -(-n // 8) + 9 * square
            + 4 * n * min(n, block_rows(n)))
    if counting:
        peak = max(peak + 4 * square, (k + 7) * square)
    return _BASE_BYTES + peak


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(n: int, d: int, alpha: int, counting: bool,
                  at_once: int = 1) -> None:
    """A config error if ``at_once`` such cells exceed physical memory."""
    need = at_once * _peak_bytes(n, layer_count(n, d, alpha), counting)
    have = _physical_memory()
    if need > have:
        cells = f" for {at_once} cells at once" if at_once > 1 else ""
        raise ConfigError(f"n = {n} needs about {need / 2**30:.1f} GiB of "
                          f"memory{cells}, more than the "
                          f"{have / 2**30:.1f} GiB of this machine")


def _workers(jobs: int, cells: int) -> int:
    """--jobs, at least 1, capped at one worker process per cell."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1 (got {jobs})")
    return min(jobs, cells)


def _specs(cfg: dict, n_list: list, presets: list, seeds: list,
           jobs: int = 1) -> list:
    """One consensus cell spec per (n, preset, seed), in that order, with
    the config's t, epsilon, adversary, inputs and record_rounds; every
    (n, preset) must pass the memory check for the cells run at once."""
    at_once = _workers(jobs, len(n_list) * len(presets) * len(seeds))
    shared = {"epsilon": cfg.get("epsilon", 0.5),
              "adversary": cfg.get("adversary", {"name": "none"}),
              "inputs": cfg.get("inputs", "random"),
              "record_rounds": cfg.get("record_rounds", False)}
    for n in n_list:
        for preset in presets:
            params = _params(preset, n, shared["epsilon"])
            _check_memory(n, params.d, params.alpha, True, at_once)
    return [{"n": n, "t": _crash_bound(cfg, n), "seed": seed,
             "preset": preset, **shared}
            for n in n_list for preset in presets for seed in seeds]


_SWEEP_COLUMNS = ["n", "t", "preset", "adversary", "seed", "phases", "rounds",
                  "total_bits", "total_qubits", "terminated", "agreed",
                  "valid"]


def _params(preset: str, n: int, epsilon: float = 0.5) -> ConsensusParams:
    return (ConsensusParams.constant(n, epsilon) if preset == "constant"
            else ConsensusParams.polylog(n))


def _cell(spec: dict) -> tuple[dict, Transcript | None, np.ndarray]:
    """One consensus run: its row (``_SWEEP_COLUMNS``), its transcript and
    its inputs.  A run that hits its phase or round cap is not an abort but
    a row with ``terminated`` false, the progress it reached and ``agreed``
    and ``valid`` empty, and no transcript."""
    n, t, seed, preset = spec["n"], spec["t"], spec["seed"], spec["preset"]
    params = _params(preset, n, spec["epsilon"])
    adversary = _adversary(spec["adversary"], n, t, seed)
    inputs = _make_inputs(spec["inputs"], n, seed)
    try:
        result = run_consensus(inputs, params, t, adversary, seed,
                               record_rounds=spec["record_rounds"])
    except CapExceeded as exc:
        tr, reached = None, (exc.phases, exc.rounds, exc.total_bits,
                             exc.total_qubits, False, None, None)
    else:
        tr = result.transcript
        reached = (result.phases, tr.rounds, tr.ledger["total_bits"],
                   tr.ledger["total_qubits"], True, result.agreed,
                   result.valid(inputs))
    row = (n, t, preset, spec["adversary"]["name"], seed, *reached)
    return dict(zip(_SWEEP_COLUMNS, row)), tr, inputs


def _verdict(rows: list) -> int:
    """Exit 3 if a terminated cell disagreed or decided an invalid value,
    else 4 (with one ``liveness failure`` line) if a cell did not
    terminate, else 0."""
    ended = [r for r in rows if r["terminated"]]
    if len(ended) < len(rows):
        print(f"liveness failure: {len(rows) - len(ended)} of {len(rows)} "
              "cells did not terminate", file=sys.stderr)
    if not all(r["agreed"] and r["valid"] for r in ended):
        return EXIT_INVARIANT
    return EXIT_OK if len(ended) == len(rows) else EXIT_LIVENESS


def cmd_run(args) -> int:
    cfg = _load_config(args.config, _RUN_SCHEMA)
    spec, = _specs(cfg, [cfg["n"]], [cfg["preset"]], [cfg["seed"]])
    row, transcript, inputs = _cell(spec)
    if transcript is not None:
        report = json.loads(transcript.to_json())
        report.update(preset=row["preset"], agreed=row["agreed"],
                      valid=row["valid"], phases=row["phases"],
                      decisions=report["outputs"]["decisions"],
                      inputs=[int(v) for v in inputs.tolist()])
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return _verdict([row])


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, _SWEEP_SCHEMA)
    specs = _specs(cfg, cfg["n_list"], cfg["presets"], _seeds(cfg), args.jobs)
    rows = [row for row, _, _ in _fan_out(_cell, specs, args.jobs)]
    if args.format == "json":
        _emit(json.dumps(rows, sort_keys=True, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return _verdict(rows)


def wilson_lower(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower bound of the Wilson 95% score interval."""
    if trials == 0:
        return 0.0
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    margin = z * math.sqrt((phat * (1 - phat) + z * z / (4 * trials)) / trials)
    return (centre - margin) / denom


def _coin_cell(spec: dict) -> tuple[int, int, bool]:
    """One coin invocation: the ones among the surviving bits, the number
    of survivors, and whether they all agree."""
    n, t, seed = spec["n"], spec["t"], spec["seed"]
    ctx = SimContext(n, t, _adversary(spec["adversary"], n, t, seed), seed)
    bits = run_coin(ctx, spec["coin"])
    alive_bits = bits[ctx.active]
    agree = alive_bits.size > 0 and (alive_bits == alive_bits[0]).all()
    return int(alive_bits.sum()), int(alive_bits.size), bool(agree)


def cmd_coin_stats(args) -> int:
    cfg = _load_config(args.config, _COIN_SCHEMA)
    n = cfg["n"]
    t = _crash_bound(cfg, n)
    params = CoinParams.make(n, d=cfg.get("d"), alpha=cfg.get("alpha"))
    specs = [{"n": n, "t": t, "seed": seed, "coin": params,
              "adversary": cfg.get("adversary", {"name": "none"})}
             for seed in _seeds(cfg)]
    _check_memory(n, params.d, params.alpha, False,
                  _workers(args.jobs, len(specs)))
    cells = _fan_out(_coin_cell, specs, args.jobs)
    runs = len(cells)
    agree_runs = [(o, s) for o, s, a in cells if a]
    all_one = sum(1 for o, s in agree_runs if s and o == s)
    all_zero = sum(1 for o, s in agree_runs if o == 0)
    report = {
        "n": n, "t": t, "d": params.d, "alpha": params.alpha,
        "runs": runs,
        "rounds_per_run": params.rounds,
        "agreement_rate": len(agree_runs) / runs,
        "all_one_rate": all_one / runs,
        "all_zero_rate": all_zero / runs,
        "wilson_lower_one": round(wilson_lower(all_one, runs), 6),
        "wilson_lower_zero": round(wilson_lower(all_zero, runs), 6),
    }
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_check_graphs(args) -> int:
    cfg = _load_config(args.config, _GRAPH_SCHEMA)
    n, preset, seed = cfg["n"], cfg["preset"], cfg.get("seed", 0)
    limits = {"budget": cfg.get("budget", DEFAULT_BUDGET),
              "trials": cfg.get("trials", DEFAULT_TRIALS), "seed": seed}
    params = _params(preset, n)
    _check_memory(n, params.d, params.alpha, counting=True)
    tag = (("count", 1), 0)  # phase 1's top-level counting, level 0
    _, layers, _ = level_graph(n, [0, n], params, seed, tag)
    checks = []
    for chk in cfg["checks"]:
        certify, defaults = _CERTIFIERS[chk["property"]]
        options = {k: chk.get(k, v) for k, v in defaults.items()}
        checks.append(partial(certify, ell=chk["ell"], **limits, **options))
    rows = [{"layer": i, "edges": int(adj.sum()) // 2,
             "y": min(1.0, params.d * params.alpha ** i / n),
             "reports": [check(adj).to_dict() for check in checks]}
            for i, adj in enumerate(layers)]
    body = {"n": n, "preset": preset, "seed": seed, "layers": rows,
            "all_hold": all(r["verdict"] for row in rows
                            for r in row["reports"])}
    _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _fan_out(cell, jobs: list, workers: int) -> list:
    """``cell`` of every job (a spec dict), in order, in ``_workers``
    processes; a worker that dies (say, killed by the OS) is a config error."""
    workers = _workers(workers, len(jobs))
    if workers <= 1:
        return [cell(j) for j in jobs]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(cell, jobs))
    except BrokenProcessPool as exc:
        raise ConfigError(f"a worker process died: {exc}") from None


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
    except (ConfigError, MemoryError) as exc:  # also a config too large
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
