"""qconsim benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload consensus-large --seed 1 \
        --seconds 35 --trace 0

Run it from the root of a source checkout; it imports ``qconsim`` from
``src/``.  The loop is closed: one top-level call at a time (``run_consensus``
or ``run_coin``), in this single process, with BLAS/OpenMP threads pinned to
one.  Every call's simulated statistics are fingerprinted; a call fails if it
raises, if consensus disagrees or decides a value nobody proposed, if a coin
bit is not 0 or 1, or if its fingerprint differs from the same call made
earlier in this run or in an earlier run of the same sources and seed.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics, timings scaled to a reference host speed (HostSpeed);
with ``--trace 1`` it holds the per-layer metrics of a traced run (see
tracer.py).  Full results, with the run context, go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in probes

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 5  # fresh processes whose median set-up time is setup_s
# Median time of HostSpeed's reference kernel on the two-vCPU host where the
# baseline in README.md was taken; timings are scaled to that speed.
REFERENCE_KERNEL_S = 0.006

clock = time.perf_counter

END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "call_s_p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny runs the same workloads at small n (self-test)")
    ap.add_argument("--probe", action="store_true",
                    help="internal: do the set-up only and print when ready")
    return ap.parse_args(argv)


def set_up(args):
    """Imports, inputs and derived params: what precedes the first call.

    The benchmark's own modules import qconsim, so they are imported only
    after this has put ``src/`` on the path.
    """
    sys.path.insert(0, str(SRC))
    import jsonschema  # noqa: F401  (the CLI imports it on every invocation)
    import numpy  # noqa: F401
    import qconsim  # noqa: F401
    import workloads
    calls = workloads.build_calls(args.workload, args.seed, args.scale)
    return calls, [workloads.prepare(c) for c in calls]


def measure_setup(args) -> list[float]:
    """Set-up seconds of fresh processes, from launch to ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - launched)
    return times


def run_context(args, calls) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "qconsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            git_rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "call_seeds": [c.seed for c in calls],
        "seconds": args.seconds, "trace": args.trace,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loop": "closed, one call at a time, one process",
    }


class FingerprintCheck:
    """Compares each call's fingerprint with the same call made earlier.

    "Earlier" covers this run and, through a file keyed by the sources'
    digest, the workload, scale and seed, earlier runs of the same set.
    """

    def __init__(self, path: Path):
        self.path = path
        self.stored = json.loads(path.read_text()) if path.exists() else {}
        self.seen: dict[str, str] = {}

    def check(self, index: int, fp: str) -> str | None:
        key = str(index)
        for where, table in (("this run", self.seen),
                             ("an earlier run", self.stored)):
            if key in table and table[key] != fp:
                return f"fingerprint {fp} differs from {table[key]} in {where}"
        self.seen.setdefault(key, fp)
        return None

    def save(self) -> None:
        if self.stored:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, sort_keys=True))
        os.replace(tmp, self.path)


class HostSpeed:
    """Measures how fast the host runs right now, between the timed calls.

    On a shared host the speed of the processor drifts by tens of percent
    over minutes, far more than a run can average out.  A fixed reference
    kernel (interpreter loop and small numpy reductions, no qconsim code)
    is timed between calls, taking about ``SHARE`` of the run, and timings
    are scaled by ``REFERENCE_KERNEL_S`` over its median.
    """

    SHARE = 0.02

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._mask = rng.random((64, 64, 8)) < 0.5
        self._values = rng.integers(0, 100, size=(64, 1, 8))
        self._np = np
        self._credit = 0.0
        self.samples: list[float] = []

    def _kernel(self) -> float:
        t0 = clock()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(20):
            self._np.where(self._mask, self._values, -1).max(axis=0)
        return clock() - t0

    def after_call(self, call_s: float) -> None:
        self._credit += self.SHARE * call_s
        while self._credit > 0:
            sample = self._kernel()
            self.samples.append(sample)
            self._credit -= sample

    def factor(self) -> float:
        """Reference speed over measured speed: scales host seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def timed_loop(calls, prepared, seconds, check, invoke, after_call=None):
    """Cycle through the pass: all of it once, then until ``seconds`` is up.

    A new call starts only if the median call so far still fits.
    ``after_call`` gets each call's seconds, outside the timed region.
    """
    import workloads
    records = []
    start = clock()
    i = 0
    while i < len(calls) or (clock() - start
                             + statistics.median(r["s"] for r in records)
                             <= seconds):
        index = i % len(calls)
        t0 = clock()
        try:
            outcome, failure = invoke(workloads.run_call, calls[index],
                                      prepared[index])
        except Exception as exc:  # a failed call is counted, not fatal
            outcome, failure = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - t0
        fp = workloads.fingerprint(outcome) if outcome is not None else "error"
        if failure is None:
            failure = check.check(index, fp)
        records.append({"index": index, "s": elapsed, "fingerprint": fp,
                        "rounds": outcome["rounds"] if outcome else 0,
                        "failure": failure})
        if after_call:
            after_call(elapsed)
        i += 1
    return records


def end_to_end(records, setup_times) -> dict:
    """The end-to-end metrics of an untraced run, in host seconds.

    ``rounds_per_s`` is the rounds of one pass over the host seconds of one
    pass, taking each call's seconds as its median over its repeats in the
    run, so that a call stalled by the host's scheduler weighs no more than
    it does in ``call_s_p50``.
    """
    done = [r for r in records if r["fingerprint"] != "error"]
    repeats = defaultdict(list)
    for r in done:
        repeats[r["index"]].append(r)
    rounds = sum(rs[0]["rounds"] for rs in repeats.values())
    seconds = sum(statistics.median(r["s"] for r in rs)
                  for rs in repeats.values())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": rounds / seconds if seconds else 0.0,
        "call_s_p50": statistics.median(r["s"] for r in done) if done else 0.0,
        "peak_rss_mb": rss_kb / 1024,
    }


def at_reference_speed(host: dict, factor: float) -> dict:
    """Scale the timings of ``end_to_end`` by a HostSpeed factor."""
    return {"setup_s": host["setup_s"] * factor,
            "rounds_per_s": host["rounds_per_s"] / factor,
            "call_s_p50": host["call_s_p50"] * factor,
            "peak_rss_mb": host["peak_rss_mb"]}


def traced_run(calls, prepared, seconds, check):
    """Make each call twice, untraced and traced, in alternating order.

    Returns (per-layer metrics, records, tracer); a record covers one pair.
    A pair fails unless both calls reproduce the same fingerprint.  The
    tracing overhead is the traced minus the untraced time over all pairs;
    pairing the calls in time keeps the host's drift out of it.
    """
    import tracer as tracing
    import workloads
    tracer = tracing.Tracer()
    seconds_by_kind = {"untraced": 0.0, "traced": 0.0}
    order = ["untraced", "traced"]

    def pair(fn, *args):
        outcomes = {}
        for kind in order:
            if kind == "traced":
                tracer.install()
            try:
                t0 = clock()
                outcomes[kind] = (tracer.run(fn, *args) if kind == "traced"
                                  else fn(*args))
                seconds_by_kind[kind] += clock() - t0
            finally:
                if kind == "traced":
                    tracer.restore()
        order.reverse()
        (untraced, failure), (traced, traced_failure) = (
            outcomes["untraced"], outcomes["traced"])
        failure = failure or traced_failure
        if failure is None and (workloads.fingerprint(traced)
                                != workloads.fingerprint(untraced)):
            failure = "traced fingerprint differs from untraced"
        return traced, failure

    records = timed_loop(calls, prepared, seconds, check, pair)
    metrics = tracer.metrics()
    extra = seconds_by_kind["traced"] - seconds_by_kind["untraced"]
    metrics["trace.overhead_s"] = extra / len(records)
    metrics["trace.overhead_frac"] = extra / seconds_by_kind["untraced"]
    return metrics, records, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qconsim" / "__init__.py").is_file():
        print(f"error: no qconsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        set_up(args)
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    try:
        calls, prepared = set_up(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(args)
    import tracer as tracing
    import workloads
    context = run_context(args, calls)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}"
    check = FingerprintCheck(
        OUT / "fingerprints" / f"{context['src_sha256'][:16]}-{tag}.json")

    if args.trace:
        metrics, records, tracer = traced_run(calls, prepared, args.seconds,
                                              check)
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        speed = HostSpeed()
        records = timed_loop(calls, prepared, args.seconds, check,
                             lambda fn, *a: fn(*a), speed.after_call)
        host = end_to_end(records, setup_times)
        metrics = at_reference_speed(host, speed.factor())
        units = END_TO_END
    check.save()

    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    fp = workloads.combine([r["fingerprint"] for r in records[:len(calls)]])
    result = {"context": context, "fingerprint": fp,
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "setup_s_samples": setup_times,
              "unmeasured": tracing.UNMEASURED,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "calls": [dict(r, label=calls[r["index"]].label())
                        for r in records]}
    if not args.trace:
        result["host_seconds_metrics"] = host
        result["host_speed"] = {
            "factor": speed.factor(), "reference_kernel_s": REFERENCE_KERNEL_S,
            "kernel_s_median": statistics.median(speed.samples),
            "kernel_samples": speed.samples}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    suffix = f"{tag}-trace{args.trace}"
    (OUT / "results" / f"{suffix}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{suffix}.json")

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  fingerprint {fp}")
    print(f"context nproc={context['nproc']} python={context['python']} "
          f"numpy={context['numpy']} git={context['git_rev']} "
          f"src={context['src_sha256'][:12]} BLAS/OpenMP threads=1")
    call_s = metrics.get("trace.call_s") or metrics.get("call_s_p50")
    for name, value in metrics.items():
        note = ""
        if name == "call_s_p50":
            done = sum(r["fingerprint"] != "error" for r in records)
            note = f"  (median of {done} calls)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh processes)"
        elif (args.trace and units[name] == "s" and call_s
              and name not in ("engine.s_per_round", "trace.call_s")):
            note = f"  ({100 * value / call_s:.1f}% of a traced call)"
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    if not args.trace:
        print(f"  timings above are at reference speed: host seconds times "
              f"{speed.factor():.4f} (reference kernel {REFERENCE_KERNEL_S} s,"
              f" median here {statistics.median(speed.samples):.6f} s over "
              f"{len(speed.samples)} samples)")
        print("  in host seconds: " + ", ".join(
            f"{k} {host[k]:.6g}" for k in ("setup_s", "rounds_per_s",
                                          "call_s_p50")))
    unit = "traced/untraced pairs" if args.trace else "calls"
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} frac"
          f"  ({failed} of {attempted} {unit})")
    for r in records:
        if r["failure"]:
            print(f"  FAILED {calls[r['index']].label()}: {r['failure']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
