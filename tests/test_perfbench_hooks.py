"""The benchmark's tracer still fits the program.

perfbench/tracer.py wraps entry points of qconsim by name and reads carrier
and result fields.  A refactor that renames or reshapes one of them breaks
``perfbench/run.py --trace 1``; these tests catch that in seconds, at the
tiny scale of every workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qconsim import engine, exchange

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench module, loaded from its file under a prefixed name, so
    that nothing on sys.path is shadowed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_calls_match_untraced_and_report_every_metric(workload):
    calls = workloads.build_calls(workload, 1, "tiny")
    prepared = [workloads.prepare(call) for call in calls]
    plain = [workloads.run_call(c, p) for c, p in zip(calls, prepared)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [tracer.run(workloads.run_call, c, p)
                  for c, p in zip(calls, prepared)]
    finally:
        tracer.restore()
    assert not hasattr(exchange.run_relay, "__wrapped__")
    assert not hasattr(engine.SimContext.exchange, "__wrapped__")
    assert [failure for _, failure in plain + traced] == [None] * (2 * len(calls))
    assert ([workloads.fingerprint(o) for o, _ in traced]
            == [workloads.fingerprint(o) for o, _ in plain])
    metrics = tracer.metrics()
    # run.py adds the overhead metrics from the untraced calls' timings
    assert set(metrics) == set(tracing.PER_LAYER) - {"trace.overhead_s",
                                                     "trace.overhead_frac"}
    assert metrics["engine.rounds"] > 0 and metrics["coin.calls"] > 0
