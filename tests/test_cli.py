import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unpack_layers
from qconsim import cli, counting
from qconsim.cli import build_parser, main, wilson_lower
from qconsim.consensus import PhaseCapExceeded


def run_cli(args, env=None):
    full_env = dict(os.environ)
    full_env.pop("QSIM_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "qconsim.cli", *args],
                          capture_output=True, text=True, env=full_env)


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_success_and_report_fields(tmp_path):
    cfg = write_cfg(tmp_path, "r.json",
                    {"n": 8, "seed": 1, "preset": "polylog",
                     "adversary": {"name": "random_crasher"}})
    out = tmp_path / "out.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["agreed"] and report["valid"]
    assert set(report["decisions"]) <= {-1, 0, 1}  # -1 = crashed undecided
    assert report["digest"]


def test_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"n": 8, "preset": "polylog"})
    assert main(["run", "--config", cfg]) == 2
    cfg2 = write_cfg(tmp_path, "bad2.json",
                     {"n": 8, "seed": 0, "preset": "nope"})
    assert main(["run", "--config", cfg2]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["run", "--config", missing]) == 2


def test_t_above_n_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "r.json",
                    {"n": 8, "t": 20, "seed": 1, "preset": "polylog"})
    assert main(["run", "--config", cfg]) == 2
    coin = write_cfg(tmp_path, "c.json", {"n": 8, "t": 20, "seeds": 2})
    assert main(["coin-stats", "--config", coin]) == 2
    assert "t must be at most n" in capsys.readouterr().err


BAD_ADVERSARIES = {
    "unknown-param": {"name": "random_crasher", "params": {"bogus": 1}},
    "pair-out-of-range": {"name": "split_attacker",
                          "params": {"pair": [0, 99]}},
    "rate-not-a-number": {"name": "random_crasher", "params": {"rate": "x"}},
    "per-round-negative": {"name": "degree_targeter",
                           "params": {"per_round": -1}},
    "none-with-params": {"name": "none",
                         "params": {"rate": 0.5, "bogus": 1}},
}


@pytest.mark.parametrize("bad", BAD_ADVERSARIES)
def test_bad_adversary_params_are_config_errors(tmp_path, capsys, bad):
    adversary = BAD_ADVERSARIES[bad]
    configs = {
        "run": {"n": 8, "seed": 1, "preset": "polylog"},
        "sweep": {"n_list": [8], "seeds": 1, "presets": ["polylog"]},
        "coin-stats": {"n": 8, "seeds": 1},
    }
    for command, cfg in configs.items():
        path = write_cfg(tmp_path, "c.json", {**cfg, "adversary": adversary})
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == 2, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (command, err)


def test_liveness_failure_exit_code(tmp_path, monkeypatch, capsys):
    def no_termination(*args, **kwargs):
        raise PhaseCapExceeded("no termination within 120 phases")

    monkeypatch.setattr(cli, "run_consensus", no_termination)
    cfg = write_cfg(tmp_path, "r.json",
                    {"n": 8, "seed": 1, "preset": "polylog"})
    assert main(["run", "--config", cfg]) == cli.EXIT_LIVENESS == 4
    assert "liveness failure" in capsys.readouterr().err


def test_readme_cli_flags_parse():
    """Every invocation in the README's CLI block parses; upper-case
    metavariables such as N or K stand for numbers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\s*```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("qconsim ")]
    assert lines
    for line in lines:
        words = re.sub(r"[\[\]]", "", line).split()[1:]
        argv = ["1" if w.isupper() else w for w in words]
        build_parser().parse_args(argv)  # SystemExit on an unknown flag


def test_readme_run_example_is_accepted(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Example `run.json`:\s*```json\n(.*?)```", readme,
                      re.S)
    cfg = write_cfg(tmp_path, "run.json", json.loads(block.group(1)))
    out = tmp_path / "out.json"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["adversary"] == "random_crasher"


def test_readme_library_example_runs(capsys):
    """The README's Python block runs as written, so a change to a public
    signature it uses fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library example\s*```python\n(.*?)```", readme,
                      re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
    agreed, valid, phases, digest = capsys.readouterr().out.split()
    assert agreed == valid == "True" and int(phases) >= 1
    assert len(digest) == 64


def test_qsim_seed_env_overrides(tmp_path):
    cfg = write_cfg(tmp_path, "r.json",
                    {"n": 8, "seed": 1, "preset": "polylog"})
    r1 = run_cli(["run", "--config", cfg], env={"QSIM_SEED": "77"})
    r2 = run_cli(["run", "--config", cfg], env={"QSIM_SEED": "77"})
    r3 = run_cli(["run", "--config", cfg])
    assert r1.returncode == 0
    assert json.loads(r1.stdout)["seed"] == 77
    assert r1.stdout == r2.stdout
    assert json.loads(r3.stdout)["seed"] == 1


def test_sweep_csv_columns_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"n_list": [8, 12], "seeds": 3, "presets": ["constant"],
                     "adversary": {"name": "degree_targeter"}})
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["sweep", "--config", cfg, "--jobs", "2", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    header = o1.read_text().splitlines()[0]
    assert header == ("n,t,preset,adversary,seed,phases,rounds,"
                      "total_bits,total_qubits,terminated,agreed,valid")
    assert len(o1.read_text().splitlines()) == 1 + 2 * 3


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_keeps_non_terminating_cells(tmp_path, monkeypatch, capsys,
                                           jobs):
    """A cell that hits its phase cap is a row with terminated false, the
    progress it reached and empty agreed/valid; the sweep exits 4, or 3 if
    another cell disagreed."""
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("only forked workers see the patched run_consensus")
    real = cli.run_consensus
    broken = {1: "stuck"}

    def flaky(inputs, params, t, adversary, seed, **kwargs):
        if broken.get(seed) == "stuck":  # a real run, capped at one phase
            return real(inputs, params, t, adversary, seed, phase_cap=1,
                        **kwargs)
        result = real(inputs, params, t, adversary, seed, **kwargs)
        if broken.get(seed) == "split":
            decisions = result.decisions.copy()
            decisions[:2] = [0, 1]
            result = dataclasses.replace(result, decisions=decisions)
        return result

    monkeypatch.setattr(cli, "run_consensus", flaky)
    cfg = write_cfg(tmp_path, "s.json",
                    {"n_list": [8], "seeds": 3, "presets": ["polylog"]})
    out = tmp_path / "o.csv"
    argv = ["sweep", "--config", cfg, "--jobs", jobs, "--out", str(out)]
    assert main(argv) == cli.EXIT_LIVENESS
    assert "1 of 3 cells did not terminate" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert [r["seed"] for r in rows] == ["0", "1", "2"]
    assert [r["terminated"] for r in rows] == ["True", "False", "True"]
    stuck = rows[1]
    assert stuck["n"] == "8" and stuck["preset"] == "polylog"
    # one full phase: counting, the fallback window and the coin, as a
    # terminated polylog n = 8 run spends them per phase
    per_phase = int(rows[0]["rounds"]) // int(rows[0]["phases"])
    assert stuck["phases"] == "1" and int(stuck["rounds"]) == per_phase
    assert int(stuck["total_bits"]) > 0 and int(stuck["total_qubits"]) > 0
    assert stuck["agreed"] == stuck["valid"] == ""
    assert rows[0]["agreed"] == rows[2]["agreed"] == "True"

    broken[2] = "split"
    assert main(argv) == cli.EXIT_INVARIANT


def test_sweep_duplicate_seeds_warns(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "s.json",
                    {"n_list": [8], "seeds": [1, 1, 2],
                     "presets": ["polylog"]})
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "o.csv")]) == 0
    assert "duplicate seeds" in capsys.readouterr().err


def test_sweep_json_format(tmp_path):
    cfg = write_cfg(tmp_path, "s.json",
                    {"n_list": [8], "seeds": 2, "presets": ["polylog"]})
    out = tmp_path / "o.json"
    assert main(["sweep", "--config", cfg, "--format", "json",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2 and all(r["agreed"] for r in rows)


def test_flags_only_on_the_commands_that_use_them():
    """run and check-graphs take neither --format nor --jobs, and
    coin-stats takes no --format: each exits 2 on parsing."""
    for argv in (["run", "--format", "csv"], ["run", "--jobs", "2"],
                 ["coin-stats", "--format", "json"],
                 ["check-graphs", "--format", "json"],
                 ["check-graphs", "--jobs", "2"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", "c.json"])
        assert info.value.code == cli.EXIT_CONFIG, argv


def test_jobs_caps_workers_at_cells_and_rejects_below_one(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """A pool gets one worker per cell at most, and --jobs 1 starts none;
    the fake pool records its size and runs the cells in this process."""
    workers = []

    class FakePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    sweep = write_cfg(tmp_path, "s.json",
                      {"n_list": [8], "seeds": 2, "presets": ["polylog"]})
    coin = write_cfg(tmp_path, "c.json", {"n": 8, "seeds": 3})
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", sweep, "--jobs", "16",
                 "--out", out]) == 0
    assert main(["coin-stats", "--config", coin, "--jobs", "16",
                 "--out", out]) == 0
    assert main(["coin-stats", "--config", coin, "--out", out]) == 0
    assert workers == [2, 3]
    for command, cfg in (("sweep", sweep), ("coin-stats", coin)):
        for jobs in ("0", "-3"):
            assert main([command, "--config", cfg, "--jobs", jobs,
                         "--out", out]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [
                f"error: --jobs must be at least 1 (got {jobs})"]
    assert workers == [2, 3]


def test_coin_stats(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"n": 16, "seeds": 60,
                     "adversary": {"name": "random_crasher"}})
    out = tmp_path / "o.json"
    assert main(["coin-stats", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["runs"] == 60
    assert rep["all_one_rate"] + rep["all_zero_rate"] <= 1
    assert rep["rounds_per_run"] > 0


def test_check_graphs(tmp_path):
    """n = 12 under the constant preset has d = 4 and alpha = 3: a base
    layer with y = 1/3 and a complete top layer, on which both checks
    hold."""
    cfg = write_cfg(tmp_path, "g.json",
                    {"n": 12, "preset": "constant", "seed": 0,
                     "checks": [{"property": "expanding", "ell": 2},
                                {"property": "compact", "ell": 3,
                                 "eps": 0.5, "delta": 2}]})
    out = tmp_path / "o.json"
    assert main(["check-graphs", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    base, top = rep["layers"]
    assert (base["layer"], base["y"], top["layer"], top["y"]) == (
        0, 4 / 12, 1, 1.0)
    assert top["edges"] == 66 and 0 < base["edges"] < 66
    for layer in rep["layers"]:
        assert [r["property"] for r in layer["reports"]] == ["expanding",
                                                             "compact"]
    assert all(r["verdict"] for r in top["reports"])
    assert rep["all_hold"] == all(r["verdict"] for layer in rep["layers"]
                                  for r in layer["reports"])


@pytest.mark.parametrize("preset", ["constant", "polylog"])
def test_check_graphs_certifies_the_layers_counting_relays(preset, tmp_path,
                                                           monkeypatch):
    """Every layer check-graphs certifies is, byte for byte, the layer that
    phase 1's top-level counting relay receives in a run of the same n,
    preset and seed."""
    relayed, certified = [], []
    relay = counting.run_relay

    def spy_relay(ctx, layers, *rest):
        if ctx.state["phase"] == 1:  # the relay takes packed rows
            relayed.append(unpack_layers(layers, ctx.n))
        return relay(ctx, layers, *rest)

    def spy_certifier(adj, ell, **limits):
        certified.append(adj.copy())
        return cli.is_expanding(adj, ell, **limits)

    monkeypatch.setattr(counting, "run_relay", spy_relay)
    monkeypatch.setitem(cli._CERTIFIERS, "expanding", (spy_certifier, {}))
    monkeypatch.delenv("QSIM_SEED", raising=False)
    cfg = {"n": 32, "seed": 5, "preset": preset}
    out = tmp_path / "o.json"
    assert main(["run", "--config", write_cfg(tmp_path, "r.json", cfg),
                 "--out", str(out)]) == 0
    checks = [{"property": "expanding", "ell": 2}]
    assert main(["check-graphs", "--config",
                 write_cfg(tmp_path, "g.json", {**cfg, "checks": checks}),
                 "--out", str(out)]) == 0
    top = relayed[-1]  # levels run deepest first; the top level is last
    assert len(relayed) > 1 and len(top) == len(certified) >= 2
    for layer, adj in zip(top, certified):
        assert adj.dtype == layer.dtype and adj.tobytes() == layer.tobytes()
    edges = [row["edges"] for row in json.loads(out.read_text())["layers"]]
    assert edges == [int(layer.sum()) // 2 for layer in top]


@pytest.mark.parametrize("command", ["run", "check-graphs"])
def test_out_of_memory_is_one_error_line(command, tmp_path, monkeypatch,
                                         capsys):
    """An allocation that fails (here a raise, so that nothing is really
    allocated) exits 2 with one ``error:`` line, with or without a
    message."""
    cfg = write_cfg(tmp_path, "c.json",
                    {"n": 8, "seed": 1, "preset": "polylog",
                     **({"checks": [{"property": "expanding", "ell": 2}]}
                        if command == "check-graphs" else {})})
    for exc, line in ((MemoryError("Unable to allocate 7.28 TiB"),
                       "error: Unable to allocate 7.28 TiB"),
                      (MemoryError(), "error: out of memory")):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "level_graph", fail)
        monkeypatch.setattr(cli, "run_consensus", fail)
        assert main([command, "--config", cfg]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [line] and not captured.out


_GUARDED = {"run": {"n": 8, "seed": 1, "preset": "polylog"},
            "sweep": {"n_list": [4, 8], "seeds": 1,
                      "presets": ["polylog", "constant"]},
            "coin-stats": {"n": 8, "seeds": 2},
            "check-graphs": {"n": 8, "preset": "polylog",
                             "checks": [{"property": "expanding", "ell": 2}]}}


@pytest.mark.parametrize("command", list(_GUARDED))
@pytest.mark.parametrize("patch", ["limit", "estimate"])
def test_memory_guard_refuses_before_any_cell(command, patch, tmp_path,
                                              monkeypatch, capsys):
    """A cell whose estimated peak exceeds physical memory (here a limit or
    an estimate monkeypatched, so that nothing large is allocated) exits 2
    with one ``error:`` line before any cell runs or, for check-graphs,
    before any graph is built."""
    if patch == "limit":
        monkeypatch.setattr(cli, "_physical_memory", lambda: 1 << 20)
    else:
        monkeypatch.setattr(cli, "_peak_bytes", lambda n, k, counting: (
            1 << 60 if n == 8 else 0))

    def never(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_consensus", never)
    monkeypatch.setattr(cli, "run_coin", never)
    monkeypatch.setattr(cli, "level_graph", never)
    cfg = write_cfg(tmp_path, "c.json", _GUARDED[command])
    assert main([command, "--config", cfg]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    line, = captured.err.splitlines()
    first = 4 if command == "sweep" and patch == "limit" else 8
    assert line.startswith(f"error: n = {first} needs about ")
    assert not captured.out


_TWO_CELLS = {"sweep": {"n_list": [8], "seeds": 2, "presets": ["polylog"]},
              "coin-stats": {"n": 8, "seeds": 2}}


@pytest.mark.parametrize("command", list(_TWO_CELLS))
def test_memory_guard_counts_cells_at_once(command, tmp_path, monkeypatch,
                                           capsys):
    """With room for one cell's estimated peak but not two (a limit and an
    estimate monkeypatched, so that nothing large is allocated), two cells
    run at --jobs 1 and exit 2 at --jobs 2 with one ``error:`` line before
    any cell runs."""
    monkeypatch.setattr(cli, "_physical_memory", lambda: 3 << 30)
    monkeypatch.setattr(cli, "_peak_bytes", lambda n, k, counting: 2 << 30)
    cfg = write_cfg(tmp_path, "c.json", _TWO_CELLS[command])
    out = str(tmp_path / "o")
    assert main([command, "--config", cfg, "--jobs", "1", "--out", out]) == 0

    def never(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_consensus", never)
    monkeypatch.setattr(cli, "run_coin", never)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", never)
    assert main([command, "--config", cfg, "--jobs", "2",
                 "--out", out]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: n = 8 needs about 4.0 GiB of memory for 2 cells at once, "
        "more than the 3.0 GiB of this machine"]
    assert not captured.out


@pytest.mark.parametrize("command", list(_TWO_CELLS))
def test_dead_worker_is_one_error_line(command, tmp_path, monkeypatch,
                                       capsys):
    """A worker killed by the operating system (here a pool whose map
    raises what a dead worker makes it raise) exits 2 with one ``error:``
    line, not a traceback."""
    from concurrent.futures.process import BrokenProcessPool

    class DeadPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            raise BrokenProcessPool("a process terminated abruptly")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", DeadPool)
    cfg = write_cfg(tmp_path, "c.json", _TWO_CELLS[command])
    assert main([command, "--config", cfg, "--jobs", "2"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: a worker process died: a process terminated abruptly"]
    assert not captured.out


def test_memory_estimate_covers_measured_peaks():
    """The estimate is at or above the peak RSS measured for crash-free
    polylog coins at n = 4096 and 8192 and constant-preset consensus runs
    at n = 2048 and 4096, and within a quarter of it; it is arithmetic
    only."""
    mib = 1 << 20
    for n, k, counting, measured in ((4096, 3, False, 177),
                                     (8192, 3, False, 558),
                                     (2048, 2, True, 82),
                                     (4096, 2, True, 212)):
        assert measured <= cli._peak_bytes(n, k, counting) / mib \
            <= 1.25 * measured


def test_wilson_lower_bound_values():
    assert wilson_lower(0, 100) == 0.0
    assert 0.4 < wilson_lower(50, 100) < 0.5
    assert wilson_lower(100, 100) > 0.95
    assert wilson_lower(0, 0) == 0.0


def test_entry_point_runs():
    result = run_cli(["--help"])
    assert result.returncode == 0
    for cmd in ("run", "sweep", "coin-stats", "check-graphs"):
        assert cmd in result.stdout


# -- output pins --------------------------------------------------------------

def _readme_json(label):
    """The JSON block that follows ``label`` in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(re.escape(label) + r"[^`]*```json\n(.*?)```", readme,
                      re.S)
    return json.loads(block.group(1))


_PIN_RUN = _readme_json("Example `run.json`:")
_PIN_GRAPHS = _readme_json("Example `graphs.json`:")
_PIN_SWEEP = {"n_list": [8, 12], "seeds": 2, "presets": ["polylog", "constant"],
              "adversary": {"name": "random_crasher", "params": {"rate": 0.01}},
              "inputs": "split"}
# sha256 of each command's output on fixed configs, so that a refactor of
# the CLI shows it changed no byte
_PIN_CSV = ("91f9d7a2d6d4d85d71aaf6ff59944ecc"
            "859a9743b1013929f44bfbf000cc503f")
_PIN_JSON = ("92941498faf53dbe0f8a34533ce8f601"
             "abf408b73a38bca21d0b4928d708298c")
_PINS = {
    "run": ("run", _PIN_RUN, [],
            "45b37e5f8b6acd9833015805cf02ecdb"
            "7c91816679684f76809b74c5bfdf3848"),
    "run-record-rounds": ("run", {**_PIN_RUN, "record_rounds": True}, [],
                          "7a81da5116aeb64834ada1d02a8c589a"
                          "68812bfd2c208383b4c8342ae9b05f53"),
    "sweep-csv-jobs1": ("sweep", _PIN_SWEEP, ["--jobs", "1"], _PIN_CSV),
    "sweep-csv-jobs2": ("sweep", _PIN_SWEEP, ["--jobs", "2"], _PIN_CSV),
    "sweep-json-jobs1": ("sweep", _PIN_SWEEP,
                         ["--format", "json", "--jobs", "1"], _PIN_JSON),
    "sweep-json-jobs2": ("sweep", _PIN_SWEEP,
                         ["--format", "json", "--jobs", "2"], _PIN_JSON),
    "coin-stats": ("coin-stats",
                   {"n": 16, "seeds": 12, "seed": 5,
                    "adversary": {"name": "degree_targeter"}},
                   ["--jobs", "2"],
                   "7ef8cb852529a70893281e8b0b30a7a9"
                   "36621737d8c717a07bb13970663d947d"),
    "check-graphs": ("check-graphs", _PIN_GRAPHS, [],
                     "d3a9fed2484d37178df662081e76de93"
                     "27b5932588127a2a6b36bd453d4f7ba8"),
}


@pytest.mark.parametrize("pin", _PINS)
def test_output_is_pinned(pin, tmp_path, monkeypatch):
    command, cfg, flags, digest = _PINS[pin]
    monkeypatch.delenv("QSIM_SEED", raising=False)
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                 *flags, "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- config fuzzing -----------------------------------------------------------

_SMALL_N = st.integers(1, 8)
_ADVERSARY = st.one_of(
    st.just({"name": "none"}),
    st.builds(lambda rate: {"name": "random_crasher",
                            "params": {"rate": rate}}, st.floats(0, 1)),
    st.builds(lambda per_round, min_degree: {
        "name": "degree_targeter",
        "params": {"per_round": per_round, "min_degree": min_degree}},
        st.integers(1, 3), st.integers(0, 3)),
    st.builds(lambda pair: {"name": "split_attacker", "params": {"pair": pair}},
              st.lists(st.integers(0, 7), min_size=2, max_size=2)))
_CHECK = st.builds(
    lambda prop, ell, a, b, eps, delta: {
        "property": prop, "ell": ell, "a": a, "b": b, "eps": eps,
        "delta": delta},
    st.sampled_from(["expanding", "edge_dense", "compact"]),
    st.integers(1, 9), st.floats(0, 3), st.floats(0, 3), st.floats(0, 1),
    st.integers(0, 3))

# per command, a plausible value for every key it knows; the sizes stay
# small so that every accepted config runs in well under a second
_FIELDS = {
    "run": {"n": _SMALL_N, "t": st.integers(0, 9), "seed": st.integers(0, 9),
            "preset": st.sampled_from(["constant", "polylog"]),
            "epsilon": st.floats(0.01, 1), "adversary": _ADVERSARY,
            "inputs": st.sampled_from(["random", "all-zero", "all-one",
                                       "split"])
            | st.lists(st.integers(0, 1), max_size=8),
            "record_rounds": st.booleans()},
    "sweep": {"n_list": st.lists(_SMALL_N, min_size=1, max_size=2),
              "seeds": st.integers(1, 2) | st.lists(st.integers(0, 9),
                                                    min_size=1, max_size=2),
              "seed": st.integers(0, 9),
              "presets": st.lists(st.sampled_from(["constant", "polylog"]),
                                  min_size=1, max_size=2),
              "epsilon": st.floats(0.01, 1), "adversary": _ADVERSARY,
              "inputs": st.sampled_from(["random", "all-zero", "all-one",
                                         "split"])},
    "coin-stats": {"n": _SMALL_N, "t": st.integers(0, 9),
                   "d": st.integers(1, 4), "alpha": st.integers(2, 4),
                   "seeds": st.integers(1, 3), "seed": st.integers(0, 9),
                   "adversary": _ADVERSARY},
    "check-graphs": {"n": _SMALL_N,
                     "preset": st.sampled_from(["constant", "polylog"]),
                     "seed": st.integers(0, 9), "budget": st.integers(1, 50),
                     "trials": st.integers(1, 20),
                     "checks": st.lists(_CHECK, min_size=1, max_size=2)},
}

_REQUIRED = {"run": cli._RUN_SCHEMA["required"],
             "sweep": cli._SWEEP_SCHEMA["required"],
             "coin-stats": cli._COIN_SCHEMA["required"],
             "check-graphs": cli._GRAPH_SCHEMA["required"]}


def _near(draw, value):
    """A value of the wrong type or out of range, made from a plausible one
    (inside a list or object, from one of its items)."""
    options = [None, str(value), [value], {"v": value}, float("nan"),
               float("inf")]
    if isinstance(value, bool):
        options.append(int(value))
    elif isinstance(value, int):
        options += [float(value), -value - 1, value > 0]
    elif isinstance(value, float):
        options += [-value - 1, value + 1]
    elif isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        options += [value[:i] + [_near(draw, value[i])] + value[i + 1:],
                    value[:i], value + value[:1]]
    elif isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)))
        rest = {k: v for k, v in value.items() if k != key}
        options += [{**value, key: _near(draw, value[key])}, rest,
                    {**value, "extra": 1}]
    return draw(st.sampled_from(options))


@st.composite
def _configs(draw, command):
    """A plausible config for ``command`` with at most two faults: a key
    with a wrong value, a missing key, an unknown key, or no object at
    all."""
    required = _REQUIRED[command]
    cfg = {key: draw(plausible) for key, plausible in _FIELDS[command].items()
           if key in required or draw(st.booleans())}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["value", "value", "value", "missing",
                                      "unknown", "not-object"]))
        if fault == "not-object":
            return _near(draw, cfg)
        key = draw(st.sampled_from(sorted(_FIELDS[command])))
        if fault == "value":
            cfg[key] = _near(draw, cfg.get(key, 1))
        elif fault == "missing":
            cfg.pop(key, None)
        else:
            cfg[key + "_x"] = cfg.get(key, 1)
    return cfg


# configs that once ended in a traceback, replayed before the random ones
_FOUND = {
    "run": [{"n": 2.0, "seed": 4, "preset": "polylog"},
            {"n": 8, "seed": 1, "preset": "constant", "epsilon": float("nan")},
            {"n": 8, "seed": 1, "preset": "polylog",
             "adversary": {"name": "split_attacker",
                           "params": {"pair": [1.0, 2]}}}],
    "sweep": [{"n_list": [4.0], "seeds": 1, "presets": ["polylog"]},
              {"n_list": [4], "seeds": 2.0, "presets": ["polylog"]}],
    "coin-stats": [{"n": 4.0, "seeds": 1}],
    "check-graphs": [
        {"n": 3, "preset": "constant", "budget": 1,
         "checks": [{"property": "expanding", "ell": 2}]},
        {"n": 3, "preset": "constant", "budget": 1,
         "checks": [{"property": "edge_dense", "ell": 4}]},
        {"n": 6, "preset": "constant",
         "checks": [{"property": "compact", "ell": 2, "eps": float("nan")}]},
        {"n": 2.0, "preset": "polylog",
         "checks": [{"property": "compact", "ell": 1}]}],
}


@pytest.mark.parametrize("command", list(_FIELDS))
def test_config_fuzz_ends_in_documented_exit_code(command, tmp_path_factory,
                                                  monkeypatch, capsys):
    """No config reaches a traceback, and every exit code is documented."""
    monkeypatch.delenv("QSIM_SEED", raising=False)
    workdir = tmp_path_factory.mktemp(f"fuzz-{command}")

    def run_one(cfg):
        path = workdir / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path),
                     "--out", str(workdir / "out")])
        capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INVARIANT,
                        cli.EXIT_LIVENESS)

    for cfg in _FOUND[command]:
        run_one(cfg)
    settings(max_examples=50, deadline=None)(
        given(cfg=_configs(command))(run_one))()
