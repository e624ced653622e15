import csv
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsim import cli
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

    def flaky(inputs, params, t, adversary, seed):
        if broken.get(seed) == "stuck":  # a real run, capped at one phase
            return real(inputs, params, t, adversary, seed, phase_cap=1)
        result = real(inputs, params, t, adversary, seed)
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
    cfg = write_cfg(tmp_path, "g.json",
                    {"n": 12, "y": 1.0, "seed": 0,
                     "checks": [{"property": "expanding", "ell": 2},
                                {"property": "compact", "ell": 3,
                                 "eps": 0.5, "delta": 2}]})
    out = tmp_path / "o.json"
    assert main(["check-graphs", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["all_hold"]
    assert {r["property"] for r in rep["reports"]} == {"expanding", "compact"}


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
              "inputs": st.sampled_from(["random", "split"])},
    "coin-stats": {"n": _SMALL_N, "t": st.integers(0, 9),
                   "d": st.integers(1, 4), "alpha": st.integers(2, 4),
                   "seeds": st.integers(1, 3), "seed": st.integers(0, 9),
                   "adversary": _ADVERSARY},
    "check-graphs": {"n": _SMALL_N, "y": st.floats(0, 1),
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
        {"n": 3, "y": 0.5, "budget": 1,
         "checks": [{"property": "expanding", "ell": 2}]},
        {"n": 3, "y": 0.5, "budget": 1,
         "checks": [{"property": "edge_dense", "ell": 4}]},
        {"n": 6, "y": float("nan"),
         "checks": [{"property": "compact", "ell": 2}]},
        {"n": 2.0, "y": 0.5, "checks": [{"property": "compact", "ell": 1}]}],
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
