"""End-to-end command-line runs on small workloads."""

import configparser
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ipsd
from ipsd import cli, harness, momdual
from ipsd.cli import _merge_config, build_parser, console, main
from ipsd.diffusion import ensemble_observable
from ipsd.exact import MAX_FK_WORK, fk_check_work
from ipsd.lattice import Stencil
from ipsd.meanfield import (MAX_COMPARATOR_JUMPS, MAX_COMPARATOR_VERTICES, MAX_ODE_STEPS,
                            comparator_jumps_bound, ode_steps_bound)
from ipsd.rng import derive_stream
from ipsd.spin import SPIN_CHUNK, EventTable, NPParams
from ipsd.walkers import walker_ensemble

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


_PARITY = ["parity-check", "--config", str(CONFIGS / "parity-check.ini"), "--reps", "4"]


@pytest.mark.parametrize("argv, error", [
    pytest.param(_PARITY + ["--set", "run.a="], ValueError, id="empty-site-list"),
    pytest.param(_PARITY + ["--set", "run.a=0,x"], ValueError, id="malformed-token"),
    pytest.param(_PARITY + ["--set", "params.alpha=nan"], ValueError, id="nan-value"),
    pytest.param(["spin-run", "--config", "{tmp}/nonexistent.ini"], FileNotFoundError,
                 id="missing-config-file"),
    pytest.param(["coexist-probe"], KeyError, id="missing-key"),
    pytest.param(["spin-run", "--config", "{tmp}/repeated.ini"],
                 configparser.DuplicateOptionError, id="repeated-key"),
    pytest.param(["sweep", "--config", str(CONFIGS / "sweep.ini"), "--reps", "2",
                  "--set", "sweep.values=0.2,x", "--set", "run.T=1"], ValueError,
                 id="swept-value"),
    pytest.param(["meanfield", "--config", str(CONFIGS / "meanfield.ini"), "--reps", "2",
                  "--set", "run.compare_n=10000000000000"], ValueError,
                 id="unbounded-compare-n"),
    pytest.param(["meanfield", "--config", str(CONFIGS / "meanfield.ini"), "--reps", "2",
                  "--set", "run.T=1e6"], ValueError, id="unbounded-ode-steps"),
    pytest.param(["sweep", "--config", str(CONFIGS / "sweep.ini"), "--reps", "2",
                  "--set", "run.T=1e6"], ValueError, id="unbounded-ode-steps-in-a-sweep"),
])
def test_the_command_reports_a_refusal_as_one_line_without_a_traceback(tmp_path, argv, error):
    # main() raises, which the tests and the benchmark rely on; the command
    # itself prints the message alone (a KeyError's without its quotes) and exits 2
    (tmp_path / "repeated.ini").write_text("[run]\nT = 1\nT = 2\n")
    out = tmp_path / "out"
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--seed", "1", "--out", str(out)]
    src = str(Path(ipsd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "ipsd.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    with pytest.raises(error) as err:
        main(argv)
    message = err.value.args[0] if error is KeyError else str(err.value)
    assert done.returncode == 2
    assert done.stderr == f"ipsd: error: {message}\n"
    assert "Traceback" not in done.stderr and done.stdout == ""
    assert not out.exists()


def test_console_returns_the_status_of_a_run(tmp_path, capsys):
    argv = ["parity-check", "--config", str(CONFIGS / "parity-check.ini"), "--seed", "1",
            "--reps", "4", "--set", "run.T=0.1", "--out", str(tmp_path)]
    assert console(argv) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "parity-check.json").exists()


def test_merge_config_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("IPSD_SEED", raising=False)
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nseed = 5\nreps = 7\nT = 2\n\n[params]\nalpha = 0.1\n")
    args = build_parser().parse_args(
        ["spin-run", "--config", str(ini), "--set", "params.alpha=0.9"])
    cfg = _merge_config(args)
    assert cfg.seed == 5 and cfg.reps == 7
    assert cfg.options["params"]["alpha"] == "0.9"  # --set beats the file
    # explicit flags beat the file
    args = build_parser().parse_args(
        ["spin-run", "--config", str(ini), "--seed", "42", "--reps", "3"])
    cfg = _merge_config(args)
    assert cfg.seed == 42 and cfg.reps == 3


def test_merge_config_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("IPSD_SEED", "777")
    args = build_parser().parse_args(["meanfield"])
    assert _merge_config(args).seed == 777
    monkeypatch.setenv("IPSD_SEED", "abc")
    with pytest.raises(ValueError, match="^IPSD_SEED must be int, got 'abc'$"):
        _merge_config(args)
    monkeypatch.delenv("IPSD_SEED")
    with pytest.raises(ValueError):
        _merge_config(build_parser().parse_args(["meanfield"]))


def test_merge_config_bad_set(monkeypatch):
    monkeypatch.setenv("IPSD_SEED", "1")
    with pytest.raises(ValueError):
        _merge_config(build_parser().parse_args(["meanfield", "--set", "noequals"]))
    with pytest.raises(ValueError):
        _merge_config(build_parser().parse_args(["meanfield", "--set", "nodot=3"]))


def test_spin_run_end_to_end(tmp_path):
    out = tmp_path / "res"
    rc = main(["spin-run", "--seed", "3", "--reps", "5", "--out", str(out),
               "--set", "kernel.d=1", "--set", "kernel.L=6",
               "--set", "params.alpha=0.3", "--set", "run.T=1",
               "--set", "run.grid=0.5,1", "--set", "run.init=bernoulli:0.5"])
    assert rc == 0
    header = (out / "spin_density.csv").read_text().splitlines()[0]
    assert header == "replicate,time,density"
    report = json.loads((out / "spin-run.json").read_text())
    assert report["config"]["seed"] == 3
    assert 0.0 <= report["terminal_density"]["mean"] <= 1.0
    assert type(report["flips"]) is int and report["flips"] > 0


def test_walker_run_end_to_end(tmp_path):
    out = tmp_path / "res"
    main(["walker-run", "--seed", "4", "--reps", "10", "--out", str(out),
          "--set", "walker.kind=crw", "--set", "lattice.d=1", "--set", "lattice.L=6",
          "--set", "run.xi0=0:2,3:1", "--set", "run.T=2", "--set", "run.grid=1,2"])
    header = (out / "walker_sizes.csv").read_text().splitlines()[0]
    assert header == "replicate,t,total,occupied_sites"
    report = json.loads((out / "walker-run.json").read_text())
    assert report["kind"] == "crw"
    assert 0.0 <= report["survival"]["mean"] <= 1.0


def test_parity_check_end_to_end(tmp_path):
    out = tmp_path / "res"
    main(["parity-check", "--seed", "5", "--reps", "40", "--out", str(out),
          "--set", "kernel.d=1", "--set", "kernel.L=5", "--set", "params.alpha=0.4",
          "--set", "run.A=0,2", "--set", "run.B=1", "--set", "run.T=2"])
    header = (out / "parity_pathwise.csv").read_text().splitlines()[0]
    assert header == "replicate,t,parity_forward,parity_dual"
    report = json.loads((out / "parity-check.json").read_text())
    assert report["violations"] == 0


def test_meanfield_reports_comparator_jumps(tmp_path):
    main(["meanfield", "--seed", "3", "--reps", "4", "--out", str(tmp_path),
          "--set", "params.alpha=0.5", "--set", "run.T=1", "--set", "run.compare_n=50",
          "--set", "run.compare_t=1"])
    report = json.loads((tmp_path / "meanfield.json").read_text())
    assert isinstance(report["comparator_jumps"], int) and report["comparator_jumps"] > 0
    # the 4 replicates jump together, one jump each per lockstep step
    steps = report["comparator_steps"]
    assert isinstance(steps, int) and report["comparator_jumps"] <= 4 * steps
    assert steps <= report["comparator_jumps"]
    assert 0.0 < report["comparator_median_sup"] < 1.0


def test_meanfield_end_to_end(tmp_path):
    out = tmp_path / "res"
    main(["meanfield", "--seed", "1", "--out", str(out),
          "--set", "params.lam=1.0", "--set", "params.alpha01=0.8",
          "--set", "params.alpha10=0.4", "--set", "run.T=80"])
    report = json.loads((out / "meanfield.json").read_text())
    assert report["equilibrium"] == pytest.approx(0.25)
    lines = (out / "meanfield_path.csv").read_text().splitlines()
    assert lines[0] == "t,p0"
    assert float(lines[-1].split(",")[1]) == pytest.approx(0.25, abs=1e-4)


def test_dual_run_end_to_end(tmp_path):
    out = tmp_path / "res"
    main(["dual-run", "--seed", "6", "--reps", "30", "--out", str(out),
          "--set", "kernel.d=1", "--set", "kernel.L=6", "--set", "params.alpha=0",
          "--set", "run.B=0,3", "--set", "run.T=2", "--set", "run.grid=1,2"])
    report = json.loads((out / "dual-run.json").read_text())
    assert (out / "dual_survival.csv").read_text().splitlines()[0] == "t,estimate,stderr,reps"
    # annihilation-only duals never die
    assert all(row["survival"]["mean"] == 1.0 for row in report["rows"])


@pytest.mark.parametrize("argv", [
    ["dual-run", "--set", "run.B=0,3", "--set", "run.grid=0.5"],
    ["parity-check", "--set", "run.A=0,2", "--set", "run.B=1"],
])
def test_event_table_built_once_per_command(tmp_path, monkeypatch, argv):
    builds = []
    build = EventTable.build.__func__

    def counting(cls, p, k):
        builds.append(k.n)
        return build(cls, p, k)

    monkeypatch.setattr(EventTable, "build", classmethod(counting))
    main(argv + ["--seed", "4", "--reps", str(SPIN_CHUNK + 20), "--out", str(tmp_path),
                 "--set", "kernel.d=1", "--set", "kernel.L=4", "--set", "params.alpha=0.3",
                 "--set", "run.T=0.5"])
    assert builds == [4]


@pytest.mark.parametrize("argv, csv, times", [
    (["dual-run", "--reps", "40", "--set", "kernel.d=1", "--set", "kernel.L=10",
      "--set", "params.alpha=0.3", "--set", "run.B=0,3", "--set", "run.grid=8,0.001"],
     "dual_sizes.csv", [0.001, 8.0]),
    (["walker-run", "--reps", "40", "--set", "walker.kind=dbarw", "--set", "walker.branch_rate=0.5",
      "--set", "lattice.d=1", "--set", "lattice.L=6", "--set", "run.xi0=0:2",
      "--set", "run.grid=5,0.01", "--set", "run.cap=200"],
     "walker_sizes.csv", [0.01, 5.0]),
])
def test_unsorted_grid_is_recorded_in_time_order(tmp_path, argv, csv, times):
    # the engines record at the sorted grid; the rows must carry those times
    main(argv + ["--seed", "1", "--out", str(tmp_path)])
    paths = {}
    for line in (tmp_path / csv).read_text().splitlines()[1:]:
        rep, t, size = line.split(",")[:3]
        paths.setdefault(rep, []).append((float(t), int(size)))
    assert len(paths) == 40
    for path in paths.values():
        assert [t for t, _ in path] == times
        # the empty dual and the extinct walker system are absorbing
        assert not any(a == 0 and b > 0 for (_, a), (_, b) in zip(path, path[1:]))


def test_thread_determinism_cli(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["walker-run", "--seed", "9", "--reps", "50",
            "--set", "walker.kind=dbarw", "--set", "walker.branch_rate=0.5",
            "--set", "lattice.d=1", "--set", "lattice.L=6",
            "--set", "run.xi0=0:2", "--set", "run.T=2", "--set", "run.cap=200"]
    main(base + ["--out", str(a), "--threads", "1"])
    main(base + ["--out", str(b), "--threads", "3"])
    for name in ("walker_sizes.csv", "walker-run.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dual_run_output_does_not_depend_on_threads(tmp_path):
    base = ["dual-run", "--seed", "9", "--reps", str(SPIN_CHUNK + 44),
            "--set", "kernel.d=1", "--set", "kernel.L=8", "--set", "params.alpha=0.4",
            "--set", "run.B=0,3", "--set", "run.T=3", "--set", "run.grid=1,3"]
    main(base + ["--out", str(tmp_path / "a"), "--threads", "1"])
    main(base + ["--out", str(tmp_path / "b"), "--threads", "2"])
    for name in ("dual_sizes.csv", "dual_survival.csv", "dual-run.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# SHA-256 of every --out file at 300 reps (two chunks): a change of draws fails here
SPIN_DUAL_DIGESTS = [
    (["dual-run", "--set", "kernel.d=1", "--set", "kernel.L=8", "--set", "params.alpha=0.4",
      "--set", "run.B=0,3", "--set", "run.T=3", "--set", "run.grid=1,3", "--set", "run.cap=6"],
     {"dual-run.json": "5a8fcbd75c6750083c11665b15e921b2969fc1008dab6ebe43b9d8cc27137ac4",
      "dual_sizes.csv": "744d19e310a12f32126bb061a572dfa6e81ca4aee3a0cc3bcb38ab727c45a598",
      "dual_survival.csv": "b469561aae905f1d70a3f6d6531065a26251917970f53b55f71c015693fe847a"}),
    (["parity-check", "--set", "kernel.d=2", "--set", "kernel.L=3", "--set", "params.alpha=0.3",
      "--set", "run.A=0,4", "--set", "run.B=1,5,8", "--set", "run.T=2"],
     {"parity-check.json": "52ae6bebb090b20aa5b62b2dc4b0b6582481ad94fd943a846e2aa6eb07331294",
      "parity_mc.csv": "254c1eb7c61874e3e6f5ba960c847978bbce5cc1c6b41fc5ca773ae390c1f675",
      "parity_pathwise.csv": "afceae1dcd7b718e824fcfd1bf365b10ce0bd4b4d3585dae7a4e362b42cb6add"}),
]


@pytest.mark.parametrize("argv, digests", SPIN_DUAL_DIGESTS,
                         ids=[argv[0] for argv, _ in SPIN_DUAL_DIGESTS])
def test_spin_dual_outputs_match_pinned_digests(tmp_path, argv, digests):
    main(argv + ["--seed", "7", "--reps", "300", "--out", str(tmp_path)])
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in tmp_path.iterdir()} == digests


@pytest.mark.parametrize("argv", [
    ["parity-check", "--set", "run.A=0,2"],
    ["dual-run", "--set", "run.grid=0.5"],
])
@pytest.mark.parametrize("sites", ["3,3,4", "1,-2"])
def test_a_repeated_or_negative_site_in_run_b_is_refused_before_any_draw(tmp_path, monkeypatch,
                                                                        argv, sites):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the site check")

    monkeypatch.setattr(cli, "parity_duality_mc", no_simulation)
    monkeypatch.setattr(cli, "evug_statistic", no_simulation)
    with pytest.raises(ValueError, match="run.b must list distinct nonnegative sites"):
        main(argv + ["--seed", "3", "--reps", "5", "--out", str(tmp_path),
                     "--set", "kernel.d=1", "--set", "kernel.L=6", "--set", "params.alpha=0.3",
                     "--set", f"run.b={sites}"])
    assert not any(tmp_path.iterdir())


def _forbid_building_and_drawing(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("built an event table or drew before the input check")

    monkeypatch.setattr(EventTable, "build", classmethod(never))
    for module in (harness, cli, momdual):
        monkeypatch.setattr(module, "derive_stream", never)


@pytest.mark.parametrize("argv, key", [
    (["parity-check", "--set", "run.A=0,2", "--set", "run.B=1,12"], "run.b"),
    (["parity-check", "--set", "run.A=0,6", "--set", "run.B=1"], "run.a"),
    (["dual-run", "--set", "run.B=0,12"], "run.b"),
    (["dual-run", "--set", "run.B=6"], "run.b"),
])
def test_a_site_off_the_kernel_is_refused_by_key_before_any_build_or_draw(tmp_path, monkeypatch,
                                                                          argv, key):
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match=f"{key} must list distinct nonnegative sites < 6"):
        main(argv + ["--seed", "3", "--reps", "5", "--out", str(tmp_path),
                     "--set", "kernel.d=1", "--set", "kernel.L=6", "--set", "params.alpha=0.3"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, key", [
    (["spin-run", "--set", "kernel.d=1", "--set", "kernel.L=6", "--set", "run.T=1",
      "--set", "run.grid=-1,0,1"], "run.grid"),
    (["exact-check", "--set", "run.kernels=complete:3", "--set", "run.tgrid=0.1,-5"], "run.tgrid"),
])
def test_a_negative_grid_time_is_refused(tmp_path, argv, key):
    with pytest.raises(ValueError, match=f"{key} has a negative entry"):
        main(argv + ["--seed", "3", "--reps", "2", "--out", str(tmp_path),
                     "--set", "params.alpha=0.3"])
    assert not any(tmp_path.iterdir())


def test_exact_check_reaches_long_horizons(tmp_path):
    # the dual generator at alpha 0.7 has lam t of about 939 at t = 400
    main(["exact-check", "--config", str(CONFIGS / "exact-check.ini"), "--out", str(tmp_path),
          "--set", "run.kernels=torus:1:3", "--set", "run.tgrid=400"])
    report = json.loads((tmp_path / "exact-check.json").read_text())
    assert report["max_fk_residual"] < 1e-9 and report["max_generator_gap"] < 1e-12


_BAD_HORIZON = "run.t must be finite and nonnegative"


@pytest.mark.parametrize("sets, message", [
    pytest.param(["run.T=-1"], _BAD_HORIZON, id="-1"),
    pytest.param(["run.T=inf"], _BAD_HORIZON, id="inf"),
    pytest.param(["run.T=nan"], _BAD_HORIZON, id="nan"),
    # a grid time past the horizon would report the frozen state at run.t
    pytest.param(["run.T=2", "run.grid=0,1,5,50"], "run.grid entry 50.0 is past run.t = 2.0",
                 id="grid-past-t"),
])
def test_spin_run_refuses_a_negative_or_infinite_horizon_by_key(tmp_path, monkeypatch, sets,
                                                                message):
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match=message):
        main(["spin-run", "--seed", "3", "--reps", "2", "--out", str(tmp_path),
              "--set", "kernel.d=1", "--set", "kernel.L=6"]
             + [arg for kv in sets for arg in ("--set", kv)])
    assert not any(tmp_path.iterdir())


# dual-run, walker-run and diffusion-run share spin-run's checks of run.t and run.grid
GRID_COMMANDS = [
    pytest.param(["dual-run", "--set", "kernel.d=1", "--set", "kernel.L=6", "--set", "run.B=0,3"],
                 id="dual-run"),
    pytest.param(["walker-run", "--set", "lattice.L=6", "--set", "run.xi0=0:2"], id="walker-run"),
    pytest.param(["diffusion-run", "--set", "lattice.L=4"], id="diffusion-run"),
]


@pytest.mark.parametrize("sets, message", [
    pytest.param(["run.T=3", "run.grid=1,5"], "run.grid entry 5.0 is past run.t = 3.0",
                 id="grid-past-t"),
    pytest.param(["run.T=inf"], _BAD_HORIZON, id="inf"),
])
@pytest.mark.parametrize("argv", GRID_COMMANDS)
def test_grid_commands_refuse_a_bad_horizon_or_grid_by_key_before_any_draw(tmp_path, monkeypatch,
                                                                           argv, sets, message):
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match=message):
        main(argv + ["--seed", "3", "--reps", "2", "--out", str(tmp_path)]
             + [arg for kv in sets for arg in ("--set", kv)])
    assert not any(tmp_path.iterdir())


# the engines each command hands its time keys to; a refusal must come before them all
_ENGINES = ("evug_statistic", "parity_duality_mc", "integrate_ode", "meanfield_comparator",
            "ensemble_observable", "walker_ensemble", "moment_duality_mc", "coexistence_probe",
            "extinction_probe", "build_generator_np", "replicate_map")


# unchecked, meanfield at run.t=inf or run.compare_t=inf and coexist-probe at
# run.t_surv=nan never returned, and the NaN cases wrote rows at t = nan
_HORIZON = "must be finite and nonnegative"
_GRID = "has a non-finite entry"


@pytest.mark.parametrize("command, key, value, message", [
    ("parity-check", "run.t", "nan", _HORIZON),
    ("parity-check", "run.t", "inf", _HORIZON),
    ("parity-check", "run.t", "-1", _HORIZON),
    ("meanfield", "run.t", "inf", _HORIZON),
    ("meanfield", "run.t", "nan", _HORIZON),
    ("meanfield", "run.compare_t", "inf", _HORIZON),
    ("meanfield", "run.compare_t", "nan", _HORIZON),
    ("coexist-probe", "run.t_het", "nan", _HORIZON),
    ("coexist-probe", "run.t_het", "inf", _HORIZON),
    ("coexist-probe", "run.t_surv", "nan", _HORIZON),
    ("coexist-probe", "run.t_surv", "inf", _HORIZON),
    ("moment-check", "run.grid", "0.25,nan", _GRID),
    ("moment-check", "run.grid", "inf", _GRID),
    ("extinct-probe", "run.grid", "1,nan,2", _GRID),
    ("spin-run", "run.grid", "nan", _GRID),
    ("exact-check", "run.tgrid", "0.1,inf", _GRID),
    ("exact-check", "run.alphas", "nan", _GRID),
])
def test_a_non_finite_time_key_is_refused_by_key_before_any_engine_runs(tmp_path, monkeypatch,
                                                                         command, key, value,
                                                                         message):
    _refused_before_any_engine(tmp_path, monkeypatch, command, key, value, f"{key} {message}")


def _refused_before_any_engine(tmp_path, monkeypatch, command, key, value, message, *sets):
    """Run the shipped config with key=value and ``sets``; it must raise ``message`` first."""
    def never(*args, **kwargs):
        raise AssertionError(f"{command} ran an engine before checking {key}")

    _forbid_building_and_drawing(monkeypatch)
    for name in _ENGINES:
        monkeypatch.setattr(cli, name, never)
    with pytest.raises(ValueError, match=message):
        main([command, "--config", str(CONFIGS / f"{command}.ini"), "--seed", "3", "--reps", "2",
              "--out", str(tmp_path), "--set", f"{key}={value}"]
             + [arg for kv in sets for arg in ("--set", kv)])
    assert not any(tmp_path.iterdir())


_FLOAT, _INT = "must be float", "must be int"
_XI0 = "must be site or site:count, with a site of the torus and a positive count"
_SPIN_INIT = ("must be all0, all1, bernoulli:u with u in [0, 1], or indicator:x1,x2,... with "
              "sites of the kernel")
_FIELD_INIT = "must be const:v with v in [0, 1], or uniform"
_STENCIL = "must be nn:RATE with a finite nonnegative RATE"
_EXPLICIT = ("kernel.type=explicit", "kernel.n=3")


@pytest.mark.parametrize("command, key, value, token, form, sets", [
    ("spin-run", "run.grid", "0,a", "a", _FLOAT, ()),
    ("dual-run", "run.grid", "1,x", "x", _FLOAT, ()),
    ("walker-run", "run.grid", "5,x", "x", _FLOAT, ()),
    ("diffusion-run", "run.grid", "0.5,x", "x", _FLOAT, ()),
    ("moment-check", "run.grid", "0.25,x", "x", _FLOAT, ()),
    ("extinct-probe", "run.grid", "1,x", "x", _FLOAT, ()),
    ("dual-run", "run.b", "0,x", "x", _INT, ()),
    ("parity-check", "run.a", "0,y", "y", _INT, ()),
    ("parity-check", "run.b", "3,1.5", "1.5", _INT, ()),
    ("exact-check", "run.alphas", "0.3,a", "a", _FLOAT, ()),
    ("exact-check", "run.tgrid", "1,b", "b", _FLOAT, ()),
    ("exact-check", "run.kernels", "torus:1:3,ring:4", "ring:4",
     "must be torus:d:L or complete:n with integer sizes", ()),
    ("walker-run", "run.xi0", "0:z", "0:z", _XI0, ()),
    ("moment-check", "run.xi0", "0:2,q", "q", _XI0, ()),
    ("extinct-probe", "run.xi0", "0:1:1", "0:1:1", _XI0, ()),
    ("spin-run", "kernel.edges", "0,1,1;1,2", "1,2",
     "must be x,y,weight with integer sites and a numeric weight", _EXPLICIT),
    ("spin-run", "kernel.type", "ring", "ring", "must be torus, complete or explicit", ()),
    ("dual-run", "kernel.type", "ring", "ring", "must be torus, complete or explicit", ()),
    ("spin-run", "run.init", "bernoulli:abc", "bernoulli:abc", _SPIN_INIT, ()),
    ("spin-run", "run.init", "bernoulli:1.5", "bernoulli:1.5", _SPIN_INIT, ()),
    ("spin-run", "run.init", "bernoulli:nan", "bernoulli:nan", _SPIN_INIT, ()),
    ("spin-run", "run.init", "indicator:0,99", "indicator:0,99", _SPIN_INIT, ()),
    ("spin-run", "run.init", "indicator:0,x", "indicator:0,x", _SPIN_INIT, ()),
    ("spin-run", "run.init", "bogus", "bogus", _SPIN_INIT, ()),
    ("diffusion-run", "run.init", "const:abc", "const:abc", _FIELD_INIT, ()),
    ("diffusion-run", "run.init", "const:1.5", "const:1.5", _FIELD_INIT, ()),
    ("diffusion-run", "run.init", "junk", "junk", _FIELD_INIT, ()),
    ("diffusion-run", "model.m", "nn:abc", "nn:abc", _STENCIL, ()),
    ("diffusion-run", "model.m", "nn:nan", "nn:nan", _STENCIL, ()),
    ("diffusion-run", "model.m", "nn:inf", "nn:inf", _STENCIL, ()),
    ("diffusion-run", "model.m", "nn:-1", "nn:-1", _STENCIL, ()),
    ("walker-run", "model.m", "mm:1", "mm:1", _STENCIL, ()),
    ("moment-check", "model.m", "nn", "nn", _STENCIL, ()),
    ("coexist-probe", "model.m", "nn:nan", "nn:nan", _STENCIL, ()),
    ("extinct-probe", "model.m", "nn:1:2", "nn:1:2", _STENCIL, ()),
    ("walker-run", "walker.kind", "crx", "crx", "must be crw, dbarw or bcrw", ()),
    ("sweep", "sweep.vary", "params.alpha01,alpha10", "alpha10", "must be section.key", ()),
    ("sweep", "sweep.values", "0.2;,", ",",
     "must be a nonempty comma-separated list of values", ()),
])
def test_a_malformed_list_or_spec_value_is_refused_by_key_before_any_engine_runs(
        tmp_path, monkeypatch, command, key, value, token, form, sets):
    # unchecked, the list keys failed in int() or float() naming no key, and the
    # specs were parsed inside the engine modules, run.init of spin-run per chunk
    _refused_before_any_engine(tmp_path, monkeypatch, command, key, value,
                               "^" + re.escape(f"{key} {form}, got {token!r}") + "$", *sets)


def test_a_value_in_a_swept_list_is_refused_by_its_key(tmp_path):
    # every point's keys are read before the first point runs, so the 0.2
    # point writes nothing either
    with pytest.raises(ValueError, match="^params.alpha01 must be float, got 'x'$"):
        main(["sweep", "--config", str(CONFIGS / "sweep.ini"), "--seed", "3", "--reps", "2",
              "--out", str(tmp_path), "--set", "sweep.values=0.2,x", "--set", "run.T=1"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, vary, values, message", [
    (["--set", "sweep.over=parity-check", "--config", str(CONFIGS / "parity-check.ini")],
     "run.b", "1,99", r"^run.b must list distinct nonnegative sites < 16, got \[99\]$"),
    (["--set", "sweep.over=moment-check", "--config", str(CONFIGS / "moment-check.ini")],
     "run.regime", "auto,walkers", r"^unknown regime 'walkers'$"),
    (["--set", "sweep.over=exact-check", "--config", str(CONFIGS / "exact-check.ini")],
     "run.kernels", "torus:1:3,torus:1:20", r"^kernel torus:1:20 has 20 sites"),
    (["--set", "sweep.over=coexist-probe", "--config", str(CONFIGS / "coexist-probe.ini")],
     "run.kappa", "0.1,0.7", r"^kappa must lie in \(0, 1/2\), got 0.7$"),
    (["--set", "sweep.over=extinct-probe", "--config", str(CONFIGS / "extinct-probe.ini")],
     "model.mu", "-0.5,0.5", r"^the extinction probe needs s < 0 and mu in \[-1, 0\]$"),
    (["--set", "sweep.over=walker-run", "--config", str(CONFIGS / "walker-run.ini")],
     "run.cap", "10,1", r"^the initial walker total 2 exceeds the cap 1$"),
    (["--set", "sweep.over=moment-check", "--config", str(CONFIGS / "moment-check.ini"),
      "--set", "run.cap=2"], "run.xi0", "0:2,0:3", r"^the initial walker total 3 exceeds the cap 2$"),
    (["--set", "sweep.over=meanfield", "--config", str(CONFIGS / "meanfield.ini")],
     "run.compare_n", "0,1", r"^run.compare_n must be 0 \(no comparison\) or at least 2, got 1$"),
    (["--set", "sweep.over=meanfield", "--config", str(CONFIGS / "meanfield.ini")],
     "run.t", "1,1e6", r"^run.t and run.dt project 3e\+09 RK4 steps with the step-halving "),
])
def test_a_sweep_refuses_a_late_point_before_any_point_runs(tmp_path, monkeypatch, argv, vary,
                                                             values, message):
    # the last point's value is refused by the check of its subcommand, and
    # no point before it has derived a stream or written a file
    def no_stream(*args, **kwargs):
        raise AssertionError("a point ran before every point was read")

    monkeypatch.setattr(harness, "derive_stream", no_stream)
    with pytest.raises(ValueError, match=message):
        main(["sweep", "--seed", "3", "--reps", "2", "--out", str(tmp_path), *argv,
              "--set", f"sweep.vary={vary}", "--set", f"sweep.values={values}"])
    assert list(tmp_path.iterdir()) == []


def test_spin_run_refuses_its_initial_law_before_any_chunk_stream_is_derived(tmp_path,
                                                                             monkeypatch):
    # unchecked, each chunk parsed run.init, so the pool's workers raised the error
    def never(*args, **kwargs):
        raise AssertionError("derived chunk streams before checking run.init")

    monkeypatch.setattr(harness, "parallel_map", never)
    with pytest.raises(ValueError, match="^" + re.escape(f"run.init {_SPIN_INIT}, got 'bogus'")):
        main(["spin-run", "--config", str(CONFIGS / "spin-run.ini"), "--threads", "2",
              "--out", str(tmp_path), "--set", "run.init=bogus"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("sets, message", [
    (["walker.kind=bcrw", "walker.mu=-0.5", "walker.s=nan"], "BCRW needs a finite s <= 0, got nan"),
    (["walker.kind=bcrw", "walker.mu=-0.5", "walker.s=-inf"],
     "BCRW needs a finite s <= 0, got -inf"),
    (["walker.kind=dbarw", "walker.branch_rate=inf"],
     "branch rate must be finite and nonnegative, got inf"),
    (["walker.kind=dbarw", "walker.branch_rate=nan"],
     "branch rate must be finite and nonnegative, got nan"),
])
def test_walker_run_refuses_a_non_finite_rate_before_any_engine_runs(tmp_path, monkeypatch, sets,
                                                                     message):
    # unchecked, a BCRW at s = nan or -inf reported survival 0.0, and a DBARW at
    # branch_rate = inf every run extinct after one event
    key, value = sets[-1].split("=")
    _refused_before_any_engine(tmp_path, monkeypatch, "walker-run", key, value,
                               "^" + re.escape(message) + "$", *sets[:-1])


def _spin_start_densities(out, *sets):
    main(["spin-run", "--seed", "7", "--reps", "3", "--out", str(out), "--set", "kernel.d=1",
          "--set", "kernel.L=400", "--set", "params.alpha=0.3", "--set", "run.T=0",
          "--set", "run.grid=0"] + [arg for kv in sets for arg in ("--set", kv)])
    rows = (out / "spin_density.csv").read_text().splitlines()[1:]
    return [float(row.split(",")[2]) for row in rows]


def test_spin_run_starts_from_each_documented_initial_form(tmp_path):
    ini = (CONFIGS / "spin-run.ini").read_text().splitlines()
    line = next(ln for ln in ini if "initial condition:" in ln)
    forms = [tok.strip() for tok in line.split("initial condition:", 1)[1].split("|")]
    assert forms == ["bernoulli:0.5", "indicator:0,5,10", "all0", "all1"]
    starts = {form: _spin_start_densities(tmp_path / str(i), f"run.init={form}")
              for i, form in enumerate(forms)}
    assert starts["indicator:0,5,10"] == [3 / 400] * 3
    assert starts["all0"] == [0.0] * 3 and starts["all1"] == [1.0] * 3
    # a Bernoulli start is drawn once per run
    assert len(set(starts["bernoulli:0.5"])) == 3
    assert all(0.4 < d < 0.6 for d in starts["bernoulli:0.5"])
    # an absent run.init is bernoulli:0.5, bit for bit
    _spin_start_densities(tmp_path / "default")
    assert ((tmp_path / "default" / "spin_density.csv").read_bytes()
            == (tmp_path / "0" / "spin_density.csv").read_bytes())


@pytest.mark.parametrize("init", [None, "const:0.25", "uniform"])
def test_diffusion_run_starts_from_each_initial_form(tmp_path, monkeypatch, init):
    starts = []

    def spy(params, p0, *args, **kwargs):
        starts.append(p0)
        return ensemble_observable(params, p0, *args, **kwargs)

    monkeypatch.setattr(cli, "ensemble_observable", spy)
    main(["diffusion-run", "--seed", "5", "--reps", "4", "--out", str(tmp_path),
          "--set", "lattice.d=2", "--set", "lattice.L=3", "--set", "model.dt=0.01",
          "--set", "run.T=0.02", "--set", "run.grid=0.02"]
         + ([] if init is None else ["--set", f"run.init={init}"]))
    expected = {None: np.full((3, 3), 0.5), "const:0.25": np.full((3, 3), 0.25),
                "uniform": derive_stream(5, "diffusion-init").random((3, 3))}[init]
    assert len(starts) == 1 and np.array_equal(starts[0], expected)


@pytest.mark.parametrize("sets, rate", [([], 1.0), (["model.m=nn:2.0"], 2.0)])
def test_walker_run_reads_its_nearest_neighbour_stencil_from_model_m(tmp_path, monkeypatch, sets,
                                                                     rate):
    stencils = []

    def spy(kind, xi0, torus, stencil, *args, **kwargs):
        stencils.append(stencil)
        return walker_ensemble(kind, xi0, torus, stencil, *args, **kwargs)

    monkeypatch.setattr(cli, "walker_ensemble", spy)
    main(["walker-run", "--seed", "5", "--reps", "4", "--out", str(tmp_path),
          "--set", "lattice.d=2", "--set", "lattice.L=3", "--set", "run.xi0=0",
          "--set", "run.T=0.1"]
         + [arg for kv in sets for arg in ("--set", kv)])
    (stencil,) = stencils
    assert stencil == Stencil.nearest_neighbor(2, rate)
    assert len(stencil.displacements) == 4 and stencil.total_rate == rate
    assert stencil.weights == (rate / 4,) * 4


@pytest.mark.parametrize("command, key", [
    ("spin-run", "run.grid"),
    ("dual-run", "run.grid"),
    ("walker-run", "run.grid"),
    ("diffusion-run", "run.grid"),
    ("moment-check", "run.grid"),
    ("extinct-probe", "run.grid"),
    ("parity-check", "run.a"),
    ("dual-run", "run.b"),
    ("walker-run", "run.xi0"),
    ("moment-check", "run.xi0"),
    ("extinct-probe", "run.xi0"),
])
def test_an_empty_list_is_refused_by_key_before_any_engine_runs(tmp_path, monkeypatch, command,
                                                                key):
    # moment-check and extinct-probe refused an empty grid in the engine as "grid
    # is empty", the other four ran their default grid; an empty site list ran and
    # wrote "passed": true for parity-check and survival 0.0 for the others
    _refused_before_any_engine(tmp_path, monkeypatch, command, key, "", f"^{key} is empty$")


@pytest.mark.parametrize("command, key, value, kind", [
    ("walker-run", "run.cap", "abc", "int"),
    ("spin-run", "run.t", "abc", "float"),
    ("dual-run", "params.alpha", "x", "float"),
    ("meanfield", "params.lam", "1,5", "float"),
    ("spin-run", "run.reps", "2.5", "int"),
    ("spin-run", "run.threads", "two", "int"),
    ("spin-run", "run.seed", "abc", "int"),
])
def test_a_malformed_value_is_refused_by_key(tmp_path, monkeypatch, command, key, value, kind):
    # unchecked, each failed in int() or float() with a message that named no key
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match=f"^{key} must be {kind}, got '{value}'$"):
        main([command, "--config", str(CONFIGS / f"{command}.ini"), "--out", str(tmp_path),
              "--set", f"{key}={value}"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["dual-run", "walker-run", "moment-check", "extinct-probe",
                                     "coexist-probe"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_cap_below_one_is_refused_by_key_before_any_engine_runs(tmp_path, monkeypatch,
                                                                  command, cap):
    # unchecked, dual-run at run.cap=-1 wrote terminal_overflow_mass 1.0, dead
    # duals included, and the walker commands failed in the walker engine, after
    # any forward ensemble, with a message that named neither key nor value
    _refused_before_any_engine(tmp_path, monkeypatch, command, "run.cap", cap,
                               f"^run.cap must be at least 1, got {cap}$")


@pytest.mark.parametrize("command", ["walker-run", "moment-check", "extinct-probe",
                                     "coexist-probe"])
def test_a_cap_below_the_walker_start_is_refused_before_any_ensemble_runs(tmp_path, monkeypatch,
                                                                          command):
    # each shipped config starts two walkers; the forward Euler-Maruyama
    # ensembles of the last three used to run to the end before the refusal
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match="^the initial walker total 2 exceeds the cap 1$"):
        main([command, "--config", str(CONFIGS / f"{command}.ini"), "--seed", "3",
              "--out", str(tmp_path), "--set", "run.cap=1"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("kernels, alphas, tgrid", [
    ("torus:1:3", "0,0.3,0.7", "1e7"),
    # few series terms, but each a dense 2048 x 2048 product
    ("complete:11", "0.3", "5"),
])
def test_exact_check_refuses_work_past_its_budget_before_any_generator(tmp_path, monkeypatch,
                                                                       kernels, alphas, tgrid):
    # the term budget let complete:11 at run.tgrid=5 run past 40 s
    n = int(kernels.rsplit(":", 1)[1])
    work = len(alphas.split(",")) * fk_check_work(n, float(tgrid))
    assert work > MAX_FK_WORK
    _refused_before_any_engine(
        tmp_path, monkeypatch, "exact-check", "run.tgrid", tgrid,
        "^" + re.escape(f"run.tgrid projects {work:.4g} multiply-adds of uniformization series "
                        f"over run.kernels and run.alphas; the limit is {MAX_FK_WORK:.4g}") + "$",
        f"run.kernels={kernels}", f"run.alphas={alphas}")


class _GeneratorBuilt(Exception):
    pass


@pytest.mark.parametrize("config, sets", [
    (CONFIGS / "exact-check.ini", []),
    (CONFIGS.parent / "benchmark" / "configs" / "spin-torus" / "exact-check.ini", []),
    (CONFIGS / "exact-check.ini", ["run.kernels=torus:1:3", "run.tgrid=400"]),
])
def test_exact_check_budget_admits_the_shipped_batteries(tmp_path, monkeypatch, config, sets):
    def built(*args, **kwargs):
        raise _GeneratorBuilt

    monkeypatch.setattr(cli, "build_generator_np", built)
    with pytest.raises(_GeneratorBuilt):
        main(["exact-check", "--config", str(config), "--seed", "1", "--out", str(tmp_path)]
             + [arg for kv in sets for arg in ("--set", kv)])


# unchecked, meanfield at run.p0=1.5 divided by zero, at run.stride=0 failed in
# range() and at run.stride=-1 in indexing; moment-check at run.p0=nan and
# extinct-probe at run.p0=-0.5 wrote results; extinct-probe at run.eps=1.5 or
# nan blamed run.p0
_UNIT = r"must lie in \[0, 1\], got"
_BELOW_EPS = r"must lie in \[0, 1 - run.eps\) = \[0, 0.9\), got"
_OPEN_UNIT = r"must lie in \(0, 1\), got"
_STRIDE = "must be at least 1, got"


@pytest.mark.parametrize("command, key, value, message", [
    ("meanfield", "run.p0", "1.5", _UNIT),
    ("meanfield", "run.p0", "-0.1", _UNIT),
    ("meanfield", "run.p0", "nan", _UNIT),
    ("meanfield", "run.stride", "0", _STRIDE),
    ("meanfield", "run.stride", "-1", _STRIDE),
    ("moment-check", "run.p0", "nan", _UNIT),
    ("moment-check", "run.p0", "1.5", _UNIT),
    ("extinct-probe", "run.p0", "-0.5", _BELOW_EPS),
    ("extinct-probe", "run.p0", "nan", _BELOW_EPS),
    ("extinct-probe", "run.p0", "0.9", _BELOW_EPS),
    ("extinct-probe", "run.eps", "1.5", _OPEN_UNIT),
    ("extinct-probe", "run.eps", "nan", _OPEN_UNIT),
    ("extinct-probe", "run.eps", "0.0", _OPEN_UNIT),
])
def test_a_frequency_or_stride_out_of_range_is_refused_by_key_before_any_engine_runs(
        tmp_path, monkeypatch, command, key, value, message):
    _refused_before_any_engine(tmp_path, monkeypatch, command, key, value,
                               f"^{key} {message} {value}$")


@pytest.mark.parametrize("value, message", [
    ("10000000000000", f"^run.compare_n must be at most {MAX_COMPARATOR_VERTICES}, "
                       f"got 10000000000000$"),
    (str(MAX_COMPARATOR_VERTICES + 1), f"^run.compare_n must be at most "
                                       f"{MAX_COMPARATOR_VERTICES}, got "
                                       f"{MAX_COMPARATOR_VERTICES + 1}$"),
    # 2 replicates of 3 x 10^6 vertices to run.compare_t = 3 at alpha01 = 0.8
    ("3000000", r"^run.compare_n projects 1.8e\+07 count-chain jumps over run.compare_t and "
                r"run.reps; the limit is 1.678e\+07$"),
])
def test_an_unbounded_comparator_is_refused_by_key_before_any_engine_runs(tmp_path, monkeypatch,
                                                                         value, message):
    # unchecked, run.compare_n=10^13 wrote meanfield_path.csv, then died allocating
    # the count chain's rate arrays
    assert comparator_jumps_bound(3_000_000, NPParams(1.0, 0.8, 0.4), 3.0, 2) > MAX_COMPARATOR_JUMPS
    _refused_before_any_engine(tmp_path, monkeypatch, "meanfield", "run.compare_n", value, message)


@pytest.mark.parametrize("key, value, message", [
    # unchecked, run.T=1e6 would have kept 10^9 states and then run 2 x 10^9 more steps
    ("run.t", "1e6", r"^run.t and run.dt project 3e\+09 RK4 steps with the step-halving "
                     r"check; the limit is 4.194e\+06$"),
    ("run.dt", "1e-6", r"^run.t and run.dt project 1.8e\+08 RK4 steps"),
    ("run.compare_t", "5000", r"^run.compare_t projects 5e\+06 RK4 steps of the comparator's "
                              r"ODE at dt = 0.001; the limit is 4.194e\+06$"),
])
def test_an_unbounded_ode_is_refused_by_key_before_any_engine_runs(tmp_path, monkeypatch, key,
                                                                  value, message):
    # configs/meanfield.ini runs to run.t = 60 at run.dt = 0.001 with the step-halving
    # check, and its comparator (2 replicates of 100 vertices here) to run.compare_t = 3
    _refused_before_any_engine(tmp_path, monkeypatch, "meanfield", key, value, message)


def test_the_comparator_step_limit_holds_only_when_the_comparator_runs(tmp_path, monkeypatch):
    assert ode_steps_bound(5000.0, 1e-3) > MAX_ODE_STEPS

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "integrate_ode", reached)
    with pytest.raises(Reached):
        main(["meanfield", "--config", str(CONFIGS / "meanfield.ini"), "--seed", "3",
              "--reps", "2", "--out", str(tmp_path), "--set", "run.compare_t=5000",
              "--set", "run.compare_n=0"])


def test_importing_the_cli_loads_no_process_pool():
    # a run at one thread never starts a pool, so the pool's modules load only
    # when parallel_map starts one
    src = str(Path(ipsd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, ipsd.cli; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-0.1"])
def test_a_step_that_is_not_finite_and_positive_is_refused_by_key_before_any_engine_runs(
        tmp_path, monkeypatch, value):
    # unchecked, meanfield at run.dt=inf took one RK4 step over the whole
    # horizon, passed its self-check and wrote terminal: -299.66
    _refused_before_any_engine(tmp_path, monkeypatch, "meanfield", "run.dt", value,
                               f"run.dt must be finite and positive, got {float(value)}")


@pytest.mark.parametrize("dt, cause", [("3", "step-halving check failed: terminal gap 2.530e-08"),
                                       ("30", "float division by zero")])
@pytest.mark.parametrize("command", ["meanfield", "sweep"])
def test_a_step_too_coarse_for_the_ode_is_refused_by_key_as_one_line(tmp_path, capsys, command, dt,
                                                                       cause):
    # unchecked, run.dt=3 ended in the step-halving check's ArithmeticError and
    # run.dt=30 in a ZeroDivisionError from the rhs once RK4 left [0, 1], both
    # as tracebacks; the sweep's first point, at run.dt=0.01, passes and writes nothing
    out = tmp_path / "out"
    sets = ({"run.dt": dt} if command == "meanfield" else
            {"sweep.over": "meanfield", "sweep.vary": "run.dt", "sweep.values": f"0.01,{dt}"})
    argv = [command, "--config", str(CONFIGS / "meanfield.ini"), "--seed", "1", "--reps", "2",
            "--out", str(out), "--set", "run.compare_n=0"]
    assert console(argv + [arg for kv in sets.items() for arg in ("--set", "=".join(kv))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ipsd: error: run.dt = {float(dt)} is too coarse for RK4 on the "
                            f"density ODE: {cause}\n")
    assert not out.exists()


def test_a_model_outside_the_coexistence_window_is_refused_before_the_path_is_written(tmp_path):
    # unchecked, meanfield at params.alpha10=2 wrote meanfield_path.csv and then refused
    with pytest.raises(ValueError, match=r"^need 0 <= a10 < lam, got a10=2.0, lam=1.0$"):
        main(["meanfield", "--config", str(CONFIGS / "meanfield.ini"), "--seed", "1", "--reps", "2",
              "--out", str(tmp_path), "--set", "run.compare_n=0", "--set", "params.alpha10=2"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["spin-run", "dual-run", "parity-check", "diffusion-run",
                                     "walker-run", "moment-check", "meanfield", "exact-check"])
def test_one_replicate_is_refused_before_any_engine_runs(tmp_path, monkeypatch, command):
    # unchecked, spin-run and walker-run wrote their CSV and then failed with
    # "need at least two samples", dual-run and parity-check failed so after
    # their ensembles, and diffusion-run wrote "var_p": NaN
    def never(*args, **kwargs):
        raise AssertionError(f"{command} ran an engine with one replicate")

    _forbid_building_and_drawing(monkeypatch)
    for name in _ENGINES:
        monkeypatch.setattr(cli, name, never)
    with pytest.raises(ValueError, match="^reps must be at least 2, got 1: every report "
                                         "estimates a standard error$"):
        main([command, "--config", str(CONFIGS / f"{command}.ini"), "--seed", "3",
              "--reps", "1", "--out", str(tmp_path)])
    assert not any(tmp_path.iterdir())


_EXPLICIT_SPIN_RUN = ["spin-run", "--seed", "3", "--reps", "5", "--set", "kernel.type=explicit",
                      "--set", "kernel.n=3", "--set", "params.alpha=0.3", "--set", "run.T=1",
                      "--set", "run.grid=0.5,1"]


def test_spin_run_on_an_explicit_three_cycle(tmp_path):
    out = tmp_path / "res"
    main(_EXPLICIT_SPIN_RUN + ["--out", str(out), "--set", "kernel.edges=0,1,1.0; 1,2,1.0; 2,0,1"])
    report = json.loads((out / "spin-run.json").read_text())
    assert report["kernel_sites"] == 3 and report["flips"] > 0
    rows = (out / "spin_density.csv").read_text().splitlines()
    assert rows[0] == "replicate,time,density" and len(rows) == 1 + 5 * 2


@pytest.mark.parametrize("edges, token", [
    ("0,1,1.0;1,2;2,0,1.0", "1,2"),
    ("0,1,1.0;1,2,1.0,0;2,0,1.0", "1,2,1.0,0"),
    ("0,1,one;1,2,1.0;2,0,1.0", "0,1,one"),
    ("0,1.5,1.0;1,2,1.0;2,0,1.0", "0,1.5,1.0"),
])
def test_a_malformed_explicit_kernel_edge_is_refused_by_key(tmp_path, monkeypatch, edges, token):
    # unchecked, a token without three fields failed with "not enough values to unpack"
    _forbid_building_and_drawing(monkeypatch)
    message = (f"kernel.edges must be x,y,weight with integer sites and a numeric weight, "
               f"got {token!r}")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        main(_EXPLICIT_SPIN_RUN + ["--out", str(tmp_path), "--set", f"kernel.edges={edges}"])
    assert not any(tmp_path.iterdir())


def test_sweep_end_to_end(tmp_path):
    out = tmp_path / "res"
    main(["sweep", "--seed", "2", "--out", str(out),
          "--set", "sweep.over=meanfield", "--set", "sweep.vary=params.alpha10",
          "--set", "sweep.values=0.2,0.4",
          "--set", "params.lam=1.0", "--set", "params.alpha01=0.5",
          "--set", "run.T=30"])
    report = json.loads((out / "sweep.json").read_text())
    assert report["values"] == ["0.2", "0.4"]
    eqs = [r["report"]["equilibrium"] for r in report["reports"]]
    assert eqs[0] == pytest.approx(0.5 / 1.3)
    assert eqs[1] == pytest.approx(0.5 / 1.1)
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "value,metric,metric_value"
    assert any("equilibrium" in r for r in rows[1:])


def test_sweep_runs_the_product_of_its_value_lists_in_row_major_order(tmp_path):
    out = tmp_path / "res"
    main(["sweep", "--seed", "2", "--out", str(out),
          "--set", "sweep.over=meanfield", "--set", "sweep.vary=params.alpha01,params.alpha10",
          "--set", "sweep.values=0.2,0.4;0.1,0.3", "--set", "params.lam=1.0", "--set", "run.T=1"])
    report = json.loads((out / "sweep.json").read_text())
    points = [("0.2", "0.1"), ("0.2", "0.3"), ("0.4", "0.1"), ("0.4", "0.3")]
    assert report["values"] == [r["value"] for r in report["reports"]] == [
        f"{a};{b}" for a, b in points]
    for (a01, a10), entry in zip(points, report["reports"]):
        assert entry["report"]["equilibrium"] == pytest.approx((1 - float(a01)) / (
            2 - float(a01) - float(a10)))
        sub = json.loads((out / f"params_alpha01={a01},params_alpha10={a10}"
                          / "meanfield.json").read_text())
        assert sub["config"]["options"]["params"]["alpha01"] == a01
        assert sub["config"]["options"]["params"]["alpha10"] == a10
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "value,metric,metric_value"
    assert rows[1].startswith("0.2;0.1,")


def test_sweep_sets_a_key_given_in_upper_case(tmp_path):
    # config files and --set store keys in lower case, so run.T must set run.t
    main(["sweep", "--seed", "2", "--out", str(tmp_path), "--set", "sweep.over=meanfield",
          "--set", "sweep.vary=run.T", "--set", "sweep.values=1,2", "--set", "params.alpha=0.3"])
    for horizon in ("1", "2"):
        last = (tmp_path / f"run_T={horizon}" / "meanfield_path.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == float(horizon)


@pytest.mark.parametrize("vary, values, message", [
    ("alpha01", "0.2,0.4", r"^sweep.vary must be section.key, got 'alpha01'$"),
    ("params.alpha01", " , ",
     r"^sweep.values must be a nonempty comma-separated list of values, got ','$"),
    ("params.alpha01,params.alpha10", "0.2,0.4", r"sweep.values has 1 value lists for 2 sweep.vary"),
    ("params.alpha01", "0.2;0.4", r"sweep.values has 2 value lists for 1 sweep.vary"),
])
def test_sweep_rejects_a_malformed_grid(tmp_path, vary, values, message):
    with pytest.raises(ValueError, match=message):
        main(["sweep", "--seed", "2", "--out", str(tmp_path), "--set", "sweep.over=meanfield",
              "--set", f"sweep.vary={vary}", "--set", f"sweep.values={values}"])
    assert not any(tmp_path.iterdir())


EXACT_SMALL = ["--set", "run.kernels=torus:1:4,complete:3", "--set", "run.alphas=0.3,0.7",
               "--set", "run.tgrid=0.1,1,5"]


def test_exact_check_report_does_not_depend_on_seed(tmp_path):
    reports = []
    for seed in ("1", "2"):
        main(["exact-check", "--seed", seed, "--out", str(tmp_path / seed)] + EXACT_SMALL)
        reports.append(json.loads((tmp_path / seed / "exact-check.json").read_text()))
    keys = ("battery", "max_generator_gap", "max_fk_residual")
    assert [reports[0][key] for key in keys] == [reports[1][key] for key in keys]
    assert len(reports[0]["battery"]) == 4
    assert reports[0]["max_fk_residual"] <= 1e-9


def test_exact_check_rejects_an_oversized_kernel_before_any_generator(tmp_path, monkeypatch):
    built = []
    for name in ("build_generator_np", "build_generator_from_events", "build_generator_dual"):
        monkeypatch.setattr(cli, name, lambda p, k, name=name: built.append(name))
    with pytest.raises(ValueError, match="torus:2:4 has 16 sites"):
        main(["exact-check", "--seed", "1", "--out", str(tmp_path),
              "--set", "run.kernels=torus:1:4,torus:2:4"])
    assert built == []


@pytest.mark.parametrize("site", [-1, 8, 16])
def test_diffusion_run_rejects_a_site_off_the_torus(tmp_path, monkeypatch, site):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking run.site")

    monkeypatch.setattr(cli, "ensemble_observable", never)
    with pytest.raises(ValueError, match=r"run.site must lie in \[0, 8\)"):
        main(["diffusion-run", "--seed", "1", "--reps", "4", "--out", str(tmp_path),
              "--set", "lattice.d=1", "--set", "lattice.L=8", "--set", f"run.site={site}"])


@pytest.mark.parametrize("kappa", ["0", "0.5", "0.6"])
def test_diffusion_run_rejects_kappa_outside_the_open_half_interval(tmp_path, monkeypatch, kappa):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking run.kappa")

    monkeypatch.setattr(cli, "ensemble_observable", never)
    with pytest.raises(ValueError, match=r"run.kappa must lie in \(0, 1/2\)"):
        main(["diffusion-run", "--seed", "1", "--reps", "4", "--out", str(tmp_path),
              "--set", f"run.kappa={kappa}"])


def test_diffusion_run_records_site_and_mean_from_one_ensemble(tmp_path, monkeypatch):
    roles = []

    def spy(*args, **kwargs):
        roles.append(args[6])
        return ensemble_observable(*args, **kwargs)

    monkeypatch.setattr(cli, "ensemble_observable", spy)
    main(["diffusion-run", "--seed", "1", "--reps", "6", "--out", str(tmp_path),
          "--set", "lattice.d=1", "--set", "lattice.L=4", "--set", "model.dt=0.01",
          "--set", "run.T=0.1", "--set", "run.grid=0.05,0.1"])
    assert roles == ["diffusion-site"]
    lines = (tmp_path / "diffusion_summary.csv").read_text().splitlines()
    assert lines[0] == "t,mean_p,var_p,het_stat" and len(lines) == 3


def test_diffusion_run_reports_the_last_site(tmp_path):
    main(["diffusion-run", "--seed", "1", "--reps", "4", "--out", str(tmp_path),
          "--set", "lattice.d=1", "--set", "lattice.L=8", "--set", "run.site=7",
          "--set", "model.dt=0.01", "--set", "run.T=0.1", "--set", "run.grid=0.1"])
    assert json.loads((tmp_path / "diffusion-run.json").read_text())["site"] == 7


@pytest.mark.parametrize("key", ["run.tgrid", "run.alphas", "run.kernels"])
def test_exact_check_rejects_an_empty_list(tmp_path, key):
    # an empty list would leave nothing to check and report residual 0.0
    with pytest.raises(ValueError, match=rf"{key} is empty"):
        main(["exact-check", "--seed", "1", "--out", str(tmp_path),
              "--set", "run.kernels=complete:3", "--set", f"{key}="])
    assert not (tmp_path / "exact-check.json").exists()


@pytest.mark.parametrize("token", ["torus:1", "complete:", "torus:a:3", "complete:3:1",
                                   "torus:1:4:2", "ring:4"])
def test_exact_check_names_a_malformed_kernel_token(tmp_path, token):
    message = f"run.kernels must be torus:d:L or complete:n with integer sizes, got '{token}'"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        main(["exact-check", "--seed", "1", "--out", str(tmp_path),
              "--set", f"run.kernels=complete:3,{token}"])


def test_exact_check_builds_one_event_table_per_event_generator(tmp_path, monkeypatch):
    # the event-sum and the dual generator each build the table of their (alpha, kernel)
    builds = []
    build = EventTable.build.__func__

    def counting(cls, p, k):
        builds.append((p.alpha, k.n))
        return build(cls, p, k)

    monkeypatch.setattr(EventTable, "build", classmethod(counting))
    main(["exact-check", "--seed", "1", "--out", str(tmp_path)] + EXACT_SMALL)
    assert builds == [key for key in [(0.3, 4), (0.7, 4), (0.3, 3), (0.7, 3)] for _ in range(2)]


def test_params_alpha_with_an_asymmetric_key_is_refused(tmp_path):
    for key in ("alpha01", "alpha10", "lam"):
        with pytest.raises(ValueError, match=f"params.alpha and params.{key} are both set"):
            main(["meanfield", "--seed", "1", "--out", str(tmp_path), "--set", "params.alpha=0.3",
                  "--set", f"params.{key}=0.6"])


_XI0_FORM = ("run.xi0 must be site or site:count, with a site of the torus and a positive "
             "count")
XI0_COMMANDS = [
    ["walker-run", "--set", "walker.kind=crw", "--set", "run.t=1"],
    ["moment-check", "--set", "model.s=1", "--set", "model.mu=2"],
    ["extinct-probe", "--set", "model.s=-1", "--set", "model.mu=-0.5"],
]


@pytest.mark.parametrize("argv", XI0_COMMANDS, ids=[a[0] for a in XI0_COMMANDS])
@pytest.mark.parametrize("token", ["0:-2", "3:0"])
def test_xi0_with_a_nonpositive_count_is_refused_before_any_simulation(tmp_path, monkeypatch,
                                                                       argv, token):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the xi0 check")

    monkeypatch.setattr(cli, "walker_ensemble", no_simulation)
    monkeypatch.setattr(cli, "moment_duality_mc", no_simulation)
    monkeypatch.setattr(cli, "extinction_probe", no_simulation)
    with pytest.raises(ValueError, match=re.escape(f"{_XI0_FORM}, got '{token}'")):
        main(argv + ["--seed", "1", "--reps", "5", "--out", str(tmp_path),
                     "--set", f"run.xi0=1,{token}"])


@pytest.mark.parametrize("argv", XI0_COMMANDS, ids=[a[0] for a in XI0_COMMANDS])
@pytest.mark.parametrize("site", ["-1", "4", "9"])
def test_xi0_off_the_torus_is_refused_by_key_before_any_draw(tmp_path, monkeypatch, argv, site):
    _forbid_building_and_drawing(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"{_XI0_FORM}, got '{site}:2'")):
        main(argv + ["--seed", "1", "--reps", "5", "--out", str(tmp_path), "--set", "lattice.L=4",
                     "--set", f"run.xi0=0,{site}:2"])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mu", ["0.5", "-0.5"])
def test_moment_check_checks_the_generator_of_the_crw_pairing_it_runs(tmp_path, mu):
    # at mu = 0.5 the generator battery was skipped and wrote null; at mu = -0.5
    # it checked the BCRW(0, mu) rather than the CRW the Monte Carlo ran
    main(["moment-check", "--config", str(CONFIGS / "moment-check.ini"), "--seed", "5",
          "--reps", "64", "--out", str(tmp_path), "--set", "model.s=0", "--set", f"model.mu={mu}"])
    report = json.loads((tmp_path / "moment-check.json").read_text())
    assert {row["regime"] for row in report["rows"]} == {"crw"}
    assert isinstance(report["generator_gap"], float) and report["generator_gap"] < 1e-10


@pytest.mark.parametrize("noise_n", ["4", "0.5"])
def test_moment_check_refuses_a_noise_n_other_than_one_by_key_before_any_ensemble(
        tmp_path, monkeypatch, noise_n):
    # every walker dual pairs with the N = 1 diffusion; at model.noise_n=4 all
    # three ensembles ran and wrote z = -22.4 and -30.3 beside a generator gap of 4.4e-16
    _refused_before_any_engine(tmp_path, monkeypatch, "moment-check", "model.noise_n", noise_n,
                               f"^model.noise_n must be 1 for moment-check, got {float(noise_n)}$")


WALKER_COMMANDS = [
    ["walker-run", "--reps", "1100", "--set", "walker.kind=dbarw", "--set", "walker.branch_rate=0.5",
     "--set", "lattice.L=6", "--set", "run.xi0=0:2", "--set", "run.t=1", "--set", "run.grid=0.5,1",
     "--set", "run.cap=50"],
    ["moment-check", "--reps", "64", "--set", "lattice.L=4", "--set", "model.s=1",
     "--set", "model.mu=2", "--set", "run.grid=0.1"],
    ["coexist-probe", "--set", "model.s=5", "--set", "lattice.L=4", "--set", "run.t_het=0.2",
     "--set", "run.t_surv=1", "--set", "run.reps_het=16", "--set", "run.reps_surv=20",
     "--set", "run.cap=60"],
    ["extinct-probe", "--set", "model.s=-1", "--set", "model.mu=-0.5", "--set", "lattice.L=4",
     "--set", "run.grid=0.5,1", "--set", "run.reps_fwd=32", "--set", "run.reps_dual=40"],
]


@pytest.mark.parametrize("argv", WALKER_COMMANDS, ids=[a[0] for a in WALKER_COMMANDS])
def test_walker_events_are_reported_and_do_not_depend_on_threads(tmp_path, argv):
    reports = []
    for threads in ("1", "2", "1"):
        out = tmp_path / f"run{len(reports)}"
        main(argv + ["--seed", "17", "--threads", threads, "--out", str(out)])
        reports.append((out / f"{argv[0]}.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    events = json.loads(reports[0])["walker_events"]
    assert isinstance(events, int) and events > 0
