"""End-to-end command-line runs on small workloads."""

import hashlib
import json

import pytest

from ipsd import cli, harness, momdual
from ipsd.cli import _merge_config, build_parser, main
from ipsd.diffusion import ensemble_observable
from ipsd.spin import SPIN_CHUNK, EventTable


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


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
     {"dual-run.json": "09c5dd8c23d4ef465b1beacbeaae7958b8a97e8fd1133065130dcbe52f00dfc4",
      "dual_sizes.csv": "9c35ed321adef8a470e6652b644d16d2f0d88b54c6422332e83178c10a127711",
      "dual_survival.csv": "b3dedc28a210fc3eb555864e01cb17378ade559142bad5671159d3d2916a1ff9"}),
    (["parity-check", "--set", "kernel.d=2", "--set", "kernel.L=3", "--set", "params.alpha=0.3",
      "--set", "run.A=0,4", "--set", "run.B=1,5,8", "--set", "run.T=2"],
     {"parity-check.json": "0104a61195970e2bbc2645e98500bf3632cc4db1f8fc9fba66f5ef2955cd0491",
      "parity_mc.csv": "fdc8f07786fc0bf30ddee6faa4870663cc2d7bea9cc05da56e7a8ae36bdb9a20",
      "parity_pathwise.csv": "cf95582988ff557020489376f9bd9057291861d53fc13893427fe07cd6194a22"}),
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
    ("alpha01", "0.2,0.4", r"sweep.vary entry 'alpha01' is not of the form section.key"),
    ("params.alpha01", " , ", r"sweep.values has an empty value list"),
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
    with pytest.raises(ValueError, match=f"bad run.kernels token '{token}'"):
        main(["exact-check", "--seed", "1", "--out", str(tmp_path),
              "--set", f"run.kernels=complete:3,{token}"])


def test_exact_check_builds_one_event_table_per_alpha_and_kernel(tmp_path, monkeypatch):
    builds = []
    build = EventTable.build.__func__

    def counting(cls, p, k):
        builds.append((p.alpha, k.n))
        return build(cls, p, k)

    monkeypatch.setattr(EventTable, "build", classmethod(counting))
    main(["exact-check", "--seed", "1", "--out", str(tmp_path)] + EXACT_SMALL)
    assert builds == [(0.3, 4), (0.7, 4), (0.3, 3), (0.7, 3)]


def test_params_alpha_with_an_asymmetric_key_is_refused(tmp_path):
    for key in ("alpha01", "alpha10", "lam"):
        with pytest.raises(ValueError, match=f"params.alpha and params.{key} are both set"):
            main(["meanfield", "--seed", "1", "--out", str(tmp_path), "--set", "params.alpha=0.3",
                  "--set", f"params.{key}=0.6"])


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
    with pytest.raises(ValueError, match=f"run.xi0 token '{token}'"):
        main(argv + ["--seed", "1", "--reps", "5", "--out", str(tmp_path),
                     "--set", f"run.xi0=1,{token}"])


@pytest.mark.parametrize("argv", XI0_COMMANDS, ids=[a[0] for a in XI0_COMMANDS])
@pytest.mark.parametrize("site", ["-1", "4", "9"])
def test_xi0_off_the_torus_is_refused_by_key_before_any_draw(tmp_path, monkeypatch, argv, site):
    _forbid_building_and_drawing(monkeypatch)
    message = rf"run.xi0 token '{site}:2' names a site outside \[0, 4\)"
    with pytest.raises(ValueError, match=message):
        main(argv + ["--seed", "1", "--reps", "5", "--out", str(tmp_path), "--set", "lattice.L=4",
                     "--set", f"run.xi0=0,{site}:2"])
    assert not any(tmp_path.iterdir())


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
