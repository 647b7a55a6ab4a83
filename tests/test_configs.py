"""The shipped configs: each loads and names a subcommand, and each scan runs."""

import itertools
import json
from pathlib import Path

import pytest

from ipsd.cli import _COMMANDS, main
from ipsd.harness import load_config_file

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# tiny workloads for each scan; the swept value lists stay as shipped
SCAN_OVERRIDES = {
    "coexist-scan": ["run.t_het=0.05", "run.t_surv=0.5", "run.reps_het=4", "run.reps_surv=2",
                     "run.cap=50", "lattice.L=4", "model.dt=0.01"],
    "extinct-scan": ["run.grid=0.1,0.2", "run.reps_fwd=4", "run.reps_dual=4", "lattice.L=4",
                     "model.dt=0.01"],
    "meanfield-scan": ["run.T=0.5", "run.dt=0.05"],
    "parity-scan": ["run.reps=4", "run.T=0.5"],
}


def test_every_config_loads_and_names_a_subcommand():
    paths = sorted(CONFIGS.glob("*.ini"))
    assert paths
    for path in paths:
        options = load_config_file(path)
        target = options["sweep"]["over"] if "sweep" in options else path.stem
        assert target in _COMMANDS, path.name


def test_scan_configs_are_exactly_the_listed_ones():
    assert sorted(p.stem for p in CONFIGS.glob("*-scan.ini")) == sorted(SCAN_OVERRIDES)


@pytest.mark.parametrize("name", sorted(SCAN_OVERRIDES))
def test_scan_runs_one_sub_report_per_product_point(tmp_path, name):
    path = CONFIGS / f"{name}.ini"
    sets = [arg for item in SCAN_OVERRIDES[name] for arg in ("--set", item)]
    main(["sweep", "--config", str(path), "--seed", "1", "--reps", "4",
          "--out", str(tmp_path)] + sets)
    sweep = load_config_file(path)["sweep"]
    names = [tok.strip() for tok in sweep["vary"].split(",")]
    lists = [[tok.strip() for tok in chunk.split(",") if tok.strip()]
             for chunk in sweep["values"].split(";")]
    points = list(itertools.product(*lists))
    report = json.loads((tmp_path / "sweep.json").read_text())
    assert [entry["value"] for entry in report["reports"]] == [";".join(pt) for pt in points]
    for point in points:
        subdir = ",".join(f"{n.replace('.', '_')}={v}" for n, v in zip(names, point))
        sub = json.loads((tmp_path / subdir / f"{sweep['over']}.json").read_text())
        for n, v in zip(names, point):
            section, key = n.split(".")
            assert sub["config"]["options"][section][key] == v
