"""The shipped configs: each loads and names a subcommand, and each scan runs."""

import itertools
import json
from pathlib import Path

import pytest

from ipsd import harness
from ipsd.cli import _COMMANDS, main
from ipsd.diffusion import ENSEMBLE_BATCH
from ipsd.harness import load_config_file
from ipsd.spin import SPIN_CHUNK
from ipsd.walkers import WALKER_BATCH

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


# Tiny workloads for every config, sized so that each ensemble spans two
# chunks at least (one more replicate than a chunk); otherwise no pool starts.
EM, WALK, SPIN = ENSEMBLE_BATCH + 1, WALKER_BATCH + 1, SPIN_CHUNK + 1
_COEXIST = [f"run.reps_het={EM}", f"run.reps_surv={WALK}", "run.t_het=0.02", "run.t_surv=0.05",
            "run.cap=40", "lattice.L=4", "model.dt=0.01"]
_EXTINCT = [f"run.reps_fwd={EM}", f"run.reps_dual={WALK}", "run.grid=0.01,0.02", "lattice.L=4",
            "model.dt=0.01"]
_PARITY = [f"run.reps={SPIN}", "run.T=0.3"]
_MEANFIELD = ["run.T=0.5", "run.dt=0.05"]
THREAD_OVERRIDES = {
    "coexist-probe": _COEXIST,
    "coexist-scan": _COEXIST,
    "diffusion-run": [f"run.reps={EM}", "run.T=0.02", "run.grid=0.01,0.02", "lattice.L=4",
                      "model.dt=0.01"],
    "dual-run": [f"run.reps={SPIN}", "run.T=0.5", "run.grid=0.25,0.5"],
    "exact-check": ["run.kernels=complete:3", "run.alphas=0.3", "run.tgrid=0.1"],
    "extinct-probe": _EXTINCT,
    "extinct-scan": _EXTINCT,
    "meanfield": _MEANFIELD + ["run.reps=3", "run.compare_n=10", "run.compare_t=0.5"],
    "meanfield-scan": _MEANFIELD,
    "moment-check": [f"run.reps={EM}", "run.grid=0.01,0.02", "lattice.L=4", "model.dt=0.01"],
    "parity-check": _PARITY,
    "parity-scan": _PARITY,
    "spin-run": [f"run.reps={SPIN}", "run.T=0.3", "run.grid=0,0.3", "kernel.L=3"],
    "sweep": _MEANFIELD,
    "walker-run": [f"run.reps={WALK}", "run.T=0.3", "run.grid=0.1,0.3", "run.cap=40"],
}
# configs whose commands run no replicate ensemble: exact-check draws nothing,
# and meanfield's comparator keeps its one pinned stream
NO_ENSEMBLE = {"exact-check", "meanfield", "meanfield-scan", "sweep"}


def test_thread_overrides_cover_every_config():
    assert sorted(THREAD_OVERRIDES) == sorted(p.stem for p in CONFIGS.glob("*.ini"))


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(THREAD_OVERRIDES))
def test_config_output_is_byte_identical_at_one_and_two_threads(tmp_path, monkeypatch, name):
    calls = []
    pooled = harness.parallel_map

    def spy(fn, items, threads):
        items = list(items)
        calls.append((len(items), threads))
        return pooled(fn, items, threads)

    monkeypatch.setattr(harness, "parallel_map", spy)
    path = CONFIGS / f"{name}.ini"
    command = "sweep" if "sweep" in load_config_file(path) else name
    sets = [arg for item in THREAD_OVERRIDES[name] for arg in ("--set", item)]
    trees = []
    for threads in ("1", "2"):
        calls.clear()
        out = tmp_path / threads
        main([command, "--config", str(path), "--seed", "101", "--threads", threads,
              "--out", str(out)] + sets)
        trees.append(_tree(out))
    assert trees[0] == trees[1] and trees[0]
    # at --threads 2 every ensemble got the flag and spans two chunks or more
    assert bool(calls) == (name not in NO_ENSEMBLE)
    assert all(threads == 2 and chunks >= 2 for chunks, threads in calls)
