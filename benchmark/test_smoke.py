"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest benchmark/test_smoke.py -q

Every step runs once on its workload config shrunk by TINY, and its check
must pass; then each deliberately wrong output in CORRUPT must make that
check fail.  A traced round must report every per-layer metric with counts
that repeat exactly at a fixed seed, and the benchmark must refuse to run
in a directory without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
import workloads
from tracing import PER_LAYER, Tracer, layer_metrics

SEED = 12345

TINY = {
    "spin-torus": {
        "spin-run": {"run.reps": "8", "run.t": "1", "run.grid": "0,0.5,1", "kernel.l": "4"},
        "dual-run": {"run.reps": "16", "run.t": "1", "run.grid": "0.5,1"},
        "parity-check": {"run.reps": "16", "run.t": "1"},
        "exact-check": {"run.kernels": "torus:1:3,complete:3", "run.alphas": "0,0.7",
                        "run.tgrid": "0.1,1"},
    },
    "complete-graph": {
        "meanfield": {"run.reps": "5", "run.t": "0.2", "run.compare_n": "40",
                      "run.compare_t": "0.3"},
        "dual-run": {"kernel.n": "8", "run.reps": "16", "run.t": "0.5", "run.grid": "0.25,0.5"},
        "sweep": {"sweep.values": "0.2,0.8", "run.dt": "0.5"},
    },
    "lattice-moments": {
        "diffusion-run": {"run.reps": "32", "run.t": "0.1", "run.grid": "0.05,0.1",
                          "lattice.l": "4"},
        "walker-run": {"run.reps": "16", "run.t": "2", "run.grid": "1,2"},
        "moment-check": {"run.reps": "64", "run.grid": "0.1", "lattice.l": "4"},
        "extinct-probe": {"run.reps_fwd": "64", "run.reps_dual": "64", "lattice.l": "4"},
        "coexist-probe": {"run.t_het": "0.5", "run.t_surv": "1", "run.reps_het": "16",
                          "run.reps_surv": "4", "lattice.l": "4"},
    },
}


def _edit_json(name, change):
    def corrupt(out: Path):
        doc = json.loads((out / name).read_text())
        change(doc)
        (out / name).write_text(json.dumps(doc))
    return corrupt


def _edit_csv(name, column, change, rows=lambda table: [0]):
    """Apply ``change`` to ``column`` in the rows that ``rows(table)`` selects."""
    def corrupt(out: Path):
        table = checks.read_table(out / name)
        lines = (out / name).read_text().splitlines()
        j = lines[0].split(",").index(column)
        for i in rows(table):
            cells = lines[i + 1].split(",")
            cells[j] = repr(change(float(cells[j])))
            lines[i + 1] = ",".join(cells)
        (out / name).write_text("\n".join(lines) + "\n")
    return corrupt


def _terminal_rows(table):
    return [i for i, t in enumerate(table["time"]) if t == table["time"].max()]


def _increase(doc):
    doc["rows"][-1]["dual_bound"]["mean"] = 2.0 * doc["rows"][0]["dual_bound"]["mean"]


def _revive(out: Path):
    """Replicate 0 empty at the first grid time and alive (size 2) at the second."""
    _edit_csv("dual_sizes.csv", "size", lambda v: 0.0)(out)
    _edit_csv("dual_sizes.csv", "size", lambda v: 2.0, rows=lambda t: [1])(out)


DUAL_RUN = [("odd dual size", _edit_csv("dual_sizes.csv", "size", lambda v: v + 1)),
            ("dual leaves the empty set", _revive)]

CORRUPT = {
    "spin-run": [("terminal density 1", _edit_csv("spin_density.csv", "density", lambda v: 1.0,
                                                  rows=_terminal_rows))],
    "dual-run": DUAL_RUN,
    "parity-check": [("z of 5", _edit_json("parity-check.json", lambda d: d.update(z=5.0))),
                     ("pathwise violation", _edit_csv("parity_pathwise.csv", "parity_dual",
                                                      lambda v: 1.0 - v))],
    "exact-check": [("FK residual 1e-6", _edit_json("exact-check.json",
                                                    lambda d: d.update(max_fk_residual=1e-6))),
                    ("generator gap 1e-9", _edit_json(
                        "exact-check.json", lambda d: d["battery"][0].update(generator_gap=1e-9)))],
    "meanfield": [("median sup-distance 1", _edit_json(
                      "meanfield.json", lambda d: d.update(comparator_median_sup=1.0))),
                  ("equilibrium 0.4", _edit_json("meanfield.json", lambda d: d.update(equilibrium=0.4)))],
    "sweep": [("terminal off by 1e-5", _edit_json(
        "sweep.json", lambda d: d["reports"][0]["report"].update(
            terminal=d["reports"][0]["report"]["terminal"] + 1e-5)))],
    "diffusion-run": [("mean_p 0.9", _edit_csv("diffusion_summary.csv", "mean_p", lambda v: 0.9))],
    "walker-run": [("odd total", _edit_csv("walker_sizes.csv", "total", lambda v: v + 1))],
    "moment-check": [("generator gap 1e-8", _edit_json(
                         "moment-check.json", lambda d: d.update(generator_gap=1e-8))),
                     ("forward moment off by 1", _edit_json(
                         "moment-check.json", lambda d: d["rows"][0]["forward"].update(
                             mean=d["rows"][0]["forward"]["mean"] + 1.0)))],
    "extinct-probe": [("dual bound increases", _edit_json("extinct-probe.json", _increase))],
    "coexist-probe": [("survival bound 0", _edit_json(
                          "coexist-probe.json", lambda d: d.update(survival_lcb99=0.0))),
                      ("second moment above its bound", _edit_json(
                          "coexist-probe.json", lambda d: d["sigma_sq"].update(
                              mean=d["sigma_sq_bound"] + 0.1)))],
}

STEPS = [(w, s) for w, steps in workloads.WORKLOADS.items() for s in steps]


@pytest.fixture(scope="module")
def cli():
    return bench.load_program(bench.ROOT)


@pytest.mark.parametrize("workload,step", STEPS, ids=[f"{w}/{s.name}" for w, s in STEPS])
def test_step_checks(cli, tmp_path, workload, step):
    tiny = TINY[workload][step.name]
    config = workloads.config_path(workload, step)
    options = workloads.load_options(config, tiny)
    oracle = step.oracle(options) if step.oracle else None
    out = tmp_path / step.name
    status, detail = bench.run_step(cli, step, config, options, oracle, SEED, out, tiny)
    assert status == "ok", detail
    for label, corrupt in CORRUPT[step.name]:
        bad = tmp_path / label.replace(" ", "_")
        shutil.copytree(out, bad)
        corrupt(bad)
        with pytest.raises(checks.CheckFailed):
            step.check(bad, options, oracle)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_round_counts_repeat(cli, tmp_path, workload):
    steps = workloads.WORKLOADS[workload]
    options = [workloads.load_options(workloads.config_path(workload, s), TINY[workload][s.name])
               for s in steps]
    oracles = [s.oracle(o) if s.oracle else None for s, o in zip(steps, options)]
    tracer = Tracer()
    tracer.install()
    try:
        rounds = []
        for _ in range(2):
            first = len(tracer.spans)
            rnd = bench.run_round(cli, workload, SEED, tmp_path, options, oracles, TINY[workload])
            assert all(r["status"] == "ok" for r in rnd["steps"]), rnd["steps"]
            rounds.append(layer_metrics(tracer.spans, first))
    finally:
        tracer.uninstall()
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    a, b = rounds
    assert set(a) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        if unit == "count":
            assert a[name] == b[name], name
    working = {"spin-torus": ("spin.flips", "dualspin.replay_ns_per_event", "exact.generators"),
               "complete-graph": ("kernel.edges", "meanfield.rk4_steps", "spin.table_rows"),
               "lattice-moments": ("diffusion.site_steps", "walkers.events", "momdual.battery_pairs")}
    idle = {"spin-torus": ("walkers.runs", "diffusion.site_steps", "meanfield.rk4_steps"),
            "complete-graph": ("walkers.runs", "diffusion.site_steps", "exact.generators"),
            "lattice-moments": ("spin.flips", "spin.table_builds", "exact.generators")}
    assert all(a[name] > 0 for name in working[workload]), a
    assert all(a[name] == 0 for name in idle[workload]), a


def test_setup_is_timed_in_a_fresh_interpreter():
    steps = workloads.WORKLOADS["spin-torus"]
    sample = bench.setup_sample(bench.ROOT, [workloads.config_path("spin-torus", s) for s in steps])
    assert sample["raw_s"] > 0 and sample["seconds"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "spin-torus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
