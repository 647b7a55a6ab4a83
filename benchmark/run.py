"""Duality benchmark for ipsd: forward, dual and check steps of three workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the program is imported from its
``src/``).  One run repeats whole rounds of the workload's steps in this process for
about S seconds, timing set-up in a fresh interpreter after each round;
a round is every step once, and a step is one ipsd subcommand with
``--threads 1`` plus the check of its outputs.  All rounds of a run use
the same seed, so they do the same work, and the run reports medians over
rounds.

Times are reported in reference seconds.  The machine this was built on
changes speed by +-20% over tens of seconds (a fixed loop shows it in CPU
time as much as in wall time), which no choice of run length within budget
averages away.  So a short fixed probe of interpreter and numpy work runs
before and after every timed step, and each step's seconds are scaled by
REF_PROBE_S over the mean of its two probe times: the step's time at the
speed where the probe takes REF_PROBE_S.  Raw seconds and probe times stay
in the run report.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (seconds, MiB).
With ``--trace 1`` spans are recorded around ipsd's public functions and
the metrics are the per-layer ones (see tracing.py).  Outputs, a run report
with the machine descriptor, and the span file go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import workloads
from tracing import PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5            # at least; one is taken after every round
REF_PROBE_S = 0.04           # median probe time on the reference machine (see README)
_PROBE_SMALL = np.linspace(0.0, 1.0, 512)
_PROBE_LARGE = np.linspace(0.0, 1.0, 1_000_000)   # 8 MB, four times the per-core L2

END_TO_END = {"wall_s": "s", "setup_s": "s", "forward_s": "s", "dual_s": "s", "check_s": "s",
              "peak_rss_mib": "MiB"}

# Runs in a fresh interpreter: argv[1] is src/, the rest are the workload's configs.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ipsd.cli
from ipsd.harness import load_config_file
for path in sys.argv[2:]:
    load_config_file(path)
print(time.perf_counter() - t0)
"""


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the steps do.

    Interpreter loops (Gillespie and walker loops), small-array numpy calls
    (rate refreshes, RK4 on scalars) and streaming over an array past the
    L2 cache (event tables, ensembles); each takes about a third.
    """
    start = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(2000):
        np.cumsum(_PROBE_SMALL)
        _PROBE_SMALL.sum()
    for _ in range(6):
        _PROBE_LARGE.sum()
        np.cumsum(_PROBE_LARGE[:200_000])
    return perf_counter() - start


def load_program(root: Path):
    """Import ipsd.cli from root/src, and from nowhere else."""
    package = root / "src" / "ipsd"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ipsd package at {package}")
    sys.path.insert(0, str(root / "src"))
    import ipsd.cli
    if Path(ipsd.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported ipsd from {ipsd.cli.__file__}, not {package}")
    return ipsd.cli


def machine(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "git_rev": git_rev(root)}


def git_rev(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_sample(root: Path, configs: list[Path]) -> dict:
    """Import of ipsd plus loading the configs with ipsd's loader, in a fresh interpreter."""
    before = probe()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(root / "src"), *map(str, configs)],
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)
    after = probe()
    raw = float(proc.stdout.split()[-1])
    return {"raw_s": raw, "probe_s": [before, after],
            "seconds": raw * REF_PROBE_S / (0.5 * (before + after))}


def run_step(cli, step, config: Path, options: dict, oracle, seed: int, out: Path,
             overrides: dict[str, str]) -> tuple[str, object]:
    """One operation: the subcommand, then the check of what it wrote.

    Returns ("ok", check details), ("failed", traceback) when the program
    raised, or ("wrong", reason) when an output broke its check.
    """
    argv = [step.name, "--config", str(config), "--seed", str(seed), "--threads", "1",
            "--out", str(out)]
    for lhs, value in overrides.items():
        argv += ["--set", f"{lhs}={value}"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except (Exception, SystemExit):   # the program failed; the run goes on and counts it
        return "failed", traceback.format_exc(limit=4)
    try:
        return "ok", step.check(out, options, oracle)
    except (checks.CheckFailed, OSError, LookupError, ValueError, TypeError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}"


def run_round(cli, workload: str, seed: int, out_root: Path, options: list[dict], oracles: list,
              overrides: dict[str, dict[str, str]] | None = None) -> dict:
    """Every step of the workload once, with a speed probe before and after each.

    A step's "seconds" are its raw seconds (subcommand plus check) at the
    reference probe speed; wall_s is their sum, so it runs from the first
    subcommand call to the last checked output without the probes.
    """
    steps = workloads.WORKLOADS[workload]
    for step in steps:
        shutil.rmtree(out_root / step.name, ignore_errors=True)
    records = []
    before = probe()
    for step, opts, oracle in zip(steps, options, oracles):
        start = perf_counter()
        status, detail = run_step(cli, step, workloads.config_path(workload, step), opts, oracle,
                                  seed, out_root / step.name, (overrides or {}).get(step.name, {}))
        raw = perf_counter() - start
        after = probe()
        records.append({"step": step.name, "kind": step.kind, "raw_s": raw, "probe_s": [before, after],
                        "seconds": raw * REF_PROBE_S / (0.5 * (before + after)),
                        "status": status, "detail": detail})
        before = after
    out = {"wall_s": sum(r["seconds"] for r in records), "raw_wall_s": sum(r["raw_s"] for r in records)}
    for kind in workloads.KINDS:
        out[f"{kind}_s"] = sum(r["seconds"] for r in records if r["kind"] == kind)
    out["steps"] = records
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (printed result, run report)."""
    cli = load_program(ROOT)
    steps = workloads.WORKLOADS[workload]
    configs = [workloads.config_path(workload, s) for s in steps]
    options = [workloads.load_options(p) for p in configs]
    oracles = [s.oracle(o) if s.oracle else None for s, o in zip(steps, options)]

    tracer = Tracer() if trace else None
    rounds, layers, setup = [], [], []
    if tracer:
        tracer.install()
    try:
        begin = perf_counter()
        while True:
            first_span = len(tracer.spans) if tracer else 0
            rounds.append(run_round(cli, workload, seed, OUT / workload, options, oracles))
            if tracer:
                layers.append(layer_metrics(tracer.spans, first_span))
            else:   # set-up samples spread over the run, one per round
                setup.append(setup_sample(ROOT, configs))
            if perf_counter() - begin + rounds[-1]["raw_wall_s"] > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(ROOT, configs))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses = [r["status"] for rnd in rounds for r in rnd["steps"]]
    if trace:
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        tracer.write(OUT / f"trace-{workload}.csv")
    else:
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in ("wall_s", "forward_s", "dual_s", "check_s")}
        values.update(setup_s=statistics.median(x["seconds"] for x in setup),
                      peak_rss_mib=peak_rss_mib)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": "wrong" not in statuses, "attempted": len(statuses),
              "failed": sum(s != "ok" for s in statuses), "metrics": metrics}
    report = {"machine": machine(ROOT), "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "setup_samples": setup, "peak_rss_mib": peak_rss_mib,
              "rounds": rounds, "layer_rounds": layers, "result": result}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    m = report["machine"]
    print(f"{args.workload} seed={args.seed}: {len(report['rounds'])} rounds; "
          f"nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} numpy={m['numpy']} "
          f"rev={m['git_rev'][:12]}; report {path.relative_to(ROOT)}", file=sys.stderr)
    for rnd in report["rounds"]:
        for rec in rnd["steps"]:
            if rec["status"] != "ok":
                print(f"{rec['step']}: {rec['status']}: {rec['detail']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
