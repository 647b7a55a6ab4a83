"""The benchmark's three workloads, each a fixed list of ipsd subcommand steps.

A step is one subcommand run on its INI file under ``configs/<workload>/``
plus the check of its outputs.  Its kind says which side of a duality it
times: ``forward`` simulates the model itself, ``dual`` simulates a dual
process, and ``check`` runs both sides of a duality (or an exact oracle)
and compares them.  The configs hold no seed: the benchmark passes its
workload seed to ipsd only as ``--seed``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
KINDS = ("forward", "dual", "check")


@dataclass(frozen=True)
class Step:
    name: str
    kind: str
    check: Callable
    oracle: Callable | None = None   # computed once per run, before timing starts


WORKLOADS: dict[str, tuple[Step, ...]] = {
    # Spin engines and exact generators only: Gillespie on a 2-d torus, fresh
    # and replayed duals, event-log sampling, dense generators.  No walkers,
    # diffusion or ODE, so a change there must read unchanged here.
    "spin-torus": (
        Step("spin-run", "forward", checks.check_spin_run),
        Step("dual-run", "dual", checks.check_dual_run),
        Step("parity-check", "check", checks.check_parity_check),
        Step("exact-check", "check", checks.check_exact_check),
    ),
    # The spin layer at hundreds of neighbours per site: complete_kernel(800),
    # O(N) rate refresh per flip, EventTable rows O(n deg^2), scalar RK4.
    "complete-graph": (
        Step("meanfield", "forward", checks.check_meanfield, checks.comparator_oracle),
        Step("dual-run", "dual", checks.check_dual_run),
        Step("sweep", "check", checks.check_sweep),
    ),
    # Walker Gillespie and Euler-Maruyama ensembles; the spin layer does nothing.
    "lattice-moments": (
        Step("diffusion-run", "forward", checks.check_diffusion_run),
        Step("walker-run", "dual", checks.check_walker_run),
        Step("moment-check", "check", checks.check_moment_check),
        Step("extinct-probe", "check", checks.check_extinct_probe),
        Step("coexist-probe", "check", checks.check_coexist_probe),
    ),
}


def config_path(workload: str, step: Step) -> Path:
    return CONFIG_DIR / workload / f"{step.name}.ini"


def load_options(path: Path, overrides: dict[str, str] | None = None) -> dict[str, dict[str, str]]:
    """INI file as {section: {key: value}}, with ``section.key`` overrides applied.

    Read with the standard library, apart from ipsd's own loader, so the
    checks see the configuration as written.
    """
    parser = configparser.ConfigParser()
    parser.read_string(path.read_text())
    options = {s: dict(parser.items(s)) for s in parser.sections()}
    for lhs, value in (overrides or {}).items():
        section, key = lhs.split(".", 1)
        options.setdefault(section, {})[key.lower()] = value
    return options
