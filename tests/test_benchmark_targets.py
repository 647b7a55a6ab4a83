"""The span tracer of benchmark/tracing.py must still find every function it binds.

``benchmark/run.py --trace 1`` rebinds the functions listed in
``tracing.TARGETS`` by name, so a rename or deletion in ``src/ipsd`` would
otherwise show up only when a traced run fails.  Some of its counters read
arguments by position, so those positions are pinned too: a shifted one
would corrupt a count such as ``meanfield.rk4_steps`` instead of failing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from ipsd import dualspin
from ipsd.dualspin import replay_dual, replay_dual_batch
from ipsd.kernel import torus_kernel
from ipsd.lattice import Torus
from ipsd.meanfield import integrate_ode
from ipsd.momdual import generator_duality_battery
from ipsd.rng import derive_stream
from ipsd.spin import (EventTable, NPParams, replay_forward, replay_forward_batch,
                       simulate_gillespie)

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, attr, None))


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracing_target_resolves():
    tracing = _tracing()
    assert len(tracing.TARGETS) > 30
    missing = [f"{mod}.{attr}" for _, mod, attr, _ in tracing.TARGETS if not _resolves(mod, attr)]
    assert missing == []


# (function, {parameter: position the tracer reads}); a method counts its self or cls
POSITIONS = [
    (integrate_ode, {"horizon": 2, "dt": 3, "self_check": 4}),
    (replay_forward, {"log": 1, "t": 2}),
    (replay_forward_batch, {"log": 1, "t": 2}),
    (replay_dual, {"log": 1, "t": 2}),
    (replay_dual_batch, {"log": 1, "t": 2}),
    (generator_duality_battery, {"n_pairs": 2}),
    (EventTable.build.__func__, {"p": 1, "k": 2}),
    (Torus.move_table, {"stencil": 1}),
]


@pytest.mark.parametrize("fn, positions", POSITIONS, ids=[fn.__qualname__ for fn, _ in POSITIONS])
def test_parameters_the_tracer_reads_by_position_stay_in_place(fn, positions):
    names = list(inspect.signature(fn).parameters)
    assert {name: names.index(name) for name in positions if name in names} == positions


def test_the_flip_count_the_tracer_reads_sums_every_row():
    # spin.flips and spin.us_per_flip divide by this count; one engine call runs many rows
    count = next(fn for _, _, attr, fn in _tracing().TARGETS if attr == "simulate_gillespie")
    k = torus_kernel(2, 3)
    rng = derive_stream(3, "tracer-flips")
    eta0 = (rng.random((5, k.n)) < 0.5).astype(np.uint8)
    traj = simulate_gillespie(NPParams.symmetric(0.3), k, eta0, 2.0, rng)
    per_row = [len(traj.density_path(r)[0]) - 1 for r in range(5)]
    assert min(per_row) > 0
    assert count((), {}, traj) == {"flips": sum(per_row)}


def test_the_fresh_dual_unit_cost_is_measured():
    # dualspin.fresh_us_per_event counts only the log that simulate_dual_fresh samples itself
    importlib.import_module("ipsd.cli")  # the tracer rebinds names in every loaded module
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        xi, _ = dualspin.simulate_dual_fresh(NPParams.symmetric(0.3), torus_kernel(1, 6), [0, 3],
                                             [1.0, 4.0], 3, derive_stream(5, "tracer-fresh"))
    finally:
        tracer.uninstall()
    assert xi.shape == (3, 2, 6)
    names = [span[1] for span in tracer.spans]
    assert names.count("simulate_dual_fresh") == 1 and names.count("sample_event_log") == 1
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["dualspin.fresh_us_per_event"] > 0
