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

import pytest

from ipsd.dualspin import replay_dual, replay_dual_batch
from ipsd.lattice import Torus
from ipsd.meanfield import integrate_ode
from ipsd.momdual import generator_duality_battery
from ipsd.spin import EventTable, replay_forward, replay_forward_batch

_TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _resolves(module_name: str, attr: str) -> bool:
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(module, cls_name, object))
    return callable(getattr(module, attr, None))


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
