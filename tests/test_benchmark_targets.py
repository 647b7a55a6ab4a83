"""The span tracer of benchmark/tracing.py must still find every function it binds.

``benchmark/run.py --trace 1`` rebinds the functions listed in
``tracing.TARGETS`` by name, so a rename or deletion in ``src/ipsd`` would
otherwise show up only when a traced run fails.
"""

import importlib
import importlib.util
from pathlib import Path

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
