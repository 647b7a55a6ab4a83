"""Run configuration, deterministic parallelism, and result serialization.

Conventions enforced here:

* A master seed is mandatory.  Resolution order: ``--seed`` flag, then the
  ``seed`` key of the config file, then the ``IPSD_SEED`` environment
  variable; there is no wall-clock fallback.
* Every Monte Carlo ensemble runs through :func:`replicate_map`: its
  replicates are split into fixed chunks of a size set by the engine, chunk
  c draws from ``derive_stream(seed, role, c)`` and from no other stream,
  and the per-chunk results are concatenated in chunk order.  Results are
  therefore a pure function of (config, seed) and independent of worker
  count.
* CSV floats carry 17 significant digits; JSON reports embed the config
  echo and the package version, and never embed wall-clock times or the
  worker count.

Config files are flat INI text: ``key = value`` lines under ``[section]``
headers.  CLI flags override file values.
"""

from __future__ import annotations

import configparser
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .rng import derive_stream
from .stats import MCEstimate

__all__ = [
    "SEED_ENV_VAR",
    "RunConfig",
    "load_config_file",
    "resolve_seed",
    "parallel_map",
    "replicate_map",
    "format_float",
    "write_csv",
    "write_json",
]

SEED_ENV_VAR = "IPSD_SEED"
_MAX_SEED = 2**64 - 1


@dataclass
class RunConfig:
    """Merged run configuration for one CLI invocation.

    ``options`` carries the section key/values (strings) that individual
    subcommands interpret; the common fields are typed here.
    """

    subcommand: str
    seed: int
    reps: int = 1000
    out: Path | None = None
    threads: int = 1
    options: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.seed <= _MAX_SEED):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.reps < 1:
            raise ValueError("reps must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def opt(self, section: str, key: str, default=None, cast=str):
        sec = self.options.get(section, {})
        if key not in sec:
            if default is None:
                raise KeyError(f"missing config key [{section}] {key}")
            return default
        raw = sec[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)

    def echo(self) -> dict:
        """Config echo for reports: everything that determines the output."""
        return {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "reps": self.reps,
            "options": {k: dict(v) for k, v in sorted(self.options.items())},
        }


def load_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a flat INI config file into {section: {key: value}}."""
    parser = configparser.ConfigParser()
    text = Path(path).read_text()
    parser.read_string(text)
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        out[section] = {k: v for k, v in parser.items(section)}
    return out


def resolve_seed(flag_value: int | None, file_value: str | None) -> int:
    """Seed resolution: flag > config file > IPSD_SEED env var; else error."""
    if flag_value is not None:
        return int(flag_value)
    if file_value is not None:
        return int(file_value)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    raise ValueError(
        f"no master seed: pass --seed, set a [run] seed key, or export {SEED_ENV_VAR}"
    )


def parallel_map(fn, items, threads: int):
    """Map ``fn`` over ``items`` deterministically, optionally over processes.

    Results come back in item order regardless of scheduling.  ``fn`` must
    be picklable (module level) when threads > 1.  At most one worker per
    item is started, since ``fork`` starts them all at the first submit.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def _run_chunk(task):
    work, seed, role, index, size = task
    return work(size, derive_stream(seed, role, index))


def replicate_map(work, reps: int, seed: int, role: str, chunk: int, threads: int = 1):
    """Run ``reps`` replicates of ``work`` in fixed chunks, one stream per chunk.

    ``work(size, rng)`` simulates ``size`` replicates in turn from ``rng``
    and returns an array, or a tuple of arrays, whose first axis is the
    replicate axis.  Chunk c holds replicates [c*chunk, (c+1)*chunk) and
    draws from ``derive_stream(seed, role, c)`` alone; chunks run through
    :func:`parallel_map` and their results are concatenated on the
    replicate axis in chunk order, so the output is the same for any
    ``threads``.  ``work`` must be picklable when threads > 1.
    """
    if reps < 1 or chunk < 1:
        raise ValueError("reps and chunk size must be positive")
    tasks = [(work, seed, role, c, min(chunk, reps - lo))
             for c, lo in enumerate(range(0, reps, chunk))]
    parts = parallel_map(_run_chunk, tasks, threads)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(col) for col in zip(*parts))
    return np.concatenate(parts)


def format_float(x) -> str:
    """Floats at 17 significant digits (round-trip exact for float64)."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, MCEstimate):
        return obj.as_dict()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def write_json(path: str | Path, payload: dict, config: RunConfig | None = None) -> Path:
    """Write a JSON report with the config echo and package version embedded."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"version": __version__}
    if config is not None:
        doc["config"] = config.echo()
    doc.update(_jsonable(payload))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
