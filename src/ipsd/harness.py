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
* CSV tables are written by the column, floats at 17 significant digits;
  JSON reports embed the config echo and the package version, and never
  embed wall-clock times or the worker count.
* A time is valid where :func:`check_horizon` or :func:`check_grid` says
  so: every engine and the CLI run their horizons and time grids through
  them, so all refuse the same values in the same words.

Config files are flat INI text: ``key = value`` lines under ``[section]``
headers.  CLI flags override file values.
"""

from __future__ import annotations

import configparser
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .rng import derive_stream
from .stats import MCEstimate

__all__ = ["SEED_ENV_VAR", "check_horizon", "check_grid", "RunConfig", "read_option", "read_list",
           "load_config_file", "resolve_seed", "parallel_map", "replicate_map", "format_float",
           "write_csv", "write_json"]

SEED_ENV_VAR = "IPSD_SEED"
_MAX_SEED = 2**64 - 1


# Both checks run once per replicate in some engines, so they stay pure
# Python: no numpy call.

def check_horizon(value, name: str) -> float:
    """``value`` as a float, refused by ``name`` unless it is finite and nonnegative."""
    value = float(value)
    if not 0.0 <= value < math.inf:  # a NaN fails too
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return value


def check_grid(values, name: str, horizon: float | None = None,
               horizon_name: str = "horizon") -> list[float]:
    """The times ``values`` as a sorted list of floats, refused by ``name`` unless valid.

    A valid grid is nonempty, its entries are finite and nonnegative, and
    with a ``horizon`` none lies past it: a run would otherwise go on to
    the last grid time and leave the horizon unused.
    """
    grid = [float(v) for v in values]
    if not grid:
        raise ValueError(f"{name} is empty")
    for value in grid:  # before sorting: a NaN may sort anywhere
        if not -math.inf < value < math.inf:
            raise ValueError(f"{name} has a non-finite entry {value}")
    grid.sort()
    if grid[0] < 0.0:
        raise ValueError(f"{name} has a negative entry {grid[0]}")
    if horizon is not None and grid[-1] > horizon:
        raise ValueError(f"{name} entry {grid[-1]} is past {horizon_name} = {horizon}")
    return grid


@dataclass
class RunConfig:
    """Merged run configuration for one CLI invocation.

    ``options`` carries the section key/values (strings) that individual
    subcommands interpret; the common fields are typed here.
    """

    subcommand: str
    seed: int
    out: Path
    reps: int = 1000
    threads: int = 1
    options: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 <= self.seed <= _MAX_SEED):
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.reps < 2:
            raise ValueError(f"reps must be at least 2, got {self.reps}: every report "
                             f"estimates a standard error")
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def opt(self, section: str, key: str, default=None, cast=str):
        """:func:`read_option` of this configuration's options."""
        return read_option(self.options, section, key, default, cast)

    def opt_list(self, section: str, key: str, default=None, cast=str, sep: str = ","):
        """:func:`read_list` of this configuration's options."""
        return read_list(self.options, section, key, default, cast, sep)

    def echo(self) -> dict:
        """Config echo for reports: everything that determines the output."""
        return {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "reps": self.reps,
            "options": {k: dict(v) for k, v in sorted(self.options.items())},
        }


def read_option(options: dict[str, dict[str, str]], section: str, key: str, default=None,
                cast=str):
    """``cast`` of [section] key, or ``default`` when the key is absent.

    An absent key without a default is a KeyError; a value ``cast`` cannot
    convert is refused by key.
    """
    sec = options.get(section, {})
    if key not in sec:
        if default is None:
            raise KeyError(f"missing config key [{section}] {key}")
        return default
    return _cast(sec[key], f"{section}.{key}", cast)


def read_list(options: dict[str, dict[str, str]], section: str, key: str, default=None,
              cast=str, sep: str = ","):
    """:func:`read_option` of a list: ``cast`` of each nonblank, stripped token at ``sep``.

    A key that is present but holds no token is refused: an empty list checks nothing.
    """
    if default is not None and key not in options.get(section, {}):
        return default
    tokens = [tok.strip() for tok in read_option(options, section, key).split(sep)]
    if not any(tokens):
        raise ValueError(f"{section}.{key} is empty")
    return [_cast(tok, f"{section}.{key}", cast) for tok in tokens if tok]


def _cast(value: str, name: str, cast):
    """``cast(value)``; on a ValueError, refused by ``name`` and the form ``cast`` reads.

    The form is a type's name, else the docstring of the function (or of the one a
    partial wraps).
    """
    try:
        return cast(value)
    except ValueError:
        form = cast.__name__ if isinstance(cast, type) else getattr(cast, "func", cast).__doc__
        raise ValueError(f"{name} must be {form}, got {value!r}") from None


def load_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    """Parse a flat INI config file into {section: {key: value}}."""
    parser = configparser.ConfigParser()
    parser.read_string(Path(path).read_text(), source=str(path))
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        out[section] = {k: v for k, v in parser.items(section)}
    return out


def resolve_seed(flag_value: int | None, file_value: str | None) -> int:
    """Seed resolution: flag > config file > IPSD_SEED env var; else error."""
    if flag_value is not None:
        return int(flag_value)
    if file_value is not None:
        return _cast(file_value, "run.seed", int)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return _cast(env, SEED_ENV_VAR, int)
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
    # imported here: the pool's modules (multiprocessing, socket, logging) are most of
    # the import time of a single-process run, which never needs them
    from concurrent.futures import ProcessPoolExecutor

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
    """Floats at 17 significant digits (round-trip exact for float64); anything else by str."""
    if type(x) is str:  # a cell formatted ahead, such as a table's grid time, first
        return x
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _cells(col):
    """A column's cells as :func:`format_float` writes them, a whole array at a time."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind in "iub":
        return map(str, col.tolist())
    if kind == "f":
        return map(float.__format__, col.tolist(), itertools.repeat(".17g"))
    return map(format_float, col)


def write_csv(path: str | Path, header: list[str], columns) -> Path:
    """Write ``columns``, one per ``header`` name and all of one length, as a CSV; its path.

    Integer and bool arrays go by str, float arrays at 17 significant digits, any other
    column cell by cell by :func:`format_float`: the bytes do not depend on a column's form.
    """
    path = Path(path)
    if len(columns) != len(header):
        raise ValueError(f"{path.name}: {len(columns)} columns for {len(header)} header names")
    rows = map(",".join, zip(*map(_cells, columns), strict=True))  # unequal lengths: ValueError
    text = "\n".join([",".join(header), *rows]) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
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
