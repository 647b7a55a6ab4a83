"""Torus geometry, migration stencils, seed derivation, stats, harness."""

import concurrent.futures
import hashlib
import json
import math
import re

import numpy as np
import pytest

from ipsd.harness import (RunConfig, format_float, load_config_file, parallel_map,
                          replicate_map, resolve_seed, write_csv, write_json)
from ipsd.kernel import torus_kernel
from ipsd.lattice import MAX_TORUS_SITES, Stencil, Torus, check_torus
from ipsd.rng import derive_seed_words, derive_stream
from ipsd.stats import MCEstimate, two_sample_z, wilson_lower, wilson_upper


# -- lattice -----------------------------------------------------------------


def test_move_table_oracle_d1():
    t = Torus(1, 4)
    st = Stencil.nearest_neighbor(1, 1.0)
    table = t.move_table(st)
    # displacement order follows the stencil; site 0's neighbors are 1 and 3
    targets = sorted(table[0])
    assert targets == [1, 3]
    assert table.shape == (4, 2)


def test_move_table_wraps():
    t = Torus(2, 3)
    st = Stencil.nearest_neighbor(2, 4.0)
    table = t.move_table(st)
    # site 8 = (2,2): neighbors (1,2)=5, (0,2)=2, (2,1)=7, (2,0)=6
    assert sorted(table[8]) == [2, 5, 6, 7]


def _loop_move_table(torus, stencil):
    """Reference: the per-site coordinate loop move_table replaced (row-major indexing)."""
    L = torus.L

    def coords(idx):
        out = []
        for _ in range(torus.d):
            out.append(idx % L)
            idx //= L
        return tuple(reversed(out))

    def index(c):
        idx = 0
        for ci in c:
            idx = idx * L + ci % L
        return idx

    table = np.empty((torus.n_sites, len(stencil.displacements)), dtype=np.int64)
    for x in range(torus.n_sites):
        c = coords(x)
        for j, disp in enumerate(stencil.displacements):
            table[x, j] = index(tuple(ci + di for ci, di in zip(c, disp)))
    return table


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 5])
def test_move_table_matches_loop_and_is_shared(d, L):
    t = Torus(d, L)
    long_range = Stencil(tuple(tuple(s * (a == i) for a in range(d))
                               for i in range(d) for s in (7, -7)), (0.5,) * (2 * d))
    for st in (Stencil.nearest_neighbor(d, 1.0), long_range):
        table = t.move_table(st)
        ref = _loop_move_table(t, st)
        assert table.dtype == ref.dtype and table.shape == ref.shape
        assert np.array_equal(table, ref)
        assert Torus(d, L).move_table(st) is table   # one table per (torus, stencil)
        with pytest.raises(ValueError):
            table[0, 0] = 0


@pytest.mark.parametrize("d, L, disp",
                         [(1, 8, (8,)), (1, 8, (-16,)), (1, 2, (2,)), (2, 3, (3, -6))])
def test_a_displacement_that_wraps_to_its_own_site_is_refused(d, L, disp):
    # unchecked, Torus(1, 8) mapped site 0 to [0, 1] under displacements (8,) and (1,)
    nn = Stencil.nearest_neighbor(d, 1.0)
    stencil = Stencil(nn.displacements + (disp,), nn.weights + (0.5,))
    message = f"displacement {disp} is a multiple of L = {L} on every axis"
    with pytest.raises(ValueError, match=re.escape(message)):
        Torus(d, L).move_table(stencil)


def test_a_displacement_that_wraps_on_one_axis_only_moves():
    torus, stencil = Torus(2, 3), Stencil(((3, 1), (-1, 6)), (0.5, 0.5))
    assert np.array_equal(torus.move_table(stencil), _loop_move_table(torus, stencil))
    assert (torus.move_table(stencil) != np.arange(9)[:, None]).all()


def test_stencil_validation():
    with pytest.raises(ValueError):  # zero displacement
        Stencil(displacements=((0,),), weights=(1.0,))
    with pytest.raises(ValueError):  # duplicate displacement
        Stencil(displacements=((1,), (1,)), weights=(0.5, 0.5))
    with pytest.raises(ValueError):  # negative weight
        Stencil(displacements=((1,), (-1,)), weights=(0.5, -0.5))
    with pytest.raises(ValueError):  # mixed dimensions
        Stencil(displacements=((1,), (1, 0)), weights=(0.5, 0.5))


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_a_non_finite_migration_rate_is_refused_by_value(rate):
    # unchecked, diffusion-run at model.m=nn:nan wrote "mean_p": NaN
    with pytest.raises(ValueError, match=f"^migration weights must be finite and nonnegative, "
                                         f"got {rate}$"):
        Stencil(((1,), (-1,)), (0.5, rate))
    with pytest.raises(ValueError, match=f"^need d >= 1 and a finite nonnegative rate, got d = 1 "
                                         f"and rate {rate}$"):
        Stencil.nearest_neighbor(1, rate)


def test_an_empty_stencil_is_refused_by_value():
    # unchecked, Torus(1, 4).move_table(Stencil((), ())) failed in Stencil.dim
    # with a bare IndexError
    with pytest.raises(ValueError, match="^a stencil needs at least one displacement$"):
        Stencil((), ())


# -- seed derivation ------------------------------------------------------------


def test_derive_seed_words_recipe():
    # the derivation is SHA-256 of "{seed}:{role}:{index}" read as eight
    # little-endian 32-bit words; recompute independently
    words = derive_seed_words(0, "x", 0)
    manual = np.frombuffer(hashlib.sha256(b"0:x:0").digest(), dtype="<u4")
    assert np.array_equal(words, manual)
    # regression pin for the wire format
    assert words[0] == 4231742465 and words[-1] == 1636734362


def test_derive_stream_reproducible_and_distinct():
    a = derive_stream(5, "role", 3).integers(0, 2 ** 32, 8)
    b = derive_stream(5, "role", 3).integers(0, 2 ** 32, 8)
    c = derive_stream(5, "role", 4).integers(0, 2 ** 32, 8)
    d = derive_stream(5, "other", 3).integers(0, 2 ** 32, 8)
    e = derive_stream(6, "role", 3).integers(0, 2 ** 32, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


# -- statistics -------------------------------------------------------------------


def test_mcestimate_matches_numpy():
    rng = np.random.default_rng(41)
    x = rng.random(500)
    est = MCEstimate.from_samples(x)
    assert est.mean == pytest.approx(x.mean())
    assert est.stderr == pytest.approx(x.std(ddof=1) / np.sqrt(500))
    assert est.reps == 500
    assert est.as_dict() == {"mean": est.mean, "stderr": est.stderr, "reps": 500}


def test_mcestimate_needs_two_samples():
    with pytest.raises(ValueError):
        MCEstimate.from_samples(np.array([1.0]))


def test_mcestimate_binary_agrees():
    x = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    assert MCEstimate.from_binary(4, 6).mean == pytest.approx(x.mean())


def test_two_sample_z_oracle():
    a = MCEstimate(mean=1.0, stderr=0.1, reps=100)
    b = MCEstimate(mean=0.6, stderr=0.3, reps=100)
    # z = (1.0 - 0.6)/sqrt(0.01 + 0.09) = 0.4/sqrt(0.1)
    assert two_sample_z(a, b) == pytest.approx(0.4 / np.sqrt(0.1))
    same = MCEstimate(mean=0.5, stderr=0.0, reps=10)
    assert two_sample_z(same, same) == 0.0


def test_wilson_bounds():
    # one-sided bound: at 95% the z-quantile is 1.6449, giving ~0.5408 as the
    # lower bound for 8/10 (hand computation via the Wilson formula)
    assert wilson_lower(8, 10, 0.95) == pytest.approx(0.540792805687488, abs=1e-12)
    assert wilson_upper(8, 10, 0.95) == pytest.approx(0.931442012262468, abs=1e-12)
    for s, n in [(0, 10), (5, 10), (10, 10)]:
        lo, hi = wilson_lower(s, n, 0.99), wilson_upper(s, n, 0.99)
        assert 0.0 <= lo <= s / n <= hi <= 1.0
    # more successes, higher bounds
    assert wilson_lower(9, 10, 0.99) > wilson_lower(5, 10, 0.99)
    assert wilson_lower(0, 10, 0.99) == pytest.approx(0.0, abs=1e-12)


# -- harness ----------------------------------------------------------------------


def _mk_cfg(**kw):
    base = dict(subcommand="spin-run", seed=1, reps=10, out=None, threads=1,
                options={"run": {"t": "5", "flag": "true"}})
    base.update(kw)
    return RunConfig(**base)


def test_runconfig_validation():
    with pytest.raises(ValueError):
        _mk_cfg(seed=-1)
    with pytest.raises(ValueError):
        _mk_cfg(seed=2 ** 64)
    for reps in (0, 1):
        with pytest.raises(ValueError, match=f"^reps must be at least 2, got {reps}: every "
                                             f"report estimates a standard error$"):
            _mk_cfg(reps=reps)
    assert _mk_cfg(reps=2).reps == 2
    with pytest.raises(ValueError):
        _mk_cfg(threads=0)


def test_runconfig_opt_casting():
    cfg = _mk_cfg()
    assert cfg.opt("run", "t", cast=float) == 5.0
    assert cfg.opt("run", "missing", 7, int) == 7
    with pytest.raises(KeyError):
        cfg.opt("run", "missing")


def test_runconfig_echo_excludes_scheduling():
    cfg = _mk_cfg(threads=8, out="/tmp/somewhere")
    echo = cfg.echo()
    assert "threads" not in echo and "out" not in echo
    assert echo["seed"] == 1 and echo["subcommand"] == "spin-run"


def test_config_file_roundtrip(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nT = 5\nreps = 20\n\n[params]\nalpha = 0.3\n")
    opts = load_config_file(ini)
    assert opts["run"]["t"] == "5"
    assert opts["params"]["alpha"] == "0.3"


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.setenv("IPSD_SEED", "111")
    assert resolve_seed(42, "99") == 42  # flag wins
    assert resolve_seed(None, "99") == 99  # then the config file
    assert resolve_seed(None, None) == 111  # then the environment
    monkeypatch.delenv("IPSD_SEED")
    with pytest.raises(ValueError):
        resolve_seed(None, None)  # never a wall-clock fallback


def test_parallel_map_matches_serial():
    items = list(range(37))
    assert parallel_map(_square, items, 1) == parallel_map(_square, items, 3)


def _square(x):
    return x * x


def _draws(size, rng):
    u = rng.random(size)
    return u, (u < 0.5).astype(np.int64)


def test_replicate_map_chunk_streams_and_order():
    # chunk c holds replicates [4c, 4c+4) and draws from derive_stream(seed, role, c) alone
    u, flags = replicate_map(_draws, 10, 5, "role", 4)
    expected = np.concatenate([derive_stream(5, "role", c).random(n)
                               for c, n in enumerate((4, 4, 2))])
    assert np.array_equal(u, expected)
    assert np.array_equal(flags, (expected < 0.5).astype(np.int64))
    # a lone chunk draws from the index-0 stream, i.e. derive_stream's default
    assert np.array_equal(replicate_map(lambda n, rng: rng.random(n), 3, 5, "role", 4),
                          derive_stream(5, "role").random(3))


def test_replicate_map_same_for_any_threads():
    serial = replicate_map(_draws, 23, 8, "threads", 5, threads=1)
    pooled = replicate_map(_draws, 23, 8, "threads", 5, threads=3)
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("threads, items, pools", [(64, 3, [3]), (2, 5, [2]), (4, 1, []), (1, 5, [])])
def test_parallel_map_starts_at_most_one_worker_per_item(monkeypatch, threads, items, pools):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seq):
            return map(fn, seq)

    # parallel_map imports the pool from concurrent.futures when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert parallel_map(lambda x: x * x, range(items), threads) == [x * x for x in range(items)]
    assert started == pools


def test_replicate_map_rejects_empty_work():
    with pytest.raises(ValueError):
        replicate_map(_draws, 0, 1, "r", 4)
    with pytest.raises(ValueError):
        replicate_map(_draws, 4, 1, "r", 0)


def test_format_float_roundtrip():
    for v in (0.1, 1.0 / 3.0, 1e-17, 12345.678901234567):
        assert float(format_float(v)) == v


def test_write_csv_deterministic(tmp_path):
    columns = [[0, 1], [0.1, 1.0 / 3.0]]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert write_csv(p1, ["i", "v"], columns) == p1
    write_csv(p2, ["i", "v"], columns)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "i,v"
    assert float(text[2].split(",")[1]) == 1.0 / 3.0  # full precision round trip


def _reference_write_csv(path, header, rows):
    """The writer that formatted each cell through a generator and the float check first."""
    def cell(x):
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_write_csv_gives_the_reference_bytes(tmp_path):
    rows = [(0, 0.1, 3), (-7, 1.0 / 3.0, 2**70), (True, False, None), (np.int64(5), np.uint8(255),
            np.float32(0.1)), (np.float64(-0.0), float("nan"), float("inf")), ("x", 1e-300, -1),
            (np.bool_(True), 12345.678901234567, 10**18), (2**62, -0.0, "y")]
    nan, inf = float("nan"), float("inf")
    floats = [-0.0, nan, inf, -inf, 5e-324, 1e-300, 2.0**62, 0.1]
    columns = [list(col) for col in zip(*rows)] + [
        np.array([0, -1, 2**62, -2**62, 7, 2**63 - 1, -2**63, 10], dtype=np.int64),
        np.array([0, 1, 255, 7, 128, 3, 9, 2], dtype=np.uint8),
        np.array([True, False, True, True, False, False, True, False]),
        np.array(floats, dtype=np.float32),
        np.array(floats, dtype=np.float64),
        np.tile([0.0, -0.0], 4),  # a grid column by the array, and formatted once per time
        [format_float(t) for t in (0.0, -0.0)] * 4,
    ]
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "got.csv", header, columns)
    _reference_write_csv(tmp_path / "want.csv", header, zip(*columns))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.splitlines()[2].endswith(b",-0,-0")  # both signs of zero survive


def test_write_csv_refuses_a_ragged_table(tmp_path):
    for columns in ([[1, 2], np.arange(3)], [np.arange(3), [1, 2]], [[0], [], [1]]):
        with pytest.raises(ValueError, match="(longer|shorter) than argument"):
            write_csv(tmp_path / "x.csv", ["a", "b", "c"][:len(columns)], columns)
    with pytest.raises(ValueError, match="2 columns for 3 header names"):
        write_csv(tmp_path / "x.csv", ["a", "b", "c"], [[1], [2]])
    with pytest.raises(ValueError, match="2 columns for 1 header names"):
        write_csv(tmp_path / "x.csv", ["a"], [[1], [2]])
    assert not (tmp_path / "x.csv").exists()


def test_write_json_payload(tmp_path):
    cfg = _mk_cfg()
    est = MCEstimate(mean=0.5, stderr=0.01, reps=100)
    path = write_json(tmp_path / "r.json", {"est": est, "arr": np.arange(3),
                                            "s": frozenset({2, 0})}, cfg)
    data = json.loads(path.read_text())
    assert data["est"] == {"mean": 0.5, "stderr": 0.01, "reps": 100}
    assert data["arr"] == [0, 1, 2]
    assert data["s"] == [0, 2]
    assert data["config"]["seed"] == 1
    assert "version" in data


def test_a_torus_over_the_site_limit_is_refused_before_its_power_is_formed(monkeypatch):
    # L^d past 2^24 is refused; from d = 25 on without forming L^d, so that
    # d = 10^18 is refused at once, and before torus_kernel builds a stencil
    assert Torus(24, 2).n_sites == Torus(2, 4096).n_sites == MAX_TORUS_SITES == 1 << 24
    for d, L in [(2, 4097), (25, 2), (64, 8), (10**18, 2)]:
        with pytest.raises(ValueError, match=f"^L = {L} and d = {d} give {L}\\^{d} torus sites; "
                                             f"the limit is 16777216$"):
            Torus(d, L)

    def never(*args, **kwargs):
        raise AssertionError("built a stencil before checking the torus")

    monkeypatch.setattr(Stencil, "nearest_neighbor", classmethod(never))
    with pytest.raises(ValueError, match="^L = 8 and d = 64 give"):
        torus_kernel(64, 8)
    with pytest.raises(ValueError, match="^torus needs lattice.d >= 1 and lattice.l >= 2, got "
                                         "lattice.d = 0 and lattice.l = 8$"):
        check_torus(0, 8, ("lattice.d", "lattice.l"))
