"""Interacting Wright-Fisher diffusions on a torus.

Each site carries a frequency p(x) in [0,1] obeying

    dp(x) = [ sum_y m(x,y) (p(y) - p(x)) + s p(x)(1-p(x))(1 - mu p(x)) ] dt
            + sqrt( p(x)(1-p(x)) / N ) dW_x

with a homogeneous migration stencil m, selection strength s, dominance
parameter mu, and noise scale N (N = 1 by default).  Integration is the
simplified weak Euler scheme (Kloeden & Platen 1992, section 14.1): an
Euler-Maruyama step whose Brownian increment sqrt(dt) Z takes an
independent random sign for Z instead of a normal, one packed random bit
per site-step.  The moment dualities compare expectations, so only weak
accuracy counts, and the signs keep weak order 1.  The state is clamped to
[0,1] and the variance floored at zero, so a step can never produce an
invalid frequency or a NaN.

The linear change of variable sigma = 1 - 2p turns the mu = 2 model with
selection s into  d sigma = [migration + (s/2)(sigma^3 - sigma)] dt
- sqrt(1 - sigma^2) dW, the form whose moments are dual to the
branch-by-two annihilating walker of :mod:`ipsd.walkers`.

Parameter symmetry: (1 - p_t) under (s, mu) has the law of p_t under
((-s)(1 - mu), mu/(mu - 1)) for mu != 1; with complemented noise bits the
Euler trajectories are exact mirrors, which is how the tests check it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .harness import check_grid, replicate_map
from .lattice import Stencil, Torus

__all__ = [
    "DiffusionParams",
    "drift_field",
    "em_step",
    "sigma_of_p",
    "ensemble_observable",
]

ENSEMBLE_BATCH = 4096  # replicates per chunk (one derived stream each); fixed for determinism


@dataclass(frozen=True)
class DiffusionParams:
    """Model and integration parameters for the lattice diffusion."""

    torus: Torus
    stencil: Stencil
    s: float = 0.0
    mu: float = 0.0
    noise_n: float = 1.0
    dt: float = 1e-3

    def __post_init__(self):
        self.torus.check_stencil(self.stencil)
        for name in ("noise_n", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("s", "mu"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def with_dt(self, dt: float) -> "DiffusionParams":
        return replace(self, dt=dt)


def _site_axes(params: DiffusionParams, field: np.ndarray) -> tuple[int, ...]:
    d = params.torus.d
    if field.ndim < d:
        raise ValueError("field has fewer axes than the torus dimension")
    return tuple(range(field.ndim - d, field.ndim))


def _neighbour_difference(field: np.ndarray, axes: tuple[int, ...], disp: tuple[int, ...],
                          out: np.ndarray) -> np.ndarray:
    """``field[x + disp] - field[x]`` at every site, written into ``out``.

    The same subtractions as ``np.roll(field, -disp, axis=axes) - field``.  A
    displacement along one axis is one subtract on the flat view plus a fix of
    the wrapped slab of each block, where a block holds the trailing axes from
    that axis on; both arrays must be C-contiguous.
    """
    moved = [(ax, c % field.shape[ax]) for ax, c in zip(axes, disp) if c % field.shape[ax]]
    if len(moved) > 1:
        return np.subtract(np.roll(field, tuple(-c for c in disp), axis=axes), field, out=out)
    (ax, k), = moved
    n = field.shape[ax]
    block = field[(0,) * ax].size  # elements from axis ax on
    flat, dflat = field.reshape(-1), out.reshape(-1)
    rows, drows = field.reshape(-1, block), out.reshape(-1, block)
    if 2 * k <= n:  # x + k, wrapping at the end of each block
        j = k * (block // n)
        np.subtract(flat[j:], flat[:-j], out=dflat[:-j])
        np.subtract(rows[:, :j], rows[:, block - j:], out=drows[:, block - j:])
    else:  # the shorter way round: x - (n - k), wrapping at the start
        j = (n - k) * (block // n)
        np.subtract(flat[:-j], flat[j:], out=dflat[j:])
        np.subtract(rows[:, block - j:], rows[:, :j], out=drows[:, :j])
    return out


def drift_field(field: np.ndarray, params: DiffusionParams, one_m: np.ndarray | None = None,
                out: np.ndarray | None = None, diff: np.ndarray | None = None) -> np.ndarray:
    """Drift at every site; leading axes of ``field`` are batch axes.

    ``(s f)(1 - f)(1 - mu f)`` plus ``w (f[x + e] - f[x])`` for each stencil
    term in order.  ``one_m`` is ``1 - field`` if already computed; ``out``
    (the result) and ``diff`` (scratch) are C-contiguous float64 arrays of
    the field's shape, allocated when not given.
    """
    axes = _site_axes(params, field)
    field = np.ascontiguousarray(field)
    out = np.empty(field.shape) if out is None else out
    diff = np.empty(field.shape) if diff is None else diff
    if one_m is None:
        one_m = np.subtract(1.0, field, out=diff)
    np.multiply(params.s, field, out=out)
    out *= one_m
    if params.mu != 0.0:  # else the factor is exactly 1.0
        np.multiply(params.mu, field, out=diff)
        out *= np.subtract(1.0, diff, out=diff)
    for disp, w in zip(params.stencil.displacements, params.stencil.weights):
        _neighbour_difference(field, axes, disp, diff)
        diff *= w
        out += diff
    return out


def em_step(field: np.ndarray, params: DiffusionParams, rng: np.random.Generator,
            out: np.ndarray | None = None, work=None) -> np.ndarray:
    """One weak Euler step: drift, clamped sign noise, projection to [0,1].

    Returns the stepped field, written into ``out``.  ``out`` and the four
    arrays of ``work`` are C-contiguous float64 arrays of the field's shape,
    none of them ``field``; a caller that steps many times passes the same
    ones each step (and swaps ``field`` with ``out``), so a step allocates
    only its random words and their unpacked bits, one byte per site.
    Allocated when not given.  The operations and their order are those of
    ``f + drift(f) dt + sqrt(max(f(1 - f)/N, 0) dt) Z``, clipped to [0,1],
    and give the same bits.  ``Z`` is +1 or -1 at each site: the step draws
    ceil(size / 64) words from ``rng.bit_generator.random_raw``, reads them
    little-endian, and bit j of word k (least significant first) sets
    element 64k + j of the flat field, a 1 bit to +1 and a 0 bit to -1.
    """
    field = np.ascontiguousarray(field)
    out = np.empty(field.shape) if out is None else out
    one_m, noise, drift, diff = [np.empty(field.shape) for _ in range(4)] if work is None else work
    np.subtract(1.0, field, out=one_m)
    var = np.multiply(field, one_m, out=diff)
    if params.noise_n != 1.0:  # else the division is exact
        var /= params.noise_n
    np.maximum(var, 0.0, out=var)
    var *= params.dt
    np.sqrt(var, out=var)
    words = rng.bit_generator.random_raw(-(-noise.size // 64)).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), count=noise.size, bitorder="little")
    np.multiply(bits.reshape(noise.shape), 2.0, out=noise)
    noise -= 1.0
    noise *= var
    drift_field(field, params, one_m, drift, diff)
    drift *= params.dt
    drift += field
    drift += noise
    return np.clip(drift, 0.0, 1.0, out=out)


def sigma_of_p(p: np.ndarray) -> np.ndarray:
    """sigma = 1 - 2p, mapping [0,1] onto [-1,1] with p=1/2 at the origin."""
    return 1.0 - 2.0 * np.asarray(p)


def _ensemble_chunk(params: DiffusionParams, p0: np.ndarray, grid, observable,
                    size: int, rng: np.random.Generator) -> np.ndarray:
    """Observable values of ``size`` replicates stepped together along the sorted grid.

    Steps land on each grid time exactly (a shortened step if needed), so
    values are recorded at the requested times rather than the nearest step
    boundary.  The chunk allocates its field buffers once: each
    :func:`em_step` writes into the spare field and the four work arrays, and
    the two fields swap.  Each observation is copied into the result as it is
    made, so an observable may return a view of the fields.  Shape
    (size, len(grid)) for a (b,) observable, (size, len(grid), m) for (b, m).
    """
    fields = np.empty((size,) + p0.shape)
    fields[...] = p0
    spare = np.empty_like(fields)
    work = [np.empty_like(fields) for _ in range(4)]
    t = 0.0
    vals = None
    for i, target in enumerate(grid):
        while t < target - 1e-12:
            h = min(params.dt, target - t)
            step = params.with_dt(h) if h != params.dt else params
            fields, spare = em_step(fields, step, rng, spare, work), fields
            t += h
        obs = np.asarray(observable(fields))
        if vals is None:
            vals = np.empty((size, len(grid)) + obs.shape[1:], dtype=obs.dtype)
        vals[:, i] = obs
    return vals


def ensemble_observable(params: DiffusionParams, p0: np.ndarray, grid, observable,
                        reps: int, master_seed: int, role: str, threads: int = 1) -> np.ndarray:
    """Observable values for ``reps`` independent replicates at each grid time.

    Replicates are stepped together in chunks of ENSEMBLE_BATCH through
    :func:`ipsd.harness.replicate_map`, one derived stream per chunk, so the
    output is a pure function of (params, p0, grid, reps, master_seed, role)
    for any ``threads``.  ``observable(fields)``, picklable when threads > 1,
    maps a (b, *shape) array to a (b,) or (b, m) array.  Returns an array of
    shape (len(grid), reps) or (len(grid), m, reps): the replicate axis
    comes last.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    if p0.shape != params.torus.shape:
        raise ValueError("initial field shape does not match the torus")
    work = partial(_ensemble_chunk, params, p0, check_grid(grid, "grid"), observable)
    vals = replicate_map(work, reps, master_seed, role, ENSEMBLE_BATCH, threads)
    return np.ascontiguousarray(np.moveaxis(vals, 0, -1))
