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
accuracy counts, and the signs keep weak order 1.  The start is checked to
lie in [0,1] and every step's state is clamped to [0,1], so the variance
f(1-f)/N is never negative and a step can never produce an invalid
frequency or a NaN.

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
    "StepPlan",
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


def _check_frequencies(field, name: str) -> np.ndarray:
    """``field`` as float64, refused by value unless every entry lies in [0, 1] (a NaN does not)."""
    field = np.asarray(field, dtype=np.float64)
    outside = ~((field >= 0.0) & (field <= 1.0))
    if outside.any():
        raise ValueError(f"{name} must lie in [0, 1] at every site, got {field[outside][0]}")
    return field


def _shifted_subtract(a: np.ndarray, b: np.ndarray, out: np.ndarray, ax: int, k: int,
                      shift_a: bool) -> list:
    """Bound calls that write ``a - b`` into ``out``, one operand read at x + k e_ax.

    ``a[x + k e_ax] - b[x]`` with ``shift_a``, else ``a[x] - b[x + k e_ax]``;
    the three arrays are C-contiguous of one shape.  The first call
    subtracts on the flat views; the second mends the slab of each block, a
    block holding the axes from ``ax`` on, that the first read across a
    block's end.  The shorter way round the axis is taken.
    """
    n = a.shape[ax]
    k %= n
    block = int(np.prod(a.shape[ax:]))
    j = min(k, n - k) * (block // n)
    if 2 * k <= n:  # x + k, wrapping at the end of each block
        at, src, wrap_at, wrap_src = slice(None, -j), slice(j, None), slice(block - j, None), slice(j)
    else:  # x - (n - k), wrapping at the start of each block
        at, src, wrap_at, wrap_src = slice(j, None), slice(None, -j), slice(j), slice(block - j, None)
    rows = slice(None)
    calls = []
    for shape, at, src in (((-1,), at, src), ((-1, block), (rows, wrap_at), (rows, wrap_src))):
        va, vb, vout = (x.reshape(shape) for x in (a, b, out))
        operands = (va[src], vb[at]) if shift_a else (va[at], vb[src])
        calls.append(partial(np.subtract, *operands, out=vout[at]))
    return calls


class StepPlan:
    """Buffers and bound views for stepping fields of one shape on one torus and stencil.

    ``fields`` holds the two field buffers: a step reads one and writes the
    other.  ``one_m``, ``noise``, ``drift`` and ``diff`` are the work arrays.
    All six are C-contiguous float64 arrays of ``shape``, whose leading axes
    are batch axes.  For each field buffer the plan binds the drift's
    neighbour terms, in stencil order, as ufunc calls on views of that buffer
    and of the work arrays; after them the drift is in ``acc``.  Nothing in
    the plan depends on dt, s, mu or N, so a shortened step reuses it.  The
    six arrays are views of one buffer, each starting on a 64-byte cache line.

    A term ``w (f[x + e] - f[x])`` along one torus axis is one subtract on
    the flat views plus a mend of the wrapped slab of each block; a term
    along two axes or more gathers ``f[x + e]`` through the torus move
    table.  Each term goes into ``diff``, is multiplied by ``w`` and added
    to the accumulator.  A term that lists -e right after +e along one axis,
    with the same positive weight w, is not computed: IEEE subtraction and
    multiplication are antisymmetric, so ``w (f[x - e] - f[x])`` is exactly
    ``-diff[x - e]``, and ``acc + (-b)`` is exactly ``acc - b``.  The
    accumulator minus ``diff`` shifted by e is written into the spare work
    array (``one_m``, which the drift no longer needs, or the old
    accumulator), which becomes the accumulator.
    """

    def __init__(self, shape: tuple[int, ...], params: DiffusionParams):
        # the six arrays share one buffer, each starting on a 64-byte cache line:
        # numpy aligns a large array to 16 bytes only, and a ufunc writing an
        # array whose vector stores split cache lines runs up to twice as long
        size = int(np.prod(shape))
        stride = -(-size // 8) * 8  # float64 elements per array, whole cache lines
        buffer = np.empty(6 * stride + 7)
        start = (-buffer.ctypes.data % 64) // 8
        arrays = [buffer[start + i * stride:start + i * stride + size].reshape(shape)
                  for i in range(6)]
        self.fields = tuple(arrays[:2])
        self.one_m, self.noise, self.drift, self.diff = arrays[2:]
        self.words = -(-self.diff.size // 64)  # raw words of one step's signs
        axes = _site_axes(params, self.diff)
        bound = [self._bind(field, params, axes) for field in self.fields]
        self.terms = tuple(calls for calls, _ in bound)
        self.acc = bound[0][1]

    def _bind(self, field: np.ndarray, params: DiffusionParams, axes: tuple[int, ...]):
        """The term calls bound to ``field``, and the work array they leave the drift in."""
        diff, acc, spare = self.diff, self.drift, self.one_m
        disps, weights = params.stencil.displacements, params.stencil.weights
        calls, i = [], 0
        while i < len(disps):
            disp, w = disps[i], weights[i]
            moved = [(ax, c) for ax, c in zip(axes, disp) if c % field.shape[ax]]
            if len(moved) == 1:
                (ax, k), = moved
                calls += _shifted_subtract(field, field, diff, ax, k, shift_a=True)
            else:
                column = np.ascontiguousarray(params.torus.move_table(params.stencil)[:, i])
                sites = (-1, column.size)
                calls += [partial(np.take, field.reshape(sites), column, axis=1,
                                  out=diff.reshape(sites), mode="clip"),
                          partial(np.subtract, diff, field, out=diff)]
            calls += [partial(np.multiply, diff, w, out=diff), partial(np.add, acc, diff, out=acc)]
            i += 1
            if (len(moved) == 1 and i < len(disps) and disps[i] == tuple(-c for c in disp)
                    and weights[i] == w > 0.0):
                calls += _shifted_subtract(acc, diff, spare, ax, -k, shift_a=False)
                acc, spare = spare, acc
                i += 1
        return tuple(calls), acc

    def terms_of(self, field: np.ndarray):
        """The bound term calls on ``field``, which must be one of ``fields``."""
        for buffer, terms in zip(self.fields, self.terms):
            if field is buffer:
                return terms
        raise ValueError("a planned step reads one of its plan's field buffers")


def em_step(field: np.ndarray, params: DiffusionParams, rng: np.random.Generator,
            out: np.ndarray | None = None, plan: StepPlan | None = None) -> np.ndarray:
    """One weak Euler step: drift, clamped sign noise, projection to [0,1].

    Returns the stepped field, written into ``out`` (allocated when not
    given; a C-contiguous float64 array of the field's shape that is not
    ``field``).  A caller that steps many times builds one
    :class:`StepPlan` for the field shape, steps one of its ``fields`` into
    the other and swaps them, so a step allocates only its random words and
    their unpacked bits, one byte per site.  The field of a planned step is
    not checked: the plan's owner starts it in [0, 1], and every step's
    output is clipped there.  A call without a plan checks its field, which
    must lie in [0, 1], and builds one.

    The operations and their order are those of
    ``f + drift(f) dt + sqrt(f(1 - f)/N dt) Z``, clipped to [0,1], and give
    the same bits.  ``f(1 - f)`` cannot be negative on a field in [0, 1],
    so no floor is taken.  The drift is ``(s f)(1 - f)(1 - mu f)`` plus
    ``w (f[x + e] - f[x])`` for each stencil term in order; at s = +-1 its
    ``(s f)(1 - f)`` is the variance's ``f (1 - f)``, negated at s = -1,
    which is the same number.  ``Z`` is +1 or
    -1 at each site: the step draws ceil(size / 64) words from
    ``rng.bit_generator.random_raw``, reads them little-endian, and bit j of
    word k (least significant first) sets element 64k + j of the flat field,
    a 1 bit to +1 and a 0 bit to -1.
    """
    if plan is None:
        start = _check_frequencies(field, "field")
        plan = StepPlan(start.shape, params)
        field = plan.fields[0]
        field[...] = start
    terms = plan.terms_of(field)
    out = np.empty(field.shape) if out is None else out
    one_m, noise, drift, diff = plan.one_m, plan.noise, plan.drift, plan.diff
    np.subtract(1.0, field, out=one_m)
    # at s = +-1, (s f)(1 - f) is exactly +-(f (1 - f)): the drift keeps the variance's product
    shared = abs(params.s) == 1.0
    var = np.multiply(field, one_m, out=drift if shared else diff)
    if params.noise_n != 1.0:  # else the division is exact
        var = np.divide(var, params.noise_n, out=diff)
    var = np.multiply(var, params.dt, out=diff)
    np.sqrt(var, out=var)
    words = rng.bit_generator.random_raw(plan.words).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), count=noise.size, bitorder="little")
    np.multiply(bits.reshape(noise.shape), 2.0, out=noise)
    noise -= 1.0
    noise *= var
    if not shared:
        np.multiply(params.s, field, out=drift)
        drift *= one_m
    elif params.s < 0.0:
        np.negative(drift, out=drift)
    if params.mu != 0.0:  # else the factor is exactly 1.0
        np.multiply(params.mu, field, out=diff)
        drift *= np.subtract(1.0, diff, out=diff)
    for term in terms:
        term()
    acc = plan.acc
    acc *= params.dt
    acc += field
    acc += noise
    return np.clip(acc, 0.0, 1.0, out=out)


def sigma_of_p(p: np.ndarray) -> np.ndarray:
    """sigma = 1 - 2p, mapping [0,1] onto [-1,1] with p=1/2 at the origin."""
    return 1.0 - 2.0 * np.asarray(p)


def _ensemble_chunk(params: DiffusionParams, p0: np.ndarray, grid, observable,
                    size: int, rng: np.random.Generator) -> np.ndarray:
    """Observable values of ``size`` replicates stepped together along the sorted grid.

    Steps land on each grid time exactly (a shortened step if needed), so
    values are recorded at the requested times rather than the nearest step
    boundary.  The chunk builds one :class:`StepPlan`, which holds its buffers:
    each :func:`em_step` steps one field buffer into the other, and the two
    swap.  Each observation is copied into the result as it is
    made, so an observable may return a view of the fields.  Shape
    (size, len(grid)) for a (b,) observable, (size, len(grid), m) for (b, m).
    """
    plan = StepPlan((size,) + p0.shape, params)
    fields, spare = plan.fields
    fields[...] = p0
    t = 0.0
    vals = None
    for i, target in enumerate(grid):
        while t < target - 1e-12:
            h = min(params.dt, target - t)
            step = params.with_dt(h) if h != params.dt else params
            fields, spare = em_step(fields, step, rng, spare, plan), fields
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
    comes last.  A ``p0`` outside [0, 1] or holding a NaN is refused by
    value before any step, so every field a step reads lies in [0, 1].
    """
    p0 = _check_frequencies(p0, "p0")
    if p0.shape != params.torus.shape:
        raise ValueError("initial field shape does not match the torus")
    work = partial(_ensemble_chunk, params, p0, check_grid(grid, "grid"), observable)
    vals = replicate_map(work, reps, master_seed, role, ENSEMBLE_BATCH, threads)
    return np.ascontiguousarray(np.moveaxis(vals, 0, -1))
