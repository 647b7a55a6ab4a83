"""Interacting Wright-Fisher diffusions on a torus.

Each site carries a frequency p(x) in [0,1] obeying

    dp(x) = [ sum_y m(x,y) (p(y) - p(x)) + s p(x)(1-p(x))(1 - mu p(x)) ] dt
            + sqrt( p(x)(1-p(x)) / N ) dW_x

with a homogeneous migration stencil m, selection strength s, dominance
parameter mu, and noise scale N (N = 1 by default).  Integration is
Euler-Maruyama with clamping to [0,1] and the variance floored at zero, so
a step can never produce an invalid frequency or a NaN.

The linear change of variable sigma = 1 - 2p turns the mu = 2 model with
selection s into  d sigma = [migration + (s/2)(sigma^3 - sigma)] dt
- sqrt(1 - sigma^2) dW, the form whose moments are dual to the
branch-by-two annihilating walker of :mod:`ipsd.walkers`.

Parameter symmetry: (1 - p_t) under (s, mu) has the law of p_t under
((-s)(1 - mu), mu/(mu - 1)) for mu != 1; with mirrored noise the
Euler-Maruyama trajectories are exact mirrors, which is how the tests
check it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .harness import replicate_map
from .lattice import Stencil, Torus

__all__ = [
    "DiffusionParams",
    "drift_field",
    "em_step",
    "sigma_of_p",
    "p_of_sigma",
    "mirror_params",
    "ensemble_observable",
    "parse_field_initial",
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
        if self.stencil.dim != self.torus.d:
            raise ValueError("stencil dimension does not match the torus")
        if self.noise_n <= 0:
            raise ValueError("noise scale N must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def with_dt(self, dt: float) -> "DiffusionParams":
        return replace(self, dt=dt)


def _site_axes(params: DiffusionParams, field: np.ndarray) -> tuple[int, ...]:
    d = params.torus.d
    if field.ndim < d:
        raise ValueError("field has fewer axes than the torus dimension")
    return tuple(range(field.ndim - d, field.ndim))


def drift_field(field: np.ndarray, params: DiffusionParams) -> np.ndarray:
    """Drift at every site; leading axes of ``field`` are batch axes."""
    axes = _site_axes(params, field)
    out = params.s * field * (1.0 - field) * (1.0 - params.mu * field)
    for disp, w in zip(params.stencil.displacements, params.stencil.weights):
        shift = tuple(-c for c in disp)
        out = out + w * (np.roll(field, shift, axis=axes) - field)
    return out


def em_step(field: np.ndarray, params: DiffusionParams, rng: np.random.Generator) -> np.ndarray:
    """One Euler-Maruyama step: drift, clamped noise, projection to [0,1]."""
    var = np.maximum(field * (1.0 - field) / params.noise_n, 0.0)
    noise = np.sqrt(var * params.dt) * rng.standard_normal(field.shape)
    out = field + drift_field(field, params) * params.dt + noise
    return np.clip(out, 0.0, 1.0)


def sigma_of_p(p: np.ndarray) -> np.ndarray:
    """sigma = 1 - 2p, mapping [0,1] onto [-1,1] with p=1/2 at the origin."""
    return 1.0 - 2.0 * np.asarray(p)


def p_of_sigma(sigma: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.asarray(sigma))


def mirror_params(params: DiffusionParams) -> DiffusionParams:
    """Parameters under which 1 - p has the law of p (mu != 1)."""
    if params.mu == 1.0:
        raise ValueError("the mirror map is undefined at mu = 1")
    return replace(params, s=(-params.s) * (1.0 - params.mu),
                   mu=params.mu / (params.mu - 1.0))


def _ensemble_chunk(params: DiffusionParams, p0: np.ndarray, grid, observable,
                    size: int, rng: np.random.Generator) -> np.ndarray:
    """Observable values of ``size`` replicates stepped together along the sorted grid.

    Steps land on each grid time exactly (a shortened step if needed), so
    values are recorded at the requested times rather than the nearest step
    boundary.  The per-time results are stacked on axis 1: shape
    (size, len(grid)) for a (b,) observable, (size, len(grid), m) for (b, m).
    """
    fields = np.broadcast_to(p0, (size,) + p0.shape).copy()
    t = 0.0
    out = []
    for target in grid:
        while t < target - 1e-12:
            h = min(params.dt, target - t)
            fields = em_step(fields, params.with_dt(h) if h != params.dt else params, rng)
            t += h
        out.append(observable(fields))
    return np.stack(out, axis=1)


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
    work = partial(_ensemble_chunk, params, p0, sorted(grid), observable)
    vals = replicate_map(work, reps, master_seed, role, ENSEMBLE_BATCH, threads)
    return np.ascontiguousarray(np.moveaxis(vals, 0, -1))


def parse_field_initial(spec: str, torus: Torus, rng: np.random.Generator | None = None) -> np.ndarray:
    """Parse an initial frequency field: ``const:v`` or ``uniform`` (iid U[0,1])."""
    s = spec.strip()
    if s.startswith("const:"):
        v = float(s.split(":", 1)[1])
        if not (0.0 <= v <= 1.0):
            raise ValueError("constant initial frequency must lie in [0,1]")
        return np.full(torus.shape, v)
    if s == "uniform":
        if rng is None:
            raise ValueError("uniform initial condition needs a random stream")
        return rng.random(torus.shape)
    raise ValueError(f"unrecognized field initial condition {spec!r}")
