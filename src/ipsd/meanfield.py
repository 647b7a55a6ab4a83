"""Mean-field layer: Lotka-Volterra ODEs, the density ODE, and equilibria.

The two-species competition ODE with carrying capacities K0, K1 and
cross-competition strengths alpha01, alpha10 reduces, for densities on a
well-mixed population, to a single ODE for the frequency p0 of type 0::

    dp0/dt = F(p0) / (lam (1 - p0) + p0),      lam = K1 / K0,
    F(p0)  = p0 (1 - p0) [ (1 - lam a01) - p0 ((1 - lam a01) + (lam - a10)) ]

Inside the coexistence window (0 <= a10 < lam, 0 <= a01 < 1/lam) the unique
interior equilibrium is p0* = (1 - lam a01) / ((1 - lam a01) + (lam - a10)).
The spin system on the complete graph converges to this flow as the number
of vertices grows; :func:`meanfield_comparator` measures the gap.  It runs
the lumped chain of the number of ones, which is exact because sites are
exchangeable on the complete graph, at O(1) per jump and without an
O(N^2) kernel.
The density fluctuates around the ODE path at the CLT scale, so the gap
shrinks like N^{-1/2} in the number of vertices N and is never below a
fixed bound at every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import NPParams, complete_count_rates, simulate_complete_counts

__all__ = [
    "LVParams",
    "lv_rhs",
    "density_rhs",
    "equilibrium",
    "integrate_ode",
    "ComparatorReport",
    "meanfield_comparator",
]

ODE_CHECK_TOL = 1e-8  # terminal gap allowed between the dt and dt/2 runs of integrate_ode


@dataclass(frozen=True)
class LVParams:
    """Lotka-Volterra parameters: growth rates, capacities, competition."""

    r0: float
    r1: float
    K0: float
    K1: float
    alpha01: float
    alpha10: float

    def __post_init__(self):
        if min(self.r0, self.r1, self.K0, self.K1) <= 0:
            raise ValueError("rates and capacities must be positive")
        if self.alpha01 < 0 or self.alpha10 < 0:
            raise ValueError("competition strengths must be nonnegative")

    @property
    def lam(self) -> float:
        return self.K1 / self.K0


def lv_rhs(N0: float, N1: float, p: LVParams) -> tuple[float, float]:
    """Right-hand side of the two-species Lotka-Volterra system."""
    d0 = p.r0 * N0 * (1.0 - (N0 + p.alpha01 * N1) / p.K0)
    d1 = p.r1 * N1 * (1.0 - (N1 + p.alpha10 * N0) / p.K1)
    return d0, d1


def density_rhs(p0, lam: float, a01: float, a10: float):
    """dp0/dt of the reduced frequency ODE (vectorized in p0).

    A Python float is evaluated in float arithmetic and returns a float;
    IEEE arithmetic rounds each operation the same way in both.
    """
    scalar = isinstance(p0, float)
    if not scalar:
        p0 = np.asarray(p0, dtype=np.float64)
    A = 1.0 - lam * a01
    B = lam - a10
    F = p0 * (1.0 - p0) * (A - p0 * (A + B))
    out = F / (lam * (1.0 - p0) + p0)
    return float(out) if scalar or out.ndim == 0 else out


def equilibrium(lam: float, a01: float, a10: float) -> float:
    """Interior equilibrium p0*; only defined inside the coexistence window."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (0.0 <= a10 < lam):
        raise ValueError(f"need 0 <= a10 < lam, got a10={a10}, lam={lam}")
    if not (0.0 <= a01 < 1.0 / lam):
        raise ValueError(f"need 0 <= a01 < 1/lam, got a01={a01}, 1/lam={1.0 / lam}")
    A = 1.0 - lam * a01
    B = lam - a10
    return A / (A + B)


def integrate_ode(rhs, x0, horizon: float, dt: float = 1e-3, self_check: bool = False):
    """Fixed-step RK4 integration of dx/dt = rhs(x), vectorized in x.

    Returns (times, states) including t=0; states has shape
    (steps + 1,) + shape of x0.  The last step is shortened to land exactly
    on the horizon.  A state with one component is stepped as a Python
    float, so ``rhs`` then receives and returns floats; the states are the
    same bits as on 1-element arrays.  With ``self_check`` the terminal
    state is recomputed at half the step and must agree within
    ODE_CHECK_TOL.  ``self_check`` stays fifth: benchmark/tracing.py reads
    it by position.
    """
    if dt <= 0 or horizon < 0:
        raise ValueError("need dt > 0 and horizon >= 0")
    x_init, f = np.array(x0, dtype=np.float64), rhs
    if x_init.size == 1:
        x_init = x_init.item()
    else:
        f = lambda x: np.asarray(rhs(x))

    def run(step):
        x = x_init
        t = 0.0
        ts = [0.0]
        xs = [x]
        while t < horizon - 1e-15:
            h = min(step, horizon - t)
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            ts.append(t)
            xs.append(x)
        return np.array(ts), np.array(xs).reshape((len(xs),) + np.shape(x0))

    ts, xs = run(dt)
    if self_check:
        _, xs_half = run(dt / 2.0)
        err = float(np.abs(xs[-1] - xs_half[-1]).max())
        if err > ODE_CHECK_TOL:
            raise ArithmeticError(f"step-halving check failed: terminal gap {err:.3e}")
    return ts, xs


@dataclass(frozen=True)
class ComparatorReport:
    """Sup-distances between stochastic density paths and the ODE flow.

    ``jumps`` is the number of count-chain jumps over all replicates.
    """

    sup_distances: np.ndarray
    median: float
    ode_times: np.ndarray
    ode_path: np.ndarray
    jumps: int


def meanfield_comparator(n_vertices: int, p: NPParams, density0: float, horizon: float,
                         reps: int, rng: np.random.Generator, dt: float = 1e-3) -> ComparatorReport:
    """Compare complete-graph density paths with the frequency ODE.

    ``density0`` is the initial density of ones; the chain starts from
    round(N * density0) ones.  Each replicate is an exact path of the count
    chain (:func:`ipsd.spin.simulate_complete_counts`), all drawn in turn
    from ``rng``.  Its piecewise-constant density-of-ones path is compared
    in sup norm against 1 - p0(t), the ODE solution's density of ones, on
    the merged time grid.
    """
    if n_vertices < 2:
        raise ValueError(f"the comparator needs at least 2 vertices, got {n_vertices}")
    if reps < 1:
        raise ValueError(f"the comparator needs at least 1 replicate, got {reps}")
    if horizon < 0:
        raise ValueError(f"the comparator horizon must be nonnegative, got {horizon}")
    if not (0.0 <= density0 <= 1.0):
        raise ValueError("density0 must lie in [0,1]")
    ones = int(round(n_vertices * density0))
    up, down = complete_count_rates(p, n_vertices)

    rhs = lambda x: density_rhs(x, p.lam, p.alpha01, p.alpha10)
    ts, xs = integrate_ode(rhs, [1.0 - density0], horizon, dt=dt)
    ode_ones = 1.0 - xs[:, 0]

    sups = np.empty(reps)
    jumps = 0
    for r in range(reps):
        jt, counts = simulate_complete_counts(up, down, ones, horizon, rng)
        jumps += len(jt) - 1
        jd = counts / n_vertices
        # evaluate the step function on the ODE grid and the ODE on the jump grid
        idx = np.searchsorted(jt, ts, side="right") - 1
        gap_on_grid = np.abs(jd[idx] - ode_ones)
        ode_at_jumps = 1.0 - np.interp(jt, ts, xs[:, 0])
        gap_at_jumps = np.abs(jd - ode_at_jumps)
        sups[r] = max(float(gap_on_grid.max()), float(gap_at_jumps.max()))
    return ComparatorReport(sups, float(np.median(sups)), ts, ode_ones, jumps)
