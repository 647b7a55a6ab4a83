"""Mean-field layer: the density ODE, its equilibrium, and the complete-graph comparator.

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
exchangeable on the complete graph, for all replicates in lockstep: O(1)
per jump, O(N) memory for the rates, no O(N^2) kernel, and slices of
replicates reduced to their sup-distances one at a time.
The density fluctuates around the ODE path at the CLT scale, so the gap
shrinks like N^{-1/2} in the number of vertices N and is never below a
fixed bound at every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harness import check_horizon
from .spin import NPParams, complete_count_rates, simulate_complete_counts

__all__ = [
    "MAX_COMPARATOR_VERTICES",
    "MAX_COMPARATOR_JUMPS",
    "comparator_jumps_bound",
    "bind_density_rhs",
    "equilibrium",
    "integrate_ode",
    "ComparatorReport",
    "meanfield_comparator",
]

ODE_CHECK_TOL = 1e-8  # terminal gap allowed between the dt and dt/2 runs of integrate_ode


def bind_density_rhs(lam: float, a01: float, a10: float):
    """The reduced frequency ODE's right-hand side p0 -> dp0/dt, its constants bound once.

    A = 1 - lam a01 and A + B, B = lam - a10, are computed here, not at each
    evaluation.  The function takes a Python float, which it returns as a
    float, or a float64 array; IEEE arithmetic rounds each operation the
    same way in both.
    """
    A = 1.0 - lam * a01
    A_plus_B = A + (lam - a10)

    def rhs(p0):
        return p0 * (1.0 - p0) * (A - p0 * A_plus_B) / (lam * (1.0 - p0) + p0)

    return rhs


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
    horizon = check_horizon(horizon, "horizon")
    if not 0.0 < dt < np.inf:  # an infinite step would cross any horizon in one step
        raise ValueError(f"dt must be finite and positive, got {dt}")
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
        if not err <= ODE_CHECK_TOL:  # a NaN fails too
            raise ArithmeticError(f"step-halving check failed: terminal gap {err:.3e}")
    return ts, xs


# the count chain's O(N) rate arrays take about 80 bytes per vertex while they are built
MAX_COMPARATOR_VERTICES = 1 << 22
# projected jumps of one comparator run; one run's path holds 16 bytes per jump
MAX_COMPARATOR_JUMPS = 1 << 24


def comparator_jumps_bound(n_vertices: int, p: NPParams, horizon: float, reps: int) -> float:
    """Projected count-chain jumps of a comparator run, without building its rates.

    A zero flips up at rate at most max(1, alpha01) and a one down at rate
    at most max(1, alpha10), since lam f1 / (lam f1 + f0) and
    f0 / (lam f1 + f0) are at most 1; so the count jumps at rate at most
    N max(1, alpha01, alpha10).
    """
    return reps * n_vertices * horizon * max(1.0, p.alpha01, p.alpha10)


@dataclass(frozen=True)
class ComparatorReport:
    """Sup-distances between stochastic density paths and the ODE flow.

    ``jumps`` is the number of count-chain jumps over all replicates and
    ``steps`` the number of lockstep steps that made them.
    """

    sup_distances: np.ndarray
    median: float
    ode_times: np.ndarray
    ode_path: np.ndarray
    jumps: int
    steps: int


def meanfield_comparator(n_vertices: int, p: NPParams, density0: float, horizon: float,
                         reps: int, rng: np.random.Generator, dt: float = 1e-3) -> ComparatorReport:
    """Compare complete-graph density paths with the frequency ODE.

    ``density0`` is the initial density of ones; the chain starts from
    round(N * density0) ones.  Each replicate is an exact path of the count
    chain, all from one call of :func:`ipsd.spin.simulate_complete_counts`,
    which steps them in lockstep on ``rng``.  Its piecewise-constant
    density-of-ones path is compared in sup norm against 1 - p0(t), the ODE
    solution's density of ones, on the merged time grid, one slice of
    replicates at a time.  More than MAX_COMPARATOR_VERTICES vertices, or
    more than MAX_COMPARATOR_JUMPS projected jumps
    (:func:`comparator_jumps_bound`), are refused before any draw.
    """
    if n_vertices < 2:
        raise ValueError(f"the comparator needs at least 2 vertices, got {n_vertices}")
    if reps < 1:
        raise ValueError(f"the comparator needs at least 1 replicate, got {reps}")
    horizon = check_horizon(horizon, "horizon")
    if not (0.0 <= density0 <= 1.0):
        raise ValueError("density0 must lie in [0,1]")
    if n_vertices > MAX_COMPARATOR_VERTICES:
        raise ValueError(f"the comparator allows at most {MAX_COMPARATOR_VERTICES} vertices, "
                         f"got {n_vertices}")
    work = comparator_jumps_bound(n_vertices, p, horizon, reps)
    if work > MAX_COMPARATOR_JUMPS:
        raise ValueError(f"{reps} replicates of {n_vertices} vertices to horizon {horizon} "
                         f"project {work:.4g} count-chain jumps; the limit is "
                         f"{MAX_COMPARATOR_JUMPS:.4g}")
    ones = int(round(n_vertices * density0))
    up, down = complete_count_rates(p, n_vertices)

    rhs = bind_density_rhs(p.lam, p.alpha01, p.alpha10)
    ts, xs = integrate_ode(rhs, [1.0 - density0], horizon, dt=dt)
    ode_ones = 1.0 - xs[:, 0]

    ode_end = np.append(ode_ones, 0.0)  # reduceat may start a reduction at len(ts)
    sups = []
    jumps = steps = 0
    for times, counts, row_jumps in simulate_complete_counts(up, down, ones, horizon, reps, rng):
        jumps += int(row_jumps.sum())
        steps += times.shape[1] - 1
        jd = counts / n_vertices
        # the ODE on the jump grid; a row's repeated last entry repeats its last gap
        gap_at_jumps = np.abs(jd - (1.0 - np.interp(times, ts, xs[:, 0]))).max(axis=1)
        # entry i of a row holds on the ODE grid points bounds[i] up to bounds[i + 1];
        # its largest gap there is against the least or the largest of the ODE's values
        bounds = np.empty((len(jd), jd.shape[1] + 1), dtype=np.int64)
        bounds[:, :-1] = np.searchsorted(ts, times, side="left")
        bounds[:, -1] = len(ts)
        hi, lo = (ufunc.reduceat(ode_end, bounds.ravel()).reshape(bounds.shape)[:, :-1]
                  for ufunc in (np.maximum, np.minimum))
        gap_on_grid = np.where(bounds[:, :-1] < bounds[:, 1:], np.maximum(jd - lo, hi - jd), 0.0)
        sups.append(np.maximum(gap_on_grid.max(axis=1), gap_at_jumps))
    sups = np.concatenate(sups)
    return ComparatorReport(sups, float(np.median(sups)), ts, ode_ones, jumps, steps)
