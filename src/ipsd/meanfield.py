"""Mean-field layer: the density ODE, its equilibrium, and the complete-graph comparator.

The two-species competition ODE with carrying capacities K0, K1 and
cross-competition strengths alpha01, alpha10 reduces, for densities on a
well-mixed population, to a single ODE for the frequency p0 of type 0::

    dp0/dt = F(p0) / (lam (1 - p0) + p0),      lam = K1 / K0,
    F(p0)  = p0 (1 - p0) [ (1 - lam a01) - p0 ((1 - lam a01) + (lam - a10)) ]

Inside the coexistence window (0 <= a10 < lam, 0 <= a01 < 1/lam) the unique
interior equilibrium is p0* = (1 - lam a01) / ((1 - lam a01) + (lam - a10)).
With A = 1 - lam a01, B = lam - a10 and S = A + B the flow is separable, and
inside the window its path has the closed form of :func:`exact_path`, the
exact oracle that :func:`integrate_ode`'s RK4 states are checked against.
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
    "MAX_ODE_STEPS",
    "COMPARATOR_DT",
    "MAX_COMPARATOR_VERTICES",
    "MAX_COMPARATOR_JUMPS",
    "comparator_jumps_bound",
    "DensityRHS",
    "bind_density_rhs",
    "equilibrium",
    "ode_steps_bound",
    "exact_path",
    "integrate_ode",
    "ComparatorReport",
    "meanfield_comparator",
]

ODE_CHECK_TOL = 1e-8  # gap allowed between RK4's last state and exact_path's, as at dt/2
# gap allowed at every grid time: the least power of ten at which every run.dt the dt/2
# rerun accepted on configs/meanfield.ini passes (up to 2, largest gap 2.4e-6)
ODE_PATH_TOL = 1e-5
# projected RK4 steps of one integrate_ode call; it keeps about 81 bytes per step
# (its times and states as Python floats, then as arrays)
MAX_ODE_STEPS = 1 << 22
EXACT_PATH_TOL = 1e-13  # a Newton step of exact_path that moves p no further has converged
EXACT_PATH_BLOCK = 4096  # grid times solved together; bounds exact_path's temporaries
COMPARATOR_DT = 1e-3  # the step of meanfield_comparator's ODE unless its caller passes one


@dataclass(frozen=True)
class DensityRHS:
    """The reduced frequency ODE's right-hand side p0 -> dp0/dt, its constants bound once.

    ``A`` = 1 - lam a01 and ``A_plus_B`` = A + B, B = lam - a10, are
    computed by :func:`bind_density_rhs`, not at each evaluation.  A call
    takes a Python float, which it returns as a float, or a float64 array;
    IEEE arithmetic rounds each operation the same way in both, and
    :func:`integrate_ode` inlines the same operations.
    """

    lam: float
    A: float
    A_plus_B: float

    def __call__(self, p0):
        return p0 * (1.0 - p0) * (self.A - p0 * self.A_plus_B) / (self.lam * (1.0 - p0) + p0)


def bind_density_rhs(lam: float, a01: float, a10: float) -> DensityRHS:
    """The density ODE's right-hand side for capacity ratio ``lam`` and strengths a01, a10."""
    A = 1.0 - lam * a01
    return DensityRHS(lam, A, A + (lam - a10))


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


def ode_steps_bound(horizon: float, dt: float) -> float:
    """Projected RK4 steps of :func:`integrate_ode`: horizon/dt, within one of the loop's count."""
    return horizon / dt


def _window(rhs: DensityRHS) -> tuple[float, float, float, float]:
    """lam, A, B and S of ``rhs``, refused outside the coexistence window lam, A, B > 0."""
    lam, A, S = rhs.lam, rhs.A, rhs.A_plus_B
    B = S - A  # the rhs's own constants, so that A/S is where it vanishes
    if not (lam > 0.0 and A > 0.0 and B > 0.0):  # a NaN fails too
        raise ValueError(f"the closed form needs a model inside the coexistence window, "
                         f"lam, A, B > 0; got lam = {lam}, A = {A}, B = {B}")
    return lam, A, B, S


def exact_path(rhs: DensityRHS, p0: float, times, guess=None) -> np.ndarray:
    """The density ODE's path from p0 in [0, 1] at ``times`` >= 0, in closed form.

    Inside the coexistence window, with g(p) = lam (1 - p) + p, p* = A/S and
    c = g(p*) / (p* (1 - p*)) = S (lam/A + 1/B), the time to reach p is
    t(p) = (lam/A) ln(p/p0) + (1/B) ln((1-p)/(1-p0)) - (c/S) ln|(A-Sp)/(A-Sp0)|.
    Below p*, e^v = p/(A - Sp) gives p = A/(S + e^-v), precise near 0, and
    t = k (v - v0) + kb ln((1 + B e^v)/(1 + B e^v0)), k = lam/A, kb = 1/B;
    above p* the same holds for 1 - p with A, B and k, kb swapped.  t is
    convex in v with slope in [k, k + kb], so Newton steps from any start
    in [v0 + t/(k + kb), v0 + t/k] stay there; ``guess`` (one density per
    time, such as RK4's states) starts them.  A time has converged once a
    step moves p by at most EXACT_PATH_TOL or its residual is at the
    rounding of t's terms; one that has not within 60 steps is an
    ArithmeticError.  A start of 0, 1 or p* is a constant path.
    """
    lam, A, B, S = _window(rhs)
    times = np.asarray(times, dtype=np.float64)
    side = A - S * p0  # the path keeps the sign of A - Sp
    if p0 in (0.0, 1.0) or side == 0.0:
        return np.full(times.shape, p0)
    below = side > 0.0  # r is p below p*, 1 - p above, and a - S r = |A - Sp|
    a, b, k, kb = (A, B, lam / A, 1.0 / B) if below else (B, A, 1.0 / B, lam / A)
    v0, lnb = np.log((p0 if below else 1.0 - p0) / abs(side)), np.log(b)
    soft0 = np.logaddexp(0.0, lnb + v0)  # ln(1 + b e^v0)
    v_tol = 4.0 * S / a * EXACT_PATH_TOL  # r = a/(S + e^-v) moves at most a/(4S) per unit of v
    out = np.empty(times.shape)
    flat_t, flat_out = times.reshape(-1), out.reshape(-1)
    starts = None if guess is None else np.asarray(guess, dtype=np.float64).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, flat_t.size, EXACT_PATH_BLOCK):
            block = slice(i, i + EXACT_PATH_BLOCK)
            tau = flat_t[block]
            lo, hi = v0 + tau / (k + kb), v0 + tau / k
            v = (lo + hi) / 2.0
            if starts is not None:  # fmin and fmax put a NaN start at a bracket end
                r = starts[block] if below else 1.0 - starts[block]
                v = np.fmax(lo, np.fmin(hi, np.log(r / (a - S * r))))
            for _ in range(60):
                soft = np.logaddexp(0.0, lnb + v)
                f = k * (v - v0) + kb * (soft - soft0) - tau
                step = f / (k + kb * np.exp(lnb + v - soft))
                v = v - step
                noise = 2e-15 * (k * (np.abs(v) + abs(v0)) + kb * (soft + soft0) + tau)  # ~8 ulp
                done = (np.abs(step) <= v_tol) | (np.abs(f) <= noise)
                if done.all():
                    break
            else:
                raise ArithmeticError(f"the closed form did not converge at "
                                      f"{np.count_nonzero(~done)} of {tau.size} times")
            r = a / (S + np.exp(-v))
            flat_out[block] = r if below else 1.0 - r
    out[times == 0.0] = p0
    return out


def _rk4(rhs: DensityRHS, x: float, horizon: float, step: float):
    """RK4 on the density ODE from x at t = 0, each stage of ``rhs`` written out on floats.

    Returns the lists of times and states at every step.  Every operation
    is the one ``rhs(p0)`` and the step formula make, in the same order, so
    the bits are those of calling ``rhs``.  The last step is shortened to
    land exactly on the horizon.
    """
    lam, A, AB = rhs.lam, rhs.A, rhs.A_plus_B
    t, end = 0.0, horizon - 1e-15
    ts, xs = [t], [x]
    h = step
    half, sixth = 0.5 * h, h / 6.0
    while t < end:
        if horizon - t < step:
            h = horizon - t
            half, sixth = 0.5 * h, h / 6.0
        u = 1.0 - x
        k1 = x * u * (A - x * AB) / (lam * u + x)
        y = x + half * k1
        u = 1.0 - y
        k2 = y * u * (A - y * AB) / (lam * u + y)
        y = x + half * k2
        u = 1.0 - y
        k3 = y * u * (A - y * AB) / (lam * u + y)
        y = x + h * k3
        u = 1.0 - y
        k4 = y * u * (A - y * AB) / (lam * u + y)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        ts.append(t)
        xs.append(x)
    return ts, xs


def integrate_ode(rhs: DensityRHS, x0, horizon: float, dt: float = 1e-3, self_check: bool = False):
    """Fixed-step RK4 integration of the density ODE dp0/dt = rhs(p0) from p0 = x0.

    ``rhs`` comes from :func:`bind_density_rhs` and ``x0`` is one density,
    a float or a one-element sequence.  Returns (times, states) including
    t=0; states has shape (steps + 1,) + shape of x0.  The last step is
    shortened to land exactly on the horizon.  With ``self_check`` the
    states must lie within ODE_PATH_TOL of :func:`exact_path` at every grid
    time and the last within ODE_CHECK_TOL, or an ArithmeticError is raised;
    RK4 steps once, and a model outside the coexistence window is refused
    before any step.  More than
    MAX_ODE_STEPS projected steps (:func:`ode_steps_bound`) are refused
    before any step.  ``horizon``, ``dt`` and ``self_check`` stay third to
    fifth: benchmark/tracing.py reads them by position.
    """
    horizon = check_horizon(horizon, "horizon")
    if not 0.0 < dt < np.inf:  # an infinite step would cross any horizon in one step
        raise ValueError(f"dt must be finite and positive, got {dt}")
    steps = ode_steps_bound(horizon, dt)
    if steps > MAX_ODE_STEPS:
        raise ValueError(f"horizon {horizon} at dt = {dt} projects {steps:.4g} RK4 steps; "
                         f"the limit is {MAX_ODE_STEPS:.4g}")
    x_init = np.array(x0, dtype=np.float64)
    if x_init.size != 1:
        raise ValueError(f"integrate_ode steps one density, got {x_init.size} components")
    start = x_init.item()
    if self_check:
        _window(rhs)
        if not 0.0 <= start <= 1.0:  # a NaN fails too
            raise ArithmeticError(f"closed-form check failed: the start {start} lies off [0, 1]")
    ts, xs = (np.array(seq) for seq in _rk4(rhs, start, horizon, dt))
    if self_check:
        gaps = np.abs(xs - exact_path(rhs, start, ts, guess=xs))
        if not gaps.max() <= ODE_PATH_TOL:  # a NaN fails too
            raise ArithmeticError(f"closed-form check failed: largest gap {gaps.max():.3e} "
                                  f"on the grid")
        if not gaps[-1] <= ODE_CHECK_TOL:
            raise ArithmeticError(f"closed-form check failed: terminal gap {gaps[-1]:.3e}")
    return ts, xs.reshape((len(xs),) + x_init.shape)


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
                         reps: int, rng: np.random.Generator,
                         dt: float = COMPARATOR_DT) -> ComparatorReport:
    """Compare complete-graph density paths with the frequency ODE.

    ``density0`` is the initial density of ones; the chain starts from
    round(N * density0) ones.  Each replicate is an exact path of the count
    chain, all from one call of :func:`ipsd.spin.simulate_complete_counts`,
    which steps them in lockstep on ``rng``.  Its piecewise-constant
    density-of-ones path is compared in sup norm against 1 - p0(t), the ODE
    solution's density of ones, on the merged time grid, one slice of
    replicates at a time.  More than MAX_COMPARATOR_VERTICES vertices,
    more than MAX_COMPARATOR_JUMPS projected jumps
    (:func:`comparator_jumps_bound`) or more than MAX_ODE_STEPS projected
    ODE steps are refused before any draw.
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
