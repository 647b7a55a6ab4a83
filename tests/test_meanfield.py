"""Density ODE, its closed-form equilibrium, and the finite-system comparator."""

import re
import tracemalloc

import numpy as np
import pytest

from ipsd import spin
from ipsd import meanfield
from ipsd.meanfield import (MAX_COMPARATOR_JUMPS, MAX_COMPARATOR_VERTICES, MAX_ODE_STEPS,
                            DensityRHS, bind_density_rhs, comparator_jumps_bound, equilibrium,
                            integrate_ode, meanfield_comparator, ode_steps_bound)
from ipsd.rng import derive_stream
from ipsd.spin import NPParams, complete_count_rates, simulate_complete_counts


def test_equilibrium_hand_values():
    # p0* = A/(A+B) with A = 1 - lam*a01, B = lam - a10.
    # (lam, a01, a10) = (1, 0.8, 0.4): A = 0.2, B = 0.6 -> 0.25
    assert equilibrium(1.0, 0.8, 0.4) == pytest.approx(0.25, abs=1e-15)
    # (2, 0.25, 1): A = 0.5, B = 1 -> 1/3
    assert equilibrium(2.0, 0.25, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_equilibrium_symmetric_is_exactly_half():
    # A = B = 1 - alpha: the quotient (1-a)/(2(1-a)) is exact in IEEE.
    for a in (0.0, 0.3, 0.7, 0.55):
        assert equilibrium(1.0, a, a) == 0.5


def test_equilibrium_window_gates():
    # the interior fixed point needs 0 <= a10 < lam and 0 <= a01 < 1/lam
    with pytest.raises(ValueError):
        equilibrium(1.0, 1.2, 0.0)
    with pytest.raises(ValueError):
        equilibrium(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        equilibrium(2.0, 0.6, 0.0)  # a01 >= 1/lam


def test_density_rhs_signs():
    # the rhs vanishes at 0, 1, and the interior equilibrium, and pushes
    # the density toward the equilibrium from either side
    lam, a01, a10 = 1.0, 0.8, 0.4
    eq = equilibrium(lam, a01, a10)
    rhs = bind_density_rhs(lam, a01, a10)
    assert rhs(0.0) == 0.0
    assert rhs(1.0) == 0.0
    assert abs(rhs(eq)) < 1e-15
    assert rhs(eq - 0.1) > 0
    assert rhs(eq + 0.1) < 0


def test_lv_density_reduction():
    # lam is the capacity ratio K1/K0.  The coexistence fixed point of the
    # two-species system solves N0 + a01 N1 = K0, N1 + a10 N0 = K1; its
    # frequency N0/(N0+N1) must equal the density-ODE equilibrium.
    lam, a01, a10 = 1.3, 0.5, 0.6
    eq = equilibrium(lam, a01, a10)
    r0, r1, K0, K1 = 1.0, 0.7, 1.0, lam
    n0 = (K0 - a01 * K1) / (1.0 - a01 * a10)
    n1 = (K1 - a10 * K0) / (1.0 - a01 * a10)
    d0 = r0 * n0 * (1.0 - (n0 + a01 * n1) / K0)  # the Lotka-Volterra right-hand sides
    d1 = r1 * n1 * (1.0 - (n1 + a10 * n0) / K1)
    assert abs(d0) < 1e-12 and abs(d1) < 1e-12
    assert n0 / (n0 + n1) == pytest.approx(eq, abs=1e-12)


# lam = 1 and a10 = 2 - a01 make A + B = 0, so the rhs is the logistic A p0 (1 - p0)
LOGISTIC = (1.0, 0.0, 2.0)


def _logistic(p0, t, rate=1.0):
    return p0 * np.exp(rate * t) / (1.0 - p0 + p0 * np.exp(rate * t))


def test_integrate_ode_logistic():
    ts, xs = integrate_ode(bind_density_rhs(*LOGISTIC), [0.3], 1.0, dt=1e-3)
    assert ts[-1] == pytest.approx(1.0)
    assert xs[-1, 0] == pytest.approx(_logistic(0.3, 1.0), abs=1e-12)


def test_integrate_ode_partial_last_step():
    # horizon not a multiple of dt: the last step shortens to land exactly
    ts, xs = integrate_ode(bind_density_rhs(*LOGISTIC), [0.3], 0.55, dt=0.1)
    assert ts[-1] == pytest.approx(0.55, abs=1e-12)
    assert xs[-1, 0] == pytest.approx(_logistic(0.3, 0.55), abs=1e-7)  # RK4 at dt=0.1


def test_integrate_ode_self_check_raises_on_instability():
    # the logistic at rate 50 with dt = 0.1, twice RK4's stability limit of
    # about 2.8 / 50: the halved-step comparison must fail loudly instead of
    # returning garbage
    with pytest.raises(ArithmeticError, match="^step-halving check failed: terminal gap"):
        integrate_ode(bind_density_rhs(1.0, -49.0, 51.0), [0.3], 10.0, dt=0.1, self_check=True)


def _reference_integrate_ode(rhs, x0, horizon, dt, self_check=False):
    """Reference: integrate_ode before its inlined loop, calling ``rhs`` on Python floats."""
    x_init = np.array(x0, dtype=np.float64).item()

    def run(step):
        x = x_init
        t = 0.0
        ts = [0.0]
        xs = [x]
        while t < horizon - 1e-15:
            h = min(step, horizon - t)
            k1 = rhs(x)
            k2 = rhs(x + 0.5 * h * k1)
            k3 = rhs(x + 0.5 * h * k2)
            k4 = rhs(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            ts.append(t)
            xs.append(x)
        return np.array(ts), np.array(xs).reshape((len(xs),) + np.shape(x0))

    ts, xs = run(dt)
    if self_check:
        _, xs_half = run(dt / 2.0)
        err = float(np.abs(xs[-1] - xs_half[-1]).max())
        if not err <= 1e-8:
            raise ArithmeticError(f"step-halving check failed: terminal gap {err:.3e}")
    return ts, xs


@pytest.mark.parametrize("params, x0, horizon, dt", [
    *[pytest.param((1.0, a01, 0.4), 0.3, 150.0, 0.05, id=f"sweep-alpha01={a01}")
      for a01 in (0.2, 0.4, 0.6, 0.8)],
    pytest.param((1.3, 0.2, 0.6), 0.3, 0.55, 0.1, id="shortened-last-step"),
    pytest.param((1.0, 0.8, 0.4), 0.3, 60.0, 0.001, id="configs-meanfield"),
    pytest.param((1.0, -49.0, 51.0), 0.3, 10.0, 0.1, id="self-check-fails"),
])
def test_integrate_ode_gives_the_reference_bits(params, x0, horizon, dt):
    # the inlined loop against the loop that called the rhs: the same times,
    # the same states, and the self-check passing or raising alike
    rhs = bind_density_rhs(*params)
    for start in (x0, [x0]):
        ts, xs = integrate_ode(rhs, start, horizon, dt=dt)
        ref_ts, ref_xs = _reference_integrate_ode(rhs, start, horizon, dt)
        assert ts.tobytes() == ref_ts.tobytes()
        assert xs.shape == ref_xs.shape and xs.dtype == ref_xs.dtype
        assert xs.tobytes() == ref_xs.tobytes()
    try:
        _, want = _reference_integrate_ode(rhs, [x0], horizon, dt, self_check=True)
    except ArithmeticError as err:
        with pytest.raises(ArithmeticError, match=f"^{re.escape(str(err))}$"):
            integrate_ode(rhs, [x0], horizon, dt=dt, self_check=True)
    else:
        _, got = integrate_ode(rhs, [x0], horizon, dt=dt, self_check=True)
        assert got.tobytes() == want.tobytes()


def _loop_rk4(rhs, x0, horizon, step):
    """Reference: RK4 on numpy arrays, as integrate_ode ran before its float path."""
    x = np.array(x0, dtype=np.float64)
    t = 0.0
    ts, xs = [0.0], [x.copy()]
    while t < horizon - 1e-15:
        h = min(step, horizon - t)
        k1 = np.asarray(rhs(x))
        k2 = np.asarray(rhs(x + 0.5 * h * k1))
        k3 = np.asarray(rhs(x + 0.5 * h * k2))
        k4 = np.asarray(rhs(x + h * k3))
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        ts.append(t)
        xs.append(x.copy())
    return np.array(ts), np.array(xs)


@pytest.mark.parametrize("rhs", [
    bind_density_rhs(1.0, 0.5, 0.5),
    bind_density_rhs(1.3, 0.2, 0.6),
    bind_density_rhs(*LOGISTIC),
], ids=["density-symmetric", "density-asymmetric", "logistic"])
@pytest.mark.parametrize("horizon, dt", [(3.0, 1e-3), (0.55, 0.1), (150.0, 0.05)])
def test_integrate_ode_float_path_matches_array_loop(rhs, horizon, dt):
    # a 1-component state is stepped as a Python float; the states must be
    # the bits the array loop gives, the shortened last step (0.55) included
    ts, xs = integrate_ode(rhs, [0.3], horizon, dt=dt)
    ref_ts, ref_xs = _loop_rk4(rhs, [0.3], horizon, dt)
    assert ts.tobytes() == ref_ts.tobytes()
    assert xs.shape == ref_xs.shape == (len(ref_ts), 1) and xs.dtype == ref_xs.dtype
    assert xs.tobytes() == ref_xs.tobytes()
    # self_check compares against the half step and passes or raises as the loop says
    gap = abs(ref_xs[-1, 0] - _loop_rk4(rhs, [0.3], horizon, dt / 2.0)[1][-1, 0])
    if gap <= 1e-8:
        assert integrate_ode(rhs, [0.3], horizon, dt=dt, self_check=True)[1].tobytes() == xs.tobytes()
    else:
        with pytest.raises(ArithmeticError):
            integrate_ode(rhs, [0.3], horizon, dt=dt, self_check=True)


def test_integrate_ode_state_shapes():
    rhs = bind_density_rhs(1.3, 0.2, 0.6)
    ts, xs = integrate_ode(rhs, 0.7, 1.0, dt=0.3)
    assert xs.shape == (len(ts),)
    assert xs.tobytes() == _loop_rk4(rhs, 0.7, 1.0, 0.3)[1].tobytes()
    ts, xs = integrate_ode(rhs, [0.7], 1.0, dt=0.3)
    assert xs.shape == (len(ts), 1)
    assert xs.tobytes() == _loop_rk4(rhs, [0.7], 1.0, 0.3)[1].tobytes()


@pytest.mark.parametrize("x0", [[0.7, 0.2], [], [[0.7], [0.2]]])
def test_integrate_ode_refuses_a_state_of_other_than_one_density(x0):
    with pytest.raises(ValueError, match=f"^integrate_ode steps one density, got "
                                         f"{np.size(x0)} components$"):
        integrate_ode(bind_density_rhs(1.3, 0.2, 0.6), x0, 1.0, dt=0.3)


def test_integrate_ode_refuses_a_run_over_the_step_limit_before_any_step(monkeypatch):
    # unchecked, horizon 10^6 at dt = 10^-3 kept 10^9 states and then ran 2 x 10^9 more steps
    def never(*args, **kwargs):
        raise AssertionError("stepped before checking the step count")

    monkeypatch.setattr(meanfield, "_rk4", never)
    rhs = bind_density_rhs(1.0, 0.8, 0.4)
    assert ode_steps_bound(1e6, 1e-3) == 1e9 and ode_steps_bound(1e6, 1e-3, True) == 3e9
    with pytest.raises(ValueError, match=r"^horizon 1000000.0 at dt = 0.001 projects 3e\+09 RK4 "
                                         r"steps; the limit is 4.194e\+06$"):
        integrate_ode(rhs, [0.3], 1e6, 1e-3, self_check=True)
    # the dt/2 self-check counts twice the steps of the dt run
    horizon = 2e6 * 1e-3
    assert ode_steps_bound(horizon, 1e-3) < MAX_ODE_STEPS < ode_steps_bound(horizon, 1e-3, True)
    with pytest.raises(ValueError, match="projects 6e\\+06 RK4 steps"):
        integrate_ode(rhs, [0.3], horizon, 1e-3, self_check=True)


def test_integrate_ode_keeps_no_state_of_its_self_check():
    # the dt run keeps about 81 bytes a step; the dt/2 run keeps only its last state
    rhs = bind_density_rhs(1.0, 0.8, 0.4)
    peaks = []
    for self_check in (False, True):
        tracemalloc.start()
        try:
            integrate_ode(rhs, [0.3], 20.0, 1e-3, self_check=self_check)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 100 * 20_000 and peaks[1] < 1.1 * peaks[0], peaks


def test_density_rhs_float_matches_array():
    grid = np.linspace(0.0, 1.0, 101)
    rhs = bind_density_rhs(1.3, 0.2, 0.6)
    vec = rhs(grid)
    for p0, v in zip(grid.tolist(), vec):
        out = rhs(p0)
        assert type(out) is float and out == v
        assert rhs(np.float64(p0)) == v


def _reference_density_rhs(p0, lam, a01, a10):
    """The right-hand side that recomputed A and A + B at each evaluation."""
    A = 1.0 - lam * a01
    B = lam - a10
    F = p0 * (1.0 - p0) * (A - p0 * (A + B))
    return F / (lam * (1.0 - p0) + p0)


@pytest.mark.parametrize("lam, a01, a10", [(1.0, 0.5, 0.5), (1.3, 0.2, 0.6), (0.8, 1.1, 0.05)])
def test_bound_density_rhs_gives_the_reference_bits(lam, a01, a10):
    rhs = bind_density_rhs(lam, a01, a10)
    grid = np.linspace(-0.1, 1.1, 121)
    assert rhs(grid).tobytes() == _reference_density_rhs(grid, lam, a01, a10).tobytes()
    for p0 in grid.tolist():
        assert rhs(p0) == _reference_density_rhs(p0, lam, a01, a10)
    assert rhs == DensityRHS(lam, 1.0 - lam * a01, 1.0 - lam * a01 + (lam - a10))
    # one run with its self-check, as meanfield steps it, against the per-evaluation formula
    _, got = integrate_ode(rhs, [0.3], 150.0, dt=0.05, self_check=True)
    _, want = _reference_integrate_ode(lambda x: _reference_density_rhs(x, lam, a01, a10), [0.3],
                                       150.0, 0.05, self_check=True)
    assert got.tobytes() == want.tobytes()


def test_density_ode_converges_to_equilibrium():
    # linearized decay rate at the fixed point is 0.15 for these values, so
    # T = 150 leaves a residual of order exp(-20)
    lam, a01, a10 = 1.0, 0.8, 0.4
    eq = equilibrium(lam, a01, a10)
    for p0 in (0.05, 0.5, 0.95):
        ts, xs = integrate_ode(bind_density_rhs(lam, a01, a10), [p0], 150.0, dt=0.01)
        assert abs(xs[-1, 0] - eq) < 1e-7


def test_comparator_smoke():
    # Large complete graph tracks the ODE; keep it light here (the full-size
    # version is an acceptance criterion).
    rep = meanfield_comparator(80, NPParams.symmetric(0.5), 0.7, 2.0, 40,
                               derive_stream(31, "mf-test"), dt=0.01)
    assert 0.0 <= rep.median < 0.2
    assert len(rep.sup_distances) == 40


def _reference_sup(times, counts, n_vertices, ts, xs):
    """Sup-distance of one count path from the ODE density of ones, on the merged time grid."""
    jd = counts / n_vertices
    idx = np.searchsorted(times, ts, side="right") - 1
    gap_on_grid = np.abs(jd[idx] - (1.0 - xs[:, 0]))
    gap_at_jumps = np.abs(jd - (1.0 - np.interp(times, ts, xs[:, 0])))
    return max(float(gap_on_grid.max()), float(gap_at_jumps.max()))


@pytest.mark.parametrize("cells", [spin.CELLS, 300])
def test_comparator_counts_its_jumps(monkeypatch, cells):
    # every replicate's path from one lockstep call on the caller's stream; at
    # 300 cells the 5 replicates run in slices of 2
    monkeypatch.setattr(spin, "CELLS", cells)
    p = NPParams.symmetric(0.5)
    rep = meanfield_comparator(60, p, 0.3, 1.0, 5, derive_stream(32, "mf-jumps"), dt=0.01)
    up, down = complete_count_rates(p, 60)
    slices = list(simulate_complete_counts(up, down, 18, 1.0, 5, derive_stream(32, "mf-jumps")))
    assert [len(jumps) for _, _, jumps in slices] == ([5] if cells == spin.CELLS else [2, 2, 1])
    assert rep.jumps == sum(int(jumps.sum()) for _, _, jumps in slices) > 0
    assert rep.steps == sum(int(jumps.max()) for _, _, jumps in slices)
    ts, xs = integrate_ode(bind_density_rhs(p.lam, p.alpha01, p.alpha10), [0.7], 1.0, dt=0.01)
    sups = [_reference_sup(times[r, :j + 1], counts[r, :j + 1], 60, ts, xs)
            for times, counts, jumps in slices for r, j in enumerate(jumps)]
    assert rep.sup_distances.tobytes() == np.array(sups).tobytes()
    again = meanfield_comparator(60, p, 0.3, 1.0, 5, derive_stream(32, "mf-jumps"), dt=0.01)
    assert (again.jumps, again.steps) == (rep.jumps, rep.steps)
    assert again.sup_distances.tobytes() == rep.sup_distances.tobytes()


@pytest.mark.parametrize("n_vertices, alpha, density0, horizon, reps, dt", [
    (4, 0.9, 0.5, 3.0, 60, 0.05),  # rows absorb at 0 or 4 and repeat their last entry
    (2, 0.5, 0.5, 0.37, 200, 0.05),  # one jump at most; the last ODE step is shortened
    (200, 0.3, 0.8, 0.5, 30, 0.001),  # many jumps between two grid points
])
def test_comparator_sups_equal_the_per_row_evaluation(n_vertices, alpha, density0, horizon, reps,
                                                      dt):
    p = NPParams.symmetric(alpha)
    rep = meanfield_comparator(n_vertices, p, density0, horizon, reps, derive_stream(35, "rows"),
                               dt=dt)
    up, down = complete_count_rates(p, n_vertices)
    [(times, counts, jumps)] = simulate_complete_counts(
        up, down, int(round(n_vertices * density0)), horizon, reps, derive_stream(35, "rows"))
    ts, xs = integrate_ode(bind_density_rhs(1.0, alpha, alpha), [1.0 - density0], horizon, dt=dt)
    sups = [_reference_sup(times[r, :j + 1], counts[r, :j + 1], n_vertices, ts, xs)
            for r, j in enumerate(jumps)]
    assert rep.sup_distances.tobytes() == np.array(sups).tobytes()


@pytest.mark.parametrize("n_vertices, reps, horizon, message", [
    (1, 5, 1.0, "at least 2 vertices, got 1"),
    (0, 5, 1.0, "at least 2 vertices, got 0"),
    (50, 0, 1.0, "at least 1 replicate, got 0"),
    (50, 5, -0.5, "horizon must be finite and nonnegative, got -0.5"),
    (50, 5, np.inf, "horizon must be finite and nonnegative, got inf"),
    (50, 5, np.nan, "horizon must be finite and nonnegative, got nan"),
])
def test_comparator_rejects_bad_inputs(n_vertices, reps, horizon, message):
    with pytest.raises(ValueError, match=message):
        meanfield_comparator(n_vertices, NPParams.symmetric(0.5), 0.3, horizon, reps,
                             derive_stream(33, "mf-bad"))


def test_comparator_refuses_unbounded_work_before_any_draw():
    # unchecked, N = 10^13 died allocating its rate arrays
    p, rng = NPParams.symmetric(0.5), derive_stream(33, "mf-big")
    state = rng.bit_generator.state
    n = MAX_COMPARATOR_VERTICES + 1
    with pytest.raises(ValueError, match=f"^the comparator allows at most "
                                         f"{MAX_COMPARATOR_VERTICES} vertices, got {n}$"):
        meanfield_comparator(n, p, 0.3, 1e-9, 1, rng)
    # 2 x 10^6 vertices to t = 3: 4 x 6 x 10^6 jumps at most
    assert comparator_jumps_bound(2_000_000, p, 3.0, 4) == 2.4e7 > MAX_COMPARATOR_JUMPS
    with pytest.raises(ValueError, match=r"^4 replicates of 2000000 vertices to horizon 3.0 "
                                         r"project 2.4e\+07 count-chain jumps; the limit is "
                                         r"1.678e\+07$"):
        meanfield_comparator(2_000_000, p, 0.3, 3.0, 4, rng)
    # 2 vertices to t = 5000 make 10^4 jumps at most, but 5 x 10^6 ODE steps at dt = 10^-3
    with pytest.raises(ValueError, match=r"^horizon 5000.0 at dt = 0.001 projects 5e\+06 RK4 "):
        meanfield_comparator(2, p, 0.3, 5000.0, 1, rng)
    assert rng.bit_generator.state == state


def test_comparator_jump_bound_holds_the_rates():
    # N max(1, alpha01, alpha10) bounds up[k] + down[k] at every k
    for p in (NPParams.symmetric(0.5), NPParams(lam=1.5, alpha01=0.3, alpha10=0.6),
              NPParams(lam=2.5, alpha01=1.2, alpha10=0.1), NPParams(lam=0.2, alpha01=3.0,
                                                                     alpha10=2.0)):
        for n in (2, 7, 100, 1001):
            up, down = complete_count_rates(p, n)
            assert (up + down).max() <= comparator_jumps_bound(n, p, 1.0, 1)


@pytest.mark.parametrize("horizon", [np.inf, np.nan, -1.0])
def test_integrate_ode_refuses_a_horizon_that_is_not_finite_and_nonnegative(horizon):
    # unchecked, an infinite horizon never returned and a NaN one returned the start
    with pytest.raises(ValueError, match="horizon must be finite and nonnegative"):
        integrate_ode(bind_density_rhs(*LOGISTIC), [0.3], horizon)


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -0.1])
def test_integrate_ode_refuses_a_step_that_is_not_finite_and_positive(dt):
    # unchecked, dt = inf took one RK4 step over the whole horizon (for x' = -x
    # from 1 it returned 505741); the halved step, also infinite, took the
    # same step, so the self-check passed
    with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt}$"):
        integrate_ode(bind_density_rhs(*LOGISTIC), [0.3], 60.0, dt=dt, self_check=True)


def test_integrate_ode_self_check_fails_on_a_nan_state():
    # unchecked, the NaN terminal gap passed err > tol and meanfield wrote terminal: NaN
    with pytest.raises(ArithmeticError, match="step-halving check failed"):
        integrate_ode(bind_density_rhs(*LOGISTIC), [np.nan], 1.0, self_check=True)


def test_comparator_keeps_no_quadratic_structure():
    # N = 10^5 would need 10^10 kernel edges; the count chain holds O(N) rates,
    # about 80 bytes per vertex while they are computed (8.3 MiB peak here)
    tracemalloc.start()
    try:
        rep = meanfield_comparator(100_000, NPParams.symmetric(0.5), 0.3, 0.5, 1,
                                   derive_stream(34, "mf-big"), dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.jumps > 10_000
    assert rep.median < 0.01
    assert peak < 16 << 20, peak
