"""Density ODE, its closed-form equilibrium, and the finite-system comparator."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ipsd import spin
from ipsd import meanfield
from ipsd.harness import load_config_file
from ipsd.meanfield import (MAX_COMPARATOR_JUMPS, MAX_COMPARATOR_VERTICES, MAX_ODE_STEPS,
                            ODE_CHECK_TOL, DensityRHS, bind_density_rhs, comparator_jumps_bound,
                            equilibrium, exact_path, integrate_ode, meanfield_comparator,
                            ode_steps_bound)
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


# inside the window, lam = 0.02 makes the growth rate near p0 = 0 about A / lam = 50
STIFF = (0.02, 0.0, 0.0)


def test_integrate_ode_self_check_raises_on_instability():
    # rate 50 with dt = 0.1, beyond RK4's stability limit of about 2.8 / 50:
    # the closed-form comparison must fail loudly instead of returning garbage
    with pytest.raises(ArithmeticError, match="^closed-form check failed: largest gap"):
        integrate_ode(bind_density_rhs(*STIFF), [0.001], 10.0, dt=0.1, self_check=True)


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
    pytest.param(STIFF, 0.001, 10.0, 0.1, id="self-check-fails"),
    # the step-halving check took configs/meanfield.ini up to run.dt = 2 (largest
    # gap 2.4e-6) and the benchmark smoke test's sweep at run.dt = 0.5 (9.0e-7);
    # it refused 2.5 on a terminal gap of 1.1e-8 and the benchmark's 0.3 on 1.4e-8
    *[pytest.param((1.0, 0.8, 0.4), 0.3, 60.0, dt, id=f"configs-meanfield-dt={dt}")
      for dt in (0.5, 1.0, 2.0, 2.5, 3.0, 5.0)],
    *[pytest.param((1.0, a01, 0.4), 0.3, 150.0, 0.5, id=f"sweep-alpha01={a01}-dt=0.5")
      for a01 in (0.2, 0.4, 0.6, 0.8)],
    pytest.param((1.0, 0.5, 0.5), 0.7, 3.0, 0.3, id="benchmark-meanfield-dt=0.3"),
])
def test_integrate_ode_gives_the_reference_bits(params, x0, horizon, dt):
    # the inlined loop against the loop that called the rhs: the same times,
    # the same states, and the closed-form check passing or raising where the
    # reference's step-halving check does
    rhs = bind_density_rhs(*params)
    for start in (x0, [x0]):
        ts, xs = integrate_ode(rhs, start, horizon, dt=dt)
        ref_ts, ref_xs = _reference_integrate_ode(rhs, start, horizon, dt)
        assert ts.tobytes() == ref_ts.tobytes()
        assert xs.shape == ref_xs.shape and xs.dtype == ref_xs.dtype
        assert xs.tobytes() == ref_xs.tobytes()
    try:
        _, want = _reference_integrate_ode(rhs, [x0], horizon, dt, self_check=True)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="^closed-form check failed: (largest|terminal) "
                                                  "gap"):
            integrate_ode(rhs, [x0], horizon, dt=dt, self_check=True)
    else:
        _, got = integrate_ode(rhs, [x0], horizon, dt=dt, self_check=True)
        assert got.tobytes() == want.tobytes()


def test_the_self_check_refuses_a_path_the_step_halving_check_took():
    # at dt = 10 both RK4 runs settle on p* by T = 200, so the terminal gap is
    # 3e-12, but the path on the way is off by 0.19 at the grid's worst time
    rhs = bind_density_rhs(1.0, 0.3, 0.8)
    _reference_integrate_ode(rhs, [0.3], 200.0, 10.0, self_check=True)
    with pytest.raises(ArithmeticError, match="^closed-form check failed: largest gap 1.928e-01 "
                                              "on the grid$"):
        integrate_ode(rhs, [0.3], 200.0, 10.0, self_check=True)
    with pytest.raises(ArithmeticError, match="^closed-form check failed: terminal gap 1.522e-08$"):
        integrate_ode(bind_density_rhs(1.0, 0.5, 0.5), [0.7], 3.0, 0.3, self_check=True)


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
    # self_check passes or raises as the loop's step-halving says; the
    # logistic lies outside the coexistence window, where it is refused
    gap = abs(ref_xs[-1, 0] - _loop_rk4(rhs, [0.3], horizon, dt / 2.0)[1][-1, 0])
    if rhs.A_plus_B <= rhs.A:
        with pytest.raises(ValueError, match="^the closed form needs a model inside the "
                                             "coexistence window"):
            integrate_ode(rhs, [0.3], horizon, dt=dt, self_check=True)
    elif gap <= 1e-8:
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
    class Stepped(Exception):
        pass

    def never(*args, **kwargs):
        raise Stepped

    monkeypatch.setattr(meanfield, "_rk4", never)
    rhs = bind_density_rhs(1.0, 0.8, 0.4)
    assert ode_steps_bound(1e6, 1e-3) == 1e9
    with pytest.raises(ValueError, match=r"^horizon 1000000.0 at dt = 0.001 projects 1e\+09 RK4 "
                                         r"steps; the limit is 4.194e\+06$"):
        integrate_ode(rhs, [0.3], 1e6, 1e-3, self_check=True)
    # the closed-form check makes no RK4 steps, so the self-check adds none to the count
    horizon = 2e6 * 1e-3
    assert ode_steps_bound(horizon, 1e-3) < MAX_ODE_STEPS
    with pytest.raises(Stepped):
        integrate_ode(rhs, [0.3], horizon, 1e-3, self_check=True)
    with pytest.raises(ValueError, match="projects 5e\\+06 RK4 steps"):
        integrate_ode(rhs, [0.3], 5e6 * 1e-3, 1e-3, self_check=True)


def test_integrate_ode_keeps_no_state_of_its_self_check():
    # the dt run keeps about 81 bytes a step; the closed form is solved in
    # blocks of EXACT_PATH_BLOCK times once the step lists are freed
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


# -- the closed form ----------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _closed_form_gaps(cases):
    """Largest gap on the grid between exact_path, started from bracket midpoints, and RK4
    at dt and at dt/2, over cases that share the horizon and dt.

    Past 60 cases RK4 steps every model at once as arrays, each element as the
    float path steps it; a numpy step costs about as much as 60 float steps.
    """
    [(horizon, dt)] = {case[2:] for case in cases}
    rhs = [bind_density_rhs(*params) for params, *_ in cases]
    x0 = [case[1] for case in cases]
    stacked = DensityRHS(*(np.array([getattr(r, key) for r in rhs])
                           for key in ("lam", "A", "A_plus_B")))
    gaps = []
    for step in (dt, dt / 2.0):
        if len(cases) > 60:
            ts, xs = _loop_rk4(stacked, x0, horizon, step)
            runs = [(ts, xs[:, j]) for j in range(len(cases))]
        else:
            runs = [integrate_ode(r, x, horizon, dt=step) for r, x in zip(rhs, x0)]
        gaps.append(max(float(np.abs(exact_path(r, x, ts) - xs.reshape(-1)).max())
                        for r, x, (ts, xs) in zip(rhs, x0, runs)))
    return gaps


def _criterion_06_cases():
    """Criterion 6's 20 models x 2 starts, drawn as tests/test_acceptance.py draws them."""
    rng = derive_stream(20260819, "c6")
    cases = []
    for _ in range(20):
        lam = float(rng.uniform(0.75, 1.5))
        a01 = float(rng.uniform(0.0, 0.5 / lam))
        a10 = float(rng.uniform(0.0, 0.5 * lam))
        cases += [((lam, a01, a10), x0, 200.0, 0.01) for x0 in (0.3, 0.7)]
    return cases


def _sweep_cases(path):
    """(params, p0, horizon, dt) of every point of a meanfield sweep config."""
    options = load_config_file(path)
    run, base = options["run"], options["params"]
    names = [name.split(".", 1)[1] for name in options["sweep"]["vary"].split(",")]
    lists = [[float(v) for v in values.split(",")]
             for values in options["sweep"]["values"].split(";")]
    cases = []
    for point in itertools.product(*lists):
        params = {**{k: float(v) for k, v in base.items()}, **dict(zip(names, point))}
        cases.append(((params["lam"], params["alpha01"], params["alpha10"]), float(run["p0"]),
                      float(run["t"]), float(run["dt"])))
    return cases


@pytest.mark.parametrize("cases", [
    pytest.param(_criterion_06_cases(), id="criterion-06"),
    pytest.param(_sweep_cases(ROOT / "benchmark/configs/complete-graph/sweep.ini"),
                 id="benchmark-sweep"),
    pytest.param(_sweep_cases(ROOT / "configs/meanfield-scan.ini"), id="meanfield-scan"),
])
def test_the_closed_form_agrees_with_rk4_at_dt_and_half_dt(cases):
    assert len(cases) in (40, 4, 100)
    assert max(_closed_form_gaps(cases)) <= ODE_CHECK_TOL / 10


@given(st.floats(-2.0, 2.0), st.floats(0.0, 0.999), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
       st.sampled_from([1.0, 10.0]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_the_closed_form_agrees_with_rk4_on_window_models(log_lam, u01, u10, x0, horizon):
    # any model of the window, a01 = u01 / lam and a10 = u10 lam, from any start;
    # a Newton solve from RK4's states finds the root a solve from midpoints finds
    lam = float(np.exp(log_lam))
    params = (lam, u01 / lam, u10 * lam)
    assert max(_closed_form_gaps([(params, x0, horizon, 1e-3)])) <= ODE_CHECK_TOL / 10
    rhs = bind_density_rhs(*params)
    ts, xs = integrate_ode(rhs, [x0], horizon, dt=1e-3)
    assert np.abs(exact_path(rhs, x0, ts, guess=xs[:, 0]) - exact_path(rhs, x0, ts)).max() < 1e-12


@pytest.mark.parametrize("x0", [1e-300, 3.2e-31, 1e-9])
@pytest.mark.parametrize("params", [(1.0, 0.0, 0.0), (0.3, 2.0, 0.1), (2.5, 0.1, 2.2)])
def test_the_closed_form_keeps_its_precision_near_0_and_1(params, x0):
    # p = A/(S + e^-v) keeps p's relative precision near 0, where RK4 keeps
    # it too; an A - Sp = e^z variable gave 0.11 at t = 1 from 3.2e-31
    rhs = bind_density_rhs(*params)
    ts, xs = integrate_ode(rhs, [x0], 10.0, dt=1e-3)
    exact = exact_path(rhs, x0, ts)
    assert (np.abs(exact - xs[:, 0]) <= 1e-9 * xs[:, 0]).all()
    assert (np.abs(exact_path(rhs, x0, ts, guess=xs[:, 0]) - exact) <= 1e-12 * exact).all()
    # near 1 it keeps 1 - p's: 1 - p follows the density ODE of lam' = 1/lam,
    # A' = B/lam and S' = S/lam, whose path from 1 - p0 lies below its p*
    lam, S = rhs.lam, rhs.A_plus_B
    mirror = exact_path(DensityRHS(1.0 / lam, (S - rhs.A) / lam, S / lam), 1.0 - (1.0 - x0), ts)
    assert (np.abs(1.0 - exact_path(rhs, 1.0 - x0, ts) - mirror) <= 1e-12 * mirror + 1e-15).all()


@pytest.mark.parametrize("x0", [0.0, 1.0, 0.5])
def test_the_closed_form_holds_a_start_at_a_fixed_point(x0):
    # the symmetric model has p* = A / (2A) = 1/2 exactly
    rhs = bind_density_rhs(1.0, 0.5, 0.5)
    assert rhs.A - rhs.A_plus_B * 0.5 == 0.0
    assert exact_path(rhs, x0, [0.0, 1.0, 50.0]).tolist() == [x0] * 3
    integrate_ode(rhs, [x0], 5.0, dt=0.1, self_check=True)


def test_the_closed_form_at_t_0_is_the_start():
    # from about a quarter of these starts, p0 -> v0 -> p rounds off p0
    rhs = bind_density_rhs(1.3, 0.2, 0.6)
    for x0 in np.linspace(0.01, 0.99, 99).tolist():
        assert exact_path(rhs, x0, [0.0, 0.0, 1.0])[:2].tolist() == [x0, x0]


def test_a_time_the_closed_form_cannot_solve_is_an_arithmetic_error():
    # no time is exempt: one NaN among the grid times fails the whole solve
    rhs = bind_density_rhs(1.3, 0.2, 0.6)
    with pytest.raises(ArithmeticError, match="^the closed form did not converge at 1 of 3 "
                                              "times$"):
        exact_path(rhs, 0.3, [0.0, 1.0, np.nan])


@pytest.mark.parametrize("params", [LOGISTIC, (1.0, -49.0, 51.0), (1.0, 1.0, 0.4), (1.0, 0.5, 1.0),
                                    (-1.0, 0.5, 0.5), (np.nan, 0.5, 0.5)])
def test_the_self_check_refuses_a_model_outside_the_window_before_any_step(monkeypatch, params):
    def never(*args, **kwargs):
        raise AssertionError("stepped before checking the window")

    monkeypatch.setattr(meanfield, "_rk4", never)
    rhs = bind_density_rhs(*params)
    with pytest.raises(ValueError, match="^the closed form needs a model inside the coexistence "
                                         "window, lam, A, B > 0; got lam = "):
        integrate_ode(rhs, [0.3], 1.0, dt=0.1, self_check=True)
    with pytest.raises(ValueError, match="coexistence window"):
        exact_path(rhs, 0.3, [1.0])


def test_the_self_check_steps_rk4_once(monkeypatch):
    calls = []
    rk4 = meanfield._rk4

    def spy(*args):
        calls.append(args[3])
        return rk4(*args)

    monkeypatch.setattr(meanfield, "_rk4", spy)
    rhs = bind_density_rhs(1.0, 0.8, 0.4)
    ts, xs = integrate_ode(rhs, [0.3], 60.0, 1e-3, self_check=True)
    assert calls == [1e-3]
    monkeypatch.setattr(meanfield, "_rk4", rk4)
    want = integrate_ode(rhs, [0.3], 60.0, 1e-3)
    assert ts.tobytes() == want[0].tobytes() and xs.tobytes() == want[1].tobytes()


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
    with pytest.raises(ArithmeticError, match="^closed-form check failed: the start nan lies "
                                              "off \\[0, 1\\]$"):
        integrate_ode(bind_density_rhs(1.0, 0.8, 0.4), [np.nan], 1.0, self_check=True)


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
