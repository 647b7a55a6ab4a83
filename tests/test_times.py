"""One time contract: every engine refuses a bad horizon or grid in the same words.

Each engine entry point runs its horizon through ``harness.check_horizon``
and its grid of recording times through ``harness.check_grid``.  Unchecked,
several of them hung (``simulate_walker`` at a NaN or infinite horizon),
answered (``sample_event_log`` at NaN returned an empty log, so
``parity_duality_mc`` reported no violation) or failed inside numpy.

A query of a finished run (an event log or a spin trajectory) takes a time
in [0, horizon] and answers with the state after every event at or before
it; any other time is refused in ``check_grid``'s words.
"""

import math
from functools import partial

import numpy as np
import pytest

from ipsd import exact, harness, walkers
from ipsd.diffusion import DiffusionParams, ensemble_observable
from ipsd.dualspin import (bernoulli_parity_identity, evug_statistic, parity_duality_mc,
                           replay_dual, simulate_dual_fresh)
from ipsd.exact import build_generator_np, semigroup_apply
from ipsd.harness import check_grid, check_horizon
from ipsd.kernel import torus_kernel
from ipsd.lattice import Stencil, Torus
from ipsd.meanfield import integrate_ode, meanfield_comparator
from ipsd.momdual import coexistence_probe, extinction_probe, moment_duality_mc
from ipsd.rng import derive_stream
from ipsd.spin import (NPParams, complete_count_rates, replay_forward, sample_event_log,
                       simulate_complete_counts, simulate_gillespie)
from ipsd.walkers import (BCRW, CRW, simulate_walker, survival_probability, walker_ensemble,
                          walker_samples)


def test_check_horizon_returns_a_float_and_refuses_by_name():
    assert check_horizon(2, "t") == 2.0 and type(check_horizon(2, "t")) is float
    assert check_horizon(np.float64(0.0), "t") == 0.0
    for bad in (-1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^run.t must be finite and nonnegative, got {bad}$"):
            check_horizon(bad, "run.t")


def test_check_grid_returns_sorted_floats_and_refuses_by_name():
    got = check_grid((2, np.float64(0.5), 1.0), "grid")
    assert got == [0.5, 1.0, 2.0] and all(type(g) is float for g in got)
    assert check_grid([3.0, 1.0], "grid", horizon=3.0) == [1.0, 3.0]
    for values, message in [
        ([], "^grid is empty$"),
        ([1.0, math.nan, 0.5], "^grid has a non-finite entry nan$"),  # NaN sorts anywhere
        ([-math.inf], "^grid has a non-finite entry -inf$"),
        ([2.0, -0.5, -1.0], "^grid has a negative entry -1.0$"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_grid(values, "grid")
    with pytest.raises(ValueError, match=r"^run.grid entry 5.0 is past run.t = 3.0$"):
        check_grid([5.0, 1.0], "run.grid", 3.0, "run.t")


_K = torus_kernel(1, 4)
_P = NPParams.symmetric(0.3)
_TORUS, _STENCIL = Torus(1, 8), Stencil.nearest_neighbor(1)
_PARAMS = DiffusionParams(torus=_TORUS, stencil=_STENCIL, s=0.0, mu=0.0, dt=0.01)
_FIELD = np.full(8, 0.5)


def _moment(fields):
    return fields[:, 0]


# entry point -> call(value, rng); each takes the value as its horizon or its grid
HORIZON_ENTRIES = {
    "simulate_gillespie": lambda h, rng: simulate_gillespie(_P, _K, np.zeros(4), h, rng),
    "sample_event_log": lambda h, rng: sample_event_log(_P, _K, h, rng),
    "simulate_complete_counts": lambda h, rng: simulate_complete_counts(
        *complete_count_rates(_P, 10), 5, h, 4, rng),
    "parity_duality_mc": lambda h, rng: parity_duality_mc(_P, _K, [0], [1], h, 4, 1, "c"),
    "bernoulli_parity_identity": lambda h, rng: bernoulli_parity_identity(_P, _K, [1], h, 4, 1,
                                                                          "c"),
    "simulate_walker": lambda h, rng: simulate_walker(CRW(), {0: 2}, _TORUS, _STENCIL, h, rng),
    "simulate_walker-bcrw": lambda h, rng: simulate_walker(BCRW(-1.0, -0.5), {0: 2}, _TORUS,
                                                           _STENCIL, h, rng),
    "survival_probability": lambda h, rng: survival_probability(CRW(), {0: 2}, _TORUS, _STENCIL,
                                                                h, 4, 1, "c"),
    "coexistence_probe-t_het": lambda h, rng: coexistence_probe(
        2.0, _TORUS, _STENCIL, 1, t_het=h, horizon_surv=0.1, reps_het=4, reps_surv=4),
    "coexistence_probe-horizon_surv": lambda h, rng: coexistence_probe(
        2.0, _TORUS, _STENCIL, 1, t_het=0.1, horizon_surv=h, reps_het=4, reps_surv=4),
    "integrate_ode": lambda h, rng: integrate_ode(_never, [1.0], h),
    "meanfield_comparator": lambda h, rng: meanfield_comparator(10, _P, 0.5, h, 4, rng),
    "semigroup_apply": lambda h, rng: semigroup_apply(build_generator_np(_P, torus_kernel(1, 3)),
                                                      h, np.ones(8)),
}
GRID_ENTRIES = {
    "simulate_dual_fresh": lambda g, rng: simulate_dual_fresh(_P, _K, [1], g, 4, rng),
    "evug_statistic": lambda g, rng: evug_statistic(_P, _K, [1], g, 10, 4, 1, "c"),
    "walker_samples": lambda g, rng: walker_samples(CRW(), {0: 2}, _TORUS, _STENCIL, g, 10, 4,
                                                    rng),
    "walker_ensemble": lambda g, rng: walker_ensemble(CRW(), {0: 2}, _TORUS, _STENCIL, g, 10, 4,
                                                      1, "c"),
    "simulate_walker": lambda g, rng: simulate_walker(CRW(), {0: 2}, _TORUS, _STENCIL, 1.0, rng,
                                                      grid=g),
    "ensemble_observable": lambda g, rng: ensemble_observable(_PARAMS, _FIELD, g, _moment, 4, 1,
                                                              "c"),
    "moment_duality_mc": lambda g, rng: moment_duality_mc(_PARAMS, _FIELD, {0: 2}, g, 4, 1),
    "extinction_probe": lambda g, rng: extinction_probe(
        -1.0, -0.5, _TORUS, _STENCIL, p0_value=0.5, xi0={0: 1}, eps=0.1, grid=g, reps_fwd=4,
        reps_dual=4, master_seed=1),
}


def _never(*args, **kwargs):
    raise AssertionError("worked before checking its times")


def _refuses_untouched(monkeypatch, call, message):
    """``call(rng)`` must raise ``message`` before any draw, stream or step."""
    monkeypatch.setattr(harness, "derive_stream", _never)  # every ensemble's chunk streams
    monkeypatch.setattr(exact, "_uniformized", _never)
    rng = derive_stream(98, "times")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        call(rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("value, message", [
    pytest.param(math.nan, "must be finite and nonnegative, got nan$", id="nan"),
    pytest.param(math.inf, "must be finite and nonnegative, got inf$", id="inf"),
    pytest.param(-1.0, "must be finite and nonnegative, got -1.0$", id="-1"),
])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRIES))
def test_every_horizon_entry_refuses_a_bad_time_before_any_draw(monkeypatch, entry, value,
                                                                message):
    _refuses_untouched(monkeypatch, partial(HORIZON_ENTRIES[entry], value), message)


@pytest.mark.parametrize("grid, message", [
    pytest.param([], "^grid is empty$", id="empty"),
    pytest.param([math.nan], "^grid has a non-finite entry nan$", id="nan"),
    pytest.param([1.0, math.inf], "^grid has a non-finite entry inf$", id="1-inf"),
])
@pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
def test_every_grid_entry_refuses_a_bad_grid_before_any_draw(monkeypatch, entry, grid, message):
    _refuses_untouched(monkeypatch, partial(GRID_ENTRIES[entry], grid), message)


def test_simulate_walker_refuses_a_grid_time_past_its_horizon():
    # unchecked, grid=[5.0] at horizon 1 reported the state at t = 1 as the state at t = 5
    rng = derive_stream(98, "times")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^grid entry 5.0 is past horizon = 1.0$"):
        simulate_walker(CRW(), {0: 2}, _TORUS, _STENCIL, 1.0, rng, grid=[0.5, 5.0])
    assert rng.bit_generator.state == before


def test_simulate_walker_refuses_a_negative_grid_time():
    # the lockstep handoff once passed offsets down to -1e-15, recorded as the start state
    rng = derive_stream(98, "times")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^grid has a negative entry -1e-15$"):
        simulate_walker(CRW(), {0: 2}, _TORUS, _STENCIL, 1.0, rng, grid=[-1e-15, 1.0])
    assert rng.bit_generator.state == before


def test_the_lockstep_hands_the_scalar_loop_nonnegative_offsets(monkeypatch):
    handed = []
    scalar = walkers.simulate_walker

    def spy(kind, xi0, torus, stencil, horizon, rng, cap, grid):
        handed.append((horizon, grid))
        return scalar(kind, xi0, torus, stencil, horizon, rng, cap=cap, grid=grid)

    monkeypatch.setattr(walkers, "simulate_walker", spy)
    grid = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
    for seed in range(4):
        handed.clear()
        runs = walker_samples(BCRW(-1.0, -0.5), {0: 2}, _TORUS, _STENCIL, grid, 50, 100,
                              derive_stream(seed, "handoff"))
        assert 0 < len(handed) == runs.handed.sum()
        for horizon, offsets in handed:
            assert offsets and 0.0 <= offsets[0] and offsets[-1] == horizon


_LOG = sample_event_log(_P, _K, 1.0, derive_stream(97, "log"))
_TRAJ = simulate_gillespie(_P, _K, np.tile([1, 0, 1, 0], (3, 1)), 1.0, derive_stream(97, "traj"))
_START = np.array([1, 0, 1, 1], dtype=np.uint8)
# query -> (the name it refuses a time by, call(t))
QUERIES = {
    "count_up_to": ("t", _LOG.count_up_to),
    "replay_forward": ("t", lambda t: replay_forward(_START, _LOG, t)),
    "replay_dual": ("t", lambda t: replay_dual(_START, _LOG, t)),
    "config_at": ("t", _TRAJ.config_at),
    "density_at": ("grid", lambda t: _TRAJ.density_at([0.5, t])),
}


def test_queries_answer_from_time_zero_to_the_horizon():
    assert 0 < len(_LOG) and 0 < len(_TRAJ) and _LOG.times[-1] < 1.0
    assert _LOG.count_up_to(0.0) == 0 and _LOG.count_up_to(1.0) == len(_LOG)
    assert _LOG.count_up_to(float(_LOG.times[0])) == 1  # an event at t counts
    assert np.array_equal(replay_forward(_START, _LOG, 0.0), _START)
    assert np.array_equal(replay_dual(_START, _LOG, 0.0), _START)
    assert np.array_equal(_TRAJ.config_at(0.0), _TRAJ.initial)
    assert _TRAJ.density_at([0.0, 1.0]).shape == (3, 2)


@pytest.mark.parametrize("t, message", [
    pytest.param(math.nan, "has a non-finite entry nan", id="nan"),
    pytest.param(-1.0, "has a negative entry -1.0", id="-1"),
    pytest.param(2.0, "entry 2.0 is past horizon = 1.0", id="horizon+1"),
])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_every_query_refuses_a_time_outside_its_run(query, t, message):
    # unchecked, a log counted every event at NaN and past its horizon, and a
    # trajectory answered with its start at NaN and at -1
    name, call = QUERIES[query]
    with pytest.raises(ValueError, match=f"^{name} {message}$"):
        call(t)
