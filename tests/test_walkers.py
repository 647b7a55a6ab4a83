"""Interacting random-walk duals: rates, transitions, invariants."""

import numpy as np
import pytest

from ipsd.lattice import Stencil, Torus
from ipsd.rng import derive_stream
from ipsd.walkers import (BCRW, CRW, DBARW, apply_transition, per_particle_rates,
                          simulate_walker, survival_probability, walker_rates)


def _geom(d=1, L=4, rate=1.0):
    return Torus(d, L), Stencil.nearest_neighbor(d, rate)


def test_per_particle_rates_oracles():
    assert per_particle_rates(CRW()) == (0.0, 0.0, -1)
    assert per_particle_rates(DBARW(branch_rate=0.7)) == (0.0, 0.7, -2)
    # BCRW with s=-1, mu=-1/2: single-offspring rate (-s)(mu+1) = 1/2 and
    # double-offspring rate (-s)(-mu) = 1/2 per particle
    b1, b2, delta = per_particle_rates(BCRW(s=-1.0, mu=-0.5))
    assert (b1, b2, delta) == (0.5, 0.5, -1)


def test_walker_kind_validation():
    with pytest.raises(ValueError):
        DBARW(branch_rate=-0.1)
    with pytest.raises(ValueError):
        BCRW(s=0.5, mu=-0.5)  # needs s <= 0
    with pytest.raises(ValueError):
        BCRW(s=-1.0, mu=0.5)  # needs mu in [-1, 0]
    BCRW(s=0.0, mu=0.0)  # boundary values are fine


def test_walker_rates_oracle():
    torus, stencil = _geom()
    rates = dict(walker_rates(CRW(), {0: 2}, torus, stencil))
    # two walkers at site 0: migration 2 * 1/2 per direction, one pair at rate 1
    assert rates[("migrate", 0, 1)] == pytest.approx(1.0)
    assert rates[("migrate", 0, 3)] == pytest.approx(1.0)
    assert rates[("pair", 0)] == pytest.approx(1.0)
    assert len(rates) == 3
    # DBARW adds a double-offspring channel at b per particle
    rates = dict(walker_rates(DBARW(branch_rate=0.5), {0: 2}, torus, stencil))
    assert rates[("branch2", 0)] == pytest.approx(1.0)
    # BCRW adds both offspring channels
    rates = dict(walker_rates(BCRW(s=-2.0, mu=-0.25), {0: 1}, torus, stencil))
    assert rates[("branch1", 0)] == pytest.approx(1.5)  # 2 * 0.75
    assert rates[("branch2", 0)] == pytest.approx(0.5)  # 2 * 0.25
    assert ("pair", 0) not in rates  # a single walker has no pair


def test_walker_rates_pair_combinatorics():
    torus, stencil = _geom()
    rates = dict(walker_rates(CRW(), {2: 5}, torus, stencil))
    assert rates[("pair", 2)] == pytest.approx(10.0)  # C(5,2)


def test_apply_transition():
    counts = {0: 2, 1: 1}
    out = apply_transition(CRW(), counts, ("migrate", 0, 1))
    assert out == {0: 1, 1: 2}
    assert counts == {0: 2, 1: 1}  # functional update
    out = apply_transition(CRW(), counts, ("pair", 0))
    assert out == {0: 1, 1: 1}  # coalescence leaves one of the pair
    out = apply_transition(DBARW(branch_rate=1.0), counts, ("pair", 0))
    assert out == {1: 1}  # delta -2 kills both and the empty site is pruned
    out = apply_transition(DBARW(branch_rate=1.0), {0: 1}, ("branch2", 0))
    assert out == {0: 3}
    out = apply_transition(BCRW(s=-1.0, mu=-0.5), {0: 1}, ("branch1", 0))
    assert out == {0: 2}
    with pytest.raises(ValueError):  # a lone walker cannot pair-annihilate
        apply_transition(DBARW(branch_rate=1.0), {0: 1}, ("pair", 0))


def test_dbarw_pair_removes_two():
    # DBARW pair reaction removes both partners: 3 -> 1
    out = apply_transition(DBARW(branch_rate=0.1), {4: 3}, ("pair", 4))
    assert out == {4: 1}


def test_simulate_walker_grid_and_snapshots():
    torus, stencil = _geom(L=6)
    run = simulate_walker(CRW(), {0: 3, 2: 1}, torus, stencil, 2.0,
                          derive_stream(71, "walk-grid"), grid=[0.5, 1.0, 2.0],
                          keep_snapshots=True)
    assert list(run.grid) == [0.5, 1.0, 2.0]
    assert len(run.sizes) == 3 and len(run.snapshots) == 3
    for size, snap in zip(run.sizes, run.snapshots):
        assert size == sum(snap.values())
    assert run.sizes[0] <= 4


def test_crw_total_never_increases():
    torus, stencil = _geom(L=8)
    rng = derive_stream(72, "walk-mono")
    for _ in range(10):
        run = simulate_walker(CRW(), {0: 2, 3: 2, 5: 1}, torus, stencil, 5.0,
                              rng, grid=[0.5, 1, 2, 3, 4, 5])
        assert np.all(np.diff(run.sizes) <= 0)


def test_crw_pair_eventually_coalesces():
    torus, stencil = _geom(L=4)
    rng = derive_stream(73, "walk-coal")
    for _ in range(20):
        run = simulate_walker(CRW(), {0: 1, 2: 1}, torus, stencil, 200.0, rng,
                              grid=[200.0])
        assert run.sizes[-1] <= 1  # two walkers on a small ring meet well before T


def test_dbarw_parity_conserved():
    torus, stencil = _geom(L=6)
    rng = derive_stream(74, "walk-parity")
    for start, want in [({0: 2}, 0), ({0: 3}, 1), ({0: 1, 3: 2}, 1)]:
        for _ in range(5):
            run = simulate_walker(DBARW(branch_rate=1.0), dict(start), torus, stencil,
                                  3.0, rng, cap=300, grid=[1.0, 2.0, 3.0])
            assert not run.parity_changed
            for sz in run.sizes:
                if run.cap_time is None:
                    assert sz % 2 == want


def test_dbarw_odd_start_never_dies():
    torus, stencil = _geom(L=6)
    rng = derive_stream(75, "walk-odd")
    for _ in range(20):
        run = simulate_walker(DBARW(branch_rate=0.3), {0: 3}, torus, stencil, 10.0,
                              rng, cap=10_000, grid=[10.0])
        assert run.extinction_time is None
        assert run.sizes[-1] >= 1


def test_bcrw_never_dies():
    torus, stencil = _geom(L=6)
    rng = derive_stream(76, "walk-bcrw")
    for _ in range(20):
        run = simulate_walker(BCRW(s=-1.0, mu=-0.5), {0: 1}, torus, stencil, 10.0,
                              rng, cap=5000, grid=[10.0])
        assert run.extinction_time is None
        assert run.sizes[-1] >= 1


def test_cap_hit_recorded():
    torus, stencil = _geom(L=4)
    run = simulate_walker(DBARW(branch_rate=5.0), {0: 2}, torus, stencil, 50.0,
                          derive_stream(77, "walk-cap"), cap=20, grid=[50.0])
    assert run.cap_time is not None and run.cap_time < 50.0
    assert run.sizes[-1] >= 20  # the over-cap total is carried forward


def test_extinction_time_recorded():
    # CRW coalescence only ever reaches a single immortal walker; extinction
    # needs the pair-annihilating kind, whose even starts can reach zero.
    torus, stencil = _geom(L=4)
    rng = derive_stream(78, "walk-ext")
    seen = False
    for _ in range(20):
        run = simulate_walker(DBARW(branch_rate=0.05), {0: 2}, torus, stencil,
                              100.0, rng, cap=1000, grid=[100.0])
        if run.extinction_time is not None:
            assert run.sizes[-1] == 0
            seen = True
    assert seen


def test_survival_probability_counts_cap_as_alive():
    torus, stencil = _geom(L=4)
    out = survival_probability(DBARW(branch_rate=4.0), {0: 2}, torus, stencil,
                               horizon=30.0, reps=40, master_seed=79, role="walk-surv",
                               cap=25)
    # every capped run counts as alive, so survival dominates the cap rate;
    # with this branch rate a solid fraction caps rather than persisting
    assert out["survival"].mean >= out["cap_fraction"] > 0.3
    assert out["successes"] == round(out["survival"].mean * 40)


def test_walker_input_validation():
    torus, stencil = _geom()
    # an empty start is the already-extinct state, not an error
    run = simulate_walker(CRW(), {}, torus, stencil, 1.0, derive_stream(80, "v"),
                          grid=[0.5, 1.0])
    assert run.extinction_time == 0.0 and np.all(run.sizes == 0)
    run = simulate_walker(CRW(), {0: 0}, torus, stencil, 1.0, derive_stream(80, "v"))
    assert run.extinction_time == 0.0
    with pytest.raises(ValueError):  # site outside the torus
        simulate_walker(CRW(), {99: 1}, torus, stencil, 1.0, derive_stream(80, "v"))
    with pytest.raises(ValueError):  # initial mass beyond the cap
        simulate_walker(CRW(), {0: 50}, torus, stencil, 1.0, derive_stream(80, "v"), cap=10)
