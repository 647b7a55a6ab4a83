"""Moment duality: closed-form generator action vs the walker route."""

import pickle
from functools import partial

import numpy as np
import pytest

from ipsd import harness, momdual
from ipsd.lattice import Stencil, Torus
from ipsd.momdual import (coexistence_probe, extinction_probe, field_moment, gen_p_on_H,
                          gen_sigma_on_H, gen_walker_on_H, generator_duality_battery,
                          moment_duality_mc, moment_eval, pairing)
from ipsd.diffusion import DiffusionParams, sigma_of_p
from ipsd.walkers import BCRW, CRW, DBARW


def _geom(d=1, L=4, rate=1.0):
    return Torus(d, L), Stencil.nearest_neighbor(d, rate)


def test_moment_eval_oracle():
    vals = np.array([0.5, 0.75, 0.2, 0.9])
    assert moment_eval(vals, {0: 2, 1: 1}) == pytest.approx(0.25 * 0.75)
    assert moment_eval(vals, {}) == 1.0  # empty product
    assert moment_eval(vals, {3: 3}) == pytest.approx(0.9 ** 3)


def test_sigma_generator_single_site_hand_value():
    # Constant field sigma = 0.5, two particles at one site, s = 1.
    # Analytic route on H = sigma^2: drift (s/2)(sigma^3 - sigma) gives
    # 2 sigma * 0.5 (0.125 - 0.5) = -0.1875; the noise term (1 - sigma^2)
    # contributes (1/2) * 2 * 1 * 0.75 = 0.75; migration vanishes on a
    # constant field.  Total 0.5625.
    torus, stencil = _geom()
    sigma = np.full(4, 0.5)
    val = gen_sigma_on_H(sigma, {0: 2}, 1.0, torus, stencil)
    assert val == pytest.approx(0.5625, abs=1e-12)
    # Walker route, DBARW with b = s/2 = 1/2: pair annihilation at rate 1
    # changes H by 1 - 0.25 = 0.75; double branching at rate b*2 = 1 changes
    # H by 0.0625 - 0.25 = -0.1875; migration changes nothing.
    walker = gen_walker_on_H(sigma, {0: 2}, DBARW(branch_rate=0.5), torus, stencil)
    assert walker == pytest.approx(0.5625, abs=1e-12)


def test_p_generator_single_site_hand_value():
    # Constant field p = 0.5, one particle, s = -1, mu = -1/2.
    # Analytic route on H = p: only the selection drift acts,
    # s p (1-p) (1 - mu p) = -1 * 0.25 * 1.25 = -0.3125.
    torus, stencil = _geom()
    p = np.full(4, 0.5)
    val = gen_p_on_H(p, {0: 1}, -1.0, -0.5, torus, stencil)
    assert val == pytest.approx(-0.3125, abs=1e-12)
    # Walker route, BCRW: +1 at rate 0.5 changes H by p^2 - p = -0.25;
    # +2 at rate 0.5 changes H by p^3 - p = -0.375.  Total -0.3125.
    walker = gen_walker_on_H(p, {0: 1}, BCRW(s=-1.0, mu=-0.5), torus, stencil)
    assert walker == pytest.approx(-0.3125, abs=1e-12)


def test_crw_pairing_neutral_case():
    # s = 0: the p-moment generator pairs with plain coalescing walkers.
    torus, stencil = _geom(L=6)
    rng = np.random.default_rng(81)
    for _ in range(25):
        p = rng.random(6)
        counts = {int(x): int(c) for x, c in zip(rng.choice(6, 3, replace=False),
                                                 rng.integers(1, 3, 3))}
        a = gen_p_on_H(p, counts, 0.0, 0.0, torus, stencil)
        b = gen_walker_on_H(p, counts, CRW(), torus, stencil)
        assert a == pytest.approx(b, abs=1e-10)


def test_generator_duality_battery_dbarw():
    torus, stencil = _geom(L=8)
    gap = generator_duality_battery("dbarw", [(s, 2.0) for s in (0.5, 1.0, 5.0)], 300, torus,
                                    stencil, seed=7)
    assert gap < 1e-10


def test_generator_duality_battery_bcrw():
    torus, stencil = _geom(L=8)
    gap = generator_duality_battery("bcrw", [(-0.5, -1.0), (-1.0, 0.0), (-1.0, -0.5)],
                                    300, torus, stencil, seed=8)
    assert gap < 1e-10


def test_generator_duality_battery_crw_at_any_mu():
    # at s = 0 every mu term of the p generator vanishes, so the CRW pairs with any mu
    torus, stencil = _geom(L=8)
    gap = generator_duality_battery("crw", [(0.0, mu) for mu in (-1.0, 0.0, 0.5, 2.0)],
                                    300, torus, stencil, seed=9)
    assert gap < 1e-10


@pytest.mark.parametrize("s, mu, regime, want, kind, transform", [
    (1.0, 2.0, "auto", "dbarw", DBARW(branch_rate=0.5), sigma_of_p),
    (0.0, 2.0, "auto", "dbarw", DBARW(branch_rate=0.0), sigma_of_p),
    (0.0, 0.5, "auto", "crw", CRW(), None),
    (0.0, -0.5, "auto", "crw", CRW(), None),
    (0.0, -0.5, "bcrw", "bcrw", BCRW(s=0.0, mu=-0.5), None),
    (-1.0, -0.5, "auto", "bcrw", BCRW(s=-1.0, mu=-0.5), None),
])
def test_pairing_resolves_the_regime_walker_and_field(s, mu, regime, want, kind, transform):
    got = pairing(s, mu, regime)
    assert got[:3] == (want, kind, transform)
    torus, stencil = _geom(L=5)
    v = np.linspace(-0.9, 0.9, 5) if transform is not None else np.linspace(0.1, 0.9, 5)
    counts = {0: 2, 3: 1}
    assert got[3](v, counts, torus, stencil) == pytest.approx(
        gen_walker_on_H(v, counts, kind, torus, stencil), abs=1e-12)


@pytest.mark.parametrize("s, mu, regime, message", [
    (1.0, 0.5, "dbarw", "the DBARW pairing needs mu = 2"),
    (0.5, -0.5, "crw", "the CRW pairing needs s = 0"),
    (0.5, -0.5, "bcrw", "BCRW needs a finite s <= 0"),
    (-1.0, 0.5, "auto", "BCRW needs mu in"),
    (0.4, 0.3, "auto", "BCRW needs a finite s <= 0"),
    (-1.0, -0.5, "voter", "unknown regime 'voter'"),
])
def test_pairing_refuses_a_regime_without_a_walker(s, mu, regime, message):
    with pytest.raises(ValueError, match=message):
        pairing(s, mu, regime)


def test_generator_duality_battery_rejects_unknown():
    torus, stencil = _geom()
    with pytest.raises(ValueError):
        generator_duality_battery("voter", [(1.0, 2.0)], 10, torus, stencil, seed=0)


def test_moment_duality_mc_neutral_quick():
    # s = 0 pairing at modest replication; both the z test and the
    # dt-halving cross-check ride along
    torus, stencil = _geom(L=6)
    params = DiffusionParams(torus=torus, stencil=stencil, s=0.0, mu=0.0, dt=2e-3)
    rows = moment_duality_mc(params, np.full(6, 0.5), {0: 2}, [0.2], 3000, 123,
                             regime="crw")
    (row,) = rows
    assert abs(row["z"]) < 4.0
    assert abs(row["z_half"]) < 4.0
    assert abs(row["z_steps"]) < 4.0
    assert row["regime"] == "crw"
    assert 0.0 <= row["forward"].mean <= 1.0


def test_moment_duality_mc_regime_inference():
    torus, stencil = _geom(L=4)
    params = DiffusionParams(torus=torus, stencil=stencil, s=1.0, mu=2.0, dt=5e-3)
    rows = moment_duality_mc(params, np.full(4, 0.5), {0: 2}, [0.1], 400, 5, regime="auto")
    assert rows[0]["regime"] == "dbarw"
    params2 = DiffusionParams(torus=torus, stencil=stencil, s=-1.0, mu=-0.5, dt=5e-3)
    rows2 = moment_duality_mc(params2, np.full(4, 0.5), {0: 1}, [0.1], 400, 5, regime="auto")
    assert rows2[0]["regime"] == "bcrw"
    params3 = DiffusionParams(torus=torus, stencil=stencil, s=0.4, mu=0.3, dt=5e-3)
    with pytest.raises(ValueError):  # no dual family covers this corner
        moment_duality_mc(params3, np.full(4, 0.5), {0: 1}, [0.1], 400, 5, regime="auto")


def _closure_moment(xi, sigma, fields):
    """The observable moment_duality_mc built as a closure before field_moment existed."""
    vals = fields.reshape(fields.shape[0], -1)
    if sigma:
        vals = 1.0 - 2.0 * vals
    out = np.ones(fields.shape[0])
    for x, c in sorted((x, c) for x, c in xi.items() if c > 0):
        out *= vals[:, x] ** c
    return out


@pytest.mark.parametrize("xi", [{0: 2}, {0: 1}, {3: 2, 0: 1}, {5: 3, 1: 4, 2: 0}, {0: 5, 7: 2}])
@pytest.mark.parametrize("sigma", [False, True])
def test_field_moment_keeps_the_closure_bits_and_pickles(xi, sigma):
    rng = np.random.default_rng(3)
    fields = rng.random((600, 2, 4))
    fields[fields < 0.05] = 0.0
    obs = partial(field_moment, xi, transform=sigma_of_p if sigma else None)
    got = pickle.loads(pickle.dumps(obs))(fields)
    assert got.tobytes() == _closure_moment(xi, sigma, fields).tobytes()


def test_field_moment_at_one_particle_is_the_site_value():
    # the coexistence probe's heterozygosity reads p_t(0) through xi = {0: 1}
    fields = np.random.default_rng(4).random((50, 6))
    assert field_moment({0: 1}, fields).tobytes() == fields[:, 0].tobytes()


def test_moment_check_and_probes_hand_threads_to_every_ensemble(monkeypatch):
    seen = []

    def serial(fn, items, threads):
        seen.append(threads)
        return [fn(item) for item in items]

    monkeypatch.setattr(harness, "parallel_map", serial)
    torus, stencil = _geom(L=4)
    params = DiffusionParams(torus=torus, stencil=stencil, s=1.0, mu=2.0, dt=0.01)
    moment_duality_mc(params, np.full(4, 0.5), {0: 2}, [0.02], 20, 5, threads=3)
    assert seen == [3, 3, 3]  # forward, forward at dt/2, walkers
    coexistence_probe(2.0, torus, stencil, master_seed=1, t_het=0.02, horizon_surv=0.05,
                      reps_het=8, reps_surv=8, cap=40, dt=0.01, threads=3)
    extinction_probe(-1.0, -0.5, torus, stencil, p0_value=0.5, xi0={0: 1}, eps=0.1,
                     grid=[0.02], reps_fwd=8, reps_dual=8, master_seed=1, dt=0.01, threads=3)
    assert seen == [3] * 7


def test_extinction_probe_validates_eps():
    torus, stencil = _geom()
    with pytest.raises(ValueError):
        extinction_probe(s=-1.0, mu=-0.5, torus=torus, stencil=stencil,
                         p0_value=0.7, xi0={0: 1}, eps=0.3, grid=[1.0],
                         reps_fwd=10, reps_dual=10, master_seed=0)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 0.6])
def test_coexistence_probe_rejects_kappa_outside_the_open_half_interval(monkeypatch, kappa):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking kappa")

    monkeypatch.setattr(momdual, "ensemble_observable", never)
    torus, stencil = _geom()
    with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1/2\)"):
        coexistence_probe(2.0, torus, stencil, master_seed=0, kappa=kappa)


def _forbid_simulation(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking xi0")

    monkeypatch.setattr(momdual, "ensemble_observable", never)
    monkeypatch.setattr(momdual, "walker_ensemble", never)


@pytest.mark.parametrize("site", [9, -1])
def test_moment_duality_mc_refuses_an_off_torus_site_before_simulating(monkeypatch, site):
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom(L=8)
    params = DiffusionParams(torus=torus, stencil=stencil, s=0.0, mu=0.0, dt=0.01)
    with pytest.raises(ValueError, match=f"site {site} outside the torus"):
        moment_duality_mc(params, np.full(8, 0.5), {site: 2}, [0.05], 20, 1)


@pytest.mark.parametrize("noise_n", [4.0, 0.5])
@pytest.mark.parametrize("s, mu", [(1.0, 2.0), (0.0, 0.0), (-1.0, -0.5)])
def test_moment_duality_mc_refuses_a_noise_n_other_than_one_before_simulating(monkeypatch,
                                                                              noise_n, s, mu):
    # every walker pairs with the N = 1 diffusion; at noise_n = 4 all three
    # ensembles ran and gave z = -22.4 and -30.3
    _forbid_simulation(monkeypatch)
    monkeypatch.setattr(harness, "derive_stream", _never_draw)
    torus, stencil = _geom(L=8)
    params = DiffusionParams(torus=torus, stencil=stencil, s=s, mu=mu, noise_n=noise_n, dt=0.01)
    with pytest.raises(ValueError, match=f"^the walker duals pair with the noise_n = 1 diffusion "
                                         f"only, got noise_n = {noise_n}$"):
        moment_duality_mc(params, np.full(8, 0.5), {0: 2}, [0.05], 20, 1)


def _never_draw(*args, **kwargs):
    raise AssertionError("drew before the input check")


@pytest.mark.parametrize("site", [4, -2])
def test_extinction_probe_refuses_an_off_torus_site_before_simulating(monkeypatch, site):
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom()
    with pytest.raises(ValueError, match=f"site {site} outside the torus"):
        extinction_probe(-1.0, -0.5, torus, stencil, p0_value=0.5, xi0={0: 1, site: 1}, eps=0.1,
                         grid=[0.02], reps_fwd=8, reps_dual=8, master_seed=1)


@pytest.mark.parametrize("p0", [np.nan, -0.1, 1.5])
def test_moment_duality_mc_refuses_a_p0_outside_the_unit_interval_before_simulating(monkeypatch,
                                                                                    p0):
    # unchecked, a NaN start went on to run all three ensembles
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom(L=8)
    params = DiffusionParams(torus=torus, stencil=stencil, s=0.0, mu=0.0, dt=0.01)
    field = np.full(8, 0.5)
    field[3] = p0
    with pytest.raises(ValueError, match=r"p0 must lie in \[0, 1\] at every site"):
        moment_duality_mc(params, field, {0: 2}, [0.05], 20, 1)


@pytest.mark.parametrize("p0", [np.nan, -0.5, 0.9, 0.95])
def test_extinction_probe_refuses_a_p0_outside_zero_to_one_minus_eps_before_simulating(
        monkeypatch, p0):
    # unchecked, p0 = nan and p0 = -0.5 passed p0 >= 1 - eps and ran both ensembles
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom()
    with pytest.raises(ValueError, match="need 0 < eps < 1 and 0 <= p0 < 1 - eps"):
        extinction_probe(-1.0, -0.5, torus, stencil, p0_value=p0, xi0={0: 1}, eps=0.1,
                         grid=[0.02], reps_fwd=8, reps_dual=8, master_seed=1)


@pytest.mark.parametrize("side", ["reps_het", "reps_surv"])
def test_coexistence_probe_refuses_one_replicate_before_simulating(monkeypatch, side):
    # unchecked, reps_surv = 1 failed with "need at least two samples" after
    # the heterozygosity ensemble had run
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom()
    with pytest.raises(ValueError, match=f"^{side} must be at least 2, got 1: every estimate "
                                         f"needs a standard error$"):
        coexistence_probe(2.0, torus, stencil, master_seed=1, t_het=0.02, horizon_surv=0.05,
                          **{"reps_het": 8, "reps_surv": 8, side: 1})


@pytest.mark.parametrize("side", ["reps_fwd", "reps_dual"])
def test_extinction_probe_refuses_one_replicate_before_simulating(monkeypatch, side):
    _forbid_simulation(monkeypatch)
    torus, stencil = _geom()
    with pytest.raises(ValueError, match=f"^{side} must be at least 2, got 1: every estimate "
                                         f"needs a standard error$"):
        extinction_probe(-1.0, -0.5, torus, stencil, p0_value=0.5, xi0={0: 1}, eps=0.1,
                         grid=[0.02], master_seed=1,
                         **{"reps_fwd": 8, "reps_dual": 8, side: 1})


def test_every_walker_ensemble_is_refused_by_its_chunk_cells_before_simulating(monkeypatch):
    # a chunk of min(reps, WALKER_BATCH) runs holds a snapshot cell per run, site
    # and grid point; each caller refuses 2^25 of them before its first ensemble
    _forbid_simulation(monkeypatch)
    torus, stencil = Torus(1, 1 << 13), Stencil.nearest_neighbor(1)
    params = DiffusionParams(torus=torus, stencil=stencil, s=0.0, mu=0.0, dt=0.01)
    message = (r"^a walker chunk of 1024 reps x 8192 sites x 4 grid points needs 33554432 "
               r"snapshot cells; the limit is 16777216$")
    with pytest.raises(ValueError, match=message):
        moment_duality_mc(params, np.full(1 << 13, 0.5), {0: 2}, [1, 2, 3, 4], 5000, 1)
    with pytest.raises(ValueError, match=message):
        extinction_probe(-1.0, -0.5, torus, stencil, 0.2, {0: 1}, 0.1, [1, 2, 3, 4], 20, 5000, 1)
    with pytest.raises(ValueError, match=r"^a walker chunk of 1024 reps x 16777216 sites x 1 "
                                         r"grid points needs 17179869184 snapshot cells"):
        coexistence_probe(2.0, Torus(2, 1 << 12), Stencil.nearest_neighbor(2), 0, reps_surv=5000)
