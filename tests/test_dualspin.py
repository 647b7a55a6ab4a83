"""Dual chain for the spin system: pathwise identity, survival, size law."""

import numpy as np
import pytest

from ipsd.dualspin import (ZBDistribution, apply_event_dual, bernoulli_parity_identity,
                           dual_sizes_fresh, evug_statistic,
                           limit_formula, parity_duality_mc, parity_overlap,
                           replay_dual, replay_dual_batch, simulate_dual_fresh)
from ipsd.kernel import config_indicator, torus_kernel
from ipsd.rng import derive_stream
from ipsd.spin import EventLog, NPParams, UpdateEvent, replay_forward, sample_event_log


def test_parity_helpers():
    cfg = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert parity_overlap(cfg, config_indicator(4, [0])) == 1
    assert parity_overlap(cfg, config_indicator(4, [0, 2])) == 0
    assert parity_overlap(cfg, config_indicator(4, [0, 1, 3])) == 0
    assert parity_overlap(cfg, config_indicator(4, [])) == 0
    other = np.array([1, 1, 0, 1], dtype=np.uint8)
    assert parity_overlap(cfg, other) == 0  # overlap {0,3}: even
    assert parity_overlap(cfg, np.array([0, 0, 1, 1], dtype=np.uint8)) == 0
    assert parity_overlap(cfg, np.array([0, 0, 0, 1], dtype=np.uint8)) == 1


def test_apply_event_dual_hand_cases():
    # annihilation event (x; y, z): both y and z flip by the bit at x.
    xi = np.array([1, 0, 0, 1], dtype=np.uint8)
    out = apply_event_dual(xi.copy(), UpdateEvent(time=1.0, x=0, y=1, z=2))
    assert list(out) == [1, 1, 1, 1]
    out = apply_event_dual(xi.copy(), UpdateEvent(time=1.0, x=1, y=0, z=2))
    assert list(out) == [1, 0, 0, 1]  # bit at x=1 is 0: no-op
    # voter event (x; y): y flips by the bit at x, then x clears.
    out = apply_event_dual(xi.copy(), UpdateEvent(time=1.0, x=0, y=1, z=None))
    assert list(out) == [0, 1, 0, 1]
    out = apply_event_dual(xi.copy(), UpdateEvent(time=1.0, x=0, y=3, z=None))
    assert list(out) == [0, 0, 0, 0]  # coalescence: 3 flips off, x clears


def test_dual_size_parity_is_conserved():
    # Voter moves change the size by 0 or -2, annihilation moves by -2, 0, +2:
    # the parity of |xi| never changes under either event type.
    p = NPParams.symmetric(0.5)
    k = torus_kernel(2, 3)
    rng = derive_stream(11, "dual-parity")
    for B, want in [([0], 1), ([0, 4], 0), ([1, 2, 5], 1)]:
        snaps = simulate_dual_fresh(p, k, B, 6.0, rng, record=[1.5, 3.0, 6.0])
        for _, xi in snaps:
            assert int(xi.sum()) % 2 == want


def test_replay_dual_reverses_event_order():
    # Two-event log, horizon 2: replaying the dual applies the *later* event
    # first.  Events: t=0.5 voter (0;1), t=1.5 annihilation (1;0,2); n=3.
    log = EventLog(horizon=2.0, times=np.array([0.5, 1.5]),
                   xa=np.array([0, 1]), ya=np.array([1, 0]), za=np.array([-1, 2]))
    xi0 = config_indicator(3, [0])
    # reverse order: annihilation (1;0,2) with bit(1)=0 is a no-op, then voter
    # (0;1): bit(0)=1 so site 1 flips on and site 0 clears -> {1}.
    assert list(replay_dual(xi0, log, 2.0)) == [0, 1, 0]
    # forward replay of the same log from {0}: voter copies eta(1)=0 onto 0,
    # then annihilation sets eta(1) += eta(0)+eta(2) = 0 -> all empty.
    assert list(replay_forward(xi0, log, 2.0)) == [0, 0, 0]


def test_replay_dual_batch_matches_columns():
    p = NPParams.symmetric(0.6)
    k = torus_kernel(1, 5)
    rng = derive_stream(13, "dual-batch")
    log = sample_event_log(p, k, 4.0, rng)
    cols0 = (rng.random((k.n, 6)) < 0.5).astype(np.uint8)
    for t in (0.0, 1.7, 4.0):
        batched = replay_dual_batch(cols0, log, t)
        for j in range(6):
            assert np.array_equal(batched[:, j], replay_dual(cols0[:, j], log, t))


def test_pathwise_duality_exhaustive_small():
    # <1_B, eta_t^A> = <xi_t^B, 1_A> mod 2, pathwise on a shared log, for
    # every (A, B) pair on a 4-site ring across several horizons.
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 4)
    rng = derive_stream(12, "dual-path")
    subsets = [[x for x in range(4) if (m >> x) & 1] for m in range(16)]
    for _ in range(5):
        log = sample_event_log(p, k, 3.0, rng)
        for t in (1.0, 2.0, 3.0):
            for A in subsets:
                etaA = config_indicator(4, A)
                eta_t = replay_forward(etaA, log, t)
                for B in subsets:
                    indB = config_indicator(4, B)
                    xi_t = replay_dual(indB, log, t)
                    assert parity_overlap(eta_t, indB) == parity_overlap(xi_t, etaA)


def test_annihilation_only_dual_never_dies():
    # At alpha=0 every event keeps its focal site occupied, so a nonempty
    # dual stays nonempty forever.
    p = NPParams.symmetric(0.0)
    k = torus_kernel(2, 4)
    rng = derive_stream(13, "dual-alive")
    for _ in range(10):
        snaps = simulate_dual_fresh(p, k, [3, 7], 25.0, rng, record=[25.0])
        (_, xi), = snaps
        assert int(xi.sum()) >= 1


def test_dual_sizes_fresh_grid():
    p = NPParams.symmetric(0.4)
    k = torus_kernel(1, 6)
    rng = derive_stream(14, "dual-sizes")
    sizes = dual_sizes_fresh(p, k, [0, 2], [0.5, 1.0, 2.0], 50, rng)
    assert sizes.shape == (50, 3)
    assert np.all(sizes % 2 == 0)  # |B| = 2: parity conserved
    assert np.all(sizes >= 0)


def test_parity_duality_mc_two_sample():
    p = NPParams.symmetric(0.6)
    k = torus_kernel(1, 5)
    out = parity_duality_mc(p, k, [0, 1], [2], 2.0, 3000, 15, "dual-mc")
    assert out["violations"] == 0 and out["pathwise_forward"].shape == (3000, 2)
    assert abs(out["z"]) < 4.0
    assert 0.0 <= out["forward"].mean <= 1.0
    assert 0.0 <= out["dual"].mean <= 1.0


def test_bernoulli_half_identity_mc():
    # Product Bernoulli(1/2) start: the parity observable has mean
    # (1/2) P(dual alive at t).  At alpha=0 the dual always survives, so the
    # direct estimate must sit near 1/2 and the survival fraction at 1.
    p = NPParams.symmetric(0.0)
    k = torus_kernel(2, 3)
    out = bernoulli_parity_identity(p, k, [0, 4, 7], 2.0, 4000, 16, "dual-bern")
    assert out["survival_fraction"] == 1.0
    assert abs(out["direct"].mean - 0.5) < 3.5 * out["direct"].stderr
    assert abs(out["z"]) < 4.0


def test_bernoulli_half_identity_where_the_dual_can_die():
    # At alpha = 0.7 voter events let the dual from B = {0, 1} die, so the
    # identity P(odd) = (1/2) P(xi_t != 0) is checked below one half.
    p = NPParams.symmetric(0.7)
    k = torus_kernel(2, 3)
    out = bernoulli_parity_identity(p, k, [0, 1], 2.0, 4000, 16, "dual-bern-dies")
    assert out["survival_fraction"] < 0.9
    assert abs(out["z"]) < 4.0


# -- size distribution and the density formula ------------------------------------


def test_zb_distribution_validation():
    zb = ZBDistribution(sizes=(2, 4), probs=(0.5, 0.25), infinite_mass=0.25)
    assert zb.infinite_mass == 0.25
    with pytest.raises(ValueError):
        ZBDistribution(sizes=(2,), probs=(0.5,), infinite_mass=0.25)  # mass != 1
    with pytest.raises(ValueError):
        ZBDistribution(sizes=(2, 2), probs=(0.5, 0.5), infinite_mass=0.0)  # dup atom


def test_zb_from_samples_with_cap():
    samples = np.array([1, 1, 3, 5, 9, 9, 9, 2])
    zb = ZBDistribution.from_samples(samples, cap=5)
    atoms = dict(zip(zb.sizes, zb.probs))
    assert atoms == {1: 0.25, 2: 0.125, 3: 0.125, 5: 0.125}
    assert zb.infinite_mass == 0.375  # the three 9s exceed the cap


def test_limit_formula_hand_value():
    # (1/2) E[1 - (1-2u)^Z] with u=0.3 and Z ~ {1: .5, 2: .25, inf: .25}:
    # (1/2)[.5(1-.4) + .25(1-.16) + .25(1-0)] = (1/2)(0.76) = 0.38
    zb = ZBDistribution(sizes=(1, 2), probs=(0.5, 0.25), infinite_mass=0.25)
    assert limit_formula(0.3, zb) == pytest.approx(0.38, abs=1e-15)


def test_limit_formula_edge_behavior():
    # u = 1/2 kills every finite power: the value is half the survival mass.
    zb = ZBDistribution(sizes=(2, 6), probs=(0.5, 0.5), infinite_mass=0.0)
    assert limit_formula(0.5, zb) == pytest.approx(0.5)
    # an all-overflow law gives exactly 1/2 for any valid u
    inf_only = ZBDistribution(sizes=(), probs=(), infinite_mass=1.0)
    assert limit_formula(0.1, inf_only) == 0.5
    # the density gate is strict: the endpoints are rejected
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            limit_formula(bad, zb)


def test_limit_formula_zero_size_atom():
    # Z = 0 contributes nothing ((1-2u)^0 = 1), so a dead-dual atom lowers
    # the value below 1/2 by exactly half its mass.
    zb = ZBDistribution(sizes=(0,), probs=(0.4,), infinite_mass=0.6)
    assert limit_formula(0.25, zb) == pytest.approx(0.3)


def test_evug_statistic_rows():
    p = NPParams.symmetric(0.2)
    k = torus_kernel(1, 6)
    _, rows = evug_statistic(p, k, [0, 3], [1.0, 2.0], cap=8, reps=200, master_seed=17,
                             role="dual-evug")
    assert [r["t"] for r in rows] == [1.0, 2.0]
    for r in rows:
        assert 0.0 <= r["window"].mean <= r["survival"].mean <= 1.0


def test_evug_statistic_labels_an_unsorted_grid_in_time_order():
    # the dual records at the sorted grid, so the rows must carry those times
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 10)
    args = dict(cap=12, reps=400, master_seed=1, role="x")
    unsorted_sizes, unsorted = evug_statistic(p, k, [0, 3], [8.0, 0.001], **args)
    ordered_sizes, ordered = evug_statistic(p, k, [0, 3], [0.001, 8.0], **args)
    assert unsorted == ordered
    assert np.array_equal(unsorted_sizes, ordered_sizes)
    assert [r["t"] for r in unsorted] == [0.001, 8.0]
    # the empty dual is absorbing: survival cannot grow with time
    assert unsorted[0]["survival"].mean >= unsorted[1]["survival"].mean
