"""Spin-flip rates, the event-log construction, and the forward chain."""

import tracemalloc

import numpy as np
import pytest

from ipsd import spin
from ipsd.exact import (_event_target, build_generator_np, config_to_state, semigroup_apply,
                        state_to_config)
from ipsd.kernel import (complete_kernel, config_all, config_bernoulli, config_indicator,
                         explicit_kernel, frequency_of_ones, torus_kernel)
from ipsd.spin import (MAX_TABLE_ROWS, EventLog, EventTable, NPParams, complete_count_rates,
                       flip_rate, flip_rates_all, replay_forward,
                       replay_forward_batch, sample_event_log, simulate_complete_counts,
                       simulate_gillespie)
from ipsd.rng import derive_stream
from ipsd.stats import MCEstimate, two_sample_z
from test_walkers import _chi2_gof, _chi2_sf


# -- parameters ----------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        NPParams(lam=0.0, alpha01=0.5, alpha10=0.5)
    with pytest.raises(ValueError):
        NPParams(lam=1.0, alpha01=-0.1, alpha10=0.5)
    with pytest.raises(ValueError):  # the linear-voter corner is excluded
        NPParams(lam=1.0, alpha01=1.0, alpha10=1.0)
    p = NPParams.symmetric(0.3)
    assert p.is_symmetric and p.alpha == 0.3 and p.lam == 1.0


@pytest.mark.parametrize("name", ["lam", "alpha01", "alpha10"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_refuse_a_non_finite_value_by_name(name, bad):
    # unchecked, alpha01 = nan passed every comparison and the engine made no flip
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        NPParams(**{name: bad})
    q = NPParams(lam=2.0, alpha01=0.3, alpha10=0.3)
    assert not q.is_symmetric  # symmetric requires lam == 1 as well


def test_symmetric_alpha_range():
    with pytest.raises(ValueError):
        NPParams.symmetric(1.0)
    with pytest.raises(ValueError):
        NPParams.symmetric(-0.2)


# -- flip rates -----------------------------------------------------------------


def test_flip_rate_hand_value_up():
    # complete graph on 3 sites, x=0 empty, one neighbor occupied: f1 = 1/2.
    # rate(0->1) = (f0 + a01*f1) * lam*f1/(lam*f1 + f0)
    #            = (0.5 + 0.25*0.5) * (2*0.5)/(2*0.5 + 0.5) = 0.625 * (1/1.5) = 5/12
    p = NPParams(lam=2.0, alpha01=0.25, alpha10=0.0)
    k = complete_kernel(3)
    eta = config_indicator(3, [1])
    assert flip_rate(p, k, eta, 0) == pytest.approx(5.0 / 12.0, abs=1e-15)


def test_flip_rate_hand_value_down():
    # complete graph on 5 sites, x=0 occupied, three of four neighbors occupied:
    # f1 = 3/4, f0 = 1/4.  rate(1->0) = (f1 + a10*f0) * f0/(lam*f1 + f0)
    #           = (0.75 + 0.5*0.25) * 0.25/(0.75 + 0.25) = 0.875 * 0.25 = 0.21875
    p = NPParams(lam=1.0, alpha01=0.0, alpha10=0.5)
    k = complete_kernel(5)
    eta = config_indicator(5, [0, 1, 2, 3])
    assert flip_rate(p, k, eta, 0) == pytest.approx(0.21875, abs=1e-15)


def test_flip_rate_absorbing_states():
    p = NPParams.symmetric(0.4)
    k = torus_kernel(1, 5)
    for eta in (config_all(5, 0), config_all(5, 1)):
        for x in range(5):
            assert flip_rate(p, k, eta, x) == 0.0


def test_symmetric_decomposition():
    # In the symmetric case the flip rate splits into an annihilation part
    # (1-a) f0 f1 plus a voter part a * (frequency of the opposite type).
    p = NPParams.symmetric(0.35)
    k = torus_kernel(2, 3)
    rng = np.random.default_rng(7)
    from ipsd.kernel import config_bernoulli, local_frequency

    for _ in range(20):
        eta = config_bernoulli(k.n, 0.5, rng)
        for x in range(k.n):
            f1 = local_frequency(k, eta, x, 1)
            f0 = 1.0 - f1
            opp = f0 if eta[x] == 1 else f1
            expect = (1.0 - p.alpha) * f0 * f1 + p.alpha * opp
            assert flip_rate(p, k, eta, x) == pytest.approx(expect, abs=1e-12)


def test_flip_rates_all_matches_scalar():
    p = NPParams(lam=1.3, alpha01=0.2, alpha10=0.6)
    k = torus_kernel(1, 7)
    rng = np.random.default_rng(3)
    from ipsd.kernel import config_bernoulli, frequency_of_ones

    eta = config_bernoulli(7, 0.5, rng)
    rates = flip_rates_all(p, eta, frequency_of_ones(k, eta))
    assert np.allclose(rates, [flip_rate(p, k, eta, x) for x in range(7)])


# -- event machinery -------------------------------------------------------------


def test_event_table_rates_oracle():
    # d=1, L=4, alpha=0.3.  Per site: voter mass 0.3; annihilation mass
    # (1-0.3)*(1 - sum q^2)/2 = 0.7*(1-0.5)/2 = 0.175.  Four sites -> 1.9
    # total, so the expected event count over horizon 10 is exactly 19.
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 4)
    table = EventTable.build(p, k)
    total = float(table.rates.sum())
    assert total == pytest.approx(1.9, abs=1e-12)
    assert total * 10.0 == pytest.approx(19.0, abs=1e-12)
    voter = table.rates[table.za < 0].sum()
    annih = table.rates[table.za >= 0].sum()
    assert voter == pytest.approx(0.3 * 4, abs=1e-12)
    assert annih == pytest.approx(0.175 * 4, abs=1e-12)


def test_event_table_voter_only_at_full_mixing():
    # alpha -> the annihilation channel carries weight 1-alpha; at alpha=0 the
    # voter rows vanish instead.
    k = torus_kernel(1, 4)
    t0 = EventTable.build(NPParams.symmetric(0.0), k)
    assert np.all(t0.za >= 0)


def test_event_table_rejects_asymmetric():
    k = torus_kernel(1, 4)
    with pytest.raises(ValueError):
        EventTable.build(NPParams(lam=2.0, alpha01=0.2, alpha10=0.2), k)


def _loop_event_table(p, k):
    """Reference: the per-site double loop that enumerated the event rows."""
    alpha = p.alpha
    xs, ys, zs, rs = [], [], [], []
    for x in range(k.n):
        nbr, w = k.out_edges(x)
        m = len(nbr)
        for i in range(m):
            for j in range(i + 1, m):
                xs.append(x)
                ys.append(int(nbr[i]))
                zs.append(int(nbr[j]))
                rs.append((1.0 - alpha) * float(w[i]) * float(w[j]))
        if alpha > 0.0:
            for i in range(m):
                xs.append(x)
                ys.append(int(nbr[i]))
                zs.append(-1)
                rs.append(alpha * float(w[i]))
    return (np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64),
            np.array(zs, dtype=np.int64), np.array(rs))


_TABLE_KERNELS = (
    [(f"torus-{d}-{L}", lambda d=d, L=L: torus_kernel(d, L)) for d in (1, 2, 3) for L in (2, 3, 5)]
    + [(f"complete-{N}", lambda N=N: complete_kernel(N)) for N in list(range(2, 13)) + [60]]
    + [("explicit-0", lambda: explicit_kernel(
           3, [(0, 2, 0.25), (0, 1, 0.75), (1, 0, 1.0), (2, 1, 0.5), (2, 0, 0.5)])),
       ("explicit-1", lambda: explicit_kernel(
           4, [(0, 1, 1.0), (1, 2, 0.3), (1, 0, 0.7), (2, 3, 1.0), (3, 0, 0.1), (3, 2, 0.9)]))]
)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("make", [m for _, m in _TABLE_KERNELS], ids=[n for n, _ in _TABLE_KERNELS])
def test_event_table_matches_loop(make, alpha):
    p, k = NPParams.symmetric(alpha), make()
    table = EventTable.build(p, k)
    ref = _loop_event_table(p, k)
    for got, want in zip((table.xa, table.ya, table.za, table.rates), ref):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert table.total_rate == float(ref[3].sum())


@pytest.mark.parametrize("count", [0, 1, 500])
def test_event_cdf_draws_match_rng_choice(count):
    # sample_event_log inverts the table's cdf; this pins that the inversion
    # draws what Generator.choice(p=rates/total) draws and uses the same stream
    table = EventTable.build(NPParams.symmetric(0.3), complete_kernel(12))
    a, b = derive_stream(5, "cdf", count), derive_stream(5, "cdf", count)
    want = a.choice(len(table.rates), size=count, p=table.rates / table.total_rate)
    got = table.cdf.searchsorted(b.random(count), side="right")
    assert np.array_equal(got, want)
    assert a.random() == b.random()


def test_event_table_rejects_oversized_kernel_before_allocating():
    # complete_kernel(400) would need 400 * (399*398/2 + 399) = 31 920 000 rows
    # (1.3 GB of columns); the row count is checked before any of it exists
    k = complete_kernel(400)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="400-site kernel with maximum degree 399 "
                                             "would have 31920000 rows"):
            EventTable.build(NPParams.symmetric(0.3), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert 31_920_000 > MAX_TABLE_ROWS


def test_sample_event_log_basic():
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 4)
    log = sample_event_log(p, k, 10.0, derive_stream(0, "test-log"))
    assert log.horizon == 10.0
    assert np.all(np.diff(log.times) > 0)
    assert np.all((log.times > 0) & (log.times < 10.0))
    annihilation = log.za >= 0
    assert np.all(log.za[~annihilation] == -1)
    assert np.all(log.xa != log.ya)
    assert np.all(log.xa[annihilation] != log.za[annihilation])
    assert np.all(log.ya[annihilation] != log.za[annihilation])


def test_sample_event_log_count_statistics():
    # Poisson(19) over the horizon; 400 logs put the sample mean within
    # 5 sigma of 19 (sigma_mean = sqrt(19/400) ~ 0.218).
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 4)
    rng = derive_stream(1, "test-log-count")
    counts = [len(sample_event_log(p, k, 10.0, rng).times) for _ in range(400)]
    assert abs(np.mean(counts) - 19.0) < 5 * np.sqrt(19.0 / 400)


def _one_event(x, y, z=-1):
    """Log holding one event at t = 0.5; z = -1 makes it a voter event."""
    return EventLog(1.0, np.array([0.5]), np.array([x]), np.array([y]), np.array([z]))


def _state_after(eta0, log, lo, hi, target=_event_target):
    """Events lo..hi-1 of the log applied in order by a bit-encoded target of exact.py."""
    s = config_to_state(eta0)
    for i in range(lo, hi):
        s = target(s, int(log.xa[i]), int(log.ya[i]), int(log.za[i]))
    return state_to_config(s, len(eta0))


def test_one_event_forward_hand_cases():
    eta = np.array([1, 0, 1, 0], dtype=np.uint8)
    out = replay_forward(eta, _one_event(0, 1), 1.0)
    assert list(out) == [0, 0, 1, 0]  # x copies y
    out = replay_forward(eta, _one_event(3, 0, 2), 1.0)
    assert list(out) == [1, 0, 1, 0]  # eta(3) += eta(0)+eta(2) mod 2 = 0+1+1
    out = replay_forward(eta, _one_event(3, 1, 2), 1.0)
    assert list(out) == [1, 0, 1, 1]  # 0+0+1 = 1
    assert list(eta) == [1, 0, 1, 0]  # input untouched


def test_replay_forward_matches_stepwise():
    p = NPParams.symmetric(0.5)
    k = torus_kernel(2, 3)
    rng = derive_stream(2, "test-replay")
    log = sample_event_log(p, k, 4.0, rng)
    eta0 = config_bernoulli(k.n, 0.5, rng)
    manual = _state_after(eta0, log, 0, len(log))
    assert np.array_equal(replay_forward(eta0, log, 4.0), manual)
    assert np.array_equal(replay_forward(eta0, log, 0.0), eta0)


def test_replay_forward_prefix_consistency():
    p = NPParams.symmetric(0.2)
    k = torus_kernel(1, 6)
    rng = derive_stream(3, "test-prefix")
    log = sample_event_log(p, k, 5.0, rng)
    eta0 = config_indicator(6, [0, 3])
    # replaying to t then continuing is the same as replaying to the horizon
    mid = replay_forward(eta0, log, 2.5)
    rest = _state_after(mid, log, log.count_up_to(2.5), len(log))
    assert np.array_equal(rest, replay_forward(eta0, log, 5.0))


def test_replay_forward_batch_matches_columns():
    p = NPParams.symmetric(0.4)
    k = torus_kernel(2, 3)
    rng = derive_stream(4, "test-batch-fwd")
    log = sample_event_log(p, k, 3.0, rng)
    cols0 = (rng.random((k.n, 7)) < 0.5).astype(np.uint8)
    for t in (0.0, 1.2, 3.0):
        batched = replay_forward_batch(cols0, log, t)
        for j in range(7):
            assert np.array_equal(batched[:, j], replay_forward(cols0[:, j], log, t))
    assert np.array_equal(cols0, (cols0 != 0).astype(np.uint8))  # input untouched


# -- Gillespie chain ---------------------------------------------------------------


def _reference_gillespie(p, k, eta0, horizon, rng):
    """One run of the per-flip loop the engine replaced; returns (terminal, flips)."""
    eta = eta0.astype(np.uint8).copy()
    f1 = frequency_of_ones(k, eta)
    rates = flip_rates_all(p, eta, f1)
    t, flips = 0.0, 0
    while True:
        total = float(rates.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        u = rng.random() * total
        x = min(int(np.searchsorted(np.cumsum(rates), u, side="right")), k.n - 1)
        delta = -1.0 if eta[x] == 1 else 1.0
        eta[x] ^= 1
        src, w = k.in_edges(x)
        f1[src] += delta * w
        touched = np.append(src, x)
        rates[touched] = flip_rates_all(p, eta[touched], f1[touched])
        flips += 1
    return eta, flips


# in-degrees 3, 1, 1, 1: the touch table pads three rows
UNEVEN = explicit_kernel(4, [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0), (2, 0, 0.5), (2, 3, 0.5),
                             (3, 0, 1.0)])


def _terminal_law_pvalue(p, k, eta0, t, terminal):
    law = semigroup_apply(build_generator_np(p, k), t, np.eye(1 << k.n))[config_to_state(eta0)]
    observed = np.bincount([config_to_state(eta) for eta in terminal], minlength=1 << k.n)
    return _chi2_sf(*_chi2_gof(observed, law, len(terminal)))


@pytest.mark.parametrize("p", [NPParams.symmetric(0.0), NPParams.symmetric(0.3),
                               NPParams(lam=1.5, alpha01=0.3, alpha10=0.6)],
                         ids=["alpha0", "alpha0.3", "lam1.5"])
@pytest.mark.parametrize("k", [torus_kernel(1, 4), complete_kernel(3), UNEVEN],
                         ids=["torus4", "complete3", "uneven4"])
def test_terminal_law_matches_exact_semigroup(k, p):
    eta0 = config_indicator(k.n, [0, 1])
    traj = simulate_gillespie(p, k, np.tile(eta0, (40_000, 1)), 0.7, derive_stream(11, "law"))
    assert _terminal_law_pvalue(p, k, eta0, 0.7, traj.config_at(0.7)) > 1e-3


def test_rows_in_slices_keep_the_law(monkeypatch):
    slices = []
    lockstep = spin._lockstep

    def spy(p, k, touch, eta, horizon, rng):
        slices.append(len(eta))
        return lockstep(p, k, touch, eta, horizon, rng)

    monkeypatch.setattr(spin, "_lockstep", spy)
    monkeypatch.setattr(spin, "CELLS", 7 * UNEVEN.n + 1)  # slices of 7 rows
    p = NPParams(lam=1.5, alpha01=0.3, alpha10=0.6)
    eta0 = config_indicator(UNEVEN.n, [2])
    traj = simulate_gillespie(p, UNEVEN, np.tile(eta0, (6001, 1)), 0.7, derive_stream(12, "sl"))
    assert slices == [7] * 857 + [2]
    assert traj.initial.shape == (6001, 4) and np.all(np.diff(traj.rows) >= 0)
    assert _terminal_law_pvalue(p, UNEVEN, eta0, 0.7, traj.config_at(0.7)) > 1e-3


def test_terminal_density_and_flip_count_match_the_per_flip_loop():
    p = NPParams.symmetric(0.3)
    k = torus_kernel(2, 3)
    reps, horizon = 2000, 1.5
    rng = derive_stream(13, "ref-start")
    starts = (rng.random((reps, k.n)) < 0.3).astype(np.uint8)
    traj = simulate_gillespie(p, k, starts, horizon, derive_stream(13, "engine"))
    ref_rng = derive_stream(13, "reference")
    runs = [_reference_gillespie(p, k, eta, horizon, ref_rng) for eta in starts]
    engine = (traj.config_at(horizon).mean(axis=1), np.bincount(traj.rows, minlength=reps))
    reference = (np.array([eta.mean() for eta, _ in runs]), np.array([f for _, f in runs]))
    for a, b in zip(engine, reference):
        assert abs(two_sample_z(MCEstimate.from_samples(a), MCEstimate.from_samples(b))) < 4.0


def test_gillespie_absorbing():
    # all0 and all1 rows retire with no flip and draw no uniform
    k = torus_kernel(1, 5)
    for value in (0, 1):
        rng = derive_stream(4, "test-g")
        traj = simulate_gillespie(NPParams.symmetric(0.4), k, np.full((7, 5), value), 10.0, rng)
        assert len(traj) == 0 and traj.initial.shape == (7, 5)
        expected = derive_stream(4, "test-g")
        expected.standard_exponential(7)  # one clock per row, then every row retires
        assert rng.random() == expected.random()
        ts, ds = traj.density_path(3)
        assert list(ts) == [0.0] and list(ds) == [float(value)]


def test_horizon_zero_keeps_every_start():
    k = torus_kernel(2, 3)
    rng = derive_stream(4, "h0")
    eta0 = (rng.random((5, k.n)) < 0.5).astype(np.uint8)
    traj = simulate_gillespie(NPParams.symmetric(0.3), k, eta0, 0.0, rng)
    assert len(traj) == 0 and np.array_equal(traj.config_at(0.0), eta0)
    assert np.array_equal(traj.density_at([0.0])[:, 0], eta0.mean(axis=1))


def test_a_one_dimensional_start_is_one_row_and_bad_inputs_are_refused():
    k = torus_kernel(1, 4)
    traj = simulate_gillespie(NPParams.symmetric(0.3), k, config_indicator(4, [1]), 2.0,
                              derive_stream(5, "one"))
    assert traj.initial.shape == (1, 4) and set(traj.rows) <= {0}
    with pytest.raises(ValueError, match="does not match"):
        simulate_gillespie(NPParams.symmetric(0.3), k, np.zeros((2, 5)), 1.0, derive_stream(5, "x"))
    for horizon in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            simulate_gillespie(NPParams.symmetric(0.3), k, np.zeros(4), horizon,
                               derive_stream(5, "x"))


def test_gillespie_density_path_consistency():
    p = NPParams.symmetric(0.3)
    k = torus_kernel(2, 3)
    rng = derive_stream(5, "test-g2")
    eta0 = (rng.random((6, k.n)) < 0.5).astype(np.uint8)
    traj = simulate_gillespie(p, k, eta0, 3.0, rng)
    assert np.all(np.diff(traj.rows) >= 0) and np.all(traj.times <= 3.0)
    grid = [0.0, 0.4, 1.7, 3.0]
    dens = traj.density_at(grid)
    for r in range(6):
        ts, ds = traj.density_path(r)
        assert ts[0] == 0.0 and ds[0] == eta0[r].mean()
        assert np.all(np.diff(ts) > 0)
        # each flip changes the density by exactly 1/n
        assert np.allclose(np.abs(np.diff(ds)), 1.0 / k.n)
        assert np.array_equal(dens[r], ds[np.searchsorted(ts, grid, side="right") - 1])
        # walking the row's flips from its start reaches config_at's configuration
        eta = eta0[r].copy()
        for x, up in zip(traj.sites[traj.rows == r], traj.ups[traj.rows == r]):
            assert eta[x] == (not up)
            eta[x] ^= 1
        assert np.array_equal(traj.config_at(3.0)[r], eta)
        assert ds[-1] == pytest.approx(eta.mean(), abs=1e-12)


def test_gillespie_matches_exact_semigroup():
    # Distributional cross-check against the dense-matrix route: complete
    # graph on 3 sites, t = 0.7.  With 4000 replicates each state probability
    # carries stderr <= 0.008; require agreement within 5 sigma.
    p = NPParams.symmetric(0.4)
    k = complete_kernel(3)
    gen = build_generator_np(p, k)
    eta0 = config_indicator(3, [0])
    probs = semigroup_apply(gen, 0.7, np.eye(8))  # row s -> distribution at t
    dist = probs[config_to_state(eta0)]
    reps = 4000
    rng = derive_stream(6, "test-g3")
    traj = simulate_gillespie(p, k, np.tile(eta0, (reps, 1)), 0.7, rng)
    counts = np.bincount([config_to_state(eta) for eta in traj.config_at(0.7)], minlength=8)
    freq = counts / reps
    sigma = np.sqrt(np.maximum(dist * (1 - dist), 1e-12) / reps)
    assert np.all(np.abs(freq - dist) < 5 * sigma + 1e-9)


# -- lumped count chain on the complete graph --------------------------------------

LUMP_PARAMS = [NPParams.symmetric(0.0), NPParams.symmetric(0.3),
               NPParams(lam=1.5, alpha01=0.3, alpha10=0.6),
               NPParams(lam=2.5, alpha01=1.2, alpha10=0.1)]


def _popcount_projection(n):
    """PI[s, j] = 1 when state s holds j ones."""
    ones = np.array([bin(s).count("1") for s in range(1 << n)])
    return (ones[:, None] == np.arange(n + 1)).astype(float)


def _count_generator(p, n):
    up, down = complete_count_rates(p, n)
    L = np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    return L - np.diag(L.sum(axis=1))


@pytest.mark.parametrize("p", LUMP_PARAMS, ids=["alpha0", "alpha0.3", "lam1.5", "lam2.5"])
def test_count_chain_lumps_the_site_generator(p):
    # Kemeny-Snell lumpability on the complete graph: G PI = PI L, with G the
    # site-level generator and L the birth-death generator of the count
    for n in range(2, 11):
        G = build_generator_np(p, complete_kernel(n)).matrix
        PI = _popcount_projection(n)
        assert np.abs(G @ PI - PI @ _count_generator(p, n)).max() < 1e-12, n


def test_count_chain_rates_vanish_at_the_ends():
    for p in LUMP_PARAMS:
        up, down = complete_count_rates(p, 7)
        assert up.shape == down.shape == (8,)
        assert up[-1] == 0.0 and down[0] == 0.0 and (up >= 0).all() and (down >= 0).all()
    # the site rates' denominator 1 + (lam-1) f1 vanishes at f1 = -1/(N-1) for
    # lam = N and at f1 = N/(N-1) for lam = 1/N; no count rate evaluates there
    for lam in (3.0, 1.0 / 3.0):
        up, down = complete_count_rates(NPParams(lam=lam, alpha01=0.5, alpha10=0.5), 3)
        assert np.isfinite(up).all() and np.isfinite(down).all()
    with pytest.raises(ValueError, match="at least 2 vertices"):
        complete_count_rates(NPParams.symmetric(0.3), 1)


@pytest.mark.parametrize("p", LUMP_PARAMS, ids=["alpha0", "alpha0.3", "lam1.5", "lam2.5"])
def test_count_chain_rates_equal_the_site_rates_bit_for_bit(p):
    # each of the n - j zeros (j + 1 ones) flips at the site rate for f1 = j/(n-1)
    for n in range(2, 11):
        j = np.arange(n)
        f1 = j / (n - 1)
        up, down = complete_count_rates(p, n)
        assert np.array_equal(up[:-1], (n - j) * flip_rates_all(p, 0, f1)), n
        assert np.array_equal(down[1:], (j + 1) * flip_rates_all(p, 1, f1)), n


def _chi2_sf_even(x, df):
    """Survival function of the chi-square law with an even number of degrees of freedom."""
    m = df // 2
    term, acc = 1.0, 1.0
    for i in range(1, m):
        term *= (x / 2.0) / i
        acc += term
    return float(np.exp(-x / 2.0) * acc)


def test_count_chain_law_matches_exact_semigroup():
    # law of k_t at N = 6 from 4000 paths against exp(tG) applied to the
    # popcount-class indicators; 7 classes, so 6 degrees of freedom
    n, k0, t, reps = 6, 2, 0.8, 4000
    p = NPParams(lam=1.5, alpha01=0.3, alpha10=0.6)
    gen = build_generator_np(p, complete_kernel(n))
    law = semigroup_apply(gen, t, _popcount_projection(n))[(1 << k0) - 1]
    assert abs(law.sum() - 1.0) < 1e-12
    rng = derive_stream(9, "test-count-law")
    up, down = complete_count_rates(p, n)
    counts = np.zeros(n + 1)
    for _ in range(reps):
        times, ks = simulate_complete_counts(up, down, k0, t, rng)
        counts[ks[-1]] += 1
    expected = reps * law
    assert expected.min() >= 5
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert _chi2_sf_even(stat, n) > 1e-3, (stat, counts, expected)
    assert _chi2_sf_even(12.5916, 6) == pytest.approx(0.05, abs=1e-5)  # table value


def test_count_chain_path_shape():
    up, down = complete_count_rates(NPParams.symmetric(0.4), 30)
    times, ks = simulate_complete_counts(up, down, 9, 2.0, derive_stream(10, "test-count"))
    assert times[0] == 0.0 and ks[0] == 9 and len(times) == len(ks) > 1
    assert np.all(np.diff(times) > 0) and times[-1] <= 2.0
    assert np.all(np.abs(np.diff(ks)) == 1) and ks.min() >= 0 and ks.max() <= 30
    # absorbing counts stay put and draw nothing
    for k0 in (0, 30):
        rng = derive_stream(10, "test-count-abs")
        times, ks = simulate_complete_counts(up, down, k0, 2.0, rng)
        assert list(times) == [0.0] and list(ks) == [k0]
        assert rng.random() == derive_stream(10, "test-count-abs").random()
    with pytest.raises(ValueError, match="initial count"):
        simulate_complete_counts(up, down, 31, 2.0, derive_stream(10, "x"))
