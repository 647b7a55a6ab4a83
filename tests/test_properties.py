"""Property tests for structural invariants (hypothesis-driven)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ipsd.diffusion import DiffusionParams, sigma_of_p
from ipsd.dualspin import replay_dual
from ipsd.exact import _event_target
from ipsd.harness import format_float, write_csv
from ipsd.kernel import (complete_kernel, config_bernoulli, config_indicator, frequency_of_ones,
                         torus_kernel)
from ipsd.lattice import Stencil, Torus
from ipsd.rng import derive_stream
from ipsd.spin import NPParams, flip_rate, replay_forward, sample_event_log
from ipsd.stats import MCEstimate, wilson_lower, wilson_upper
from ipsd.walkers import BCRW, CRW, DBARW, apply_transition, simulate_walker, walker_rates
from test_diffusion import _mirror_params
from test_dualspin import _parity_overlap
from test_kernel import _local_frequency
from test_lattice_rng import _reference_write_csv
from test_spin import _config_to_state, _one_event


# strategies -----------------------------------------------------------------

kernels = st.one_of(
    st.integers(3, 6).map(lambda L: torus_kernel(1, L)),
    st.integers(3, 5).map(complete_kernel),
    st.just(torus_kernel(2, 3)),
)
alphas = st.floats(0.0, 0.95, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


def _subset(seed, n):
    rng = np.random.default_rng(seed)
    return [x for x in range(n) if rng.random() < 0.5]


# spin layer -------------------------------------------------------------------


@given(kernels, seeds)
@settings(max_examples=40, deadline=None)
def test_local_frequencies_partition(k, seed):
    eta = config_bernoulli(k.n, 0.5, np.random.default_rng(seed))
    f1 = frequency_of_ones(k, eta)
    for x in range(k.n):
        f0 = _local_frequency(k, eta, x, 0)
        assert f0 + f1[x] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= f0 <= 1.0


@given(kernels, alphas, seeds)
@settings(max_examples=30, deadline=None)
def test_flip_rate_nonnegative_and_bounded(k, alpha, seed):
    p = NPParams.symmetric(alpha)
    eta = config_bernoulli(k.n, 0.5, np.random.default_rng(seed))
    for x in range(k.n):
        r = flip_rate(p, k, eta, x)
        assert 0.0 <= r <= 1.0  # (1-a) f0 f1 + a f_opp <= 1


@given(kernels, alphas, seeds, st.floats(0.2, 3.0))
@settings(max_examples=25, deadline=None)
def test_pathwise_duality_property(k, alpha, seed, horizon):
    """The parity identity holds pathwise for every (A, B, t) on one log."""
    p = NPParams.symmetric(alpha)
    log = sample_event_log(p, k, horizon, derive_stream(seed, "prop-log"))
    rng = np.random.default_rng(seed)
    for _ in range(3):
        A = _subset(rng.integers(2 ** 31), k.n)
        B = _subset(rng.integers(2 ** 31), k.n)
        t = float(rng.uniform(0, horizon))
        etaA = config_indicator(k.n, A)
        lhs = _parity_overlap(replay_forward(etaA, log, t), config_indicator(k.n, B))
        rhs = _parity_overlap(replay_dual(config_indicator(k.n, B), log, t), etaA)
        assert lhs == rhs


@given(kernels, alphas, seeds)
@settings(max_examples=25, deadline=None)
def test_event_locality(k, alpha, seed):
    """A forward event changes at most the focal site; a replay is causal."""
    p = NPParams.symmetric(alpha)
    log = sample_event_log(p, k, 1.0, derive_stream(seed, "prop-local"))
    eta0 = config_bernoulli(k.n, 0.5, np.random.default_rng(seed))
    eta = eta0
    for t, x, y, z in zip(log.times, log.xa.tolist(), log.ya.tolist(), log.za.tolist()):
        out = replay_forward(eta0, log, t)  # the prefix ending with this event
        changed = np.flatnonzero(out != eta)
        assert set(changed.tolist()) <= {x}
        assert _config_to_state(out) == _event_target(_config_to_state(eta), x, y, z)
        eta = out


@given(seeds, st.floats(0.1, 2.0), alphas)
@settings(max_examples=20, deadline=None)
def test_replay_prefix_count_monotone(seed, horizon, alpha):
    p = NPParams.symmetric(alpha)
    k = torus_kernel(1, 5)
    log = sample_event_log(p, k, horizon, derive_stream(seed, "prop-prefix"))
    counts = [log.count_up_to(t) for t in np.linspace(0, horizon, 7)]
    assert counts == sorted(counts)
    assert counts[-1] == len(log.times)


# diffusion layer -----------------------------------------------------------------


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@settings(max_examples=50)
def test_sigma_roundtrip(ps):
    p = np.array(ps)
    assert np.allclose(0.5 * (1.0 - sigma_of_p(p)), p, atol=1e-12)
    assert np.all(np.abs(sigma_of_p(p)) <= 1.0 + 1e-12)


@given(st.floats(-5, 5), st.floats(-3, 3).filter(lambda m: abs(m - 1.0) > 1e-3
                                                 and abs(m) > 1e-3))
@settings(max_examples=50)
def test_mirror_involution(s, mu):
    params = DiffusionParams(torus=Torus(1, 4), stencil=Stencil.nearest_neighbor(1, 1.0),
                             s=s, mu=mu)
    mm = _mirror_params(_mirror_params(params))
    assert mm.s == pytest.approx(s, rel=1e-9, abs=1e-9)
    assert mm.mu == pytest.approx(mu, rel=1e-9, abs=1e-9)


# walker layer --------------------------------------------------------------------


walker_kinds = st.one_of(
    st.just(CRW()),
    st.floats(0.1, 2.0).map(lambda b: DBARW(branch_rate=b)),
    st.tuples(st.floats(-2.0, -0.1), st.floats(-1.0, 0.0)).map(lambda t: BCRW(*t)),
)


@given(walker_kinds, seeds)
@settings(max_examples=30, deadline=None)
def test_walker_rates_consistent_with_transitions(kind, seed):
    torus = Torus(1, 6)
    stencil = Stencil.nearest_neighbor(1, 1.0)
    rng = np.random.default_rng(seed)
    counts = {int(x): int(c) for x, c in zip(rng.choice(6, 2, replace=False),
                                             rng.integers(1, 4, 2))}
    total = sum(counts.values())
    for transition, rate in walker_rates(kind, counts, torus, stencil):
        assert rate > 0.0
        out = apply_transition(kind, counts, transition)
        # total change matches the channel semantics
        delta = sum(out.values()) - total
        tag = transition[0]
        if tag == "migrate":
            assert delta == 0
        elif tag == "branch1":
            assert delta == 1
        elif tag == "branch2":
            assert delta == 2
        else:
            assert delta == (-2 if isinstance(kind, DBARW) else -1)


@given(st.floats(0.1, 1.5), seeds)
@settings(max_examples=15, deadline=None)
def test_dbarw_parity_invariant_property(branch_rate, seed):
    torus = Torus(1, 6)
    stencil = Stencil.nearest_neighbor(1, 1.0)
    start = {0: 1 + int(seed) % 4}
    run = simulate_walker(DBARW(branch_rate=branch_rate), start, torus, stencil,
                          2.0, derive_stream(seed, "prop-dbarw"), cap=400,
                          grid=[0.5, 1.0, 2.0])
    assert not run.parity_changed
    want = sum(start.values()) % 2
    if run.cap_time is None:
        for sz in run.sizes:
            assert sz % 2 == want


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_bcrw_positive_property(seed):
    torus = Torus(1, 5)
    stencil = Stencil.nearest_neighbor(1, 1.0)
    run = simulate_walker(BCRW(s=-0.7, mu=-0.4), {int(seed) % 5: 1}, torus, stencil,
                          3.0, derive_stream(seed, "prop-bcrw"), cap=3000, grid=[3.0])
    assert run.extinction_time is None
    assert run.sizes[-1] >= 1


# statistics ----------------------------------------------------------------------


@given(st.integers(0, 50), st.integers(1, 50), st.sampled_from([0.9, 0.95, 0.99]))
@settings(max_examples=60)
def test_wilson_bracket(successes, n, conf):
    if successes > n:
        successes = n
    lo = wilson_lower(successes, n, conf)
    hi = wilson_upper(successes, n, conf)
    phat = successes / n
    assert 0.0 <= lo <= phat + 1e-12
    assert phat - 1e-12 <= hi <= 1.0


@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=60))
@settings(max_examples=40)
def test_mcestimate_binary_matches_samples(bits):
    arr = np.array(bits)
    a = MCEstimate.from_samples(arr)
    b = MCEstimate.from_binary(int(arr.sum()), len(arr))
    assert a.mean == pytest.approx(b.mean)
    assert a.stderr == pytest.approx(b.stderr, abs=1e-12)


# update-event algebra -------------------------------------------------------------


@given(seeds)
@settings(max_examples=40)
def test_annihilation_event_is_involution(seed):
    # applying the same annihilation event twice restores the configuration
    rng = np.random.default_rng(seed)
    eta = config_bernoulli(6, 0.5, rng)
    log = _one_event(0, 2, 4)
    once = replay_forward(eta, log, 1.0)
    assert _config_to_state(once) == _event_target(_config_to_state(eta), 0, 2, 4)
    assert np.array_equal(replay_forward(once, log, 1.0), eta)


# table writer ----------------------------------------------------------------------

cells = st.one_of(st.integers(-2**70, 2**70), st.floats(), st.booleans(), st.none(),
                  st.text("ab-", max_size=3))
array_dtypes = st.sampled_from([np.int64, np.uint8, np.bool_, np.float32, np.float64])


@st.composite
def tables(draw):
    """Columns of one length: lists of mixed cells, arrays, or grid times formatted once."""
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(["list", "array", "grid"]))
        if form == "list":
            columns.append(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)))
        elif form == "array":
            columns.append(draw(hnp.arrays(draw(array_dtypes), n_rows)))
        else:
            times = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1e-300, 2.0**62]),
                                  min_size=1, max_size=3))
            columns.append(([format_float(t) for t in times] * n_rows)[:n_rows])
    return columns


@given(tables())
@settings(max_examples=80, deadline=None)
def test_write_csv_gives_the_reference_bytes_on_random_tables(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp / "got.csv", header, columns)
    _reference_write_csv(tmp / "want.csv", header, zip(*columns))
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
