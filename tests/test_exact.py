"""Dense-generator routes, the uniformized semigroup, and the parity algebra."""

from pathlib import Path

import numpy as np
import pytest

from ipsd.exact import (MAX_EXACT_SITES, MAX_UNIFORM_MU, DenseGenerator, _dual_event_target,
                        _event_target, _poisson_series, _uniformized, build_generator_dual,
                        build_generator_from_events, build_generator_np, feynman_kac_check,
                        fk_check_terms, parity_deviation, parity_deviation_enum, parity_matrix,
                        semigroup_apply, state_to_config)
from ipsd import exact
from ipsd.cli import _exact_kernel, _exact_sites
from ipsd.harness import load_config_file, read_list
from ipsd.kernel import complete_kernel, explicit_kernel, torus_kernel
from ipsd.rng import derive_stream
from ipsd.spin import EventTable, NPParams
from test_spin import _config_to_state

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_state_config_roundtrip():
    for s in range(16):
        cfg = state_to_config(s, 4)
        assert _config_to_state(cfg) == s
    assert list(state_to_config(0b1011, 4)) == [1, 1, 0, 1]  # bit x is site x
    stack = state_to_config(np.arange(16), 4)  # one row per state
    assert stack.dtype == np.uint8
    assert stack.tolist() == [state_to_config(s, 4).tolist() for s in range(16)]


# -- the per-state loops the whole-state constructions replaced, kept as references


def _reference_flip_rate(p, k, eta, x):
    """The scalar flip rate of one configuration, f1 as one dot product."""
    nbr, w = k.out_edges(x)
    f1 = float(w @ (eta[nbr] != 0))
    f0 = 1.0 - f1
    denom = p.lam * f1 + f0
    if eta[x] == 0:
        return (f0 + p.alpha01 * f1) * (p.lam * f1) / denom
    return (f1 + p.alpha10 * f0) * f0 / denom


def _reference_generator_np(p, k):
    size = 1 << k.n
    G = np.zeros((size, size))
    for s in range(size):
        cfg = state_to_config(s, k.n)
        for x in range(k.n):
            r = _reference_flip_rate(p, k, cfg, x)
            if r > 0.0:
                G[s, s ^ (1 << x)] += r
                G[s, s] -= r
    return G


def _reference_event_target(s, x, y, z):
    bx = (s >> x) & 1
    by = (s >> y) & 1
    if z < 0:
        new = by
    else:
        new = bx ^ by ^ ((s >> z) & 1)
    if new == bx:
        return s
    return s ^ (1 << x)


def _reference_dual_event_target(s, x, y, z):
    bx = (s >> x) & 1
    if z < 0:
        out = s
        if bx:
            out ^= 1 << y   # xi(y) += xi(x)
            out &= ~(1 << x)  # xi(x) = 0
        return out
    if not bx:
        return s
    return s ^ (1 << y) ^ (1 << z)


def _reference_generator_from_targets(p, k, target_fn):
    table = EventTable.build(p, k)
    size = 1 << k.n
    G = np.zeros((size, size))
    for x, y, z, r in zip(table.xa, table.ya, table.za, table.rates):
        for s in range(size):
            tgt = target_fn(s, int(x), int(y), int(z))
            if tgt != s:
                G[s, tgt] += r
                G[s, s] -= r
    return G


def _reference_parity_deviation_enum(u):
    u = np.asarray(u, dtype=np.float64)
    N = len(u)
    even = 0.0
    odd = 0.0
    for pattern in range(1 << N):
        pr = 1.0
        bits = 0
        for m in range(N):
            if (pattern >> m) & 1:
                pr *= u[m]
                bits ^= 1
            else:
                pr *= 1.0 - u[m]
        if bits:
            odd += pr
        else:
            even += pr
    return even - odd


# degrees 2, 3, 4, 1 and 2, with unequal weights
_UNEQUAL = [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 0.2), (1, 2, 0.3), (1, 3, 0.5),
            (2, 0, 0.1), (2, 1, 0.2), (2, 3, 0.3), (2, 4, 0.4), (3, 4, 1.0),
            (4, 0, 0.6), (4, 3, 0.4)]
# criteria 2 and 3's kernels (which cover exact-check.ini's), a 2-d torus, unequal
# degrees, and the complete graph where the summed f1 of a one rounds past 1
SAME_BITS_KERNELS = (
    [pytest.param(torus_kernel(1, L), id=f"torus:1:{L}") for L in (3, 4, 5)]
    + [pytest.param(complete_kernel(N), id=f"complete:{N}") for N in (3, 4, 5)]
    + [pytest.param(torus_kernel(2, 3), id="torus:2:3"),
       pytest.param(explicit_kernel(5, _UNEQUAL), id="explicit-unequal"),
       pytest.param(complete_kernel(10), id="complete:10")])


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", SAME_BITS_KERNELS)
def test_whole_state_generators_give_the_reference_bits(k, alpha):
    p = NPParams.symmetric(alpha)
    assert build_generator_np(p, k).matrix.tobytes() == _reference_generator_np(p, k).tobytes()
    for build, target in ((build_generator_from_events, _reference_event_target),
                          (build_generator_dual, _reference_dual_event_target)):
        ref = _reference_generator_from_targets(p, k, target)
        assert build(p, k).matrix.tobytes() == ref.tobytes(), build.__name__


@pytest.mark.parametrize("p", [NPParams(lam=1.7, alpha01=0.4, alpha10=0.9),
                               NPParams(lam=0.6, alpha01=1.3, alpha10=0.2)],
                         ids=["lam1.7", "lam0.6"])
@pytest.mark.parametrize("k", SAME_BITS_KERNELS)
def test_flip_rate_generator_gives_the_reference_bits_for_asymmetric_params(k, p):
    assert build_generator_np(p, k).matrix.tobytes() == _reference_generator_np(p, k).tobytes()


@pytest.mark.parametrize("n", range(2, 7))
def test_branchless_event_maps_match_the_branchy_ones_on_every_event(n):
    states = np.arange(1 << n)
    for x in range(n):
        for y in range(n):
            if y == x:
                continue
            for z in [-1] + [z for z in range(n) if z not in (x, y)]:
                for fn, ref in ((_event_target, _reference_event_target),
                                (_dual_event_target, _reference_dual_event_target)):
                    expect = [ref(s, x, y, z) for s in range(1 << n)]
                    assert [fn(s, x, y, z) for s in range(1 << n)] == expect
                    assert fn(states, x, y, z).tolist() == expect


def _criterion_4_vectors():
    """The 100 vectors of acceptance criterion 4, from its pinned stream."""
    rng = derive_stream(20260819, "c4")
    for i in range(100):
        n = int(rng.integers(1, 13))
        u = rng.uniform(0.0, 1.0, size=n)
        if i % 5 == 0:
            u[rng.integers(0, n)] = float(rng.choice([0.0, 0.5, 1.0]))
        yield u


def test_parity_enumeration_gives_the_reference_bits():
    vectors = list(_criterion_4_vectors()) + [np.array([]), np.array([0.0, 1.0, 0.5])]
    for u in vectors:
        got, ref = parity_deviation_enum(u), _reference_parity_deviation_enum(u)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(ref).tobytes(), u


def test_generator_two_site_hand_matrix():
    # Two sites exchanging with q = 1 each way, lam = 1, symmetric alpha=0.2.
    # States 00, 01(1@site0? no: bit x = site x, so state 1 = site 0 occupied),
    # 2 = site 1 occupied, 3 = both.  From a discordant state either site sees
    # f_opposite = 1, f0 f1 = 0, so the only moves are voter copies at rate
    # alpha: state 1 -> 0 (site 0 copies empty neighbor), 1 -> 3, each 0.2.
    p = NPParams.symmetric(0.2)
    k = explicit_kernel(2, [(0, 1, 1.0), (1, 0, 1.0)])
    G = build_generator_np(p, k).matrix
    expect = np.zeros((4, 4))
    for s in (1, 2):
        expect[s, 0] = 0.2
        expect[s, 3] = 0.2
        expect[s, s] = -0.4
    assert np.allclose(G, expect, atol=1e-14)
    # concordant states (00 and 11) are absorbing
    assert np.all(G[0] == 0) and np.all(G[3] == 0)


def test_generator_routes_agree_small():
    p = NPParams.symmetric(0.45)
    for k in (torus_kernel(1, 4), complete_kernel(4)):
        a = build_generator_np(p, k).matrix
        b = build_generator_from_events(p, k).matrix
        assert np.abs(a - b).max() < 1e-12


def test_generator_dual_same_event_rates():
    # The dual generator moves the *dual* chain; its total jump rate out of a
    # nonempty state is bounded by the same event intensity, and its row sums
    # vanish like any generator's.
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 4)
    Gd = build_generator_dual(p, k).matrix
    assert np.abs(Gd.sum(axis=1)).max() < 1e-10
    assert np.all(Gd[0] == 0.0)  # the empty dual is a trap


def test_semigroup_two_site_analytic():
    # From a discordant two-site state the chain leaves at rate 2*alpha and
    # lands on 00 or 11 with equal chances:
    #   P(stay discordant at t) = exp(-2 alpha t),
    #   P(00) = P(11) = (1 - exp(-2 alpha t))/2.
    alpha, t = 0.2, 1.7
    p = NPParams.symmetric(alpha)
    k = explicit_kernel(2, [(0, 1, 1.0), (1, 0, 1.0)])
    gen = build_generator_np(p, k)
    # semigroup_apply evolves observables; row s of exp(tG) is the
    # distribution started from state s.
    dist = semigroup_apply(gen, t, np.eye(4))[1]
    stay = np.exp(-2 * alpha * t)
    assert dist[1] == pytest.approx(stay, abs=1e-12)
    assert dist[2] == pytest.approx(0.0, abs=1e-12)
    assert dist[0] == pytest.approx((1 - stay) / 2, abs=1e-12)
    assert dist[3] == pytest.approx((1 - stay) / 2, abs=1e-12)


def test_semigroup_self_check_fails_on_a_nan_result():
    # unchecked, the NaN relative error passed err > 1e-10 and the NaN was returned
    k = explicit_kernel(2, [(0, 1, 1.0), (1, 0, 1.0)])
    gen = build_generator_np(NPParams.symmetric(0.2), k)
    with pytest.raises(ArithmeticError, match="semigroup self-check failed"):
        semigroup_apply(gen, 1.0, np.array([1.0, np.nan, 0.0, 0.0]))


def test_semigroup_chapman_kolmogorov():
    p = NPParams.symmetric(0.5)
    k = complete_kernel(3)
    gen = build_generator_np(p, k)
    eye = np.eye(8)
    P1 = semigroup_apply(gen, 0.8, eye)
    P2 = semigroup_apply(gen, 1.3, eye)
    P3 = semigroup_apply(gen, 2.1, eye)
    assert np.abs(P1 @ P2 - P3).max() < 1e-9
    # row-stochastic throughout
    for P in (P1, P2, P3):
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert P.min() > -1e-13


@pytest.mark.parametrize("t", [1.0, 720.0, 800.0, 1000.0])
def test_semigroup_two_state_chain_at_long_horizons(t):
    # exp(-lam t) underflows past lam t of about 745; the long horizons run in steps
    gen = DenseGenerator(1, np.array([[-1.0, 1.0], [1.0, -1.0]]))
    P = semigroup_apply(gen, t, np.eye(2))
    decay = np.exp(-2.0 * t) / 2.0
    assert np.abs(P - [[0.5 + decay, 0.5 - decay], [0.5 - decay, 0.5 + decay]]).max() < 1e-12


def test_uniformization_steps_agree_with_one_series():
    G = build_generator_np(NPParams.symmetric(0.7), torus_kernel(1, 3)).matrix
    lam = float(np.abs(np.diag(G)).max()) * 1.01
    P = np.eye(8) + G / lam
    v = np.eye(8)
    t = MAX_UNIFORM_MU / lam  # the longest horizon one series covers
    assert np.array_equal(_uniformized(G, t, v), _poisson_series(P, lam * t, v))
    # 1.2 MAX_UNIFORM_MU: two steps, against one series that still converges there
    assert np.abs(_uniformized(G, 1.2 * t, v) - _poisson_series(P, 1.2 * lam * t, v)).max() < 1e-12


def test_semigroup_at_t_1000_is_ten_steps_of_t_100():
    gen = build_generator_dual(NPParams.symmetric(0.7), torus_kernel(1, 3))
    step = semigroup_apply(gen, 100.0, np.eye(8))
    assert np.abs(semigroup_apply(gen, 1000.0, np.eye(8))
                  - np.linalg.matrix_power(step, 10)).max() < 1e-9


def test_parity_matrix_oracle():
    phi = parity_matrix(2)
    # column b is phi_B for the site set with bitmask b, over states 0,1,2,3
    assert list(phi[:, 0b01]) == [0, 1, 0, 1]  # B = {0}: the occupancy at site 0
    assert list(phi[:, 0b11]) == [0, 1, 1, 0]  # B = {0, 1}
    for n in range(6):
        phi = parity_matrix(n)
        states = range(1 << n)
        assert np.array_equal(phi, [[bin(s & b).count("1") & 1 for b in states] for s in states])
        assert np.array_equal(phi, phi.T)


def _sites(mask: int, n: int) -> list[int]:
    return [x for x in range(n) if (mask >> x) & 1]


def _fk_residual_per_pair(gen_fwd, gen_dual, t, A, B) -> float:
    """The per-pair route: |P_t phi_B (1_A) - Q_t phi_A (1_B)| from two single vectors."""
    def phi(sites):
        mask = sum(1 << x for x in sites)
        return np.array([bin(s & mask).count("1") & 1 for s in range(1 << gen_fwd.n_sites)],
                        dtype=float)

    maskA = sum(1 << x for x in A)
    maskB = sum(1 << x for x in B)
    fwd = semigroup_apply(gen_fwd, t, phi(B))[maskA]
    dual = semigroup_apply(gen_dual, t, phi(A))[maskB]
    return abs(float(fwd) - float(dual))


def test_feynman_kac_tiny():
    p = NPParams.symmetric(0.35)
    k = torus_kernel(1, 4)
    gf, gd = build_generator_np(p, k), build_generator_dual(p, k)
    for t in (0.3, 1.1):
        assert feynman_kac_check(gf, gd, t) < 1e-10


@pytest.mark.parametrize("k", [torus_kernel(1, 3), torus_kernel(1, 4),
                               complete_kernel(3), complete_kernel(4)],
                         ids=["torus:1:3", "torus:1:4", "complete:3", "complete:4"])
def test_feynman_kac_all_pairs_matches_per_pair_route(k):
    for alpha in (0.0, 0.3, 0.7):
        p = NPParams.symmetric(alpha)
        gf, gd = build_generator_np(p, k), build_generator_dual(p, k)
        for t in (0.1, 1.0):
            per_pair = max(_fk_residual_per_pair(gf, gd, t, _sites(a, k.n), _sites(b, k.n))
                           for a in range(1 << k.n) for b in range(1 << k.n))
            assert abs(feynman_kac_check(gf, gd, t) - per_pair) < 1e-13


def test_feynman_kac_check_detects_a_wrong_dual():
    # power: the forward generator is not its own dual, and the dual of
    # another alpha is not the dual either
    for k in (torus_kernel(1, 3), torus_kernel(1, 4), complete_kernel(3), complete_kernel(4)):
        for alpha in (0.0, 0.3, 0.7):
            p = NPParams.symmetric(alpha)
            gf = build_generator_np(p, k)
            wrong_alpha = build_generator_dual(NPParams.symmetric(alpha + 0.1), k)
            for t in (0.1, 1.0):
                assert feynman_kac_check(gf, gf, t) >= 1e-2
                assert feynman_kac_check(gf, wrong_alpha, t) >= 1e-2


def test_parity_deviation_hand_value():
    # independent site probabilities (0.1, 0.2):
    # P(odd) = .1*.8 + .9*.2 = 0.26 and 1 - 2*0.26 = 0.48 = (1-.2)(1-.4)
    u = np.array([0.1, 0.2])
    assert parity_deviation(u) == pytest.approx(0.48, abs=1e-15)
    assert parity_deviation_enum(u) == pytest.approx(0.48, abs=1e-12)


def test_parity_deviation_random_match():
    rng = np.random.default_rng(21)
    for n in (1, 3, 7, 10):
        u = rng.random(n)
        assert parity_deviation(u) == pytest.approx(parity_deviation_enum(u), abs=1e-12)


def test_parity_deviation_enum_guard():
    with pytest.raises(ValueError):
        parity_deviation_enum(np.full(MAX_EXACT_SITES + 1, 0.5))


def test_semigroup_matrix_vs_columns():
    # matrix-argument semigroup equals column-by-column application
    p = NPParams.symmetric(0.25)
    k = complete_kernel(3)
    gen = build_generator_np(p, k)
    V = np.eye(8)[:, :3].copy()
    both = semigroup_apply(gen, 0.9, V)
    for j in range(3):
        assert np.allclose(both[:, j], semigroup_apply(gen, 0.9, V[:, j]), atol=1e-13)


def test_fk_check_terms_bounds_the_series_terms_of_the_shipped_batteries(monkeypatch):
    # the exact-check budget projects lam <= 1.01 n for both generators, and at
    # most mu + 8 sqrt(mu) + 8 terms for a series of mean mu
    products = []
    series = exact._poisson_series

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(self.shape[0])
            return np.asarray(self) @ other

    monkeypatch.setattr(exact, "_poisson_series", lambda P, mu, v: series(P.view(Counted), mu, v))
    options = load_config_file(CONFIGS / "exact-check.ini")
    kernels = [_exact_sites(*kernel)
               for kernel in read_list(options, "run", "kernels", cast=_exact_kernel)]
    cases = [(kernel, alpha, t) for kernel in kernels
             for alpha in read_list(options, "run", "alphas", cast=float)
             for t in read_list(options, "run", "tgrid", cast=float)]
    # a horizon whose series runs as several steps
    cases.append((_exact_sites(*_exact_kernel("torus:1:3")), 0.7, 400.0))
    for (tok, n, build), alpha, t in cases:
        p, k = NPParams.symmetric(alpha), build()
        products.clear()
        feynman_kac_check(build_generator_np(p, k), build_generator_dual(p, k), t)
        assert products and set(products) == {2 ** n}
        assert len(products) <= fk_check_terms(n, t), (tok, alpha, t)

