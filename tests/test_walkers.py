"""Interacting random-walk duals: rates, transitions, invariants."""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest

from ipsd import walkers
from ipsd.exact import MAX_UNIFORM_MU, _poisson_series
from ipsd.harness import replicate_map
from ipsd.lattice import Stencil, Torus
from ipsd.momdual import moment_eval, moment_product
from ipsd.rng import derive_stream
from ipsd.walkers import (BCRW, CRW, DBARW, LOCKSTEP_MAX_HANDOFF, MAX_CHUNK_CELLS, WalkerSamples,
                          apply_transition, count_row, occupied_sites, per_particle_rates,
                          simulate_walker, survival_probability, walker_ensemble, walker_rates,
                          walker_samples)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_walker_rate_is_refused_by_value(value):
    # unchecked, a BCRW at s = nan or -inf could not branch or die and reported
    # survival 0.0, and a DBARW at branch_rate = inf died after one event
    if value != -math.inf:
        with pytest.raises(ValueError, match=f"^branch rate must be finite and nonnegative, "
                                             f"got {value}$"):
            DBARW(branch_rate=value)
    if value != math.inf:
        with pytest.raises(ValueError, match=f"^BCRW needs a finite s <= 0, got {value}$"):
            BCRW(s=value, mu=-0.5)


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
                          derive_stream(71, "walk-grid"), grid=[0.5, 1.0, 2.0])
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


# -- the lockstep engine -------------------------------------------------------------


def _chi2_sf(x, df):
    """Survival function of the chi-square law, from the series of the lower incomplete gamma."""
    a, h = df / 2.0, x / 2.0
    if h <= 0.0:
        return 1.0
    term = acc = 1.0 / a
    k = 0
    while term > 1e-17 * acc:
        k += 1
        term *= h / (a + k)
        acc += term
    return max(0.0, 1.0 - math.exp(a * math.log(h) - h - math.lgamma(a)) * acc)


def _chi2_gof(observed, probs, reps):
    """Chi-square goodness of fit, tail cells pooled until each expects at least 5."""
    cells_o, cells_e, o, e = [], [], 0.0, 0.0
    for ob, pr in zip(observed, probs):
        o, e = o + ob, e + reps * pr
        if e >= 5.0:
            cells_o.append(o)
            cells_e.append(e)
            o = e = 0.0
    cells_o[-1] += o
    cells_e[-1] += e
    cells_o, cells_e = np.array(cells_o), np.array(cells_e)
    stat = float(((cells_o - cells_e) ** 2 / cells_e).sum())
    return stat, len(cells_o) - 1


@dataclass(frozen=True)
class _WalkerChain:
    """The walker chain on the multisets of total at most ``cap``, its generator in CSR arrays.

    ``counts`` holds the states within the cap, one count row each.  A jump
    past the cap lands in an absorbing state that keeps its total, as the
    engines carry an over-cap total forward; these come last, one per total
    reached.  Row i of the generator's off-diagonal part is
    ``rates[indptr[i]:indptr[i + 1]]`` to the states ``indices[...]``.
    """

    counts: np.ndarray
    totals: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    rates: np.ndarray
    start: int


def _walker_chain(kind, xi0, torus, stencil, cap):
    """Sparse generator of ``kind`` from xi0 on the walker multisets of total at most ``cap``.

    A kind that cannot branch never exceeds its initial total, so its states
    stop there.  States are keyed by their counts in base cap + 3, the most a
    jump can put on a site, and every transition of :func:`walker_rates` is
    built for all states at once, one site and channel at a time.
    """
    n = torus.n_sites
    b1, b2, pair_delta = per_particle_rates(kind)
    if b1 == b2 == 0.0:
        cap = min(cap, sum(xi0.values()))
    counts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(n):  # append each site's count, from 0 to what the cap leaves
        room = cap - counts.sum(axis=1) + 1
        rows = np.repeat(np.arange(len(counts)), room)
        counts = np.column_stack([counts[rows], np.arange(len(rows)) - np.repeat(
            np.cumsum(room) - room, room)])
    place = (cap + 3) ** np.arange(n, dtype=np.int64)
    keys = counts @ place
    order = np.argsort(keys)
    counts, keys = counts[order], keys[order]
    totals = counts.sum(axis=1)
    table = torus.move_table(stencil)
    src, dst, rate, grown = [], [], [], []
    for x in range(n):
        c = counts[:, x]
        jumps = [(place[table[x, j]] - place[x], w * c, 0)
                 for j, w in enumerate(stencil.weights) if w > 0]
        jumps += [(place[x], b1 * c, 1), (2 * place[x], b2 * c, 2),
                  (pair_delta * place[x], c * (c - 1) / 2.0, pair_delta)]
        for shift, r, dtotal in jumps:
            live = np.flatnonzero(r > 0)
            src.append(live)
            dst.append(keys[live] + shift)
            rate.append(r[live])
            grown.append(totals[live] + dtotal)
    src, dst, rate, grown = (np.concatenate(a) for a in (src, dst, rate, grown))
    over = np.unique(grown[grown > cap])
    inside = grown <= cap
    target = np.empty(len(dst), dtype=np.int64)
    target[inside] = np.searchsorted(keys, dst[inside])
    target[~inside] = len(keys) + np.searchsorted(over, grown[~inside])
    assert np.array_equal(keys[target[inside]], dst[inside])
    by_row = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=len(keys) + len(over)))])
    start = int(np.searchsorted(keys, count_row(xi0, torus) @ place))
    return _WalkerChain(counts, np.concatenate([totals, over]), indptr, target[by_row],
                        rate[by_row], start)


class _LawStep:
    """I + G / lam acting on a law (a row vector) by one ``np.bincount``.

    ``lam`` is 1.01 times the largest exit rate, as in ``exact._uniformized``.
    """

    def __init__(self, chain):
        size = len(chain.totals)
        rows = np.repeat(np.arange(size), np.diff(chain.indptr))
        exits = np.bincount(rows, weights=chain.rates, minlength=size)
        self.lam = 1.01 * float(exits.max())
        scale = 1.0 / self.lam if self.lam > 0.0 else 0.0
        self.src = np.concatenate([rows, np.arange(size)])
        self.dst = np.concatenate([chain.indices, np.arange(size)])
        self.prob = np.concatenate([chain.rates * scale, 1.0 - exits * scale])

    def __matmul__(self, law):
        return np.bincount(self.dst, weights=self.prob * law[self.src], minlength=len(law))


def _chain_laws(chain, grid):
    """Laws of the chain's state at the sorted grid times, from xi0.

    Each time steps on from the one before by the uniformization of
    ``exact._uniformized``: the series of ``exact._poisson_series``, split
    into the fewest equal steps of lam t at most ``exact.MAX_UNIFORM_MU``.
    """
    law = np.zeros(len(chain.totals))
    law[chain.start] = 1.0
    step = _LawStep(chain)
    laws, now = [], 0.0
    for t in grid:
        steps = math.ceil(step.lam * (t - now) / MAX_UNIFORM_MU)  # 0 when nothing moves
        for _ in range(steps):
            law = _poisson_series(step, step.lam * (t - now) / steps, law)
        laws.append(law)
        now = t
    return laws


def test_chi2_sf_matches_table_values():
    assert _chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
    assert _chi2_sf(11.070497693516351, 5) == pytest.approx(0.05, abs=1e-9)
    assert _chi2_sf(23.20925115125254, 10) == pytest.approx(0.01, abs=1e-9)


@pytest.mark.parametrize("kind,xi0,L,cap,rate", [
    (CRW(), {0: 1, 1: 1, 2: 1}, 3, 100, 1.0),
    (DBARW(branch_rate=0.5), {0: 2}, 3, 6, 1.0),
    (BCRW(s=-1.0, mu=-0.5), {0: 1}, 2, 6, 0.7),
], ids=["crw", "dbarw", "bcrw"])
def test_lockstep_size_law_matches_the_truncated_exact_chain(kind, xi0, L, cap, rate):
    torus, stencil = _geom(L=L, rate=rate)
    grid, reps = [0.3, 1.0], 4000
    runs = walker_ensemble(kind, xi0, torus, stencil, grid, cap, reps, 91, "lockstep-law")
    assert runs.handed.sum() < reps  # the lockstep engine did the work
    chain = _walker_chain(kind, xi0, torus, stencil, cap)
    for j, (t, law) in enumerate(zip(grid, _chain_laws(chain, grid))):
        size_law = np.bincount(chain.totals, weights=law)
        assert abs(size_law.sum() - 1.0) < 1e-12
        observed = np.bincount(runs.sizes[:, j], minlength=len(size_law))
        assert len(observed) == len(size_law)  # no size the chain cannot reach
        stat, df = _chi2_gof(observed, size_law, reps)
        assert df >= 1 and _chi2_sf(stat, df) > 1e-3, (t, stat, df, observed, reps * size_law)


def test_lockstep_matches_scalar_walker_two_sample():
    torus, stencil = _geom(L=4)
    kind, xi0, grid, cap, reps = DBARW(branch_rate=1.0), {0: 2, 1: 1}, [0.5, 1.5], 40, 3000
    lock = walker_ensemble(kind, xi0, torus, stencil, grid, cap, reps, 92, "lockstep-2s")
    rng = derive_stream(92, "scalar-2s")
    scalar = np.array([simulate_walker(kind, xi0, torus, stencil, grid[-1], rng, cap=cap,
                                       grid=grid).sizes for _ in range(reps)])
    for j in range(len(grid)):
        a = np.bincount(lock.sizes[:, j], minlength=cap + 3)
        b = np.bincount(scalar[:, j], minlength=cap + 3)
        keep = (a + b) >= 10  # pool the sparse sizes into one cell
        a = np.append(a[keep], a[~keep].sum())
        b = np.append(b[keep], b[~keep].sum())
        a, b = a[a + b > 0], b[a + b > 0]
        stat = float(((a - b) ** 2 / (a + b)).sum())  # homogeneity chi-square, equal sample sizes
        assert len(a) >= 3 and _chi2_sf(stat, len(a) - 1) > 1e-3, (j, stat, a, b)


def test_lockstep_dbarw_parity_holds_on_every_row():
    torus, stencil = _geom(L=6)
    for xi0, parity in (({0: 2}, 0), ({0: 1, 3: 2}, 1)):
        runs = walker_samples(DBARW(branch_rate=1.0), xi0, torus, stencil, [0.5, 1, 2, 4], 20,
                              2000, derive_stream(93, "lockstep-parity"))
        assert runs.handed.sum() <= LOCKSTEP_MAX_HANDOFF
        assert runs.capped.sum() > 0  # over-cap totals keep the parity too
        assert np.all(runs.sizes % 2 == parity)
        if parity:
            assert runs.alive.all() and runs.sizes.min() >= 1


def test_lockstep_rows_record_their_own_counts():
    torus, stencil = _geom(L=6)
    runs = walker_samples(CRW(), {0: 3, 2: 2}, torus, stencil, [0.2, 1, 3], 100, 300,
                          derive_stream(94, "lockstep-obs"))
    assert runs.observed.shape == runs.sizes.shape == (300, 3)
    assert np.all(runs.observed >= 1) and np.all(runs.observed <= np.minimum(runs.sizes, 6))
    assert np.all(np.diff(runs.sizes, axis=1) <= 0)  # coalescence never adds a walker
    assert runs.alive.all() and not runs.capped.any()


def test_chunk_at_most_handoff_draws_as_the_scalar_loop_in_turn():
    torus, stencil = _geom(L=5)
    kind, xi0, grid, cap = BCRW(s=-1.0, mu=-0.5), {3: 1, 0: 2}, [0.5, 2.0], 30
    runs = walker_samples(kind, xi0, torus, stencil, grid, cap, LOCKSTEP_MAX_HANDOFF,
                          derive_stream(95, "handoff-bits"))
    rng = derive_stream(95, "handoff-bits")
    for r in range(LOCKSTEP_MAX_HANDOFF):
        run = simulate_walker(kind, xi0, torus, stencil, grid[-1], rng, cap=cap, grid=grid)
        assert np.array_equal(runs.sizes[r], run.sizes)
        assert list(runs.observed[r]) == [len(snap) for snap in run.snapshots]
        assert runs.events[r] == run.n_events and runs.capped[r] == (run.cap_time is not None)
    assert runs.handed.all()


def test_handoff_just_above_and_below_the_threshold_gives_one_law():
    # coalescence alone (no migration): every event removes one walker, so the
    # events of a run add up to its initial total minus its final one
    torus, stencil = _geom(L=3, rate=0.0)
    xi0, grid = {0: 4, 1: 3, 2: 2}, [0.2, 0.6]
    laws = []
    for size in (LOCKSTEP_MAX_HANDOFF, LOCKSTEP_MAX_HANDOFF + 1):
        runs = WalkerSamples(*replicate_map(
            partial(walker_samples, CRW(), xi0, torus, stencil, grid, 100),
            250 * size, 96, f"handoff-{size}", size))
        assert np.array_equal(runs.events, 9 - runs.sizes[:, -1])
        if size == LOCKSTEP_MAX_HANDOFF:
            assert runs.handed.all()
        else:
            assert 0 < runs.handed.sum() < len(runs.handed)
        laws.append(np.bincount(runs.sizes[:, -1], minlength=10)[3:] / len(runs.sizes))
    a, b = laws
    n_a, n_b = 250 * LOCKSTEP_MAX_HANDOFF, 250 * (LOCKSTEP_MAX_HANDOFF + 1)
    pooled = (a * n_a + b * n_b) / (n_a + n_b)
    keep = pooled * min(n_a, n_b) >= 5
    stat = float((((a - b) ** 2 / (pooled * (1.0 / n_a + 1.0 / n_b)))[keep]).sum())
    assert _chi2_sf(stat, int(keep.sum()) - 1) > 1e-3, (stat, a, b)


def test_count_matrix_observables_equal_the_dict_forms():
    rng = np.random.default_rng(97)
    counts = rng.integers(0, 4, size=(200, 9)) * (rng.random((200, 9)) < 0.5)
    counts[0] = 0  # the empty configuration: no site, empty product
    for vals in (rng.uniform(-1.0, 1.0, 9), rng.uniform(0.0, 1.0, 9)):
        vals[2] = 0.0
        got = moment_product(vals, counts)
        for row, h in zip(counts, got):
            as_dict = {x: int(c) for x, c in enumerate(row) if c}
            want = moment_eval(vals, as_dict)
            assert h == want or abs(h - want) <= 1e-14 * abs(want), (row, h, want)
    dicts = [{x: int(c) for x, c in enumerate(row) if c} for row in counts]
    assert list(occupied_sites(counts)) == [len(d) for d in dicts]


def _untouched(call):
    """Assert that ``call(rng)`` raises ValueError before it draws from rng."""
    rng = derive_stream(98, "checks")
    before = rng.bit_generator.state
    with pytest.raises(ValueError) as err:
        call(rng)
    assert rng.bit_generator.state == before
    return str(err.value)


def test_walker_samples_checks_its_inputs_before_any_draw():
    torus, stencil = _geom()
    kind = DBARW(branch_rate=0.5)
    msg = _untouched(lambda rng: walker_samples(kind, {9: 1}, torus, stencil, [1.0], 10, 20, rng))
    assert "site 9 outside the torus" in msg
    msg = _untouched(lambda rng: walker_samples(kind, {0: 12}, torus, stencil, [1.0], 10, 20, rng))
    assert "exceeds the cap" in msg
    msg = _untouched(lambda rng: walker_samples(kind, {0: 2}, torus, stencil, [-1.0], 10, 20, rng))
    assert "grid has a negative entry -1.0" in msg
    for grid in ([np.inf], [np.nan], [1.0, np.nan, 2.0]):  # a NaN may sort anywhere
        msg = _untouched(lambda rng: walker_samples(kind, {0: 2}, torus, stencil, grid, 10, 20,
                                                    rng))
        assert "grid has a non-finite entry" in msg


def test_walkers_refuse_a_displacement_that_wraps_to_its_own_site_before_any_draw():
    # unchecked, a walker would spend events on jumps from a site to itself
    torus, stencil = Torus(1, 8), Stencil(((8,), (1,)), (0.5, 0.5))
    for call in (lambda rng: walker_samples(CRW(), {0: 2}, torus, stencil, [1.0], 10, 20, rng),
                 lambda rng: simulate_walker(CRW(), {0: 2}, torus, stencil, 1.0, rng)):
        assert "displacement (8,) is a multiple of L = 8" in _untouched(call)


def test_walker_samples_refuses_an_oversized_chunk():
    big = Torus(1, 1 << 13)  # 8192 sites x 4 grid points x 1024 reps = 2^25 cells
    msg = _untouched(lambda rng: walker_samples(CRW(), {0: 2}, big, Stencil.nearest_neighbor(1),
                                                [1, 2, 3, 4], 10, 1024, rng))
    assert "1024 reps x 8192 sites x 4 grid points" in msg and str(MAX_CHUNK_CELLS) in msg


def test_walker_ensemble_refuses_an_oversized_chunk_before_any_chunk_runs(monkeypatch):
    # the bound is that of the largest chunk, min(reps, WALKER_BATCH) runs
    def never(*args, **kwargs):
        raise AssertionError("ran a chunk before checking its cells")

    monkeypatch.setattr(walkers, "replicate_map", never)
    big = Torus(1, 1 << 13)
    for reps, size in [(5000, 1024), (600, 600)]:
        with pytest.raises(ValueError, match=f"^a walker chunk of {size} reps x 8192 sites x 4 "
                                             f"grid points needs {size * 8192 * 4} snapshot"):
            walker_ensemble(CRW(), {0: 2}, big, Stencil.nearest_neighbor(1), [1, 2, 3, 4], 10,
                            reps, 1, "big")
