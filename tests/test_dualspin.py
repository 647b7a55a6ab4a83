"""Dual chain for the spin system: pathwise identity, survival, size law."""

from functools import partial

import numpy as np
import pytest

from ipsd import dualspin, harness
from ipsd.dualspin import (ZBDistribution, bernoulli_parity_identity, dual_sizes_fresh,
                           evug_statistic, limit_formula, parity_duality_mc, replay_dual,
                           replay_dual_batch, simulate_dual_fresh)
from ipsd.exact import _dual_event_target, build_generator_dual, semigroup_apply
from ipsd.harness import check_grid, check_horizon, replicate_map
from ipsd.kernel import complete_kernel, config_indicator, explicit_kernel, torus_kernel
from ipsd.rng import derive_stream
from ipsd.spin import (SPIN_CHUNK, EventLog, EventTable, NPParams, replay_forward,
                       replay_forward_batch, sample_event_log)
from test_spin import _config_to_state, _one_event, _state_after
from test_walkers import _chi2_gof, _chi2_sf


def _parity_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """<a, b> mod 2 for two 0/1 configurations: the pathwise gates' side of each replay."""
    return int(np.bitwise_and(a, b).sum()) & 1


def test_parity_helpers():
    cfg = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert _parity_overlap(cfg, config_indicator(4, [0])) == 1
    assert _parity_overlap(cfg, config_indicator(4, [0, 2])) == 0
    assert _parity_overlap(cfg, config_indicator(4, [0, 1, 3])) == 0
    assert _parity_overlap(cfg, config_indicator(4, [])) == 0
    other = np.array([1, 1, 0, 1], dtype=np.uint8)
    assert _parity_overlap(cfg, other) == 0  # overlap {0,3}: even
    assert _parity_overlap(cfg, np.array([0, 0, 1, 1], dtype=np.uint8)) == 0
    assert _parity_overlap(cfg, np.array([0, 0, 0, 1], dtype=np.uint8)) == 1


def test_one_event_dual_hand_cases():
    # annihilation event (x; y, z): both y and z flip by the bit at x.
    xi = np.array([1, 0, 0, 1], dtype=np.uint8)
    out = replay_dual(xi, _one_event(0, 1, 2), 1.0)
    assert list(out) == [1, 1, 1, 1]
    out = replay_dual(xi, _one_event(1, 0, 2), 1.0)
    assert list(out) == [1, 0, 0, 1]  # bit at x=1 is 0: no-op
    # voter event (x; y): y flips by the bit at x, then x clears.
    out = replay_dual(xi, _one_event(0, 1), 1.0)
    assert list(out) == [0, 1, 0, 1]
    out = replay_dual(xi, _one_event(0, 3), 1.0)
    assert list(out) == [0, 0, 0, 0]  # coalescence: 3 flips off, x clears
    assert list(xi) == [1, 0, 0, 1]  # input untouched


def test_dual_size_parity_is_conserved():
    # Voter moves change the size by 0 or -2, annihilation moves by -2, 0, +2:
    # the parity of |xi| never changes under either event type.
    p = NPParams.symmetric(0.5)
    k = torus_kernel(2, 3)
    rng = derive_stream(11, "dual-parity")
    for B, want in [([0], 1), ([0, 4], 0), ([1, 2, 5], 1)]:
        duals, _ = simulate_dual_fresh(p, k, B, [1.5, 3.0, 6.0], 4, rng)
        assert (duals.sum(axis=2, dtype=np.int64) % 2 == want).all()


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


def test_a_stacked_dual_replay_matches_its_columns():
    p = NPParams.symmetric(0.6)
    k = torus_kernel(1, 5)
    rng = derive_stream(13, "dual-batch")
    log = sample_event_log(p, k, 4.0, rng)
    cols0 = (rng.random((k.n, 6)) < 0.5).astype(np.uint8)
    for t in (0.0, 1.7, 4.0):
        batched = replay_dual(cols0, log, t)
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
                    assert _parity_overlap(eta_t, indB) == _parity_overlap(xi_t, etaA)


def test_annihilation_only_dual_never_dies():
    # At alpha=0 every event keeps its focal site occupied, so a nonempty
    # dual stays nonempty forever.
    p = NPParams.symmetric(0.0)
    k = torus_kernel(2, 4)
    duals, _ = simulate_dual_fresh(p, k, [3, 7], [25.0], 10, derive_stream(13, "dual-alive"))
    assert (duals[:, -1].sum(axis=1, dtype=np.int64) >= 1).all()


def test_simulate_dual_fresh_records_the_sorted_grid_on_one_log():
    # one replicate's window is the whole log on [0, max(grid)], run forwards
    # to each sorted grid time; the same stream gives the same log
    p = NPParams.symmetric(0.4)
    k = torus_kernel(1, 6)
    got, events = simulate_dual_fresh(p, k, [0, 3], [2.0, 0.5, 1.0], 1,
                                      derive_stream(17, "fresh-grid"))
    log = sample_event_log(p, k, 2.0, derive_stream(17, "fresh-grid"))
    assert got.shape == (1, 3, 6) and got.dtype == np.uint8
    assert len(log) > 0 and events.tolist() == [len(log)]
    for row, t in zip(got[0], [0.5, 1.0, 2.0]):
        want = _state_after(config_indicator(6, [0, 3]), log, 0, log.count_up_to(t),
                            _dual_event_target)
        assert np.array_equal(row, want)


# -- same bits as the per-event loops ------------------------------------------------


def _reference_fold_forward(cols, log, upto):
    """In place: the per-event numpy loop the packed forward fold replaced."""
    xa, ya, za = log.xa, log.ya, log.za
    for i in range(upto):
        x = xa[i]
        y = ya[i]
        z = za[i]
        if z < 0:
            cols[x] = cols[y]
        else:
            cols[x] = cols[x] ^ cols[y] ^ cols[z]


def _reference_fold_dual(cols, log, order):
    """In place: the per-event numpy loop the packed dual fold replaced."""
    xa, ya, za = log.xa, log.ya, log.za
    for i in order:
        x = xa[i]
        y = ya[i]
        z = za[i]
        if z < 0:
            cols[y] = cols[y] ^ cols[x]
            cols[x] = 0
        else:
            cols[y] = cols[y] ^ cols[x]
            cols[z] = cols[z] ^ cols[x]


# rows of unequal length: degrees 2, 3, 4, 1 and 2
_UNEQUAL = [(0, 1, 0.5), (0, 2, 0.5), (1, 0, 0.2), (1, 2, 0.3), (1, 3, 0.5),
            (2, 0, 0.1), (2, 1, 0.2), (2, 3, 0.3), (2, 4, 0.4), (3, 4, 1.0),
            (4, 0, 0.6), (4, 3, 0.4)]
FOLD_KERNELS = [pytest.param(torus_kernel(2, 4), id="torus-2-4"),
                pytest.param(complete_kernel(5), id="complete-5"),
                pytest.param(explicit_kernel(5, _UNEQUAL), id="explicit-unequal")]
# None is a single configuration; the rest are (n, m) stacks, past one and two 64-bit words
FOLD_COLUMNS = [None, 1, 20, 64, 65, 130]


def _fold_log(p, k, seed):
    log = sample_event_log(p, k, 8.0, derive_stream(seed, "fold-log"))
    voters = int((log.za < 0).sum())
    assert 0 < len(log) - voters and (voters > 0) == (p.alpha > 0)
    return log


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", FOLD_KERNELS)
def test_packed_replays_give_the_reference_bits(k, alpha):
    log = _fold_log(NPParams.symmetric(alpha), k, 31)
    # no event, a prefix ending on an event, the whole log
    times = [0.0, float(log.times[len(log) // 2]), log.horizon]
    rng = derive_stream(32, "fold-start")
    for m in FOLD_COLUMNS:
        start = rng.integers(0, 2, k.n if m is None else (k.n, m), dtype=np.uint8)
        for t in times:
            upto = log.count_up_to(t)
            want = start.copy()
            _reference_fold_forward(want, log, upto)
            assert np.array_equal(replay_forward(start, log, t), want)
            want = start.copy()
            _reference_fold_dual(want, log, reversed(range(upto)))
            assert np.array_equal(replay_dual(start, log, t), want)


def _window_bounds(upto, m, k, rng):
    """(m, k) event counts rising from 0 to ``upto``: a record before any event, an
    empty window, and windows of different lengths."""
    bounds = np.sort(rng.integers(0, upto + 1, m * k)).reshape(m, k)
    bounds[0, 0] = 0
    bounds[1] = bounds[0, -1]
    bounds[-1, -1] = upto
    return bounds


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", FOLD_KERNELS)
def test_windowed_batch_replays_give_the_reference_bits(k, alpha):
    # column i runs the events after the first bounds[i - 1, -1]; record j
    # stops at the first bounds[i, j], forward in time order and the dual in
    # reverse from there back to the window's start
    log = _fold_log(NPParams.symmetric(alpha), k, 31)
    t = float(log.times[-2])  # the last event lies past every window
    rng = derive_stream(37, "fold-windows")
    bounds = _window_bounds(log.count_up_to(t), 6, 3, rng)
    cols = rng.integers(0, 2, (k.n, 6), dtype=np.uint8)
    before = cols.copy()
    fwd = replay_forward_batch(cols, log, t, bounds)
    dual = replay_dual_batch(cols, log, t, bounds)
    assert fwd.shape == dual.shape == (k.n, 6, 3) and fwd.dtype == dual.dtype == np.uint8
    assert np.array_equal(cols, before)
    lo = 0
    for i in range(6):
        for j in range(3):
            hi = int(bounds[i, j])
            assert np.array_equal(fwd[:, i, j], _state_after(cols[:, i], log, lo, hi)), (i, j)
            want = cols[:, i].copy()
            _reference_fold_dual(want, log, reversed(range(lo, hi)))
            assert np.array_equal(dual[:, i, j], want), (i, j)
        lo = hi


@pytest.mark.parametrize("replay", [replay_forward_batch, replay_dual_batch])
@pytest.mark.parametrize("ndim, bounds, message", [
    (2, [[0, 3], [3, 4]], "window bounds must rise from 0 to the 5 events up to t = 1.5$"),
    (2, [[0, 3], [2, 5]], "window bounds must rise"),
    (2, [[-1, 3], [3, 5]], "window bounds must rise"),
    (2, [[0, 3], [3, 6]], "window bounds must rise"),
    (2, [[0, 5]], r"a windowed replay takes an \(n_sites, m\) stack and \(m, k >= 1\) bounds, "
                  r"got \(4, 2\) and \(1, 2\)$"),
    (2, np.zeros((2, 0), dtype=np.int64), "a windowed replay takes"),
    (1, [[0, 5]], "a windowed replay takes"),
])
def test_windowed_batch_replays_refuse_bounds_that_do_not_split_the_events_up_to_t(
        replay, ndim, bounds, message):
    times = [0.25, 0.5, 0.75, 1.0, 1.5, 1.75]
    log = EventLog(2.0, np.array(times), np.zeros(6, dtype=np.int64),
                   np.ones(6, dtype=np.int64), np.full(6, -1, dtype=np.int64))
    cols = np.zeros((4, 2)[:ndim], dtype=np.uint8)
    with pytest.raises(ValueError, match="^" + message):
        replay(cols, log, 1.5, bounds)
    cols = np.zeros((4, 2), dtype=np.uint8)
    cols[3, 1] = 2
    with pytest.raises(ValueError, match="0/1 entries, got 2"):
        replay(cols, log, 1.5, [[0, 3], [3, 5]])
    assert replay(cols.clip(0, 1), log, 1.5, [[0, 3], [3, 5]]).shape == (4, 2, 2)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", FOLD_KERNELS)
def test_fresh_dual_gives_the_reference_bits_on_an_unsorted_grid(k, alpha):
    # three replicates on one log of [0, 9]: replicate i runs from 1_B over its
    # own window, each stretch through the per-event numpy fold
    p = NPParams.symmetric(alpha)
    got, events = simulate_dual_fresh(p, k, [0, 3], [3.0, 0.5, 1.5], 3,
                                      derive_stream(33, "fold-fresh"))
    log = sample_event_log(p, k, 9.0, derive_stream(33, "fold-fresh"))
    done = 0
    for i in range(3):
        want = config_indicator(k.n, [0, 3])
        lo = done
        for row, t in zip(got[i], [0.5, 1.5, 3.0]):
            upto = log.count_up_to(i * 3.0 + t)
            _reference_fold_dual(want, log, range(done, upto))
            done = upto
            assert np.array_equal(row, want)
        assert events[i] == done - lo
    assert done == len(log)


# -- same bits as the sampler that checked a log twice --------------------------------


def _reference_sample_event_log(p, k, horizon, rng, table=None):
    """The sampler that checked its times twice: by np.diff in its tie loop, then in the log."""
    horizon = check_horizon(horizon, "horizon")
    if table is None:
        table = EventTable.build(p, k)
    total = table.total_rate
    count = int(rng.poisson(total * horizon)) if total > 0 and horizon > 0 else 0
    times = np.sort(rng.random(count) * horizon)
    while count > 1 and not (np.diff(times) > 0).all():
        times = np.sort(rng.random(count) * horizon)
    which = table.cdf.searchsorted(rng.random(count), side="right")
    return EventLog(horizon, times, table.xa[which], table.ya[which], table.za[which])


def _reference_simulate_dual_fresh(p, k, B, grid, rng, table=None):
    """One fresh dual on a log of its own, each grid stretch found by count_up_to.

    Each stretch runs through the per-event numpy loop of the packed fold.
    """
    grid = check_grid(grid, "grid")
    log = _reference_sample_event_log(p, k, grid[-1], rng, table=table)
    rows = config_indicator(k.n, B)
    out = np.empty((len(grid), k.n), dtype=np.uint8)
    done = 0
    for j, g in enumerate(grid):
        upto = log.count_up_to(g)
        _reference_fold_dual(rows, log, range(done, upto))
        done = upto
        out[j] = rows
    return out


def _reference_fresh_batch(p, k, B, grid, reps, rng, table=None):
    """``reps`` fresh duals on one reference log of [0, reps T], replicate i on (i T, (i + 1) T].

    Each bound i T + g is found by count_up_to, each stretch runs through the
    per-event numpy fold; one replicate is :func:`_reference_simulate_dual_fresh`.
    """
    grid = check_grid(grid, "grid")
    T = float(grid[-1])
    log = _reference_sample_event_log(p, k, reps * T if reps else 0.0, rng, table=table)
    out = np.empty((reps, len(grid), k.n), dtype=np.uint8)
    events = np.zeros(reps, dtype=np.int64)
    done = 0
    for i in range(reps):
        rows = config_indicator(k.n, B)
        lo = done
        for j, g in enumerate(grid):
            upto = max(done, log.count_up_to(i * T + g))
            _reference_fold_dual(rows, log, range(done, upto))
            done = upto
            out[i, j] = rows
        events[i] = done - lo
    return out, events


def _reference_dual_sizes_fresh(p, k, B, grid, reps, size, rng, table=None):
    """The sizes summed by numpy, ``size`` replicates to a reference batch."""
    if table is None:
        table = EventTable.build(p, k)
    sizes = np.empty((reps, len(grid)), dtype=np.int64)
    events = np.empty(reps, dtype=np.int64)
    for lo in range(0, reps, size):
        duals, held = _reference_fresh_batch(p, k, B, grid, min(size, reps - lo), rng, table)
        sizes[lo:lo + len(duals)] = duals.sum(axis=2)
        events[lo:lo + len(duals)] = held
    return sizes, events


GATE_KERNELS = [pytest.param(torus_kernel(1, 10), id="torus-1-10"), *FOLD_KERNELS,
                pytest.param(complete_kernel(60), id="complete-60")]


def _assert_same_log(got, want):
    assert got.horizon == want.horizon
    for name in ("times", "xa", "ya", "za"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _assert_same_next_draw(rng_got, rng_want):
    assert rng_got.random() == rng_want.random()


def _gate_grid(p, k, seed):
    """A grid on [0, 3], unsorted, holding t = 0 and an event time (twice) of its own log."""
    log = _reference_sample_event_log(p, k, 3.0, derive_stream(seed, "gate"))
    assert len(log) > 0
    hit = float(log.times[len(log) // 2])
    return [3.0, hit, 0.0, float(log.times[0]), hit]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", GATE_KERNELS)
def test_sampled_logs_give_the_reference_bits(k, alpha):
    p = NPParams.symmetric(alpha)
    table = EventTable.build(p, k)
    got_rng, want_rng = derive_stream(41, "gate"), derive_stream(41, "gate")
    for horizon in (3.0, 0.0, 0.5, 3.0):
        got = sample_event_log(p, k, horizon, got_rng, table=table)
        want = _reference_sample_event_log(p, k, horizon, want_rng, table=table)
        _assert_same_log(got, want)
        assert got.columns == (want.xa.tolist(), want.ya.tolist(), want.za.tolist())
        assert len(got) or horizon < 3.0
    _assert_same_next_draw(got_rng, want_rng)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", GATE_KERNELS)
def test_fresh_duals_give_the_reference_bits(k, alpha):
    # one replicate is the one-log-per-dual reference, bit for bit; four share
    # one log as the reference batch shares it
    p = NPParams.symmetric(alpha)
    table = EventTable.build(p, k)
    B = [0, 3]
    got_rng, want_rng = derive_stream(41, "gate"), derive_stream(41, "gate")
    for grid in (_gate_grid(p, k, 41), [0.0], [1.0, 0.25], [0.0, 0.0]):
        got, events = simulate_dual_fresh(p, k, B, grid, 1, got_rng, table=table)
        want = _reference_simulate_dual_fresh(p, k, B, grid, want_rng, table=table)
        assert got.dtype == want.dtype == np.uint8 and got.shape == (1, *want.shape)
        assert got[0].tobytes() == want.tobytes()
        got, events = simulate_dual_fresh(p, k, B, grid, 4, got_rng, table=table)
        want, held = _reference_fresh_batch(p, k, B, grid, 4, want_rng, table=table)
        assert got.dtype == want.dtype and got.shape == want.shape == (4, len(grid), k.n)
        assert got.tobytes() == want.tobytes()
        assert events.dtype == held.dtype == np.int64 and events.tolist() == held.tolist()
    _assert_same_next_draw(got_rng, want_rng)


@pytest.mark.parametrize("cells", [None, 1])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", GATE_KERNELS)
def test_fresh_dual_sizes_give_the_reference_bits(monkeypatch, k, alpha, cells):
    # the default budget holds all 7 replicates in one batch; cells = 1 gives
    # each replicate a log of its own, as a kernel too big to hold a batch does
    size = 7
    if cells is not None:
        monkeypatch.setattr(dualspin, "CELLS", cells)
        size = 1
    p = NPParams.symmetric(alpha)
    grid = _gate_grid(p, k, 42)
    got_rng, want_rng = derive_stream(42, "gate"), derive_stream(42, "gate")
    got, events = dual_sizes_fresh(p, k, [1, 2, 4], grid, 7, got_rng)
    want, held = _reference_dual_sizes_fresh(p, k, [1, 2, 4], grid, 7, size, want_rng)
    assert got.dtype == want.dtype == np.int64 and got.shape == want.shape == (7, len(grid))
    assert got.tobytes() == want.tobytes() and events.tolist() == held.tolist()
    _assert_same_next_draw(got_rng, want_rng)
    sizes, events = dual_sizes_fresh(p, k, [1], grid, 0, got_rng)
    assert sizes.shape == (0, len(grid)) and events.shape == (0,)


class _TiedFirstTimes:
    """A generator whose first ``random(count)`` draws hold a tie, and whose ``random`` may
    return 0.0 there instead; every other draw comes from the wrapped generator."""

    def __init__(self, rng, zero=False):
        self.rng = rng
        self.zero = zero
        self.first = True

    def poisson(self, lam):
        return self.rng.poisson(lam)

    def random(self, size=None):
        u = self.rng.random(size)
        if self.first and size:
            self.first = False
            u[size // 2] = 0.0 if self.zero else u[0]
        return u


@pytest.mark.parametrize("k", GATE_KERNELS)
def test_a_tie_in_the_sampled_times_is_redrawn_as_the_reference_redraws_it(k):
    p = NPParams.symmetric(0.3)
    got_rng = _TiedFirstTimes(derive_stream(43, "gate"))
    want_rng = _TiedFirstTimes(derive_stream(43, "gate"))
    got = sample_event_log(p, k, 3.0, got_rng)
    want = _reference_sample_event_log(p, k, 3.0, want_rng)
    assert not got_rng.first and len(got) > 2
    _assert_same_log(got, want)
    assert (np.diff(got.times) > 0).all()
    # the redraw took a second set of times before the types were drawn
    skipped = derive_stream(43, "gate")
    skipped.poisson(EventTable.build(p, k).total_rate * 3.0)
    skipped.random(len(got))
    assert np.array_equal(np.sort(skipped.random(len(got)) * 3.0), got.times)
    _assert_same_next_draw(got_rng.rng, want_rng.rng)


def test_a_sampled_time_of_zero_is_redrawn_where_the_reference_refuses_it():
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 10)
    with pytest.raises(ValueError, match=r"^event times must lie in \(0, horizon\]$"):
        _reference_sample_event_log(p, k, 3.0, _TiedFirstTimes(derive_stream(44, "gate"), zero=True))
    rng = _TiedFirstTimes(derive_stream(44, "gate"), zero=True)
    got = sample_event_log(p, k, 3.0, rng)
    assert not rng.first and len(got) > 2
    assert got.times[0] > 0.0 and (np.diff(got.times) > 0).all()
    # the redraw took a second set of times before the types were drawn
    table = EventTable.build(p, k)
    skipped = derive_stream(44, "gate")
    skipped.poisson(table.total_rate * 3.0)
    skipped.random(len(got))
    assert np.array_equal(np.sort(skipped.random(len(got)) * 3.0), got.times)
    which = table.cdf.searchsorted(skipped.random(len(got)), side="right")
    assert np.array_equal(table.xa[which], got.xa) and np.array_equal(table.za[which], got.za)
    _assert_same_next_draw(rng.rng, skipped)


# -- fresh duals by the batch: the law of each window, and the windows themselves -----

LAW_KERNELS = [pytest.param(torus_kernel(1, 6), id="torus-1-6"),
               pytest.param(torus_kernel(2, 3), id="torus-2-3"),
               pytest.param(complete_kernel(5), id="complete-5")]
LAW_B = [0, 3]


def _exact_size_laws(p, k, B, grid):
    """P(|xi_g| = m) for m = 0..n at each grid time, from the dual generator's semigroup."""
    sizes = np.array([bin(s).count("1") for s in range(1 << k.n)])
    by_size = (sizes[:, None] == np.arange(k.n + 1)).astype(np.float64)
    gen = build_generator_dual(p, k)
    start = _config_to_state(config_indicator(k.n, B))
    return [semigroup_apply(gen, g, by_size)[start] for g in grid]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_fresh_dual_sizes_follow_the_exact_law_at_each_grid_time(k, alpha):
    # 4000 replicates share one log: every window but the first starts past t = 0
    p = NPParams.symmetric(alpha)
    grid, reps = [0.25, 0.75, 2.0], 4000
    sizes, _ = dual_sizes_fresh(p, k, LAW_B, grid, reps, derive_stream(51, "law"))
    for j, law in enumerate(_exact_size_laws(p, k, LAW_B, grid)):
        observed = np.bincount(sizes[:, j], minlength=k.n + 1)
        stat, df = _chi2_gof(observed, law, reps)
        assert df >= 1 and _chi2_sf(stat, df) > 1e-3, (grid[j], stat, df, observed, reps * law)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_fresh_dual_joint_sizes_match_the_one_log_per_dual_sampler(k, alpha):
    # the joint law of (|xi_0.5|, |xi_2|) against a dual on a log of its own
    p = NPParams.symmetric(alpha)
    table = EventTable.build(p, k)
    grid, reps, width = [0.5, 2.0], 3000, k.n + 1
    got, _ = dual_sizes_fresh(p, k, LAW_B, grid, reps, derive_stream(52, "law"), table=table)
    rng = derive_stream(53, "law")
    want = np.array([_reference_simulate_dual_fresh(p, k, LAW_B, grid, rng, table=table)
                     .sum(axis=1) for _ in range(reps)])
    a = np.bincount(got[:, 0] * width + got[:, 1], minlength=width * width)
    b = np.bincount(want[:, 0] * width + want[:, 1], minlength=width * width)
    keep = (a + b) >= 10  # pool the sparse pairs into one cell
    a = np.append(a[keep], a[~keep].sum())
    b = np.append(b[keep], b[~keep].sum())
    a, b = a[a + b > 0], b[a + b > 0]
    stat = float(((a - b) ** 2 / (a + b)).sum())  # homogeneity chi-square, equal sample sizes
    assert len(a) >= 3 and _chi2_sf(stat, len(a) - 1) > 1e-3, (stat, a, b)


def _spy_logs(monkeypatch) -> list:
    """The logs dualspin samples from here on, in order."""
    logs = []

    def spy(*args, **kwargs):
        logs.append(sample_event_log(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(dualspin, "sample_event_log", spy)
    return logs


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_each_fresh_dual_runs_its_own_window_of_the_batch_log(monkeypatch, k, alpha):
    # replicate i folds the events in (i T, (i + 1) T] from 1_B, by the exact
    # dual targets; the windows' counts partition the log
    logs = _spy_logs(monkeypatch)
    p = NPParams.symmetric(alpha)
    grid, reps, T = [1.5, 0.0, 0.5, 1.5], 7, 1.5
    duals, events = simulate_dual_fresh(p, k, LAW_B, grid, reps, derive_stream(54, "windows"))
    (log,) = logs
    assert duals.shape == (reps, len(grid), k.n) and duals.dtype == np.uint8
    assert events.dtype == np.int64 and log.horizon == reps * T
    assert int(events.sum()) == len(log) > reps
    start = config_indicator(k.n, LAW_B)
    lo = 0
    for i in range(reps):
        for row, g in zip(duals[i], sorted(grid)):
            upto = log.count_up_to(i * T + g)
            assert np.array_equal(row, _state_after(start, log, lo, upto, _dual_event_target))
        assert events[i] == upto - lo
        lo = upto


def test_an_event_on_a_bound_falls_in_the_earlier_stretch(monkeypatch):
    # three windows of T = 1 on the grid 0, 0.5, 1 from B = {0}; each event at
    # a bound belongs to the stretch, and the window, that ends there
    times = [0.5, 1.0, 1.5, 2.0, 3.0]
    xa, ya, za = [0, 0, 0, 1, 0], [1, 2, 1, 3, 3], [-1, -1, 2, -1, -1]

    def hand_built(p, k, horizon, rng, table=None):
        assert horizon == 3.0
        return EventLog(horizon, np.array(times), np.array(xa), np.array(ya), np.array(za))

    monkeypatch.setattr(dualspin, "sample_event_log", hand_built)
    duals, events = simulate_dual_fresh(NPParams.symmetric(0.3), torus_kernel(1, 4), [0],
                                        [1.0, 0.0, 0.5], 3, derive_stream(55, "bounds"))
    sets = [[np.flatnonzero(row).tolist() for row in rows] for rows in duals]
    # the voter event (0; 2) at t = 1 meets an empty focal site in window 0;
    # in window 1 it would have moved the dual to {2}
    assert sets == [[[0], [1], [1]], [[0], [0, 1, 2], [0, 2, 3]], [[0], [0], [3]]]
    assert events.tolist() == [2, 2, 1]


def test_fresh_duals_keep_the_sorted_grid_and_start_from_1_B_at_horizon_0():
    p = NPParams.symmetric(0.4)
    k = torus_kernel(1, 6)
    got = simulate_dual_fresh(p, k, LAW_B, [2.0, 0.5, 1.0], 5, derive_stream(17, "fresh-grid"))
    want = simulate_dual_fresh(p, k, LAW_B, [0.5, 1.0, 2.0], 5, derive_stream(17, "fresh-grid"))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tolist() == want[1].tolist()
    start = config_indicator(k.n, LAW_B)
    rng = derive_stream(56, "horizon-0")
    for grid in ([0.0], [0.0, 0.0]):
        duals, events = simulate_dual_fresh(p, k, LAW_B, grid, 4, rng)
        assert duals.shape == (4, len(grid), k.n) and (duals == start).all()
        assert events.tolist() == [0, 0, 0, 0]
    _assert_same_next_draw(rng, derive_stream(56, "horizon-0"))  # horizon 0 draws nothing
    duals, events = simulate_dual_fresh(p, k, LAW_B, [1.0], 0, rng)
    assert duals.shape == (0, 1, k.n) and events.shape == (0,)
    sizes, events = dual_sizes_fresh(p, k, LAW_B, [1.0], 0, rng)
    assert sizes.shape == (0, 1) and events.shape == (0,)


# torus_kernel(1, 6) at alpha = 0.3 has total rate 2.85, so a replicate to t = 2
# expects 5.7 events; 300 cells allow 300 // 18 = 16 replicates by snapshot cells
# on the grid below, and int(300 // 16 / 5.7) = 3 by expected events
@pytest.mark.parametrize("cells, per_log", [(1, [1] * 7), (300, [3, 3, 1])])
def test_a_small_cells_budget_splits_a_chunk_into_several_logs(monkeypatch, cells, per_log):
    monkeypatch.setattr(dualspin, "CELLS", cells)
    logs = _spy_logs(monkeypatch)
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 6)
    assert EventTable.build(p, k).total_rate == pytest.approx(2.85)
    sizes, events = dual_sizes_fresh(p, k, LAW_B, [0.5, 1.0, 2.0], 7, derive_stream(57, "cells"))
    assert [log.horizon / 2.0 for log in logs] == per_log
    assert sizes.shape == (7, 3) and (sizes[:, 0] >= 0).all() and events.shape == (7,)
    assert int(events.sum()) == sum(len(log) for log in logs)
    # parity-check's chunk: the shared batch logs, then the fresh batches, on one budget
    logs.clear()
    mc = parity_duality_mc(p, k, [1], LAW_B, 2.0, 7, 58, "cells")
    assert [log.horizon / 2.0 for log in logs] == per_log + per_log
    assert mc["fresh_dual"].shape == (7,) and mc["log_events"] == sum(len(log) for log in logs)


# -- pathwise parity by the batch: each window against the single-log replays ---------


def _window(log, i, T):
    """Window i of a batch log, (i T, (i + 1) T], as a log of its own on [0, T]."""
    lo, hi = log.count_up_to(i * T), log.count_up_to((i + 1) * T)
    return EventLog(T, np.minimum(log.times[lo:hi] - i * T, T), log.xa[lo:hi], log.ya[lo:hi],
                    log.za[lo:hi])


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_each_window_gives_the_parities_of_the_single_log_replays(monkeypatch, k, alpha):
    # the chunk's pathwise parities at t/2 and t, window by window, are those
    # of replay_forward and replay_dual on a log holding that window's events
    logs = _spy_logs(monkeypatch)
    p = NPParams.symmetric(alpha)
    A, B, t, size = [0, 2], [1, 2, 4], 2.0, 40
    table = EventTable.build(p, k)
    fwd, dual, fresh, events = dualspin._parity_chunk(p, k, A, B, [t / 2, t], table, size,
                                                      derive_stream(59, "parity-windows"))
    shared, *fresh_logs = logs
    assert shared.horizon == size * t and len(shared) > size
    assert fwd.shape == dual.shape == (size, 2) and fresh.shape == events.shape == (size,)
    assert int(events.sum()) == len(shared) + sum(len(log) for log in fresh_logs)
    etaA, indB = config_indicator(k.n, A), config_indicator(k.n, B)
    held = 0
    for i in range(size):
        window = _window(shared, i, t)
        held += len(window)
        for j, g in enumerate([t / 2, t]):
            assert fwd[i, j] == _parity_overlap(replay_forward(etaA, window, g), indB), (i, j)
            assert dual[i, j] == _parity_overlap(replay_dual(indB, window, g), etaA), (i, j)
    assert held == len(shared)
    assert (fwd == dual).all() and set(fwd.ravel().tolist()) == {0, 1}


@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_each_bernoulli_window_folds_its_own_start(monkeypatch, k, alpha):
    # the Bernoulli(1/2) starts are the chunk's first draws, one row per window
    logs = _spy_logs(monkeypatch)
    p = NPParams.symmetric(alpha)
    B, t, size = [0, 3], 1.5, 30
    direct, alive = dualspin._bernoulli_chunk(p, k, B, t, EventTable.build(p, k), size,
                                              derive_stream(60, "bernoulli-windows"))
    starts = (derive_stream(60, "bernoulli-windows").random((size, k.n)) < 0.5).astype(np.uint8)
    shared = logs[0]
    assert shared.horizon == size * t and direct.shape == alive.shape == (size,)
    indB = config_indicator(k.n, B)
    for i in range(size):
        want = _parity_overlap(replay_forward(starts[i], _window(shared, i, t), t), indB)
        assert direct[i] == want, i


def _reference_parity_chunk(p, k, A, B, grid, table, size, rng):
    """Pathwise parities as they were sampled before the batch: one log on [0, t] per
    replicate, each time in ``grid`` replayed forward and in reverse from scratch."""
    fwd = np.empty((size, len(grid)), dtype=np.int64)
    dual = np.empty((size, len(grid)), dtype=np.int64)
    etaA, indB = config_indicator(k.n, A), config_indicator(k.n, B)
    for i in range(size):
        log = sample_event_log(p, k, grid[-1], rng, table=table)
        for j, t in enumerate(grid):
            fwd[i, j] = _parity_overlap(replay_forward(etaA, log, t), indB)
            dual[i, j] = _parity_overlap(replay_dual(indB, log, t), etaA)
    return fwd, dual


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", LAW_KERNELS)
def test_batch_forward_parities_match_the_one_log_per_replicate_sampler(k, alpha):
    # the joint law of the forward parities at (t/2, t): homogeneity chi-square
    # of two equal samples, the batch windows against a log per replicate
    p = NPParams.symmetric(alpha)
    A, B, grid, reps = [0, 2], [1, 4], [0.75, 1.5], 3000
    table = EventTable.build(p, k)
    got = replicate_map(partial(dualspin._parity_chunk, p, k, A, B, grid, table), reps, 61,
                        "parity-law", SPIN_CHUNK)[0]
    want, want_dual = _reference_parity_chunk(p, k, A, B, grid, table, reps,
                                              derive_stream(62, "parity-law"))
    assert (want == want_dual).all()
    a = np.bincount(got[:, 0] * 2 + got[:, 1], minlength=4)
    b = np.bincount(want[:, 0] * 2 + want[:, 1], minlength=4)
    a, b = a[a + b > 0], b[a + b > 0]
    stat = float(((a - b) ** 2 / (a + b)).sum())
    assert len(a) >= 2 and _chi2_sf(stat, len(a) - 1) > 1e-3, (stat, a, b)


@pytest.mark.parametrize("times, message", [
    ([0.5, 0.5], "be strictly increasing"),
    ([0.5, 0.9, 0.7], "be strictly increasing"),
    ([0.5, np.nan], "be strictly increasing"),
    ([0.0, 0.5], r"lie in \(0, horizon\]"),
    ([-0.5, 0.5], r"lie in \(0, horizon\]"),
    ([0.5, 1.5], r"lie in \(0, horizon\]"),
    ([np.nan], r"lie in \(0, horizon\]"),
])
def test_a_hand_built_log_refuses_times_out_of_order_or_out_of_range(times, message):
    # the sampler checks its own times once; a log built by hand keeps every check
    n = len(times)
    with pytest.raises(ValueError, match=f"^event times must {message}"):
        EventLog(1.0, np.array(times), np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64),
                 np.full(n, -1, dtype=np.int64))
    ok = EventLog(1.0, np.array([0.5, 1.0]), np.zeros(2, dtype=np.int64),
                  np.ones(2, dtype=np.int64), np.full(2, -1, dtype=np.int64))
    assert len(ok) == 2 and ok.columns == ([0, 0], [1, 1], [-1, -1])


@pytest.mark.parametrize("replay", [replay_forward, replay_dual])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
@pytest.mark.parametrize("m", [None, 3, 70])
def test_replays_keep_dtype_and_shape_and_leave_the_input(replay, dtype, m):
    k = torus_kernel(1, 6)
    log = _fold_log(NPParams.symmetric(0.5), k, 34)
    start = derive_stream(35, "fold-dtype").integers(0, 2, k.n if m is None else (k.n, m))
    start = start.astype(dtype)
    before = start.copy()
    out = replay(start, log, 2.0)
    assert out.dtype == start.dtype and out.shape == start.shape and out is not start
    assert np.array_equal(start, before)


@pytest.mark.parametrize("replay", [replay_forward, replay_dual])
@pytest.mark.parametrize("bad", [2, 255])
def test_a_stack_entry_other_than_0_or_1_is_refused_by_value(replay, bad):
    k = torus_kernel(1, 4)
    log = _fold_log(NPParams.symmetric(0.5), k, 36)
    cols = np.zeros((k.n, 3), dtype=np.uint8)
    cols[2, 1] = bad
    with pytest.raises(ValueError, match=f"0/1 entries, got {bad}"):
        replay(cols, log, 1.0)


def test_dual_sizes_fresh_grid():
    p = NPParams.symmetric(0.4)
    k = torus_kernel(1, 6)
    rng = derive_stream(14, "dual-sizes")
    sizes, events = dual_sizes_fresh(p, k, [0, 2], [0.5, 1.0, 2.0], 50, rng)
    assert sizes.shape == (50, 3) and events.shape == (50,) and events.sum() > 0
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
    _, rows, events = evug_statistic(p, k, [0, 3], [1.0, 2.0], cap=8, reps=200, master_seed=17,
                                     role="dual-evug")
    assert events > 0
    assert [r["t"] for r in rows] == [1.0, 2.0]
    for r in rows:
        assert 0.0 <= r["window"].mean <= r["survival"].mean <= 1.0


@pytest.mark.parametrize("cap", [0, -1])
def test_evug_statistic_refuses_a_cap_below_one_before_any_draw(monkeypatch, cap):
    # unchecked, cap=-1 counted every dual, the dead ones too, as overflow
    def never(*args, **kwargs):
        raise AssertionError("drew before checking the cap")

    monkeypatch.setattr(harness, "derive_stream", never)
    with pytest.raises(ValueError, match=f"^cap must be at least 1, got {cap}$"):
        evug_statistic(NPParams.symmetric(0.3), torus_kernel(1, 6), [0, 3], [1.0], cap, 4, 1, "c")


def test_evug_statistic_labels_an_unsorted_grid_in_time_order():
    # the dual records at the sorted grid, so the rows must carry those times
    p = NPParams.symmetric(0.3)
    k = torus_kernel(1, 10)
    args = dict(cap=12, reps=400, master_seed=1, role="x")
    unsorted_sizes, unsorted, unsorted_events = evug_statistic(p, k, [0, 3], [8.0, 0.001], **args)
    ordered_sizes, ordered, ordered_events = evug_statistic(p, k, [0, 3], [0.001, 8.0], **args)
    assert unsorted == ordered and unsorted_events == ordered_events
    assert np.array_equal(unsorted_sizes, ordered_sizes)
    assert [r["t"] for r in unsorted] == [0.001, 8.0]
    # the empty dual is absorbing: survival cannot grow with time
    assert unsorted[0]["survival"].mean >= unsorted[1]["survival"].mean
