"""Pathwise and distributional duals of the symmetric competition spin system.

Every forward update of the graphical construction is linear over GF(2):
eta -> (Id + J) eta for a 0/1 matrix J determined by the event.  The dual
process runs the transposed updates.  Concretely, against a fixed event log:

* annihilation event (x; {y, z}):   xi(y) += xi(x), xi(z) += xi(x)  (mod 2)
* voter event (x; y):               xi(y) += xi(x), then xi(x) = 0

Replaying the log's events in reverse time order over an indicator 1_B
produces xi = (Id + J_1^T) ... (Id + J_N^T) 1_B, and the pathwise identity

    <1_B, eta_t^A>  =  <xi_t^{t,B}, 1_A>   (mod 2)

holds exactly, log by log.  The replay folds the log over site rows packed
into Python ints, as :func:`ipsd.spin.replay_forward` does.  Run against a
fresh log of its own (in forward time order), the same update rule is a
continuous-time chain with the same jump rates, which gives the
distributional parity duality checked by :func:`parity_duality_mc`;
:func:`simulate_dual_fresh` runs that chain.

The ensembles :func:`parity_duality_mc`, :func:`evug_statistic` and
:func:`bernoulli_parity_identity` take a master seed and a role and run a
chunk worker through :func:`ipsd.harness.replicate_map`, ``SPIN_CHUNK``
replicates per stream, so each result is the same for any worker count.
A chunk samples its logs by the batch: one event log on [0, reps*T] per
batch, cut into one window of length T per replicate (:func:`_window_log`).
Fresh duals run forward over their windows (:func:`simulate_dual_fresh`);
the pathwise parities replay each shared window once forward
(:func:`ipsd.spin.replay_forward_batch`) and once in reverse
(:func:`replay_dual_batch`), both given the windows' bounds, recording
every recording time on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .harness import check_grid, check_horizon, replicate_map
from .kernel import Kernel, config_indicator
from .spin import (CELLS, SPIN_CHUNK, EventLog, EventTable, NPParams, _pack_rows, _unpack_rows,
                   _windows, replay_forward_batch, sample_event_log)
from .stats import MCEstimate, two_sample_z

__all__ = [
    "replay_dual",
    "replay_dual_batch",
    "simulate_dual_fresh",
    "dual_sizes_fresh",
    "parity_duality_mc",
    "bernoulli_parity_identity",
    "ZBDistribution",
    "limit_formula",
    "evug_statistic",
]


def _fold_dual(rows: list[int], events) -> None:
    """In place: apply the transposed updates of ``events`` to packed site rows.

    The events are (x, y, z) triples: :func:`replay_dual` passes a log
    prefix backwards, a fresh dual its own log forwards.  An event reads
    its focal row first and skips when it is 0: XOR with 0 and zeroing a 0
    change nothing, and fresh duals are sparse.
    """
    for x, y, z in events:
        if rows[x]:
            rows[y] ^= rows[x]
            if z < 0:
                rows[x] = 0
            else:
                rows[z] ^= rows[x]


def replay_dual(xi0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """Dual state from running the events with time <= t in reverse order, t in [0, log.horizon].

    ``xi0`` is one configuration or an (n_sites, m) stack of 0/1 columns, as
    for :func:`ipsd.spin.replay_forward`; returns a fresh array of its
    shape and dtype.
    """
    rows = _pack_rows(xi0)
    upto = log.count_up_to(t)
    _fold_dual(rows, zip(*(reversed(col[:upto]) for col in log.columns)))
    return _unpack_rows(rows, xi0)


def replay_dual_batch(cols0: np.ndarray, log: EventLog, t: float,
                      bounds: np.ndarray) -> np.ndarray:
    """replay_dual over consecutive windows of the events with time <= t, one per column.

    ``cols0`` and ``bounds`` are as for :func:`ipsd.spin.replay_forward_batch`:
    record j of column i runs, in reverse, the events of window i up to
    the first bounds[i, j].  One reverse fold per window gives every
    record: from the last stretch to the first, stretch j sets the column
    in bit j of the site rows and folds its events back over every bit at
    once, so bit j ends as record j.  The windows run last to first over
    one reversed event iterator, which first skips the events after t.
    Returns the records, uint8 of shape (n_sites, m, k).
    """
    starts, stretches, (m, k, n) = _windows(cols0, log, t, bounds)
    ends = [0, *(stretch[-1] for stretch in stretches)]
    back = islice(zip(*map(reversed, log.columns)), len(log) - ends[-1], None)
    packed: list[list[int]] = []
    for lo, stretch, col in zip(reversed(ends[:-1]), reversed(stretches), reversed(starts)):
        edges = [lo, *stretch]
        rows = [0] * n
        for j in reversed(range(k)):
            rows = [row | b << j for row, b in zip(rows, col)]
            _fold_dual(rows, islice(back, edges[j + 1] - edges[j]))
        packed.append(rows)
    flat = [row for rows in reversed(packed) for row in rows]
    bits = _unpack_rows(flat, np.empty((m * n, k), dtype=np.uint8))
    return bits.reshape(m, n, k).transpose(1, 0, 2)


def _window_log(p: NPParams, k: Kernel, grid: list[float], reps: int, rng: np.random.Generator,
                table: EventTable | None) -> tuple[EventLog, np.ndarray]:
    """One log on [0, reps*T], T = grid[-1], cut into ``reps`` windows of length T.

    ``grid`` is sorted.  Returns the log and the bounds, shape
    (reps, len(grid)): entry (i, j) is the number of events with time <=
    i*T + grid[j].  A Poisson process has independent increments and iid
    marks, so the events of window (i*T, (i+1)*T], shifted by i*T, are a
    fresh log on [0, T]; the bounds i*T + g are floats, so a bound may move
    by one ulp of reps*T.  Each window starts at the last bound of the one
    before, so the windows partition the log's events.
    """
    stops = np.add.outer(np.arange(reps) * grid[-1], grid)
    log = sample_event_log(p, k, stops[-1, -1] if reps else 0.0, rng, table=table)
    # a bound never lies before the one before it, whatever the rounding
    bounds = np.maximum.accumulate(log.times.searchsorted(stops.ravel(), side="right"))
    return log, bounds.reshape(stops.shape)


def _batch_size(table: EventTable, horizon: float, most: float) -> int:
    """Replicates per batch log: at most ``most`` and CELLS // 16 expected events, or one."""
    per_rep = table.total_rate * horizon  # expected events of one window
    if per_rep > 0:
        most = min(most, CELLS // 16 / per_rep)
    return max(1, int(most))


def simulate_dual_fresh(p: NPParams, k: Kernel, B, grid, reps: int, rng: np.random.Generator,
                        table: EventTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` fresh dual chains from 1_B: transposed updates, forward order, one shared log.

    With T = max(grid), samples one log on [0, reps*T]; replicate i runs
    over the events of its own window (i*T, (i+1)*T] (see :func:`_window_log`)
    and records the dual at i*T + g for each sorted grid time g, after
    every event up to it.

    Returns the duals, shape (reps, len(grid), n), uint8, and the events of
    each window, shape (reps,), int64, which sum to the length of the log.
    """
    grid = check_grid(grid, "grid")
    log, bounds = _window_log(p, k, grid, reps, rng, table)
    start = config_indicator(k.n, B).tolist()
    events = zip(*log.columns)
    snaps: list[int] = []
    done = 0
    for stretch in bounds.tolist():
        rows = start.copy()
        for upto in stretch:
            _fold_dual(rows, islice(events, upto - done))
            done = upto
            snaps += rows
    duals = np.frombuffer(bytearray(snaps), dtype=np.uint8).reshape(reps, len(grid), k.n)
    return duals, np.diff(bounds[:, -1], prepend=0)


def _fresh_batches(p: NPParams, k: Kernel, B, grid, reps: int, rng: np.random.Generator,
                   table: EventTable):
    """Yield (first replicate, duals, window events) for ``reps`` fresh duals, batch by batch.

    A batch is one :func:`simulate_dual_fresh` call.  It holds at most
    CELLS snapshot cells and at most CELLS // 16 expected log events, or
    one replicate.
    """
    grid = check_grid(grid, "grid")
    size = _batch_size(table, grid[-1], CELLS // (len(grid) * k.n))
    for lo in range(0, reps, size):
        yield (lo, *simulate_dual_fresh(p, k, B, grid, min(size, reps - lo), rng, table=table))


def dual_sizes_fresh(p: NPParams, k: Kernel, B, grid, reps: int, rng: np.random.Generator,
                     table: EventTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """|xi_t| for fresh duals at each sorted grid time, shape (reps, len(grid)), and the
    events of each replicate's log window, shape (reps,)."""
    if table is None:
        table = EventTable.build(p, k)
    sizes = np.empty((reps, len(grid)), dtype=np.int64)
    events = np.empty(reps, dtype=np.int64)
    for lo, duals, held in _fresh_batches(p, k, B, grid, reps, rng, table):
        sizes[lo:lo + len(duals)] = duals.sum(axis=2)
        events[lo:lo + len(duals)] = held
    return sizes, events


# -- parity -------------------------------------------------------------------


def _parities(records: np.ndarray, sites) -> np.ndarray:
    """<1_sites, record> mod 2, as int64, of every record in an (n_sites, ...) array."""
    return (records[sites].sum(axis=0) & 1).astype(np.int64)


def _parity_chunk(p, k, A, B, grid, table, size, rng):
    """Pathwise parities on the windows of batch logs, then the chunk's fresh duals."""
    etaA = config_indicator(k.n, A)
    indB = config_indicator(k.n, B)
    fwd, dual, events = [], [], []
    batch = _batch_size(table, grid[-1], size)
    for lo in range(0, size, batch):
        n = min(batch, size - lo)
        log, bounds = _window_log(p, k, grid, n, rng, table)
        fwd.append(_parities(replay_forward_batch(np.tile(etaA[:, None], n), log, log.horizon,
                                                  bounds), B))
        dual.append(_parities(replay_dual_batch(np.tile(indB[:, None], n), log, log.horizon,
                                                bounds), A))
        events.append(np.diff(bounds[:, -1], prepend=0))
    events = np.concatenate(events)
    dualmc = np.empty(size, dtype=np.int64)
    for lo, duals, held in _fresh_batches(p, k, B, [grid[-1]], size, rng, table):
        dualmc[lo:lo + len(duals)] = (duals[:, -1] & etaA).sum(axis=1) & 1
        events[lo:lo + len(duals)] += held
    return np.concatenate(fwd), np.concatenate(dual), dualmc, events


def parity_duality_mc(p: NPParams, k: Kernel, A, B, t: float, reps: int, master_seed: int,
                      role: str, threads: int = 1) -> dict:
    """Pathwise and distributional parity duality from one ensemble.

    Each replicate has a shared log on [0, t], its window of a batch log,
    and records, at t/2 and t, the forward parity <1_B, eta^A> and the
    replayed dual's <xi^B, 1_A> (``pathwise_forward``, ``pathwise_dual``;
    they differ in ``violations`` entries).  It then runs a fresh dual
    chain to t (``fresh_dual``) on a window of a later batch log.  The
    ``forward`` and ``dual`` estimates of P(odd) at t are compared by ``z``.
    ``times`` holds the two recording times, ``log_events`` the events of
    every log sampled, shared and fresh.
    """
    t = check_horizon(t, "t")
    times = [t / 2.0, t]
    work = partial(_parity_chunk, p, k, A, B, times, EventTable.build(p, k))
    fwd, dual, fresh, events = replicate_map(work, reps, master_seed, role, SPIN_CHUNK, threads)
    lhs = MCEstimate.from_samples(fwd[:, -1].astype(float))
    rhs = MCEstimate.from_samples(fresh.astype(float))
    return {"times": times, "pathwise_forward": fwd, "pathwise_dual": dual, "fresh_dual": fresh,
            "violations": int((fwd != dual).sum()), "log_events": int(events.sum()),
            "forward": lhs, "dual": rhs, "z": two_sample_z(lhs, rhs)}


def _bernoulli_chunk(p, k, B, t, table, size, rng):
    """Forward parities from Bernoulli(1/2) starts, one per window, then the fresh duals."""
    direct, alive = [], np.empty(size)
    batch = _batch_size(table, t, size)
    for lo in range(0, size, batch):
        n = min(batch, size - lo)
        starts = rng.random((n, k.n)) < 0.5  # Bernoulli(1/2) each
        log, bounds = _window_log(p, k, [t], n, rng, table)
        direct.append(_parities(replay_forward_batch(starts.T, log, log.horizon, bounds), B))
    for lo, duals, _ in _fresh_batches(p, k, B, [t], size, rng, table):
        alive[lo:lo + len(duals)] = duals[:, -1].any(axis=1)
    return np.concatenate(direct)[:, 0].astype(float), alive


def bernoulli_parity_identity(p: NPParams, k: Kernel, B, t: float, reps: int,
                              master_seed: int, role: str) -> dict:
    """Check P_{Bernoulli(1/2)}(<1_B, eta_t> odd) against half the dual survival.

    Each replicate runs the forward flow from an iid fair-coin configuration
    and a fresh dual chain from 1_B, whose survival indicator feeds the
    identity  P = (1/2) P(xi_t != 0).  At alpha = 0 the dual never dies, so
    both sides must sit at 1/2.
    """
    t = check_horizon(t, "t")
    work = partial(_bernoulli_chunk, p, k, B, t, EventTable.build(p, k))
    fwd, alive = replicate_map(work, reps, master_seed, role, SPIN_CHUNK)
    direct = MCEstimate.from_samples(fwd)
    half_survival = MCEstimate.from_samples(alive / 2.0)
    return {"direct": direct, "half_survival": half_survival,
            "survival_fraction": float(alive.mean()), "z": two_sample_z(direct, half_survival)}


# -- dual-size distribution and the limit formula -----------------------------


@dataclass(frozen=True, eq=False)
class ZBDistribution:
    """Distribution of a dual size |xi|: finite atoms plus an overflow atom.

    On a finite site set the size is always finite; the ``infinite_mass``
    atom is the estimated probability of exceeding a cap at the horizon and
    stands in for the infinite-volume escape mass.
    """

    sizes: np.ndarray
    probs: np.ndarray
    infinite_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "sizes", np.asarray(self.sizes, dtype=np.int64))
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.sizes.shape != self.probs.shape or self.sizes.ndim != 1:
            raise ValueError("sizes and probs must be matching 1-d sequences")
        if (self.probs < 0).any() or self.infinite_mass < 0:
            raise ValueError("probabilities must be nonnegative")
        tot = float(self.probs.sum()) + self.infinite_mass
        if abs(tot - 1.0) > 1e-12:
            raise ValueError(f"size distribution sums to {tot!r}, not 1")
        if len(self.sizes) != len(set(self.sizes.tolist())):
            raise ValueError("duplicate size atoms")

    @classmethod
    def from_samples(cls, samples: np.ndarray, cap: int | None = None) -> "ZBDistribution":
        samples = np.asarray(samples, dtype=np.int64)
        if cap is None:
            cap = int(samples.max(initial=0))
        over = samples > cap
        vals, counts = np.unique(samples[~over], return_counts=True)
        n = len(samples)
        return cls(vals, counts / n, float(over.sum()) / n)


def limit_formula(u: float, zb: ZBDistribution) -> float:
    """(1/2) E[1 - (1-2u)^Z] under the conventions 0^0 = 1, (1-2u)^inf = 0.

    This is the limiting odd-parity probability of a Bernoulli(u) product
    start paired with a dual whose terminal size is distributed as ``zb``.
    """
    if not (0.0 < u < 1.0):
        raise ValueError("u must lie strictly inside (0,1)")
    base = 1.0 - 2.0 * u
    acc = 0.0
    for sz, pr in zip(zb.sizes, zb.probs):
        term = 1.0 if sz == 0 else base ** int(sz)  # 0^0 = 1 at u = 1/2
        acc += pr * (1.0 - term)
    acc += zb.infinite_mass * 1.0  # |base| < 1, so the overflow atom contributes fully
    return 0.5 * acc


def evug_statistic(p: NPParams, k: Kernel, B, grid, cap: int, reps: int, master_seed: int,
                   role: str, threads: int = 1) -> tuple[np.ndarray, list[dict], int]:
    """Fresh dual sizes along a time grid, with P(1 <= |xi_t| <= cap) and survival.

    Returns the (reps, len(grid)) size array, recorded at the sorted grid,
    one row per grid time with the window and survival estimates, and the
    events the duals' logs held.  The statistic separates eventual
    unboundedness from genuine survival: mass escaping past ``cap`` is
    reported through the survival column.  A ``cap`` below 1 leaves no
    window and is refused.
    """
    grid = check_grid(grid, "grid")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    work = partial(dual_sizes_fresh, p, k, B, grid, table=EventTable.build(p, k))
    sizes, events = replicate_map(work, reps, master_seed, role, SPIN_CHUNK, threads)
    rows = []
    for j, t in enumerate(grid):
        alive = sizes[:, j] >= 1
        window = MCEstimate.from_samples((alive & (sizes[:, j] <= cap)).astype(float))
        rows.append({"t": float(t), "window": window,
                     "survival": MCEstimate.from_samples(alive.astype(float))})
    return sizes, rows, int(events.sum())
