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
A chunk's fresh duals come in batches, one :func:`simulate_dual_fresh`
call and one event log each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .harness import check_grid, check_horizon, replicate_map
from .kernel import Kernel, config_bernoulli, config_indicator
from .spin import (CELLS, SPIN_CHUNK, EventLog, EventTable, NPParams, _pack_rows, _unpack_rows,
                   replay_forward, sample_event_log)
from .stats import MCEstimate, two_sample_z

__all__ = [
    "replay_dual",
    "replay_dual_batch",
    "simulate_dual_fresh",
    "dual_sizes_fresh",
    "parity_overlap",
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


def replay_dual_batch(cols0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """replay_dual over column-stacked configurations of shape (n_sites, m)."""
    return replay_dual(np.asarray(cols0, dtype=np.uint8), log, t)


def simulate_dual_fresh(p: NPParams, k: Kernel, B, grid, reps: int, rng: np.random.Generator,
                        table: EventTable | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``reps`` fresh dual chains from 1_B: transposed updates, forward order, one shared log.

    With T = max(grid), samples one log on [0, reps*T]; replicate i runs
    over the events of its own window (i*T, (i+1)*T] and records the dual
    at i*T + g for each sorted grid time g, after every event up to it.  A
    Poisson process has independent increments and iid marks, so each
    window is a fresh log on [0, T]; the bounds i*T + g are floats, so a
    bound may move by one ulp of reps*T.  Each window starts at the last
    bound of the one before, so the windows partition the log's events.

    Returns the duals, shape (reps, len(grid), n), uint8, and the events of
    each window, shape (reps,), int64, which sum to the length of the log.
    """
    grid = check_grid(grid, "grid")
    stops = np.add.outer(np.arange(reps) * grid[-1], grid)
    log = sample_event_log(p, k, stops[-1, -1] if reps else 0.0, rng, table=table)
    # a bound never lies before the one before it, whatever the rounding
    bounds = np.maximum.accumulate(log.times.searchsorted(stops.ravel(), side="right"))
    start = config_indicator(k.n, B).tolist()
    events = zip(*log.columns)
    ends = bounds.tolist()
    snaps: list[int] = []
    done = 0
    for i in range(0, len(ends), len(grid)):
        rows = start.copy()
        for upto in ends[i:i + len(grid)]:
            _fold_dual(rows, islice(events, upto - done))
            done = upto
            snaps += rows
    duals = np.frombuffer(bytearray(snaps), dtype=np.uint8).reshape(reps, len(grid), k.n)
    return duals, np.diff(bounds[len(grid) - 1::len(grid)], prepend=0)


def _fresh_batches(p: NPParams, k: Kernel, B, grid, reps: int, rng: np.random.Generator,
                   table: EventTable):
    """Yield (first replicate, duals, window events) for ``reps`` fresh duals, batch by batch.

    A batch is one :func:`simulate_dual_fresh` call.  It holds at most
    CELLS snapshot cells and at most CELLS // 16 expected log events, or
    one replicate.
    """
    grid = check_grid(grid, "grid")
    per_rep = table.total_rate * grid[-1]  # expected events of one window
    size = CELLS // (len(grid) * k.n)
    if per_rep > 0:
        size = min(size, CELLS // 16 / per_rep)
    size = max(1, int(size))
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


def parity_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """<a, b> mod 2 for two 0/1 configurations."""
    return int(np.bitwise_and(a, b).sum()) & 1


def _parity_chunk(p, k, A, B, grid, table, size, rng):
    horizon = grid[-1]
    fwd = np.empty((size, len(grid)), dtype=np.int64)
    dual = np.empty((size, len(grid)), dtype=np.int64)
    dualmc = np.empty(size, dtype=np.int64)
    events = np.empty(size, dtype=np.int64)
    etaA = config_indicator(k.n, A)
    indB = config_indicator(k.n, B)
    for i in range(size):
        log = sample_event_log(p, k, horizon, rng, table=table)
        events[i] = len(log)
        for j, t in enumerate(grid):
            fwd[i, j] = parity_overlap(replay_forward(etaA, log, t), indB)
            dual[i, j] = parity_overlap(replay_dual(indB, log, t), etaA)
    for lo, duals, held in _fresh_batches(p, k, B, [horizon], size, rng, table):
        dualmc[lo:lo + len(duals)] = (duals[:, -1] & etaA).sum(axis=1) & 1
        events[lo:lo + len(duals)] += held
    return fwd, dual, dualmc, events


def parity_duality_mc(p: NPParams, k: Kernel, A, B, t: float, reps: int, master_seed: int,
                      role: str, threads: int = 1) -> dict:
    """Pathwise and distributional parity duality from one ensemble.

    Each replicate samples one log on [0, t] and records, at t/2 and t, the
    forward parity <1_B, eta^A> and the replayed dual's <xi^B, 1_A>
    (``pathwise_forward``, ``pathwise_dual``; they differ in ``violations``
    entries), then runs a fresh dual chain to t (``fresh_dual``).  The
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
    indB = config_indicator(k.n, B)
    direct = np.empty(size)
    alive = np.empty(size)
    for i in range(size):
        eta0 = config_bernoulli(k.n, 0.5, rng)
        log = sample_event_log(p, k, t, rng, table=table)
        direct[i] = parity_overlap(replay_forward(eta0, log, t), indB)
    for lo, duals, _ in _fresh_batches(p, k, B, [t], size, rng, table):
        alive[lo:lo + len(duals)] = duals[:, -1].any(axis=1)
    return direct, alive


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
