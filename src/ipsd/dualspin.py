"""Pathwise and distributional duals of the symmetric competition spin system.

Every forward update of the graphical construction is linear over GF(2):
eta -> (Id + J) eta for a 0/1 matrix J determined by the event.  The dual
process runs the transposed updates.  Concretely, against a fixed event log:

* annihilation event (x; {y, z}):   xi(y) += xi(x), xi(z) += xi(x)  (mod 2)
* voter event (x; y):               xi(y) += xi(x), then xi(x) = 0

Replaying the log's events in reverse time order over an indicator 1_B
produces xi = (Id + J_1^T) ... (Id + J_N^T) 1_B, and the pathwise identity

    <1_B, eta_t^A>  =  <xi_t^{t,B}, 1_A>   (mod 2)

holds exactly, log by log.  Run against a fresh log of its own (in forward
time order), the same update rule is a continuous-time chain with the same
jump rates, which gives the distributional parity duality checked by
:func:`parity_duality_mc`.

The ensembles :func:`parity_duality_mc`, :func:`evug_statistic` and
:func:`bernoulli_parity_identity` take a master seed and a role and run a
chunk worker through :func:`ipsd.harness.replicate_map`, ``SPIN_CHUNK``
replicates per stream, so each result is the same for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .harness import replicate_map
from .kernel import Kernel, config_bernoulli, config_indicator
from .spin import (SPIN_CHUNK, EventLog, EventTable, NPParams, UpdateEvent, replay_forward,
                   sample_event_log)
from .stats import MCEstimate, two_sample_z

__all__ = [
    "apply_event_dual",
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


def apply_event_dual(xi: np.ndarray, e: UpdateEvent) -> np.ndarray:
    """Apply the transpose of one forward update, returning a new config."""
    out = xi.copy()
    if e.is_voter:
        out[e.y] = out[e.y] ^ out[e.x]
        out[e.x] = 0
    else:
        out[e.y] = out[e.y] ^ out[e.x]
        out[e.z] = out[e.z] ^ out[e.x]
    return out


def _fold_dual(cols: np.ndarray, log: EventLog, order) -> None:
    """In place: apply transposed updates over column-stacked duals.

    ``order`` is an iterable of event indices; reversed(range(k)) replays a
    log prefix backwards, range(lo, hi) runs a stretch of a fresh dual forwards.
    """
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


def replay_dual(xi0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """Dual state from running the events with time <= t in reverse order."""
    out = xi0.copy()
    _fold_dual(out, log, reversed(range(log.count_up_to(t))))
    return out


def replay_dual_batch(cols0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """replay_dual over column-stacked configurations of shape (n_sites, m)."""
    return replay_dual(np.asarray(cols0, dtype=np.uint8), log, t)


def simulate_dual_fresh(p: NPParams, k: Kernel, B, horizon: float,
                        rng: np.random.Generator, record: list | None = None,
                        table: EventTable | None = None):
    """Fresh dual chain from 1_B: own event log, transposed updates, forward order.

    Returns a list of (time, configuration) pairs at the requested record
    times (default: just the horizon), each after every event up to it.
    """
    grid = sorted(record) if record is not None else [horizon]
    log = sample_event_log(p, k, horizon, rng, table=table)
    xi = config_indicator(k.n, B)
    out = []
    done = 0
    for g in grid:
        upto = log.count_up_to(g)
        _fold_dual(xi, log, range(done, upto))
        done = upto
        out.append((g, xi.copy()))
    return out


def dual_sizes_fresh(p: NPParams, k: Kernel, B, grid, reps: int,
                     rng: np.random.Generator, table: EventTable | None = None) -> np.ndarray:
    """|xi_t| for fresh duals at each grid time; shape (reps, len(grid))."""
    if table is None:
        table = EventTable.build(p, k)
    horizon = max(grid)
    sizes = np.empty((reps, len(grid)), dtype=np.int64)
    for r in range(reps):
        snaps = simulate_dual_fresh(p, k, B, horizon, rng, record=list(grid), table=table)
        sizes[r] = [int(cfg.sum()) for _, cfg in snaps]
    return sizes


# -- parity -------------------------------------------------------------------


def parity_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """<a, b> mod 2 for two 0/1 configurations."""
    return int(np.bitwise_and(a, b).sum()) & 1


def _parity_chunk(p, k, A, B, horizon, table, size, rng):
    grid = [horizon / 2.0, horizon]
    fwd = np.empty((size, len(grid)), dtype=np.int64)
    dual = np.empty((size, len(grid)), dtype=np.int64)
    dualmc = np.empty(size, dtype=np.int64)
    etaA = config_indicator(k.n, A)
    indB = config_indicator(k.n, B)
    for i in range(size):
        log = sample_event_log(p, k, horizon, rng, table=table)
        for j, t in enumerate(grid):
            fwd[i, j] = parity_overlap(replay_forward(etaA, log, t), indB)
            dual[i, j] = parity_overlap(replay_dual(indB, log, t), etaA)
        (_, xi), = simulate_dual_fresh(p, k, B, horizon, rng, record=[horizon], table=table)
        dualmc[i] = parity_overlap(xi, etaA)
    return fwd, dual, dualmc


def parity_duality_mc(p: NPParams, k: Kernel, A, B, t: float, reps: int, master_seed: int,
                      role: str, threads: int = 1) -> dict:
    """Pathwise and distributional parity duality from one ensemble.

    Each replicate samples one log on [0, t] and records, at t/2 and t, the
    forward parity <1_B, eta^A> and the replayed dual's <xi^B, 1_A>
    (``pathwise_forward``, ``pathwise_dual``; they differ in ``violations``
    entries), then runs a fresh dual chain to t (``fresh_dual``).  The
    ``forward`` and ``dual`` estimates of P(odd) at t are compared by ``z``.
    """
    work = partial(_parity_chunk, p, k, A, B, t, EventTable.build(p, k))
    fwd, dual, fresh = replicate_map(work, reps, master_seed, role, SPIN_CHUNK, threads)
    lhs = MCEstimate.from_samples(fwd[:, -1].astype(float))
    rhs = MCEstimate.from_samples(fresh.astype(float))
    return {"pathwise_forward": fwd, "pathwise_dual": dual, "fresh_dual": fresh,
            "violations": int((fwd != dual).sum()),
            "forward": lhs, "dual": rhs, "z": two_sample_z(lhs, rhs)}


def _bernoulli_chunk(p, k, B, t, table, size, rng):
    indB = config_indicator(k.n, B)
    direct = np.empty(size)
    alive = np.empty(size)
    for i in range(size):
        eta0 = config_bernoulli(k.n, 0.5, rng)
        log = sample_event_log(p, k, t, rng, table=table)
        direct[i] = parity_overlap(replay_forward(eta0, log, t), indB)
        (_, xi), = simulate_dual_fresh(p, k, B, t, rng, record=[t], table=table)
        alive[i] = 1.0 if xi.any() else 0.0
    return direct, alive


def bernoulli_parity_identity(p: NPParams, k: Kernel, B, t: float, reps: int,
                              master_seed: int, role: str) -> dict:
    """Check P_{Bernoulli(1/2)}(<1_B, eta_t> odd) against half the dual survival.

    Each replicate runs the forward flow from an iid fair-coin configuration
    and a fresh dual chain from 1_B, whose survival indicator feeds the
    identity  P = (1/2) P(xi_t != 0).  At alpha = 0 the dual never dies, so
    both sides must sit at 1/2.
    """
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
                   role: str, threads: int = 1) -> tuple[np.ndarray, list[dict]]:
    """Fresh dual sizes along a time grid, with P(1 <= |xi_t| <= cap) and survival.

    Returns the (reps, len(grid)) size array, recorded at the sorted grid,
    and one row per grid time with the window and survival estimates.  The
    statistic separates eventual unboundedness from genuine survival: mass
    escaping past ``cap`` is reported through the survival column.
    """
    grid = sorted(grid)
    work = partial(dual_sizes_fresh, p, k, B, grid, table=EventTable.build(p, k))
    sizes = replicate_map(work, reps, master_seed, role, SPIN_CHUNK, threads)
    rows = []
    for j, t in enumerate(grid):
        alive = sizes[:, j] >= 1
        window = MCEstimate.from_samples((alive & (sizes[:, j] <= cap)).astype(float))
        rows.append({"t": float(t), "window": window,
                     "survival": MCEstimate.from_samples(alive.astype(float))})
    return sizes, rows
