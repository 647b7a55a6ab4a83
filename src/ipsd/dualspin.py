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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import Kernel, config_bernoulli, config_indicator
from .spin import EventLog, EventTable, NPParams, UpdateEvent, sample_event_log, replay_forward
from .stats import MCEstimate, two_sample_z

__all__ = [
    "apply_event_dual",
    "replay_dual",
    "replay_dual_batch",
    "simulate_dual_fresh",
    "dual_sizes_fresh",
    "parity",
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
    log prefix backwards, range(len(log)) runs a fresh dual forwards.
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
    """replay_dual over column-stacked dual configurations.

    ``cols0`` has shape (n_sites, m); column j evolves as if passed to
    replay_dual on its own, but all m columns share one reverse pass.
    """
    out = np.array(cols0, dtype=np.uint8, copy=True)
    _fold_dual(out, log, reversed(range(log.count_up_to(t))))
    return out


def simulate_dual_fresh(p: NPParams, k: Kernel, B, horizon: float,
                        rng: np.random.Generator, record: list | None = None,
                        table: EventTable | None = None):
    """Fresh dual chain from 1_B: own event log, transposed updates, forward order.

    Returns a list of (time, configuration) pairs at the requested record
    times (default: just the horizon).  Record times must be sorted.
    """
    grid = sorted(record) if record is not None else [horizon]
    log = sample_event_log(p, k, horizon, rng, table=table)
    xi = config_indicator(k.n, B)
    out = []
    gi = 0
    for i in range(len(log)):
        t = log.times[i]
        while gi < len(grid) and grid[gi] < t:
            out.append((grid[gi], xi.copy()))
            gi += 1
        _fold_dual(xi, log, (i,))
    while gi < len(grid):
        out.append((grid[gi], xi.copy()))
        gi += 1
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


def parity(cfg: np.ndarray, B) -> int:
    """<1_B, cfg> mod 2 for a site subset B."""
    total = 0
    for x in B:
        total += int(cfg[x])
    return total & 1


def parity_overlap(a: np.ndarray, b: np.ndarray) -> int:
    """<a, b> mod 2 for two 0/1 configurations."""
    return int(np.bitwise_and(a, b).sum()) & 1


def parity_duality_mc(p: NPParams, k: Kernel, A, B, t: float, reps: int,
                      rng: np.random.Generator) -> dict:
    """Two independent ensembles for both sides of the parity duality.

    Forward side: P(<1_B, eta_t^A> odd) from fresh logs run over 1_A.
    Dual side: P(<xi_t^B, 1_A> odd) from fresh dual chains.  Returns both
    estimates and their two-sample z score.
    """
    table = EventTable.build(p, k)
    etaA = config_indicator(k.n, A)
    fwd = np.empty(reps)
    for r in range(reps):
        log = sample_event_log(p, k, t, rng, table=table)
        fwd[r] = parity(replay_forward(etaA, log, t), B)
    dual = np.empty(reps)
    indA = config_indicator(k.n, A)
    for r in range(reps):
        (_, xi), = simulate_dual_fresh(p, k, B, t, rng, record=[t], table=table)
        dual[r] = parity_overlap(xi, indA)
    lhs = MCEstimate.from_samples(fwd)
    rhs = MCEstimate.from_samples(dual)
    return {"forward": lhs, "dual": rhs, "z": two_sample_z(lhs, rhs)}


def bernoulli_parity_identity(p: NPParams, k: Kernel, B, t: float, reps: int,
                              rng: np.random.Generator) -> dict:
    """Check P_{Bernoulli(1/2)}(<1_B, eta_t> odd) against half the dual survival.

    Forward replicates start from iid fair-coin configurations; dual
    replicates are fresh chains from 1_B whose survival indicator feeds the
    identity  P = (1/2) P(xi_t != 0).  At alpha = 0 the dual never dies, so
    both sides must sit at 1/2.
    """
    table = EventTable.build(p, k)
    fwd = np.empty(reps)
    for r in range(reps):
        eta0 = config_bernoulli(k.n, 0.5, rng)
        log = sample_event_log(p, k, t, rng, table=table)
        fwd[r] = parity(replay_forward(eta0, log, t), B)
    alive = np.empty(reps)
    for r in range(reps):
        (_, xi), = simulate_dual_fresh(p, k, B, t, rng, record=[t], table=table)
        alive[r] = 1.0 if xi.any() else 0.0
    direct = MCEstimate.from_samples(fwd)
    half_survival = MCEstimate.from_samples(alive / 2.0)
    return {
        "direct": direct,
        "half_survival": half_survival,
        "survival_fraction": float(alive.mean()),
        "z": two_sample_z(direct, half_survival),
    }


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


def evug_statistic(p: NPParams, k: Kernel, B, grid, cap: int, reps: int,
                   rng: np.random.Generator) -> list[dict]:
    """P(1 <= |xi_t| <= cap) and survival along a time grid, with stderr.

    The statistic separates eventual unboundedness from genuine survival:
    mass escaping past ``cap`` is reported through the survival column.
    """
    grid = sorted(grid)  # the dual records at the sorted grid
    sizes = dual_sizes_fresh(p, k, B, grid, reps, rng)
    rows = []
    for j, t in enumerate(grid):
        col = sizes[:, j]
        window = MCEstimate.from_samples(((col >= 1) & (col <= cap)).astype(float))
        alive = MCEstimate.from_samples((col >= 1).astype(float))
        rows.append({"t": float(t), "window": window, "survival": alive})
    return rows
