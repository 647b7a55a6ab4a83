"""Dual particle systems on the torus: CRW, DBARW, and BCRW.

All three walk with the shared migration stencil (one particle hops from x
to x + disp at rate count(x) * weight(disp)) and react only within a site:

* CRW   - coalescing random walk: pairs at a site merge (-1) at rate
          count (count - 1) / 2.
* DBARW - double-branching annihilating walk: a particle spawns two
          offspring on its own site (+2) at rate ``branch_rate`` per
          particle; pairs annihilate (-2) at rate count (count - 1) / 2.
          Total-count parity is conserved.
* BCRW  - branching coalescing walk (s <= 0, mu in [-1, 0]): single
          offspring (+1) at rate (-s)(mu + 1) and double offspring (+2) at
          rate (-s)(-mu) per particle, plus CRW coalescence.  A nonempty
          state can never die (no transition removes the last particle).

Simulation is exact Gillespie over the occupied sites, stopped at the
horizon, at extinction, or at a total-count cap.  A cap hit is recorded as
an unbounded-growth proxy and reported separately from genuine survival.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .harness import replicate_map
from .lattice import Stencil, Torus
from .stats import MCEstimate

__all__ = [
    "CRW",
    "DBARW",
    "BCRW",
    "WalkerKind",
    "per_particle_rates",
    "walker_rates",
    "apply_transition",
    "WalkerRun",
    "simulate_walker",
    "walker_samples",
    "survival_probability",
]

DEFAULT_CAP = 100_000
WALKER_BATCH = 1024  # replicates per chunk (one derived stream each); fixed for determinism


@dataclass(frozen=True)
class CRW:
    """Coalescing random walk (migration + pairwise merge)."""


@dataclass(frozen=True)
class DBARW:
    """Double-branching annihilating walk with per-particle branch rate."""

    branch_rate: float

    def __post_init__(self):
        if self.branch_rate < 0:
            raise ValueError("branch rate must be nonnegative")


@dataclass(frozen=True)
class BCRW:
    """Branching coalescing walk parameterized by s <= 0, mu in [-1, 0]."""

    s: float
    mu: float

    def __post_init__(self):
        if self.s > 0:
            raise ValueError("BCRW needs s <= 0")
        if not (-1.0 <= self.mu <= 0.0):
            raise ValueError("BCRW needs mu in [-1, 0]")


WalkerKind = CRW | DBARW | BCRW


def per_particle_rates(kind: WalkerKind) -> tuple[float, float, int]:
    """(single-offspring rate, double-offspring rate, pair reaction delta).

    The pair reaction (rate count(count-1)/2 per site) removes one particle
    for coalescing kinds and two for the annihilating kind.
    """
    if isinstance(kind, CRW):
        return 0.0, 0.0, -1
    if isinstance(kind, DBARW):
        return 0.0, kind.branch_rate, -2
    if isinstance(kind, BCRW):
        return (-kind.s) * (kind.mu + 1.0), (-kind.s) * (-kind.mu), -1
    raise TypeError(f"unknown walker kind {kind!r}")


def walker_rates(kind: WalkerKind, counts: dict[int, int], torus: Torus,
                 stencil: Stencil) -> list[tuple[tuple, float]]:
    """Full transition table of the current state: [(transition, rate), ...].

    Transitions are tagged tuples: ("migrate", x, y), ("branch1", x),
    ("branch2", x), ("pair", x).  Zero-rate rows are omitted.
    """
    b1, b2, _ = per_particle_rates(kind)
    table = torus.move_table(stencil)
    out: list[tuple[tuple, float]] = []
    for x in sorted(counts):
        c = counts[x]
        if c <= 0:
            raise ValueError("counts must be positive on occupied sites")
        for j, w in enumerate(stencil.weights):
            if w > 0:
                out.append((("migrate", x, int(table[x, j])), c * w))
        if b1 > 0:
            out.append((("branch1", x), c * b1))
        if b2 > 0:
            out.append((("branch2", x), c * b2))
        if c >= 2:
            out.append((("pair", x), c * (c - 1) / 2.0))
    return out


def apply_transition(kind: WalkerKind, counts: dict[int, int], transition: tuple) -> dict[int, int]:
    """New counts dict after one transition (functional form)."""
    _, _, pair_delta = per_particle_rates(kind)
    out = dict(counts)
    tag = transition[0]
    x = transition[1]
    if tag == "migrate":
        y = transition[2]
        out[x] = out.get(x, 0) - 1
        out[y] = out.get(y, 0) + 1
    elif tag == "branch1":
        out[x] = out.get(x, 0) + 1
    elif tag == "branch2":
        out[x] = out.get(x, 0) + 2
    elif tag == "pair":
        out[x] = out.get(x, 0) + pair_delta
    else:
        raise ValueError(f"unknown transition {transition!r}")
    if any(v < 0 for v in out.values()):
        raise ValueError(f"transition {transition!r} not enabled in this state")
    return {k: v for k, v in out.items() if v > 0}


@dataclass(frozen=True)
class WalkerRun:
    """One walker trajectory summary.

    ``sizes`` holds total counts at the requested grid times (after a cap
    hit the over-cap total is carried forward as the unbounded-growth
    proxy; after extinction zeros are recorded).  ``parity_changed`` flags
    any event that altered total-count parity (always False for DBARW).
    """

    grid: tuple[float, ...]
    sizes: np.ndarray
    snapshots: tuple | None
    final_counts: dict[int, int]
    extinction_time: float | None
    cap_time: float | None
    n_events: int
    parity_changed: bool


def simulate_walker(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                    horizon: float, rng: np.random.Generator, cap: int = DEFAULT_CAP,
                    grid=None, keep_snapshots: bool = False) -> WalkerRun:
    """Exact Gillespie run of one walker to the horizon (or extinction / cap)."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    grid = sorted(grid) if grid is not None else [horizon]
    b1, b2, pair_delta = per_particle_rates(kind)
    move_total = stencil.total_rate
    ppr = move_total + b1 + b2
    pair_coeff = 1.0  # pair reaction rate is always c(c-1)/2
    table = torus.move_table(stencil)
    wsum = np.cumsum(stencil.weights)
    wtot = wsum[-1] if len(wsum) else 0.0

    counts = {int(x): int(c) for x, c in xi0.items() if c > 0}
    for x, c in counts.items():
        if not (0 <= x < torus.n_sites):
            raise ValueError(f"site {x} outside the torus")
    total = sum(counts.values())
    if total > cap:
        raise ValueError("initial state already exceeds the cap")
    parity0 = total & 1

    def site_rate(c: int) -> float:
        return c * ppr + pair_coeff * c * (c - 1) / 2.0

    rates = {x: site_rate(c) for x, c in counts.items()}
    total_rate = sum(rates.values())

    t = 0.0
    gi = 0
    sizes = np.zeros(len(grid), dtype=np.int64)
    snaps: list[dict[int, int]] | None = [] if keep_snapshots else None
    extinction_time = None
    cap_time = None
    parity_changed = False
    n_events = 0

    def record_until(up_to_t: float, size_now: int):
        nonlocal gi
        while gi < len(grid) and grid[gi] < up_to_t - 1e-15:
            sizes[gi] = size_now
            if snaps is not None:
                snaps.append(dict(counts))
            gi += 1

    while True:
        if total == 0:
            extinction_time = t
            break
        if total_rate <= 0.0:
            break
        dt = rng.exponential(1.0 / total_rate)
        t_next = t + dt
        record_until(min(t_next, horizon + 1e-15), total)
        if t_next > horizon:
            t = horizon
            break
        t = t_next

        # pick the site, then the move within the site
        u = rng.random() * total_rate
        acc = 0.0
        x = None
        for xs, rr in rates.items():
            acc += rr
            if u <= acc:
                x = xs
                break
        if x is None:  # float roundoff on the last site
            x = xs
        c = counts[x]
        v = rng.random() * site_rate(c)
        affected = [x]
        if v < c * move_total:
            j = int(np.searchsorted(wsum, rng.random() * wtot, side="right"))
            j = min(j, len(wsum) - 1)
            y = int(table[x, j])
            counts[x] = c - 1
            counts[y] = counts.get(y, 0) + 1
            affected.append(y)
        elif v < c * (move_total + b1):
            counts[x] = c + 1
            total += 1
        elif v < c * (move_total + b1 + b2):
            counts[x] = c + 2
            total += 2
        else:
            counts[x] = c + pair_delta
            total += pair_delta
        n_events += 1
        if (total & 1) != parity0:
            parity_changed = True
            parity0 = total & 1

        for xs in affected:
            cc = counts.get(xs, 0)
            old = rates.pop(xs, 0.0)
            total_rate -= old
            if cc > 0:
                rates[xs] = site_rate(cc)
                total_rate += rates[xs]
            else:
                counts.pop(xs, None)
        if n_events % 128 == 0:
            total_rate = sum(rates.values())  # curb float drift

        if total > cap:
            cap_time = t
            break

    # fill the remaining grid with the terminal (or proxy) size
    record_until(np.inf, total)
    return WalkerRun(tuple(grid), sizes, tuple(snaps) if snaps is not None else None,
                     dict(counts), extinction_time, cap_time, n_events, parity_changed)


def walker_samples(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                   grid, cap: int, size: int, rng: np.random.Generator,
                   observe=len) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``size`` walker runs to max(grid), drawn in turn from one stream.

    Returns (sizes, observed, alive, capped): total counts and
    ``observe(counts)`` at each grid time, shape (size, len(grid)), and per
    run 0/1 flags for alive at the horizon (a cap hit counts as alive) and
    for a cap hit.  This is the chunk worker of every walker ensemble.
    """
    grid = sorted(grid)
    sizes = np.empty((size, len(grid)), dtype=np.int64)
    observed = np.empty((size, len(grid)))
    alive = np.empty(size)
    capped = np.empty(size)
    for r in range(size):
        run = simulate_walker(kind, xi0, torus, stencil, grid[-1], rng, cap=cap,
                              grid=grid, keep_snapshots=True)
        sizes[r] = run.sizes
        observed[r] = [observe(snap) for snap in run.snapshots]
        capped[r] = run.cap_time is not None
        alive[r] = run.cap_time is not None or run.extinction_time is None
    return sizes, observed, alive, capped


def survival_probability(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                         horizon: float, reps: int, master_seed: int, role: str,
                         cap: int = DEFAULT_CAP) -> dict:
    """P(|xi| >= 1 at the horizon) over independent replicates.

    A replicate that hits the cap before the horizon is counted as alive
    (the process was alive when truncated); the cap-hit fraction is
    reported alongside so that proxy is visible.
    """
    work = partial(walker_samples, kind, xi0, torus, stencil, [horizon], cap)
    _, _, alive, capped = replicate_map(work, reps, master_seed, role, WALKER_BATCH)
    return {"survival": MCEstimate.from_samples(alive),
            "successes": int(alive.sum()),
            "cap_fraction": float(capped.mean())}
