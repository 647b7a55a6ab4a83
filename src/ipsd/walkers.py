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
:func:`simulate_walker` runs one walker; :func:`walker_samples`, the chunk
worker of every ensemble, steps many in lockstep as the rows of a count
matrix and finishes the last few with :func:`simulate_walker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .harness import check_grid, check_horizon, replicate_map
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
    "occupied_sites",
    "count_row",
    "WalkerSamples",
    "walker_samples",
    "walker_ensemble",
    "survival_probability",
]

DEFAULT_CAP = 100_000
WALKER_BATCH = 1024  # replicates per chunk (one derived stream each); fixed for determinism
# Once at most this many rows of a chunk are active, they finish in the scalar
# loop: for so few rows it costs no more than lockstep steps (measured; see README).
LOCKSTEP_MAX_HANDOFF = 14
MAX_CHUNK_CELLS = 1 << 24  # reps x sites x grid points of one chunk's snapshot array


@dataclass(frozen=True)
class CRW:
    """Coalescing random walk (migration + pairwise merge)."""


@dataclass(frozen=True)
class DBARW:
    """Double-branching annihilating walk with per-particle branch rate."""

    branch_rate: float

    def __post_init__(self):
        if not 0.0 <= self.branch_rate < np.inf:  # a NaN fails too
            raise ValueError(f"branch rate must be finite and nonnegative, got {self.branch_rate}")


@dataclass(frozen=True)
class BCRW:
    """Branching coalescing walk parameterized by s <= 0, mu in [-1, 0]."""

    s: float
    mu: float

    def __post_init__(self):
        if not -np.inf < self.s <= 0.0:  # a NaN fails too
            raise ValueError(f"BCRW needs a finite s <= 0, got {self.s}")
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

    ``sizes`` holds total counts at the requested grid times and
    ``snapshots`` the counts dict at each (after a cap hit the over-cap
    state is carried forward as the unbounded-growth proxy; after
    extinction zeros and empty dicts are recorded).  ``parity_changed``
    flags any event that altered total-count parity (always False for DBARW).
    """

    sizes: np.ndarray
    snapshots: tuple
    final_counts: dict[int, int]
    extinction_time: float | None
    cap_time: float | None
    n_events: int
    parity_changed: bool


def simulate_walker(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                    horizon: float, rng: np.random.Generator, cap: int = DEFAULT_CAP,
                    grid=None) -> WalkerRun:
    """Exact Gillespie run of one walker to the horizon (or extinction / cap)."""
    horizon = check_horizon(horizon, "horizon")
    grid = [horizon] if grid is None else check_grid(grid, "grid", horizon)
    b1, b2, pair_delta = per_particle_rates(kind)
    move_total = stencil.total_rate
    ppr = move_total + b1 + b2
    table = torus.move_table(stencil)
    wsum = np.cumsum(stencil.weights)
    wtot = wsum[-1]

    count_row(xi0, torus, cap)
    counts = {int(x): int(c) for x, c in xi0.items() if c > 0}
    total = sum(counts.values())
    parity0 = total & 1

    def site_rate(c: int) -> float:
        return c * ppr + c * (c - 1) / 2.0

    rates = {x: site_rate(c) for x, c in counts.items()}
    total_rate = sum(rates.values())

    t = 0.0
    gi = 0
    sizes = np.zeros(len(grid), dtype=np.int64)
    snaps: list[dict[int, int]] = []
    extinction_time = None
    cap_time = None
    parity_changed = False
    n_events = 0

    def record_until(up_to_t: float, size_now: int):
        nonlocal gi
        while gi < len(grid) and grid[gi] < up_to_t:
            sizes[gi] = size_now
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
        record_until(t_next, total)
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
    return WalkerRun(sizes, tuple(snaps), dict(counts), extinction_time, cap_time, n_events,
                     parity_changed)


def occupied_sites(counts: np.ndarray) -> np.ndarray:
    """Number of occupied sites in each row of a count matrix."""
    return np.count_nonzero(counts, axis=1)


class WalkerSamples(NamedTuple):
    """Per-replicate results of a walker ensemble, replicates on the first axis.

    ``sizes`` and ``observed`` hold the total count and ``observe(counts)``
    at each grid time, both read off the recorded counts.  ``alive`` is 1
    for a run alive at the horizon (a cap hit counts as alive), ``capped``
    1 for a cap hit, ``events`` the run's event count and ``handed`` 1 for
    a run finished by the scalar loop.  The last four are the engine's
    counters; like every field they depend only on the inputs and the
    stream.
    """

    sizes: np.ndarray
    observed: np.ndarray
    alive: np.ndarray
    capped: np.ndarray
    events: np.ndarray
    handed: np.ndarray


def count_row(xi0: dict[int, int], torus: Torus, cap: int | None = None) -> np.ndarray:
    """Walkers per site of xi0; an occupied site off the torus, or a total above cap, is refused."""
    row = np.zeros(torus.n_sites, dtype=np.int64)
    for x, c in xi0.items():
        if c > 0:
            if not (0 <= x < torus.n_sites):
                raise ValueError(f"site {x} outside the torus")
            row[x] += c
    if cap is not None and row.sum() > cap:
        raise ValueError(f"the initial walker total {row.sum()} exceeds the cap {cap}")
    return row


def _start_row(xi0: dict[int, int], torus: Torus, grid: list, cap: int, size: int) -> np.ndarray:
    """The initial count row, after the checks simulate_walker makes and a size bound."""
    n = torus.n_sites
    cells = size * n * len(grid)
    if cells > MAX_CHUNK_CELLS:
        raise ValueError(f"a walker chunk of {size} reps x {n} sites x {len(grid)} grid points "
                         f"needs {cells} snapshot cells; the limit is {MAX_CHUNK_CELLS}")
    return count_row(xi0, torus, cap)


def _fill_rest(snaps, ids, gi, counts) -> None:
    """Record each retiring row's current counts at every grid time it has not reached."""
    for g in range(snaps.shape[1]):
        sel = gi <= g
        snaps[ids[sel], g] = counts[sel]


def _lockstep(kind: WalkerKind, start: np.ndarray, stencil: Stencil, table: np.ndarray,
              grid: list, cap: int, rng: np.random.Generator, out: WalkerSamples,
              snaps: np.ndarray):
    """Step the runs of one chunk together until at most LOCKSTEP_MAX_HANDOFF remain.

    Writes the retired runs into ``out`` and ``snaps``; returns the
    replicate ids, count rows, times and next grid indices of the runs
    still active, and the number of steps taken (one event per active run).
    """
    size, n = len(out.alive), len(start)
    b1, b2, pair_delta = per_particle_rates(kind)
    move_total = stencil.total_rate
    # The rate matrix holds twice each site's event rate, c (c + k2): a site
    # with c walkers has rate c (ppr + (c - 1)/2), ppr being the per-walker
    # rate of migration and branching.
    k2 = 2.0 * (move_total + b1 + b2) - 1.0
    wsum = np.cumsum(stencil.weights)
    wtot = wsum[-1]
    # move codes: 0 migrate, 1 single offspring, 2 double offspring, 3 pair, 4 none
    # (the clock passed the horizon); a site with c walkers picks code k with
    # weight edges[k] - edges[k-1] out of twice its per-walker rate, c + k2
    edges = 2.0 * np.array([move_total, move_total + b1, move_total + b1 + b2])
    site_delta = np.array([-1, 1, 2, pair_delta, 0])
    total_delta = np.array([0, 1, 2, pair_delta, 0])
    horizon = grid[-1]
    gate = np.append(grid, np.inf)  # a row records grid time g once its clock passes g

    ids = np.arange(size)
    counts = np.tile(start, (size, 1))
    rates = counts * (counts + k2)
    total = counts.sum(axis=1)
    t = np.zeros(size)
    gi = np.zeros(size, dtype=np.intp)
    base, cf, rf = np.arange(size) * n, counts.reshape(-1), rates.reshape(-1)  # flat views
    steps = 0
    with np.errstate(divide="ignore"):  # a row without moves gets an infinite clock
        while len(ids) > LOCKSTEP_MAX_HANDOFF:
            m = len(ids)
            cum = np.cumsum(rates, axis=1)
            tot = cum[:, -1]
            t_next = t + rng.exponential(2.0, m) / tot  # tot is twice the row's rate
            passed = gate[gi] < t_next
            while np.count_nonzero(passed):
                r = np.flatnonzero(passed)
                snaps[ids[r], gi[r]] = counts[r]
                gi[r] += 1
                passed[r] = gate[gi[r]] < t_next[r]
            done = t_next > horizon
            n_done = np.count_nonzero(done)
            # 1 - u lies in (0, 1], so the first cumsum entry reaching (1 - u) * total
            # has a positive weight: no empty site and no zero-weight displacement
            u = 1.0 - rng.random((3, m))
            x = np.argmax(cum >= (u[0] * tot)[:, None], axis=1)
            fx = base + x
            c = cf[fx]
            move = np.searchsorted(edges, u[1] * (c + k2), side="right")
            if n_done:
                move[done] = 4
            c += site_delta[move]
            cf[fx] = c
            rf[fx] = c * (c + k2)
            # every row reads its migration target; only migrating rows add the walker
            fy = base + table[x, np.searchsorted(wsum, u[2] * wtot)]
            cy = cf[fy] + (move == 0)
            cf[fy] = cy
            rf[fy] = cy * (cy + k2)
            total += total_delta[move]
            t = t_next
            steps += 1
            if n_done or total.min() == 0 or total.max() > cap:
                retire = done | (total > cap) | (total == 0)
                r = np.flatnonzero(retire)
                _fill_rest(snaps, ids[r], gi[r], counts[r])
                out.capped[ids[r]] = total[r] > cap
                out.alive[ids[r]] = total[r] > 0
                out.events[ids[r]] = steps - done[r]
                keep = ~retire
                ids, counts, rates, total, t, gi = (a[keep] for a in (ids, counts, rates, total, t, gi))
                base, cf, rf = base[:len(ids)], counts.reshape(-1), rates.reshape(-1)
    return ids, counts, t, gi, steps


def walker_samples(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                   grid, cap: int, size: int, rng: np.random.Generator,
                   observe=occupied_sites) -> WalkerSamples:
    """``size`` walker runs to max(grid), stepped in lockstep from one stream.

    This is the chunk worker of every walker ensemble.  The runs are the
    rows of an integer count matrix with a matching site-rate matrix.  Each
    step, every active row draws its own exponential clock, records its
    counts at the grid times its clock passes, picks a site by its row
    cumsum of rates and then the move, with the rates :func:`simulate_walker`
    uses for one run.  A row retires at the horizon, at extinction, or past
    the cap (the over-cap counts are carried forward), and retired rows
    leave the arrays.  Once at most ``LOCKSTEP_MAX_HANDOFF`` rows remain,
    each continues in row order through :func:`simulate_walker` from its
    current counts over the rest of the grid, which is exact by the Markov
    property; a chunk that small from the start draws exactly as that loop
    run in turn.  ``observe`` maps a count matrix to one value per row.
    """
    grid = check_grid(grid, "grid")
    start = _start_row(xi0, torus, grid, cap, size)
    n, n_grid, horizon = torus.n_sites, len(grid), grid[-1]
    out = WalkerSamples(None, None, np.ones(size), np.zeros(size), np.zeros(size, dtype=np.int64),
                        np.zeros(size))
    snaps = np.zeros((size, n_grid, n), dtype=np.int64)
    if start.sum() == 0:  # the empty start is already extinct
        out.alive[:] = 0.0
        ids, steps = [], 0
    else:
        ids, counts, t, gi, steps = _lockstep(kind, start, stencil, torus.move_table(stencil),
                                              grid, cap, rng, out, snaps)
    for k, r in enumerate(ids):  # the scalar tail, in row order
        g0 = gi[k]
        state = xi0 if steps == 0 else {int(x): int(c) for x, c in enumerate(counts[k]) if c}
        run = simulate_walker(kind, state, torus, stencil, horizon - t[k], rng, cap=cap,
                              grid=[g - t[k] for g in grid[g0:]])
        for g, snap in enumerate(run.snapshots, g0):
            snaps[r, g, list(snap)] = list(snap.values())
        out.capped[r] = run.cap_time is not None
        out.alive[r] = run.cap_time is not None or run.extinction_time is None
        out.events[r] = steps + run.n_events
        out.handed[r] = 1.0
    observed = np.asarray(observe(snaps.reshape(size * n_grid, n)), dtype=np.float64)
    return out._replace(sizes=snaps.sum(axis=2), observed=observed.reshape(size, n_grid))


def walker_ensemble(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                    grid, cap: int, reps: int, master_seed: int, role: str, threads: int = 1,
                    observe=occupied_sites) -> WalkerSamples:
    """``reps`` walker runs in WALKER_BATCH chunks, one derived stream per chunk."""
    grid = check_grid(grid, "grid")  # refused before any chunk starts, as is a start over the cap
    count_row(xi0, torus, cap)
    work = partial(walker_samples, kind, xi0, torus, stencil, grid, cap, observe=observe)
    return WalkerSamples(*replicate_map(work, reps, master_seed, role, WALKER_BATCH, threads))


def survival_probability(kind: WalkerKind, xi0: dict[int, int], torus: Torus, stencil: Stencil,
                         horizon: float, reps: int, master_seed: int, role: str,
                         threads: int = 1, cap: int = DEFAULT_CAP) -> dict:
    """P(|xi| >= 1 at the horizon) over independent replicates.

    A replicate that hits the cap before the horizon is counted as alive
    (the process was alive when truncated); the cap-hit fraction is
    reported alongside so that proxy is visible.
    """
    horizon = check_horizon(horizon, "horizon")
    runs = walker_ensemble(kind, xi0, torus, stencil, [horizon], cap, reps, master_seed, role,
                           threads)
    return {"survival": MCEstimate.from_samples(runs.alive),
            "successes": int(runs.alive.sum()),
            "cap_fraction": float(runs.capped.mean()),
            "walker_events": int(runs.events.sum())}
