"""Competition spin system on a finite kernel: rates, Gillespie, event logs.

The model is a {0,1}-valued spin system where a site redraws its type at a
rate built from the kernel-weighted local frequencies f0, f1 of the two
types.  With fecundity ratio ``lam`` and cross-competition strengths
``alpha01``, ``alpha10``::

    0 -> 1  at rate  (f0 + alpha01 * f1) * lam*f1 / (lam*f1 + f0)
    1 -> 0  at rate  (f1 + alpha10 * f0) * f0     / (lam*f1 + f0)

In the symmetric case (lam = 1, alpha01 = alpha10 = alpha in [0,1)) both
rates decompose into a pairwise-annihilation part (1-alpha)*f0*f1 and a
voting part alpha*f_opposite.  That decomposition drives the graphical
construction used here: a Poisson field of update events, each either

* an annihilation event (focal x, unordered neighbor pair {y, z}, y != z)
  at rate (1-alpha) q(x,y) q(x,z), acting by eta(x) += eta(y) + eta(z) mod 2;
* a voter event (focal x, source y) at rate alpha q(x,y), acting by
  eta(x) = eta(y).

Both updates are linear over GF(2), which is what makes the transposed
(replayed) process in :mod:`ipsd.dualspin` an exact pathwise dual.
A sampled field is an :class:`EventLog` of columns (times, x, y, z), the
one form an event takes; :func:`replay_forward` runs it in time order
over the site rows packed into Python ints (bit j of row x is column j),
so an event costs one or two int XORs.

The forward chain itself runs in :func:`simulate_gillespie`, which steps
many replicate runs at once as the rows of a (replicates x sites) matrix
of states, local frequencies and flip rates; each step flips one site in
every active row.  On the complete graph the sites are exchangeable, so
the number of ones is itself a birth-death chain;
:func:`simulate_complete_counts` runs it at O(1) per jump without building
the O(n^2) kernel.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .harness import check_grid, check_horizon
from .kernel import Kernel, frequency_of_ones

__all__ = [
    "NPParams",
    "EventLog",
    "EventTable",
    "MAX_TABLE_ROWS",
    "SPIN_CHUNK",
    "CELLS",
    "SpinTrajectory",
    "flip_rate",
    "flip_rates_all",
    "sample_event_log",
    "replay_forward",
    "replay_forward_batch",
    "simulate_gillespie",
    "complete_count_rates",
    "simulate_complete_counts",
]


@dataclass(frozen=True)
class NPParams:
    """Model parameters (fecundity ratio and cross-competition strengths).

    ``lam > 0``, ``alpha01 >= 0``, ``alpha10 >= 0``, all finite.  The pure-voter corner
    (lam = 1, alpha01 = alpha10 = 1) is rejected: there the system is a
    plain voter model and none of the machinery here adds anything.
    The symmetric submodel used by the graphical construction requires
    lam = 1 and alpha01 = alpha10 = alpha with 0 <= alpha < 1.
    """

    lam: float = 1.0
    alpha01: float = 0.0
    alpha10: float = 0.0

    def __post_init__(self):
        for name in ("lam", "alpha01", "alpha10"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.lam > 0):
            raise ValueError("lam must be positive")
        if self.alpha01 < 0 or self.alpha10 < 0:
            raise ValueError("competition strengths must be nonnegative")
        if self.lam == 1.0 and self.alpha01 == 1.0 and self.alpha10 == 1.0:
            raise ValueError("voter corner (lam=1, alpha01=alpha10=1) is excluded")

    @classmethod
    def symmetric(cls, alpha: float) -> "NPParams":
        if not (0.0 <= alpha < 1.0):
            raise ValueError("symmetric model needs 0 <= alpha < 1")
        return cls(lam=1.0, alpha01=alpha, alpha10=alpha)

    @property
    def is_symmetric(self) -> bool:
        return self.lam == 1.0 and self.alpha01 == self.alpha10 and 0.0 <= self.alpha01 < 1.0

    @property
    def alpha(self) -> float:
        if not self.is_symmetric:
            raise ValueError("alpha is only defined for symmetric parameters")
        return self.alpha01


def flip_rate(p: NPParams, k: Kernel, eta: np.ndarray, x: int):
    """Rate at which site x flips its current value under configuration eta.

    ``eta`` is one configuration (n,), which gives a float, or a stack
    (..., n), which gives an array of its leading shape.  f1 sums q(x, y)
    over x's out-edges y that hold a one; the rates are :func:`_branch_rates`.
    """
    nbr, w = k.out_edges(x)
    f1 = np.einsum("...j,j->...", (eta[..., nbr] != 0).astype(np.float64), w)
    up, down = _branch_rates(p, f1)
    rate = np.where(eta[..., x] == 0, up, down)
    return float(rate) if rate.ndim == 0 else rate


def _branch_rates(p: NPParams, f1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip rates (up, down) of a zero and of a one that see a frequency f1 of ones."""
    f0 = 1.0 - f1
    denom = p.lam * f1 + f0
    up = (f0 + p.alpha01 * f1) * (p.lam * f1) / denom
    down = (f1 + p.alpha10 * f0) * f0 / denom
    return up, down


def flip_rates_all(p: NPParams, eta: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Vectorized flip rates for every site given the f1 vector."""
    up, down = _branch_rates(p, f1)
    return np.where(eta == 0, up, down)


# -- event logs --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EventLog:
    """Columnar Poisson event log on [0, horizon], times strictly increasing.

    Event i has focal site ``xa[i]``, source ``ya[i]`` and second source
    ``za[i]``, which is -1 for a voter event.
    """

    horizon: float
    times: np.ndarray
    xa: np.ndarray
    ya: np.ndarray
    za: np.ndarray

    def __post_init__(self):
        if len(self.times) and not (np.diff(self.times) > 0).all():
            raise ValueError("event times must be strictly increasing")
        if len(self.times) and (self.times[0] <= 0 or self.times[-1] > self.horizon):
            raise ValueError("event times must lie in (0, horizon]")

    def __len__(self) -> int:
        return len(self.times)

    def count_up_to(self, t: float) -> int:
        """Number of events with time <= t; a t outside [0, horizon] is refused."""
        if not 0.0 <= t <= self.horizon:  # a NaN fails too
            check_grid([t], "t", self.horizon)
        return bisect.bisect_right(self.times, t)  # type: ignore[arg-type]


MAX_TABLE_ROWS = 1 << 24
# spin replicates per replicate_map chunk (one derived stream each); fixed for determinism
SPIN_CHUNK = 256


@dataclass(frozen=True, eq=False)
class EventTable:
    """Enumerated event types of the symmetric graphical construction.

    One row per event type: annihilation rows carry (x, y, z) with y < z and
    rate (1-alpha) q(x,y) q(x,z); voter rows carry (x, y, -1) and rate
    alpha q(x,y).  Rows are grouped by focal site x, annihilation rows
    first.  ``total_rate`` is the Poisson intensity of the full field and
    ``cdf`` the cumulative type distribution, normalised as
    ``Generator.choice`` normalises ``p = rates / total_rate``.
    """

    xa: np.ndarray
    ya: np.ndarray
    za: np.ndarray
    rates: np.ndarray
    total_rate: float
    cdf: np.ndarray

    @classmethod
    def build(cls, p: NPParams, k: Kernel) -> "EventTable":
        """Table of every event type; more than MAX_TABLE_ROWS rows is refused."""
        if not p.is_symmetric:
            raise ValueError("the graphical construction covers the symmetric model only")
        alpha = p.alpha
        deg = np.diff(k.indptr)
        rows = int((deg * (deg - 1) // 2).sum()) + (len(k.indices) if alpha > 0.0 else 0)
        if rows > MAX_TABLE_ROWS:
            raise ValueError(f"event table of a {k.n}-site kernel with maximum degree "
                             f"{int(deg.max())} would have {rows} rows, "
                             f"more than {MAX_TABLE_ROWS}")
        src = np.repeat(np.arange(k.n, dtype=np.int64), deg)
        # edge e pairs with the later edges of its row: the rows for x run
        # over (i, j), i < j, in CSR order, i outer
        later = k.indptr[1:][src] - np.arange(len(src)) - 1
        i = np.repeat(np.arange(len(src)), later)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
        xs = [src[i]]
        ys = [k.indices[i]]
        zs = [k.indices[j]]
        rs = [(1.0 - alpha) * k.weights[i] * k.weights[j]]
        if alpha > 0.0:
            xs.append(src)
            ys.append(k.indices)
            zs.append(np.full(len(src), -1, dtype=np.int64))
            rs.append(alpha * k.weights)
        xa = np.concatenate(xs)
        order = np.argsort(xa, kind="stable")
        rates = np.concatenate(rs)[order]
        total = float(rates.sum())
        cdf = (rates / total).cumsum()
        if len(cdf):
            cdf /= cdf[-1]
        return cls(xa[order], np.concatenate(ys)[order], np.concatenate(zs)[order],
                   rates, total, cdf)


def sample_event_log(p: NPParams, k: Kernel, horizon: float, rng: np.random.Generator,
                     table: EventTable | None = None) -> EventLog:
    """Sample a Poisson event log on [0, horizon] by superposition.

    Event count is Poisson(total_rate * horizon), times are sorted uniforms,
    and types are iid proportional to their rates, drawn by inverting the
    table's cdf (the draws ``rng.choice(..., p=rates / total_rate)`` makes).
    Ties in the sorted times (probability zero, but floats) are resolved by
    redrawing.
    """
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


def _pack_rows(cols: np.ndarray) -> list[int]:
    """Site rows of a configuration as Python ints, for the replay folds.

    A 1-d configuration is the one-column case: its list of values.  Row x
    of an (n_sites, m) stack becomes the int whose bit j is ``cols[x, j]``;
    packing would map any nonzero entry to 1, so other entries are refused.
    """
    if cols.ndim == 1:
        return cols.tolist()
    ones = cols == 1
    if np.count_nonzero(ones) != np.count_nonzero(cols):
        bad = cols[~ones & (cols != 0)][0]
        raise ValueError(f"column-stacked replay takes 0/1 entries, got {bad}")
    packed = np.packbits(ones.reshape(len(cols), -1), axis=1, bitorder="little")
    width = packed.shape[1]
    raw = packed.tobytes()
    return [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(len(cols))]


def _unpack_rows(rows: list[int], like: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: a fresh array of ``like``'s shape and dtype."""
    if like.ndim == 1:
        return np.array(rows, dtype=like.dtype)
    m = math.prod(like.shape[1:])
    width = (m + 7) // 8
    raw = b"".join([row.to_bytes(width, "little") for row in rows])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), width)
    bits = np.unpackbits(packed, axis=1, count=m, bitorder="little")
    return bits.astype(like.dtype).reshape(like.shape)


def _fold_forward(rows: list[int], log: EventLog, upto: int) -> None:
    """In place: run the first ``upto`` log events over packed site rows.

    Each event touches the focal row only: a voter event copies its source
    row, an annihilation event XORs both source rows in, so one int
    operation updates every packed column at once.
    """
    xs, ys, zs = (col[:upto].tolist() for col in (log.xa, log.ya, log.za))
    for x, y, z in zip(xs, ys, zs):
        if z < 0:
            rows[x] = rows[y]
        else:
            rows[x] ^= rows[y] ^ rows[z]


def replay_forward(eta0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """Configuration at time t in [0, log.horizon] obtained by running log events over eta0.

    ``eta0`` is one configuration of shape (n_sites,) or a stack of shape
    (n_sites, m) whose columns replay together; a stack holds 0/1 entries
    only.  Returns a fresh array of eta0's shape and dtype.
    """
    rows = _pack_rows(eta0)
    _fold_forward(rows, log, log.count_up_to(t))
    return _unpack_rows(rows, eta0)


def replay_forward_batch(cols0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """replay_forward over column-stacked configurations of shape (n_sites, m)."""
    return replay_forward(np.asarray(cols0, dtype=np.uint8), log, t)


# -- Gillespie ----------------------------------------------------------------

# rows x sites cells of one lockstep slice; bounds the engine's memory on big kernels
CELLS = 1 << 22


@dataclass(frozen=True, eq=False)
class SpinTrajectory:
    """Flip record of R runs: initial configurations plus (row, time, site) flips.

    ``initial`` has shape (R, n).  The flips are ordered by row and, within
    a row, by time; ``ups`` is True where a flip set its site to 1.
    Configurations and densities are reconstructed on demand, which keeps
    long runs on big graphs storable.  ``len`` counts flips over all rows.
    """

    initial: np.ndarray
    rows: np.ndarray
    times: np.ndarray
    sites: np.ndarray
    ups: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return len(self.times)

    def config_at(self, t: float) -> np.ndarray:
        """Configuration of every row at time t in [0, horizon], shape (R, n)."""
        if not 0.0 <= t <= self.horizon:  # a NaN fails too
            check_grid([t], "t", self.horizon)
        reps, n = self.initial.shape
        upto = self.times <= t
        flips = np.bincount(self.rows[upto] * n + self.sites[upto], minlength=reps * n)
        return self.initial ^ (flips & 1).astype(np.uint8).reshape(reps, n)

    def density_path(self, row: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-constant density of ones of one row: value at ts[i] holds until ts[i+1]."""
        n = self.initial.shape[1]
        lo, hi = np.searchsorted(self.rows, [row, row + 1])
        dens = np.empty(hi - lo + 1)
        dens[0] = self.initial[row].sum() / n
        dens[1:] = dens[0] + np.cumsum(np.where(self.ups[lo:hi], 1.0, -1.0)) / n
        return np.concatenate(([0.0], self.times[lo:hi])), dens

    def density_at(self, grid) -> np.ndarray:
        """Density of ones of every row at each grid time in [0, horizon], shape (R, len(grid))."""
        check_grid(grid, "grid", self.horizon)
        reps, n = self.initial.shape
        steps = np.where(self.ups, 1.0, -1.0)
        out = np.empty((reps, len(grid)))
        out[:] = (self.initial.sum(axis=1) / n)[:, None]
        for j, t in enumerate(grid):
            upto = self.times <= t
            out[:, j] += np.bincount(self.rows[upto], weights=steps[upto], minlength=reps) / n
        return out


def _touch_table(k: Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The sites a flip at y touches, padded to one width, with their weights q(x, y).

    Row y lists every x with q(x, y) > 0, then y itself at weight 0, then
    the scratch column n at weight 0.  The engine's state has that extra
    column, where f1 and the flip rate stay 0, so kernels with unequal
    in-degree step as one matrix.
    """
    deg = np.diff(k.in_indptr)
    sites = np.full((k.n, int(deg.max()) + 1), k.n, dtype=np.int64)
    weights = np.zeros(sites.shape)
    y = np.repeat(np.arange(k.n), deg)
    col = np.arange(len(y)) - k.in_indptr[y]
    sites[y, col] = k.in_indices
    weights[y, col] = k.in_weights
    sites[np.arange(k.n), deg] = np.arange(k.n)
    return sites, weights


def _lockstep(p: NPParams, k: Kernel, touch: tuple[np.ndarray, np.ndarray], eta: np.ndarray,
              horizon: float, rng: np.random.Generator) -> list[tuple]:
    """Run the rows of ``eta`` (m, n) together to the horizon.

    Returns one (rows, times, sites, ups) record per step, over the rows
    that flipped in that step.
    """
    m, n = eta.shape
    nbr, wts = touch
    state = np.zeros((m, n + 1), dtype=np.uint8)
    state[:, :n] = eta
    f1 = np.zeros((m, n + 1))
    f1[:, :n] = frequency_of_ones(k, eta)
    rates = flip_rates_all(p, state, f1)
    ids = np.arange(m)
    t = np.zeros(m)
    base = np.arange(m) * (n + 1)
    record = []
    with np.errstate(divide="ignore"):  # a row with total rate 0 retires on an infinite clock
        while len(ids):
            cum = np.cumsum(rates, axis=1)
            tot = cum[:, -1]
            t = t + rng.standard_exponential(len(ids)) / tot
            live = (t <= horizon) & (tot > 0.0)
            if not live.all():
                ids, state, f1, rates, t, cum, tot = (
                    a[live] for a in (ids, state, f1, rates, t, cum, tot))
                if not len(ids):
                    break
            # 1 - u lies in (0, 1], so the first cumsum entry reaching (1 - u) * tot
            # has a positive rate
            x = np.argmax(cum >= ((1.0 - rng.random(len(ids))) * tot)[:, None], axis=1)
            flat = base[:len(ids)]
            sf, ff, rf = state.reshape(-1), f1.reshape(-1), rates.reshape(-1)
            up = sf[flat + x] ^ 1
            sf[flat + x] = up
            touched = flat[:, None] + nbr[x]
            ff[touched] += (2.0 * up - 1.0)[:, None] * wts[x]
            rf[touched] = flip_rates_all(p, sf[touched], ff[touched])
            record.append((ids, t, x, up))
    return record


def simulate_gillespie(p: NPParams, k: Kernel, eta0: np.ndarray, horizon: float,
                       rng: np.random.Generator) -> SpinTrajectory:
    """Exact event-driven simulation of R runs of the spin system to the horizon.

    ``eta0`` holds one starting configuration per row, shape (R, n); a 1-d
    ``eta0`` is one row.  The rows step in lockstep, in slices of at most
    ``max(1, CELLS // n)`` rows drawn in turn from ``rng``.  Each step, every
    active row draws one standard exponential for its clock; a row whose
    clock passes the horizon, or whose total rate is 0, retires.  Every
    remaining row then draws one uniform, inverted on its row cumsum of
    rates, to pick the site that flips.  The flip changes f1 only at the
    in-neighbours of that site, so each step refreshes O(max in-degree)
    entries per row.
    """
    eta0 = np.atleast_2d(np.asarray(eta0)).astype(np.uint8)
    if eta0.shape[1] != k.n:
        raise ValueError("configuration size does not match kernel")
    horizon = check_horizon(horizon, "horizon")
    touch = _touch_table(k)
    size = max(1, CELLS // k.n)
    record = []
    for lo in range(0, len(eta0), size):
        steps = _lockstep(p, k, touch, eta0[lo:lo + size], horizon, rng)
        record += [(ids + lo, *rest) for ids, *rest in steps]
    rows, times, sites, ups = (np.concatenate([step[i] for step in record])
                               if record else np.zeros(0) for i in range(4))
    order = np.argsort(rows, kind="stable")  # steps are in time order within each row
    return SpinTrajectory(eta0, rows[order].astype(np.int64), times[order],
                          sites[order].astype(np.int64), ups[order].astype(bool), horizon)


def complete_count_rates(p: NPParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jump rates of the number of ones k = 0..n on the n-vertex complete graph.

    Sites are exchangeable there, so k is itself a birth-death chain
    (lumpability): each of the n - k zeros sees f1 = k/(n-1), each of the
    k ones sees f1 = (k-1)/(n-1).  Returns (up, down) with up[n] = down[0] = 0.
    """
    if n < 2:
        raise ValueError(f"the complete graph needs at least 2 vertices, got {n}")
    j = np.arange(n)
    f1 = j / (n - 1)  # seen by a zero when k = j and by a one when k = j + 1
    up_rate, down_rate = _branch_rates(p, f1)
    up = np.zeros(n + 1)
    down = np.zeros(n + 1)
    up[:-1] = (n - j) * up_rate
    down[1:] = (j + 1) * down_rate
    return up, down


def simulate_complete_counts(up: np.ndarray, down: np.ndarray, k0: int, horizon: float,
                             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact simulation of the count of ones on the complete graph.

    ``up`` and ``down`` are the count chain's rates from
    :func:`complete_count_rates`; the graph has n = len(up) - 1 vertices.
    Each jump draws its holding time, then goes up with probability
    up[k] / (up[k] + down[k]).  O(1) per jump, O(n) memory.
    Returns (times, counts) with times[0] = 0; counts[i] holds until
    times[i+1].  Stops early at an absorbing count.
    """
    n = len(up) - 1
    if not 0 <= k0 <= n:
        raise ValueError(f"initial count must lie in [0, {n}], got {k0}")
    horizon = check_horizon(horizon, "horizon")
    # memoryview indexing yields Python floats without boxing all n + 1 rates
    up_k = memoryview(up)
    total_k = memoryview(up + down)
    k = k0
    t = 0.0
    times, counts = [0.0], [k0]
    while True:
        total = total_k[k]
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        k += 1 if rng.random() * total < up_k[k] else -1
        times.append(t)
        counts.append(k)
    return np.array(times), np.array(counts, dtype=np.int64)
