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

On the complete graph the sites are exchangeable, so the number of ones is
itself a birth-death chain; :func:`simulate_complete_counts` runs it at
O(1) per jump without building the O(n^2) kernel.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .kernel import Kernel, config_all, config_bernoulli, config_indicator, frequency_of_ones

__all__ = [
    "NPParams",
    "UpdateEvent",
    "EventLog",
    "EventTable",
    "MAX_TABLE_ROWS",
    "SPIN_CHUNK",
    "SpinTrajectory",
    "flip_rate",
    "flip_rates_all",
    "sample_event_log",
    "apply_event_forward",
    "replay_forward",
    "replay_forward_batch",
    "simulate_gillespie",
    "complete_count_rates",
    "simulate_complete_counts",
    "parse_initial",
]


@dataclass(frozen=True)
class NPParams:
    """Model parameters (fecundity ratio and cross-competition strengths).

    ``lam > 0``, ``alpha01 >= 0``, ``alpha10 >= 0``.  The pure-voter corner
    (lam = 1, alpha01 = alpha10 = 1) is rejected: there the system is a
    plain voter model and none of the machinery here adds anything.
    The symmetric submodel used by the graphical construction requires
    lam = 1 and alpha01 = alpha10 = alpha with 0 <= alpha < 1.
    """

    lam: float = 1.0
    alpha01: float = 0.0
    alpha10: float = 0.0

    def __post_init__(self):
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


def flip_rate(p: NPParams, k: Kernel, eta: np.ndarray, x: int, f1: float | None = None) -> float:
    """Rate at which site x flips its current value under configuration eta.

    ``f1`` may be passed in when the caller already knows the local
    frequency of ones at x; otherwise it is computed from the kernel.
    """
    if f1 is None:
        nbr, w = k.out_edges(x)
        f1 = float(w @ (eta[nbr] != 0))
    f0 = 1.0 - f1
    denom = p.lam * f1 + f0
    if denom <= 0.0:  # unreachable for lam > 0 since f0 + f1 = 1; kept as guard
        return 0.0
    if eta[x] == 0:
        return (f0 + p.alpha01 * f1) * (p.lam * f1) / denom
    return (f1 + p.alpha10 * f0) * f0 / denom


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


# -- update events and logs --------------------------------------------------


@dataclass(frozen=True)
class UpdateEvent:
    """One graphical-construction event.

    Annihilation event: focal ``x`` with unordered sources ``{y, z}``
    (y != z, both != x), update eta(x) += eta(y) + eta(z) mod 2.
    Voter event: focal ``x`` with source ``y``, update eta(x) = eta(y);
    ``z`` is None in that case.
    """

    time: float
    x: int
    y: int
    z: int | None = None

    def __post_init__(self):
        if self.y == self.x or (self.z is not None and (self.z == self.x or self.z == self.y)):
            raise ValueError("event sources must be distinct from the focal site and each other")

    @property
    def is_voter(self) -> bool:
        return self.z is None


@dataclass(frozen=True, eq=False)
class EventLog:
    """Columnar Poisson event log on [0, horizon], times strictly increasing.

    ``za`` holds -1 for voter events.  Iterate to get UpdateEvent views.
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

    def __iter__(self):
        for i in range(len(self.times)):
            z = int(self.za[i])
            yield UpdateEvent(float(self.times[i]), int(self.xa[i]), int(self.ya[i]),
                              None if z < 0 else z)

    def count_up_to(self, t: float) -> int:
        """Number of events with time <= t."""
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
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if table is None:
        table = EventTable.build(p, k)
    total = table.total_rate
    count = int(rng.poisson(total * horizon)) if total > 0 and horizon > 0 else 0
    times = np.sort(rng.random(count) * horizon)
    while count > 1 and not (np.diff(times) > 0).all():
        times = np.sort(rng.random(count) * horizon)
    which = table.cdf.searchsorted(rng.random(count), side="right")
    return EventLog(horizon, times, table.xa[which], table.ya[which], table.za[which])


def apply_event_forward(eta: np.ndarray, e: UpdateEvent) -> np.ndarray:
    """Apply one event to a configuration, returning a new configuration."""
    out = eta.copy()
    if e.is_voter:
        out[e.x] = out[e.y]
    else:
        out[e.x] = out[e.x] ^ out[e.y] ^ out[e.z]
    return out


def _fold_forward(cols: np.ndarray, log: EventLog, upto: int) -> None:
    """In place: run the first ``upto`` log events over column-stacked states.

    ``cols`` has shape (n_sites,) or (n_sites, m); each event touches the
    focal row only, so the same loop serves single configurations and
    batched indicator columns.
    """
    times, xa, ya, za = log.times, log.xa, log.ya, log.za
    for i in range(upto):
        x = xa[i]
        y = ya[i]
        z = za[i]
        if z < 0:
            cols[x] = cols[y]
        else:
            cols[x] = cols[x] ^ cols[y] ^ cols[z]


def replay_forward(eta0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """Configuration at time t obtained by running log events over eta0."""
    out = eta0.copy()
    _fold_forward(out, log, log.count_up_to(t))
    return out


def replay_forward_batch(cols0: np.ndarray, log: EventLog, t: float) -> np.ndarray:
    """replay_forward over column-stacked configurations of shape (n_sites, m)."""
    return replay_forward(np.asarray(cols0, dtype=np.uint8), log, t)


# -- Gillespie ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpinTrajectory:
    """Flip-instant trajectory: initial configuration plus (time, site) flips.

    Configurations at flip instants are reconstructed on demand, which keeps
    long runs on big graphs storable.
    """

    initial: np.ndarray
    times: np.ndarray
    sites: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return len(self.times)

    def configs(self):
        """Yield (time, configuration) at 0 and after every flip."""
        eta = self.initial.copy()
        yield 0.0, eta.copy()
        for t, x in zip(self.times, self.sites):
            eta[x] ^= 1
            yield float(t), eta.copy()

    def config_at(self, t: float) -> np.ndarray:
        eta = self.initial.copy()
        upto = int(np.searchsorted(self.times, t, side="right"))
        for x in self.sites[:upto]:
            eta[x] ^= 1
        return eta

    def density_path(self) -> tuple[np.ndarray, np.ndarray]:
        """Piecewise-constant density of ones: value at times[i] holds until times[i+1]."""
        n = len(self.initial)
        dens = np.empty(len(self.times) + 1)
        dens[0] = self.initial.sum() / n
        if len(self.times):
            # a site's flip direction depends on its value at flip time, so walk it
            steps = np.empty(len(self.times))
            eta = self.initial.copy()
            for i, x in enumerate(self.sites):
                steps[i] = -1.0 if eta[x] == 1 else 1.0
                eta[x] ^= 1
            dens[1:] = dens[0] + np.cumsum(steps) / n
        ts = np.concatenate(([0.0], self.times))
        return ts, dens


def simulate_gillespie(p: NPParams, k: Kernel, eta0: np.ndarray, horizon: float,
                       rng: np.random.Generator) -> SpinTrajectory:
    """Exact event-driven simulation of the spin system to the horizon.

    Maintains the f1 vector incrementally: flipping site y only invalidates
    f1 at in-neighbors of y, so each step costs O(deg) plus one rate refresh.
    Stops early when every rate is zero (absorbing configuration).
    """
    if len(eta0) != k.n:
        raise ValueError("configuration size does not match kernel")
    eta = eta0.astype(np.uint8).copy()
    f1 = frequency_of_ones(k, eta)
    rates = flip_rates_all(p, eta, f1)
    t = 0.0
    times, sites = [], []
    while True:
        total = float(rates.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        u = rng.random() * total
        cum = np.cumsum(rates)
        x = int(np.searchsorted(cum, u, side="right"))
        x = min(x, k.n - 1)
        delta = -1.0 if eta[x] == 1 else 1.0
        eta[x] ^= 1
        src, w = k.in_edges(x)
        f1[src] += delta * w
        touched = np.append(src, x)
        rates[touched] = flip_rates_all(p, eta[touched], f1[touched])
        times.append(t)
        sites.append(x)
    return SpinTrajectory(eta0.astype(np.uint8).copy(), np.array(times),
                          np.array(sites, dtype=np.int64), horizon)


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


def parse_initial(spec: str, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Parse an initial-condition string into a configuration.

    Accepted forms: ``all0``, ``all1``, ``bernoulli:u`` (needs an rng),
    ``indicator:x1,x2,...``.
    """
    s = spec.strip()
    if s == "all0":
        return config_all(n, 0)
    if s == "all1":
        return config_all(n, 1)
    if s.startswith("bernoulli:"):
        if rng is None:
            raise ValueError("bernoulli initial condition needs a random stream")
        return config_bernoulli(n, float(s.split(":", 1)[1]), rng)
    if s.startswith("indicator:"):
        body = s.split(":", 1)[1]
        sites = [int(tok) for tok in body.split(",") if tok.strip() != ""]
        return config_indicator(n, sites)
    raise ValueError(f"unrecognized initial condition {spec!r}")
