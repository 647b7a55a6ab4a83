"""Exact finite-state machinery: dense generators, semigroups, parity algebra.

Configurations on n <= 12 sites are encoded as n-bit integers (bit x holds
the value at site x), so the full state space {0,1}^n fits in a dense
2^n x 2^n generator.  Three independent constructions of the same dynamics
live here:

* :func:`build_generator_np` accumulates the per-site flip rates directly;
* :func:`build_generator_from_events` accumulates the graphical
  construction's event types (annihilation / voter updates);
* :func:`build_generator_dual` accumulates the transposed event types.

Each loops over sites or event types only; a step acts on all 2^n states
at once by bit arithmetic.  The rates come from :func:`ipsd.spin.flip_rate`,
the engines' one rate formula.

Their agreement, and the Feynman-Kac interchange between the first and the
third, are the machine-checkable oracles the stochastic modules are tested
against.  :func:`feynman_kac_check` checks the interchange on every (A, B)
pair at once, as one matrix identity on :func:`parity_matrix`; it costs two
semigroup applications to a 2^n x 2^n matrix, so each series term is a
dense 2^n x 2^n product (README gives times at n = 10 and 11).  Also here:
the parity-deviation product identity with its brute-force companion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .harness import check_horizon
from .kernel import Kernel
from .spin import EventTable, NPParams, flip_rate

__all__ = [
    "MAX_EXACT_SITES",
    "DenseGenerator",
    "state_to_config",
    "build_generator_np",
    "build_generator_from_events",
    "build_generator_dual",
    "semigroup_apply",
    "parity_matrix",
    "feynman_kac_check",
    "MAX_FK_WORK",
    "fk_check_terms",
    "fk_check_work",
    "parity_deviation",
    "parity_deviation_enum",
]

MAX_EXACT_SITES = 12
SEMIGROUP_TAIL = 1e-14  # Poisson mass left out of the uniformization series
MAX_UNIFORM_MU = 500.0  # largest lam t of one series; exp(-lam t) stays a normal float
# projected multiply-adds one exact-check battery may run (README gives its cost)
MAX_FK_WORK = 3e11


def _check_sites(n: int) -> int:
    """``n``, refused past MAX_EXACT_SITES: a builder calls this before it allocates 2^n x 2^n."""
    if n > MAX_EXACT_SITES:
        raise ValueError(f"exact machinery restricted to {MAX_EXACT_SITES} sites")
    return n


@dataclass(frozen=True, eq=False)
class DenseGenerator:
    """Dense CTMC generator over bit-encoded configurations.

    Row-stochastic orientation: matrix[s, s'] is the jump rate s -> s',
    diagonal entries make rows sum to zero.
    """

    n_sites: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_sites(self.n_sites)
        m = self.matrix
        if m.shape != (1 << self.n_sites, 1 << self.n_sites):
            raise ValueError("generator shape does not match site count")
        off = m - np.diag(np.diag(m))
        if (off < 0).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        if np.abs(m.sum(axis=1)).max() > 1e-10:
            raise ValueError("generator rows must sum to zero")


def state_to_config(s, n: int) -> np.ndarray:
    """Site values of state s; an int array of states gives one row per state."""
    return ((np.asarray(s)[..., None] >> np.arange(n)) & 1).astype(np.uint8)


def build_generator_np(p: NPParams, k: Kernel) -> DenseGenerator:
    """Generator straight from the per-site flip rates (any parameters).

    Site x's rates come from one flip_rate call on all 2^n configurations.
    Rates <= 0 are left out: a one among ones can round to -2e-16.
    """
    n = _check_sites(k.n)
    size = 1 << n
    states = np.arange(size)
    configs = state_to_config(states, n)
    G = np.zeros((size, size))
    for x in range(n):
        r = flip_rate(p, k, configs, x)
        keep = r > 0.0
        s, r = states[keep], r[keep]
        G[s, s ^ (1 << x)] += r
        G[s, s] -= r
    return DenseGenerator(n, G)


def _event_target(s, x: int, y: int, z: int):
    """Bit-encoded result of one graphical event applied to state s (int or int array)."""
    bx = (s >> x) & 1
    by = (s >> y) & 1
    new = by if z < 0 else bx ^ by ^ ((s >> z) & 1)
    return s ^ ((bx ^ new) << x)


def _dual_event_target(s, x: int, y: int, z: int):
    """Bit-encoded result of one transposed event applied to dual state s (int or int array)."""
    bx = (s >> x) & 1  # voter: y += x and x = 0; annihilation: y += x and z += x
    return s ^ (bx << y) ^ (bx << (x if z < 0 else z))


def _generator_from_targets(p: NPParams, k: Kernel, target_fn) -> DenseGenerator:
    """One pass per row of EventTable.build(p, k), in table order, over all 2^n states at once."""
    n = _check_sites(k.n)
    table = EventTable.build(p, k)
    size = 1 << n
    states = np.arange(size)
    G = np.zeros((size, size))
    for x, y, z, r in zip(table.xa.tolist(), table.ya.tolist(), table.za.tolist(),
                          table.rates.tolist()):
        tgt = target_fn(states, x, y, z)
        moved = tgt != states
        s = states[moved]
        G[s, tgt[moved]] += r
        G[s, s] -= r
    return DenseGenerator(n, G)


def build_generator_from_events(p: NPParams, k: Kernel) -> DenseGenerator:
    """Generator accumulated from the graphical construction's event types.

    Must agree with :func:`build_generator_np` to 1e-12 for symmetric
    parameters; that agreement is the correctness proof of the event rates.
    """
    return _generator_from_targets(p, k, _event_target)


def build_generator_dual(p: NPParams, k: Kernel) -> DenseGenerator:
    """Generator of the fresh dual chain (transposed updates, same rates)."""
    return _generator_from_targets(p, k, _dual_event_target)


def semigroup_apply(gen: DenseGenerator, t: float, v: np.ndarray) -> np.ndarray:
    """exp(t G) v by uniformization, checked against two halved steps.

    Uniformization constant is max |diagonal| * 1.01; the Poisson series is
    truncated once its mass reaches 1 - SEMIGROUP_TAIL, and a horizon with
    lam t > MAX_UNIFORM_MU runs as equal shorter steps.  For t > 0 the
    result is always recomputed as two half steps, which must agree to
    1e-10 relative error, or ArithmeticError is raised.
    """
    t = check_horizon(t, "t")
    v = np.asarray(v, dtype=np.float64)
    out = _uniformized(gen.matrix, t, v)
    if t > 0:
        half = _uniformized(gen.matrix, t / 2.0, v)
        two_step = _uniformized(gen.matrix, t / 2.0, half)
        scale = max(1.0, float(np.abs(out).max()))
        err = float(np.abs(out - two_step).max()) / scale
        if not err <= 1e-10:  # a NaN fails too
            raise ArithmeticError(f"semigroup self-check failed: relative error {err:.3e}")
    return out


def _uniformized(G: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(t G) v as a Poisson series in P = I + G / lam.

    The series starts from the weight exp(-lam t), which underflows past
    lam t of about 745; a longer step is split into the fewest equal steps
    with lam t / steps <= MAX_UNIFORM_MU, by the semigroup property.
    """
    lam = float(np.abs(np.diag(G)).max()) * 1.01
    if lam == 0.0 or t == 0.0:
        return v.copy()
    P = np.eye(G.shape[0]) + G / lam
    steps = math.ceil(lam * t / MAX_UNIFORM_MU)
    mu = lam * t / steps
    for _ in range(steps):
        v = _poisson_series(P, mu, v)
    return v


def _poisson_series(P: np.ndarray, mu: float, v: np.ndarray) -> np.ndarray:
    """sum_k e^{-mu} mu^k / k! P^k v, truncated once its mass reaches 1 - SEMIGROUP_TAIL."""
    weight = np.exp(-mu)
    acc = weight * v
    term = v
    kmax = 10_000
    covered = weight
    for kk in range(1, kmax + 1):
        term = P @ term
        weight *= mu / kk
        acc = acc + weight * term
        covered += weight
        if covered >= 1.0 - SEMIGROUP_TAIL and kk > mu:
            break
    else:
        raise ArithmeticError("uniformization series failed to converge")
    return acc


def parity_matrix(n: int) -> np.ndarray:
    """Every parity observable at once: PHI[s, b] = <1_b, s> mod 2.

    Column b is phi_B over all 2^n states for the site set B with bitmask b;
    the matrix is symmetric.  Built by doubling: the top site splits PHI into
    four blocks, and the parity flips only where both indices hold it.
    """
    phi = np.zeros((1, 1))
    for _ in range(n):
        phi = np.block([[phi, phi], [phi, 1.0 - phi]])
    return phi


def feynman_kac_check(gen_fwd: DenseGenerator, gen_dual: DenseGenerator, t: float) -> float:
    """max over all (A, B) of |P_t phi_B (1_A) - Q_t phi_A (1_B)|.

    P_t PHI holds E_A[phi_B(eta_t)] at [A, B], and Q_t PHI holds
    E_B[phi_A(xi_t)] at [B, A], so the duality for every pair at once is
    P_t PHI = (Q_t PHI)^T.  The two matrix exponentials are independent
    computations; the residual should vanish to solver precision.
    """
    phi = parity_matrix(gen_fwd.n_sites)
    fwd = semigroup_apply(gen_fwd, t, phi)
    dual = semigroup_apply(gen_dual, t, phi)
    return float(np.abs(fwd - dual.T).max())


def fk_check_terms(n_sites: int, t: float) -> float:
    """Projected uniformization series terms of one feynman_kac_check at t, an upper bound.

    For the symmetric model on ``n_sites`` sites: each site flips at rate at
    most 1 (``(f0 + alpha f1) f1 <= 1``), and the dual's exit rate is at most
    the event table's total rate, itself at most n, so lam <= 1.01 n for
    both generators.  Each is applied at t and then as two halves.  A series
    of mean mu = lam t runs at most mu + 8 sqrt(mu) + 8 terms (its tail of
    mass 1e-14 included), and a mean past MAX_UNIFORM_MU runs as that many
    equal steps, each a series of its own.
    """
    total = 0.0
    for tau in (t, t / 2.0, t / 2.0):
        lam_t = 1.01 * n_sites * tau
        steps = math.ceil(lam_t / MAX_UNIFORM_MU)  # 0 at t = 0, where no series runs
        mu = lam_t / max(steps, 1)
        total += 2 * steps * (mu + 8.0 * math.sqrt(mu) + 8.0)
    return total


def fk_check_work(n_sites: int, t: float) -> float:
    """Projected multiply-adds of one feynman_kac_check at t.

    A series term is one dense product ``P @ term`` of 2^n x 2^n matrices,
    8^n multiply-adds, plus a fixed cost of a few microseconds per term in
    the interpreter, about what the product costs at 6 sites.
    """
    return fk_check_terms(n_sites, t) * (8.0 ** n_sites + 8.0 ** 6)


# -- parity deviation ----------------------------------------------------------


def parity_deviation(u) -> float:
    """P(sum X_m even) - P(sum X_m odd) = prod_m (1 - 2 u_m).

    ``u`` lists the odd-value probabilities of independent nonnegative
    integer summands; only those parities matter.
    """
    u = np.asarray(u, dtype=np.float64)
    if ((u < 0) | (u > 1)).any():
        raise ValueError("odd-probabilities must lie in [0,1]")
    return float(np.prod(1.0 - 2.0 * u))


def parity_deviation_enum(u) -> float:
    """Brute-force companion: all 2^N parity patterns, built term by term at once."""
    u = np.asarray(u, dtype=np.float64)
    N = len(u)
    if N > MAX_EXACT_SITES:
        raise ValueError(f"enumeration restricted to {MAX_EXACT_SITES} terms")
    patterns = np.arange(1 << N)
    pr = np.ones(1 << N)
    odd = np.zeros(1 << N, dtype=bool)
    for m in range(N):
        on = ((patterns >> m) & 1).astype(bool)
        pr *= np.where(on, u[m], 1.0 - u[m])
        odd ^= on
    # a plain left fold: sum() compensates its float additions from Python 3.12 on
    return reduce(add, pr[~odd].tolist(), 0.0) - reduce(add, pr[odd].tolist(), 0.0)
