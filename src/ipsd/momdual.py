"""Moment dualities between the lattice diffusions and the walker systems.

The bridging functional is the mixed moment

    H(v, xi) = prod_{x: xi(x) >= 1} v(x)^{xi(x)}      (empty product = 1)

evaluated either on a diffusion field v and a frozen particle configuration,
or the other way around.  :func:`pairing` alone decides which walker and v
each diffusion pairs with.  Two evaluations of the generator action on H:

* closed forms (:func:`gen_sigma_on_H`, :func:`gen_p_on_H`) obtained by
  applying the diffusion generator to H and collecting terms in
  pre-division polynomial form, so sites with v(x) = 0 never divide;
* the walker route (:func:`gen_walker_on_H`), a plain sum of
  rate * (H(after) - H(before)) over the walker transition table.

Their pointwise equality (generator duality) is the exact oracle; the
Monte Carlo comparison :func:`moment_duality_mc` checks the integrated
identity E[H(v_t, xi_0)] = E[H(v_0, xi_t)] with a two-sample z test and a
mandatory dt-halving repeat on the diffusion side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diffusion import DiffusionParams, ensemble_observable, sigma_of_p
from .harness import check_grid, check_horizon
from .lattice import Stencil, Torus
from .rng import derive_stream
from .stats import MCEstimate, two_sample_z, wilson_lower, wilson_upper
from .walkers import (BCRW, CRW, DBARW, DEFAULT_CAP, WalkerKind, apply_transition, count_row,
                      survival_probability, walker_ensemble, walker_rates)

__all__ = [
    "moment_eval",
    "moment_product",
    "field_moment",
    "gen_sigma_on_H",
    "gen_p_on_H",
    "gen_walker_on_H",
    "pairing",
    "generator_duality_battery",
    "moment_duality_mc",
    "coexistence_probe",
    "extinction_probe",
]

BATTERY_MAX_TOTAL = 6  # walkers in one random particle configuration of the battery


def moment_eval(vals: np.ndarray, counts: dict[int, int]) -> float:
    """H(vals, counts) = prod vals[x]^counts[x]; empty product is 1."""
    out = 1.0
    flat = np.asarray(vals).reshape(-1)
    for x, c in counts.items():
        if c < 0:
            raise ValueError("counts must be nonnegative")
        if c:
            out *= float(flat[x]) ** int(c)
    return out


def moment_product(vals: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """H(vals, xi) for each row xi of a count matrix; vals^0 = 1 on empty sites."""
    flat = np.asarray(vals, dtype=np.float64).reshape(-1)
    return np.prod(flat ** counts, axis=1)


def field_moment(xi: dict[int, int], fields: np.ndarray, transform=None) -> np.ndarray:
    """H(v, xi) per field of a batch, with v = transform(field) or the field itself.

    Multiplies ``v[:, x] ** c`` (c a Python int) over the occupied sites in
    sorted order; :func:`moment_product`'s array power differs in the last
    bit at c = 2, where numpy squares.  Module level, so pools can pickle it.
    """
    vals = fields.reshape(fields.shape[0], -1)
    if transform is not None:
        vals = transform(vals)
    out = np.ones(fields.shape[0])
    for x, c in sorted(xi.items()):
        if c > 0:
            out *= vals[:, x] ** int(c)
    return out


def _rest_products(flat: np.ndarray, items: list[tuple[int, int]]) -> list[float]:
    """rest[i] = prod over j != i of flat[x_j]^{c_j}, computed without division."""
    powers = [float(flat[x]) ** int(c) for x, c in items]
    k = len(powers)
    rests = []
    for i in range(k):
        r = 1.0
        for j in range(k):
            if j != i:
                r *= powers[j]
        rests.append(r)
    return rests


def _gen_on_H(field, counts, torus, stencil, reactions) -> float:
    """Migration on H plus each ``reactions(v, c, v**c, v**(c-1))`` term times rest, per site."""
    flat = np.asarray(field).reshape(-1)
    items = [(x, c) for x, c in sorted(counts.items()) if c > 0]
    if not items:
        return 0.0
    rests = _rest_products(flat, items)
    table = torus.move_table(stencil)
    total = 0.0
    for (x, c), rest in zip(items, rests):
        vx = float(flat[x])
        pow_c = vx**c
        pow_cm1 = vx ** (c - 1)
        mig = 0.0
        for j, w in enumerate(stencil.weights):
            if w > 0:
                mig += w * (float(flat[table[x, j]]) * pow_cm1 - pow_c)
        total += c * mig * rest
        for term in reactions(vx, c, pow_c, pow_cm1):
            total += term * rest
    return total


def gen_sigma_on_H(sigma: np.ndarray, counts: dict[int, int], s: float,
                   torus: Torus, stencil: Stencil) -> float:
    """Action of the sigma-diffusion generator (mu = 2 pairing) on H.

    All terms are evaluated as polynomials in sigma(x), so sigma(x) = 0 is
    handled exactly (never a 0/0).
    """
    def reactions(sx, c, pow_c, pow_cm1):
        yield 0.5 * s * c * (sx ** (c + 2) - pow_c)
        if c >= 2:
            yield 0.5 * c * (c - 1) * (sx ** (c - 2) - pow_c)

    return _gen_on_H(sigma, counts, torus, stencil, reactions)


def gen_p_on_H(p: np.ndarray, counts: dict[int, int], s: float, mu: float,
               torus: Torus, stencil: Stencil) -> float:
    """Action of the p-diffusion generator on H, at any s and mu (see :func:`pairing`)."""

    def reactions(px, c, pow_c, pow_cm1):
        yield s * c * (pow_c - (mu + 1.0) * px ** (c + 1) + mu * px ** (c + 2))
        if c >= 2:
            yield 0.5 * c * (c - 1) * (pow_cm1 - pow_c)

    return _gen_on_H(p, counts, torus, stencil, reactions)


def gen_walker_on_H(vals: np.ndarray, counts: dict[int, int], kind: WalkerKind,
                    torus: Torus, stencil: Stencil) -> float:
    """Walker-route generator action: sum of rate * (H(after) - H(before))."""
    h0 = moment_eval(vals, counts)
    total = 0.0
    for transition, rate in walker_rates(kind, counts, torus, stencil):
        after = apply_transition(kind, counts, transition)
        total += rate * (moment_eval(vals, after) - h0)
    return total


def pairing(s: float, mu: float, regime: str = "auto"):
    """The walker dual of the (s, mu) diffusion: (regime, walker kind, transform, closed form).

    "auto" is "dbarw" at mu = 2 (v = sigma_of_p(p), DBARW of branch rate
    s/2), "crw" at s = 0 and "bcrw" otherwise (v = p, transform None).  The
    closed form (v, counts, torus, stencil) is the generator's action on H.
    A regime without a walker at (s, mu) is refused, as the BCRW itself
    refuses s > 0 and mu outside [-1, 0].
    """
    if regime == "auto":
        regime = "dbarw" if mu == 2.0 else "crw" if s == 0.0 else "bcrw"
    if regime == "dbarw":
        if mu != 2.0:
            raise ValueError("the DBARW pairing needs mu = 2")
        return (regime, DBARW(branch_rate=s / 2.0), sigma_of_p,
                lambda v, xi, torus, stencil: gen_sigma_on_H(v, xi, s, torus, stencil))
    if regime == "crw":
        if s != 0.0:
            raise ValueError("the CRW pairing needs s = 0")
        kind: WalkerKind = CRW()
    elif regime == "bcrw":
        kind = BCRW(s=s, mu=mu)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return (regime, kind, None,
            lambda v, xi, torus, stencil: gen_p_on_H(v, xi, s, mu, torus, stencil))


def _random_counts(rng: np.random.Generator, n_sites: int) -> dict[int, int]:
    total = int(rng.integers(1, BATTERY_MAX_TOTAL + 1))
    return dict(Counter(rng.integers(0, n_sites, size=total).tolist()))


def generator_duality_battery(regime: str, param_list, n_pairs: int, torus: Torus,
                              stencil: Stencil, seed: int) -> float:
    """Max |closed form - walker route| over random (field, particle) pairs.

    ``param_list`` holds (s, mu) pairs, resolved by :func:`pairing` before
    any draw; pair i uses entry i modulo its length, with 1 to
    BATTERY_MAX_TOTAL walkers on a uniform field of the pairing's v: sigma
    in [-1, 1] or p in [0, 1].  Exact zeros and endpoints (-1 or 1) are
    sprinkled in to exercise the polynomial forms.
    """
    pairings = [pairing(float(s), float(mu), regime) for s, mu in param_list]
    rng = derive_stream(seed, f"genbattery-{regime}")
    n = torus.n_sites
    worst = 0.0
    for i in range(n_pairs):
        _, kind, transform, closed = pairings[i % len(pairings)]
        counts = _random_counts(rng, n)
        low, end = (-1.0, -1.0) if transform is not None else (0.0, 1.0)  # sigma or p fields
        field = rng.uniform(low, 1.0, size=n)
        # exact special values at a few sites, including occupied ones
        for x in rng.integers(0, n, size=2):
            field[int(x)] = 0.0
        if i % 7 == 0:
            field[int(rng.integers(0, n))] = end
        walk = gen_walker_on_H(field, counts, kind, torus, stencil)
        worst = max(worst, abs(closed(field, counts, torus, stencil) - walk))
    return worst


# -- Monte Carlo duality -------------------------------------------------------


def moment_duality_mc(params: DiffusionParams, p0: np.ndarray, xi0: dict[int, int],
                      grid, reps: int, master_seed: int, regime: str = "auto",
                      cap: int = DEFAULT_CAP, threads: int = 1) -> list[dict]:
    """Both sides of the moment duality along a time grid, with z scores.

    Forward side: E[H(v_t, xi_0)] from the diffusion ensemble, dual side:
    E[H(v_0, xi_t)] from walker replicates, with v and the walker from
    :func:`pairing`.  The forward run is always repeated at dt/2, and both
    runs are z-tested against the dual and against each other.  ``threads``
    reaches all three ensembles.  An ``xi0`` site off the torus or a total
    above ``cap``, a ``p0`` value outside [0, 1], a regime without a
    walker at (s, mu) and a ``noise_n`` other than 1 are refused before
    anything is simulated: every walker pairs with the N = 1 diffusion,
    since its pair rate is c(c - 1)/2.
    """
    if params.noise_n != 1.0:
        raise ValueError(f"the walker duals pair with the noise_n = 1 diffusion only, "
                         f"got noise_n = {params.noise_n}")
    count_row(xi0, params.torus, cap)
    p0 = np.asarray(p0, dtype=np.float64)
    if not ((p0 >= 0.0) & (p0 <= 1.0)).all():  # a NaN fails too
        raise ValueError("p0 must lie in [0, 1] at every site")
    grid = check_grid(grid, "grid")
    regime, kind, transform, _ = pairing(params.s, params.mu, regime)
    v0_flat = (p0 if transform is None else transform(p0)).reshape(-1)

    obs = partial(field_moment, xi0, transform=transform)
    fwd = ensemble_observable(params, p0, grid, obs, reps, master_seed, "momdual-fwd", threads)
    fwd_half = ensemble_observable(params.with_dt(params.dt / 2.0), p0, grid, obs,
                                   reps, master_seed, "momdual-fwd-half", threads)
    runs = walker_ensemble(kind, xi0, params.torus, params.stencil, grid, cap, reps,
                           master_seed, "momdual-dual", threads,
                           observe=partial(moment_product, v0_flat))
    dual = np.ascontiguousarray(runs.observed.T)
    walker_events = int(runs.events.sum())

    rows = []
    for gi, t in enumerate(grid):
        f = MCEstimate.from_samples(fwd[gi])
        d = MCEstimate.from_samples(dual[gi])
        fh = MCEstimate.from_samples(fwd_half[gi])
        rows.append({"t": float(t), "regime": regime, "forward": f, "dual": d,
                     "z": two_sample_z(f, d), "cap_fraction": float(runs.capped.mean()),
                     "walker_events": walker_events, "forward_half": fh,
                     "z_half": two_sample_z(fh, d), "z_steps": two_sample_z(f, fh)})
    return rows


# -- probes --------------------------------------------------------------------


@dataclass(frozen=True)
class CoexistenceReport:
    heterozygosity: MCEstimate
    het_lcb99: float
    survival: MCEstimate
    survival_lcb99: float
    cap_fraction: float
    sigma_sq: MCEstimate
    sigma_sq_bound: float
    inconsistent: bool
    walker_events: int

    @property
    def passed(self) -> bool:
        """Both 99% lower bounds above zero, and the two signals consistent."""
        return self.het_lcb99 > 0.0 and self.survival_lcb99 > 0.0 and not self.inconsistent


def _check_reps(**reps: int) -> None:
    """Refuse, by name, a replicate count below 2: each estimate needs a standard error."""
    for name, count in reps.items():
        if count < 2:
            raise ValueError(f"{name} must be at least 2, got {count}: every estimate "
                             f"needs a standard error")


def _check_coexist_args(s: float, torus: Torus, t_het: float, horizon_surv: float,
                        kappa: float, reps_het: int, reps_surv: int,
                        cap: int) -> tuple[float, float]:
    """Refuse what :func:`coexistence_probe` refuses; returns the checked horizons."""
    if s <= 0:
        raise ValueError("the coexistence probe is for s > 0")
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"kappa must lie in (0, 1/2), got {kappa}")
    t_het = check_horizon(t_het, "t_het")
    horizon_surv = check_horizon(horizon_surv, "horizon_surv")
    _check_reps(reps_het=reps_het, reps_surv=reps_surv)
    count_row({0: 2}, torus, cap)
    return t_het, horizon_surv


def coexistence_probe(s: float, torus: Torus, stencil: Stencil, master_seed: int,
                      t_het: float = 10.0, horizon_surv: float = 50.0,
                      kappa: float = 0.1, reps_het: int = 800, reps_surv: int = 500,
                      cap: int = 2000, dt: float = 1e-3, threads: int = 1) -> CoexistenceReport:
    """Coexistence-side diagnostics at mu = 2 (balancing selection).

    (i) Diffusion heterozygosity P(kappa < p_t(0) < 1 - kappa) started flat
    at 1/2; (ii) DBARW survival from two particles at the origin with
    branch rate s/2 (a cap hit counts as survival and is reported); and
    (iii) the second-moment bound E[sigma_t(0)^2] <= (1-2kappa)^2 * delta
    + (1 - delta) with delta the heterozygosity.  The report flags the
    inconsistent regime where (i) is bounded away from zero while (ii)
    vanishes beyond its error bars.  A ``cap`` below the two starting
    particles is refused before anything is simulated.
    """
    t_het, horizon_surv = _check_coexist_args(s, torus, t_het, horizon_surv, kappa, reps_het,
                                              reps_surv, cap)
    xi0 = {0: 2}
    params = DiffusionParams(torus=torus, stencil=stencil, s=s, mu=2.0, dt=dt)
    p0 = np.full(torus.shape, 0.5)
    vals = ensemble_observable(params, p0, [t_het], partial(field_moment, {0: 1}), reps_het,
                               master_seed, "coexist-het", threads)[0]
    inside = ((vals > kappa) & (vals < 1.0 - kappa)).astype(float)
    het = MCEstimate.from_samples(inside)
    het_lcb = wilson_lower(int(inside.sum()), reps_het, 0.99)
    sig2 = MCEstimate.from_samples((1.0 - 2.0 * vals) ** 2)
    bound = (1.0 - 2.0 * kappa) ** 2 * het.mean + (1.0 - het.mean)

    surv = survival_probability(pairing(s, 2.0)[1], xi0, torus, stencil,
                                horizon_surv, reps_surv, master_seed, "coexist-surv", threads,
                                cap=cap)
    surv_lcb = wilson_lower(surv["successes"], reps_surv, 0.99)
    surv_ucb = wilson_upper(surv["successes"], reps_surv, 0.99)

    inconsistent = het_lcb > 0.0 and surv_ucb < 0.01
    return CoexistenceReport(het, het_lcb, surv["survival"], surv_lcb,
                             surv["cap_fraction"], sig2, float(bound), inconsistent,
                             surv["walker_events"])


@dataclass(frozen=True)
class ExtinctionReport:
    rows: tuple
    forward_below_bound: bool
    forward_decreasing: bool
    dual_decreasing: bool
    cap_fraction: float
    walker_events: int

    @property
    def passed(self) -> bool:
        """The forward moments under the dual bound, and both decreasing along the grid."""
        return self.forward_below_bound and self.forward_decreasing and self.dual_decreasing


def _check_extinct_args(s: float, mu: float, torus: Torus, p0_value: float,
                        xi0: dict[int, int], eps: float, grid, reps_fwd: int, reps_dual: int,
                        cap: int) -> list[float]:
    """Refuse what :func:`extinction_probe` refuses; returns the checked grid."""
    count_row(xi0, torus, cap)
    if s >= 0 or not (-1.0 <= mu <= 0.0):
        raise ValueError("the extinction probe needs s < 0 and mu in [-1, 0]")
    if not (0.0 < eps < 1.0 and 0.0 <= p0_value < 1.0 - eps):
        raise ValueError(f"need 0 < eps < 1 and 0 <= p0 < 1 - eps, got eps = {eps}, "
                         f"p0 = {p0_value}")
    grid = check_grid(grid, "grid")
    _check_reps(reps_fwd=reps_fwd, reps_dual=reps_dual)
    return grid


def extinction_probe(s: float, mu: float, torus: Torus, stencil: Stencil,
                     p0_value: float, xi0: dict[int, int], eps: float, grid,
                     reps_fwd: int, reps_dual: int, master_seed: int,
                     cap: int = 400, dt: float = 1e-3, threads: int = 1) -> ExtinctionReport:
    """Extinction-side diagnostics for s < 0, mu in [-1, 0].

    Forward: E[prod_x p_t(x)^{xi0(x)}] from a flat start p0 < 1 - eps.
    Dual bound: E[(1 - eps)^{|xi_t|}] from the BCRW started at xi0 (a cap
    hit carries its over-cap size forward, contributing essentially zero).
    Checks the bound within 3 combined standard errors and that both point
    estimates decrease along the grid.  An ``xi0`` site off the torus or a
    total above ``cap``, or a ``p0_value`` outside [0, 1 - eps), is refused
    before anything is simulated.
    """
    grid = _check_extinct_args(s, mu, torus, p0_value, xi0, eps, grid, reps_fwd, reps_dual, cap)
    params = DiffusionParams(torus=torus, stencil=stencil, s=s, mu=mu, dt=dt)
    p0 = np.full(torus.shape, p0_value)

    fwd = ensemble_observable(params, p0, grid, partial(field_moment, xi0), reps_fwd,
                              master_seed, "extinct-fwd", threads)

    runs = walker_ensemble(pairing(s, mu, "bcrw")[1], xi0, torus, stencil, grid, cap, reps_dual,
                           master_seed, "extinct-dual", threads)
    with np.errstate(under="ignore"):
        dual_vals = (1.0 - eps) ** np.ascontiguousarray(runs.sizes.T, dtype=np.float64)

    rows = []
    for gi, t in enumerate(grid):
        f = MCEstimate.from_samples(fwd[gi])
        d = MCEstimate.from_samples(dual_vals[gi])
        rows.append({"t": float(t), "forward": f, "dual_bound": d, "z": two_sample_z(f, d)})
    below = not any(r["z"] > 3.0 for r in rows)
    fdec, ddec = (all(b[key].mean < a[key].mean for a, b in zip(rows, rows[1:]))
                  for key in ("forward", "dual_bound"))
    return ExtinctionReport(tuple(rows), below, fdec, ddec, float(runs.capped.mean()),
                            int(runs.events.sum()))
