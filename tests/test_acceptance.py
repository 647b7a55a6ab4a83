"""Acceptance battery: one test per numbered claim, at frozen tolerances.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with ``-s``,
or in the captured output of a failing test) and then asserts.  Master
seeds are pinned so every run is deterministic; the statistical criteria
were sized so that their thresholds hold with large margins at the pinned
seeds.
"""

import filecmp
import math

import numpy as np
import pytest

from ipsd.cli import main as cli_main
from ipsd.dualspin import replay_dual
from ipsd.diffusion import DiffusionParams
from ipsd.exact import (build_generator_dual, build_generator_from_events,
                        build_generator_np, parity_deviation, parity_deviation_enum,
                        semigroup_apply)
from ipsd.kernel import complete_kernel, config_indicator, torus_kernel
from ipsd.lattice import Stencil, Torus
from ipsd.meanfield import equilibrium, bind_density_rhs, integrate_ode, meanfield_comparator
from ipsd.momdual import (coexistence_probe, extinction_probe,
                          generator_duality_battery, moment_duality_mc)
from ipsd.rng import derive_stream
from ipsd.spin import EventTable, NPParams, flip_rates_all, replay_forward, sample_event_log
from ipsd.stats import MCEstimate
from ipsd.walkers import BCRW, CRW, DBARW, simulate_walker

MASTER = 20260819


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _random_sites(rng: np.random.Generator, n: int) -> list[int]:
    """A uniformly random nonempty subset of range(n), as a site list."""
    mask = int(rng.integers(1, 2**n))
    return [x for x in range(n) if (mask >> x) & 1]


# -- 1: pathwise parity duality ------------------------------------------------------


def test_criterion_01_pathwise_parity_duality():
    """<1_B, eta_t^A> == <xi_t^{t,B}, 1_A> mod 2 on every log, exactly."""
    k = torus_kernel(2, 4)
    horizon, t_grid, n_logs, n_pairs = 5.0, (2.5, 5.0), 10_000, 20
    violations = 0
    checked = 0
    for alpha in (0.0, 0.3, 0.7):
        p = NPParams.symmetric(alpha)
        pair_rng = derive_stream(MASTER, f"c1-pairs-{alpha}")
        pairs = [(_random_sites(pair_rng, k.n), _random_sites(pair_rng, k.n))
                 for _ in range(n_pairs)]
        a_cols = np.stack([config_indicator(k.n, A) for A, _ in pairs], axis=1)
        b_cols = np.stack([config_indicator(k.n, B) for _, B in pairs], axis=1)
        table = EventTable.build(p, k)
        for i in range(n_logs):
            log = sample_event_log(p, k, horizon, derive_stream(MASTER, f"c1-log-{alpha}", i),
                                   table=table)
            for t in t_grid:
                eta = replay_forward(a_cols, log, t)
                xi = replay_dual(b_cols, log, t)
                fwd = (eta * b_cols).sum(axis=0) & 1
                dual = (xi * a_cols).sum(axis=0) & 1
                violations += int((fwd != dual).sum())
                checked += n_pairs
    _report("criterion-01 pathwise parity duality",
            violations == 0,
            f"{violations} violations over {checked} (log, pair, t) checks "
            f"(3 alphas x {n_logs} logs x {n_pairs} pairs x {len(t_grid)} times)")


# -- 2: generator construction routes ------------------------------------------------


def test_criterion_02_generator_routes_agree():
    """Event-sum generator equals the direct flip-rate generator entrywise."""
    kernels = [torus_kernel(1, L) for L in (3, 4, 5)] + [complete_kernel(N) for N in (3, 4, 5)]
    worst = 0.0
    for k in kernels:
        for alpha in (0.0, 0.3, 0.7):
            p = NPParams.symmetric(alpha)
            g1 = build_generator_from_events(p, k).matrix
            g2 = build_generator_np(p, k).matrix
            worst = max(worst, float(np.abs(g1 - g2).max()))
    _report("criterion-02 generator routes", worst < 1e-12,
            f"max entrywise gap {worst:.3e} over 6 kernels x 3 alphas (tol 1e-12)")


# -- 3: semigroup-level (Feynman-Kac) duality ----------------------------------------


def test_criterion_03_feynman_kac_duality():
    """max over ALL (A,B) of |P_t phi_B(A) - Q_t phi_A(B)| below 1e-9.

    The parity observables phi_B for all B stack into the symmetric matrix
    PHI[state, maskB] = parity(state & maskB); the identity over every pair
    is then PHI evolved forward == transpose of PHI evolved by the dual.
    """
    kernels = [torus_kernel(1, 3), torus_kernel(1, 4), complete_kernel(3), complete_kernel(4)]
    worst = 0.0
    for k in kernels:
        n_states = 2**k.n
        phi = np.empty((n_states, n_states))
        for s in range(n_states):
            for b in range(n_states):
                phi[s, b] = bin(s & b).count("1") & 1
        for alpha in (0.0, 0.3, 0.7):
            p = NPParams.symmetric(alpha)
            gf = build_generator_np(p, k)
            gd = build_generator_dual(p, k)
            for t in (0.1, 1.0, 5.0):
                lhs = semigroup_apply(gf, t, phi)
                rhs = semigroup_apply(gd, t, phi)
                worst = max(worst, float(np.abs(lhs - rhs.T).max()))
    _report("criterion-03 semigroup duality", worst < 1e-9,
            f"max residual {worst:.3e} over all (A,B), 4 kernels x 3 alphas x 3 times (tol 1e-9)")


# -- 4: parity-deviation product formula ---------------------------------------------


def test_criterion_04_parity_deviation_formula():
    """Closed-form parity deviation equals the 2^N enumeration."""
    rng = derive_stream(MASTER, "c4")
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(1, 13))
        u = rng.uniform(0.0, 1.0, size=n)
        if i % 5 == 0:  # exercise exact endpoints and the balanced point
            u[rng.integers(0, n)] = float(rng.choice([0.0, 0.5, 1.0]))
        worst = max(worst, abs(parity_deviation(u) - parity_deviation_enum(u)))
    _report("criterion-04 parity deviation", worst < 1e-12,
            f"max |product - enumeration| {worst:.3e} over 100 vectors, N<=12 (tol 1e-12)")


# -- 5: Bernoulli(1/2) invariance at alpha=0 -----------------------------------------


def test_criterion_05_bernoulli_invariance():
    """Annihilation-only flow preserves product Bernoulli(1/2) parity; duals never die."""
    k = torus_kernel(2, 4)
    p = NPParams.symmetric(0.0)
    reps, t_grid = 100_000, (1.0, 5.0)
    b_rng = derive_stream(MASTER, "c5-B")
    b_sets = [_random_sites(b_rng, k.n) for _ in range(10)]
    b_cols = np.stack([config_indicator(k.n, B) for B in b_sets], axis=1)
    hits = np.zeros((len(t_grid), 10), dtype=np.int64)
    dead_duals = 0
    table = EventTable.build(p, k)
    for i in range(reps):
        rng = derive_stream(MASTER, "c5-rep", i)
        log = sample_event_log(p, k, max(t_grid), rng, table=table)
        eta0 = (rng.random(k.n) < 0.5).astype(np.uint8)
        for ti, t in enumerate(t_grid):
            eta = replay_forward(eta0, log, t)
            hits[ti] += (b_cols.T @ eta) & 1
            dead_duals += int((~replay_dual(b_cols, log, t).any(axis=0)).sum())
    worst_z, worst_mean = 0.0, 0.5
    for ti in range(len(t_grid)):
        for j in range(10):
            est = MCEstimate.from_binary(int(hits[ti, j]), reps)
            z = abs(est.mean - 0.5) / est.stderr
            if z > worst_z:
                worst_z, worst_mean = z, est.mean
    _report("criterion-05 Bernoulli(1/2) invariance",
            worst_z < 3.0 and dead_duals == 0,
            f"worst |mean-1/2|/stderr {worst_z:.2f} (mean {worst_mean:.5f}) over 10 B x 2 times "
            f"at {reps} reps (threshold 3); dead duals {dead_duals} (must be 0)")


# -- 6: mean-field equilibrium -------------------------------------------------------


def test_criterion_06_meanfield_equilibrium():
    """ODE flow reaches the closed-form interior equilibrium to 1e-6."""
    rng = derive_stream(MASTER, "c6")
    worst = 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.75, 1.5))
        a01 = float(rng.uniform(0.0, 0.5 / lam))
        a10 = float(rng.uniform(0.0, 0.5 * lam))
        target = equilibrium(lam, a01, a10)
        rhs = bind_density_rhs(lam, a01, a10)
        for x0 in (0.3, 0.7):
            _, xs = integrate_ode(rhs, [x0], 200.0, dt=0.01)
            worst = max(worst, abs(float(xs[-1, 0]) - target))
    symmetric_exact = all(equilibrium(1.0, a, a) == 0.5 for a in (0.0, 0.3, 0.7, 0.99))
    _report("criterion-06 mean-field equilibrium",
            worst < 1e-6 and symmetric_exact,
            f"max |terminal - p0*| {worst:.3e} over 20 admissible triples x 2 starts (tol 1e-6); "
            f"symmetric case exactly 1/2: {symmetric_exact}")


# -- 7: complete-graph convergence probe ---------------------------------------------


def _lna_coefficients(p: NPParams, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drift slope G'(u) and per-site jump intensity D(u) of the density of ones.

    On the complete graph the density u drifts at G(u) = (1-alpha) u (1-u) (1-2u)
    and jumps by +-1/N at total rate N D(u), D(u) = (1-u) up(u) + u down(u).
    """
    up = flip_rates_all(p, np.zeros(u.shape, dtype=np.uint8), u)
    down = flip_rates_all(p, np.ones(u.shape, dtype=np.uint8), u)
    slope = (1.0 - p.alpha) * ((1.0 - 2.0 * u) ** 2 - 2.0 * u * (1.0 - u))
    return slope, (1.0 - u) * up + u * down


def _lna_recursion(slope: np.ndarray, intensity: np.ndarray, steps: np.ndarray,
                   n_paths: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Euler steps of dZ = G'(phi) Z dt + sqrt(D(phi)) dW from Z = 0.

    Z is the sqrt(N)-scaled gap between the chain's density and the ODE path
    phi; ``slope`` and ``intensity`` are taken at the left end of each step.
    Returns Z at the last grid point and the running sup of |Z|, per path.
    """
    z = np.zeros(n_paths)
    sup = np.zeros(n_paths)
    for a, d, h in zip(slope, intensity, steps):
        z += a * z * h + math.sqrt(d * h) * rng.standard_normal(n_paths)
        np.maximum(sup, np.abs(z), out=sup)
    return z, sup


def _lna_sup_median(p: NPParams, times: np.ndarray, path: np.ndarray,
                    rng: np.random.Generator) -> float:
    """Linear-noise constant c: the median sup-distance is near c / sqrt(N)."""
    slope, intensity = _lna_coefficients(p, path[:-1])
    _, sup = _lna_recursion(slope, intensity, np.diff(times), 20_000, rng)
    return float(np.median(sup))


def _median_rank_interval(n: int) -> tuple[int, int]:
    """1-based ranks (k, n+1-k) bracketing the median of n draws with prob >= 0.99.

    Distribution-free: the number of draws below the median is binomial(n, 1/2),
    so [X_(k), X_(n+1-k)] misses it with probability 2 P(Bin(n, 1/2) <= k-1).
    """
    tail = 0.0
    k = 0
    while 2.0 * (tail + math.comb(n, k) / 2.0**n) <= 0.01:
        tail += math.comb(n, k) / 2.0**n
        k += 1
    return k, n + 1 - k


def test_lna_recursion_stationary_variance():
    """At alpha=0.5 and u=1/2 the scaled variance relaxes to D/(2r) = (3/8)/(2/4) = 3/4."""
    p = NPParams.symmetric(0.5)
    n_steps, h, n_paths = 2_000, 0.01, 20_000
    slope, intensity = _lna_coefficients(p, np.full(n_steps, 0.5))
    assert slope[0] == -0.25 and intensity[0] == 0.375
    z, _ = _lna_recursion(slope, intensity, np.full(n_steps, h), n_paths,
                          derive_stream(MASTER, "lna-check"))
    var = float(z.var())
    stderr = 0.75 * math.sqrt(2.0 / n_paths)  # sd of a Gaussian sample variance
    assert abs(var - 0.75) < 4.0 * stderr, f"stationary variance {var:.4f}, expected 0.75"


def test_median_rank_interval():
    assert _median_rank_interval(200) == (82, 119)
    assert _median_rank_interval(100) == (37, 64)


def test_criterion_07_complete_graph_convergence():
    """Complete-graph density converges to the ODE with N^{-1/2} linear-noise fluctuations.

    The density of the N-vertex chain fluctuates around the ODE path at the
    CLT scale (Kurtz), so the median sup-distance is ~c/sqrt(N) rather than
    below any fixed bound at fixed N.  The constant c comes from the
    linear-noise approximation along the ODE path (c ~ 1.04 here); at N=200
    and N=800 the prediction c/sqrt(N) must lie inside the distribution-free
    99% rank interval for the median of the measured sup-distances, and at
    N=800 the median must also be under the 0.05 threshold.  The medians must
    decrease along N = 20/200/800.
    """
    p = NPParams.symmetric(0.5)
    reports = {}
    for n_vertices, reps in ((20, 100), (200, 200), (800, 100)):
        reports[n_vertices] = meanfield_comparator(n_vertices, p, 0.3, 3.0, reps,
                                                   derive_stream(MASTER, "c7", n_vertices))
    c = _lna_sup_median(p, reports[200].ode_times, reports[200].ode_path,
                        derive_stream(MASTER, "c7-lna"))
    ok = reports[20].median > reports[200].median > reports[800].median
    lines = []
    for n_vertices, rep in reports.items():
        predicted = c / math.sqrt(n_vertices)
        lo, hi = _median_rank_interval(len(rep.sup_distances))
        sups = np.sort(rep.sup_distances)
        inside = sups[lo - 1] <= predicted <= sups[hi - 1]
        if n_vertices >= 200:  # at N=20 the linear-noise scale is only rough
            ok = ok and inside
        lines.append(f"N={n_vertices}: median {rep.median:.4f} "
                     f"(sqrt(N)*median {math.sqrt(n_vertices) * rep.median:.3f}), "
                     f"predicted {predicted:.4f}, 99% interval ranks {lo}..{hi}: "
                     f"[{sups[lo - 1]:.4f}, {sups[hi - 1]:.4f}]")
    ok = ok and reports[800].median <= 0.05
    _report("criterion-07 complete-graph convergence", ok,
            f"alpha=0.5, density0=0.3, T=3, linear-noise c={c:.3f}; " + "; ".join(lines)
            + "; medians must decrease in N, prediction inside the interval at N>=200, "
            "N=800 median <= 0.05")


# -- 8: moment-duality generator battery ---------------------------------------------


def test_criterion_08_moment_generator_battery():
    """Closed-form generator action equals the walker route on both pairings."""
    torus, st = Torus(1, 8), Stencil.nearest_neighbor(1, 1.0)
    gap_db = generator_duality_battery("dbarw", [(s, 2.0) for s in (0.5, 1.0, 5.0)], 12_000,
                                       torus, st, seed=MASTER)
    bcrw_params = [(s, mu) for s in (-0.5, -1.0) for mu in (-1.0, -0.5, 0.0)]
    gap_bc = generator_duality_battery("bcrw", bcrw_params, 12_000, torus, st,
                                       seed=MASTER + 1)
    worst = max(gap_db, gap_bc)
    _report("criterion-08 moment generator battery", worst < 1e-10,
            f"max gap dbarw {gap_db:.3e} / bcrw {gap_bc:.3e} over 12000 pairs per pairing, "
            f"|xi|<=6 (tol 1e-10)")


# -- 9: moment-duality Monte Carlo ---------------------------------------------------


def test_criterion_09_moment_duality_mc():
    """Forward diffusion moments match dual walker moments within 4 sigma."""
    torus, st = Torus(1, 8), Stencil.nearest_neighbor(1, 1.0)
    reps, grid, xi0 = 100_000, (0.25, 0.5), {0: 2}
    settings = [
        ("s=0 mu=2", DiffusionParams(torus, st, s=0.0, mu=2.0, dt=0.002), np.full(8, 0.25)),
        ("s=1 mu=2", DiffusionParams(torus, st, s=1.0, mu=2.0, dt=0.002), np.full(8, 0.25)),
        ("s=-1 mu=-0.5", DiffusionParams(torus, st, s=-1.0, mu=-0.5, dt=0.002), np.full(8, 0.5)),
    ]
    worst_z = worst_steps = 0.0
    details = []
    for si, (label, params, p0) in enumerate(settings):
        rows = moment_duality_mc(params, p0, xi0, grid, reps=reps,
                                 master_seed=MASTER + 10 * si)
        for row in rows:
            worst_z = max(worst_z, abs(row["z"]), abs(row["z_half"]))
            worst_steps = max(worst_steps, abs(row["z_steps"]))
            details.append(f"{label} t={row['t']}: z={row['z']:.2f} "
                           f"z_half={row['z_half']:.2f} z_steps={row['z_steps']:.2f}")
    print("    " + "; ".join(details))
    _report("criterion-09 moment duality MC",
            worst_z < 4.0 and worst_steps < 2.0,
            f"worst |z| {worst_z:.2f} (threshold 4) at {reps} reps/side; "
            f"worst dt-vs-dt/2 |z| {worst_steps:.2f} (within errors: < 2)")


# -- 10: walker invariants -----------------------------------------------------------


def test_criterion_10_walker_invariants():
    """Parity conservation, coalescent collapse, and branching immortality."""
    torus, st = Torus(1, 8), Stencil.nearest_neighbor(1, 1.0)
    parity_violations = 0
    for i in range(10_000):
        run = simulate_walker(DBARW(branch_rate=0.5), {0: 2, 3: 1}, torus, st, 5.0,
                              derive_stream(MASTER, "c10-dbarw", i), cap=200)
        parity_violations += int(run.parity_changed)
    crw_not_one = 0
    for i in range(1_000):
        run = simulate_walker(CRW(), {x: 1 for x in range(5)}, torus, st, 200.0,
                              derive_stream(MASTER, "c10-crw", i))
        crw_not_one += int(sum(run.final_counts.values()) != 1)
    bcrw_dead = 0
    for i in range(10_000):
        run = simulate_walker(BCRW(s=-0.5, mu=-0.5), {0: 2}, torus, st, 20.0,
                              derive_stream(MASTER, "c10-bcrw", i), cap=64)
        bcrw_dead += int(run.extinction_time is not None)
    ok = parity_violations == 0 and crw_not_one == 0 and bcrw_dead == 0
    _report("criterion-10 walker invariants", ok,
            f"DBARW parity violations {parity_violations}/10000; "
            f"CRW terminal count != 1 in {crw_not_one}/1000 (T=200, 5 particles); "
            f"BCRW extinctions {bcrw_dead}/10000 (T=20)")


# -- 11: coexistence / extinction probes ---------------------------------------------


def test_criterion_11_coexistence_and_extinction_probes():
    """Strong selection: survival and heterozygosity bounded away from zero;
    negative selection: forward moments below the dual bound and decreasing."""
    st = Stencil.nearest_neighbor(1, 1.0)
    co = coexistence_probe(20.0, Torus(1, 32), st, master_seed=MASTER,
                           reps_het=500, reps_surv=50, cap=2000, dt=2e-3)
    ex = extinction_probe(-1.0, -0.5, Torus(1, 16), st, p0_value=0.5, xi0={0: 2},
                          eps=0.1, grid=(1.0, 2.0, 5.0, 10.0),
                          reps_fwd=4000, reps_dual=10_000, master_seed=MASTER, dt=1e-3)
    ok = (co.survival_lcb99 > 0.0 and co.het_lcb99 > 0.0
          and ex.forward_below_bound and ex.forward_decreasing and ex.dual_decreasing)
    _report("criterion-11 coexistence/extinction probes", ok,
            f"s=20: survival LCB99 {co.survival_lcb99:.3f}, heterozygosity LCB99 "
            f"{co.het_lcb99:.3f} (both must be > 0); s=-1: forward below dual bound "
            f"{ex.forward_below_bound}, forward decreasing {ex.forward_decreasing}, "
            f"bound decreasing {ex.dual_decreasing}")


# -- 12: determinism under threading -------------------------------------------------


def test_criterion_12_thread_determinism(tmp_path):
    """Same config and seed, different --threads: byte-identical outputs."""
    outs = []
    for threads, sub in ((1, "a"), (4, "b")):
        out = tmp_path / sub
        cli_main(["parity-check", "--seed", "90125", "--reps", "600",
                  "--threads", str(threads), "--out", str(out),
                  "--set", "kernel.d=2", "--set", "kernel.L=4",
                  "--set", "params.alpha=0.3",
                  "--set", "run.A=0,5,10", "--set", "run.B=3,4", "--set", "run.T=2"])
        outs.append(out)
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    _report("criterion-12 thread determinism",
            not mismatch and not errors and match == names,
            f"{len(match)}/{len(names)} files byte-identical across --threads 1 vs 4 "
            f"({', '.join(names)}); mismatches {mismatch or 'none'}")
