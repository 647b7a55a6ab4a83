"""Output checks for the benchmark steps, and the oracles they compare against.

Every check reads what an ``ipsd`` subcommand wrote under ``--out`` and
tests it against a property of the method (a conserved parity, an
absorbing state, a symmetry, a closed form) or against a computation made
here without the program (the mean-field equilibrium, a linear-noise
prediction, a recomputed z score).  No check compares with a stored copy
of an earlier output.

A check returns a small dict of the quantities it measured, so that a run
report shows how far each one sits from its threshold, and raises
:class:`CheckFailed` when an output is wrong.  Checks take the step's
options as ``{section: {key: value}}`` strings, the same form the INI
configs have, so that overridden sizes are checked as run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

Z_LIMIT = 4.0             # |z| bound of the Monte Carlo comparisons (criteria 1, 9)
ODE_TOL = 1e-6            # criterion 6: ODE terminal against the closed-form p0*
GENERATOR_GAP = 1e-12     # criterion 2
FK_RESIDUAL = 1e-9        # criterion 3
MOMENT_GAP = 1e-10        # criterion 8
MEDIAN_LEVEL = 1e-6       # two-sided level of the comparator's median interval
LNA_SLACK = 0.05          # relative allowance for the linear-noise approximation at finite N
LNA_PATHS = 20_000
LNA_SEED = 20180228       # the oracle's own stream; it does not depend on --seed


class CheckFailed(AssertionError):
    """An ipsd output broke a property the method guarantees."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _floats(spec: str) -> list[float]:
    return [float(tok) for tok in spec.split(",") if tok.strip()]


def _counts(spec: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for tok in spec.split(","):
        tok = tok.strip()
        if tok:
            site, _, cnt = tok.partition(":")
            out[int(site)] = out.get(int(site), 0) + int(cnt or 1)
    return out


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def read_table(path: Path) -> dict[str, np.ndarray]:
    """A CSV written by ipsd as {column: float array}."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=np.float64)
    data = data.reshape(len(lines) - 1, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def _z(mean_a: float, se_a: float, mean_b: float, se_b: float) -> float:
    denom = math.hypot(se_a, se_b)
    diff = mean_a - mean_b
    if denom == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / denom


def _by_replicate(table: dict[str, np.ndarray], column: str) -> np.ndarray:
    """(replicate, time) matrix from a replicate-major long table."""
    reps = int(table["replicate"].max()) + 1
    values = table[column]
    _require(len(values) % reps == 0, f"{column}: ragged replicate table")
    return values.reshape(reps, -1)


def meanfield_equilibrium(lam: float, a01: float, a10: float) -> float:
    """p0* = (1 - lam a01) / ((1 - lam a01) + (lam - a10))."""
    a = 1.0 - lam * a01
    return a / (a + (lam - a10))


# -- spin-torus -------------------------------------------------------------------


def check_spin_run(out: Path, options: dict, oracle=None) -> dict:
    """Terminal density from a Bernoulli(1/2) start has mean 1/2 (0<->1 symmetry)."""
    p = options["params"]
    _require(p.get("alpha") is not None and options["run"]["init"] == "bernoulli:0.5",
             "spin-run check needs the symmetric model from a fair-coin start")
    table = read_table(out / "spin_density.csv")
    terminal = table["density"][table["time"] == table["time"].max()]
    _require(len(terminal) >= 2, "spin-run: fewer than two terminal densities")
    mean = float(terminal.mean())
    se = float(terminal.std(ddof=1)) / math.sqrt(len(terminal))
    z = _z(mean, se, 0.5, 0.0)
    _require(abs(z) < Z_LIMIT, f"spin-run: terminal density {mean:.5f} is {z:.2f} stderr from 1/2")
    reported = read_json(out / "spin-run.json")["terminal_density"]["mean"]
    _require(abs(reported - mean) <= 1e-12,
             f"spin-run: reported mean {reported!r} differs from the table's {mean!r}")
    return {"terminal_mean": mean, "z": z}


def check_dual_run(out: Path, options: dict, oracle=None) -> dict:
    """Dual sizes keep the parity of |B|, and the empty set is absorbing."""
    B = {int(tok) for tok in options["run"]["b"].split(",") if tok.strip()}
    sizes = _by_replicate(read_table(out / "dual_sizes.csv"), "size")
    wrong_parity = int(((sizes.astype(np.int64) - len(B)) % 2 != 0).sum())
    _require(wrong_parity == 0, f"dual-run: {wrong_parity} sizes break the parity of |B|={len(B)}")
    revived = int(((sizes[:, :-1] == 0) & (sizes[:, 1:] > 0)).sum())
    _require(revived == 0, f"dual-run: {revived} duals left the absorbing empty set")
    survival = (sizes >= 1).mean(axis=0)
    _require(bool((np.diff(survival) <= 0).all()), f"dual-run: survival increases: {survival}")
    reported = read_table(out / "dual_survival.csv")["estimate"]
    _require(np.array_equal(reported, survival),
             f"dual-run: reported survival {reported} differs from the sizes' {survival}")
    return {"survival": survival.tolist(), "replicates": len(sizes)}


def check_parity_check(out: Path, options: dict, oracle=None) -> dict:
    """No pathwise parity violation; forward and fresh-dual ensembles agree."""
    path = read_table(out / "parity_pathwise.csv")
    violations = int((path["parity_forward"] != path["parity_dual"]).sum())
    _require(violations == 0, f"parity-check: {violations} pathwise violations")
    report = read_json(out / "parity-check.json")
    _require(report["violations"] == 0, f"parity-check: reported {report['violations']} violations")
    mc = read_table(out / "parity_mc.csv")
    z = _z(mc["estimate"][0], mc["stderr"][0], mc["estimate"][1], mc["stderr"][1])
    _require(abs(z) < Z_LIMIT, f"parity-check: forward and dual differ, z={z:.2f}")
    _require(abs(report["z"]) < Z_LIMIT and abs(report["z"] - z) <= 1e-9,
             f"parity-check: reported z {report['z']!r}, recomputed {z!r}")
    return {"pathwise_pairs": len(path["parity_forward"]), "z": z}


def check_exact_check(out: Path, options: dict, oracle=None) -> dict:
    """Generator routes agree to 1e-12; Feynman-Kac residual at most 1e-9."""
    report = read_json(out / "exact-check.json")
    kernels = [tok for tok in options["run"]["kernels"].split(",") if tok.strip()]
    alphas = _floats(options["run"]["alphas"])
    battery = report["battery"]
    _require(len(battery) == len(kernels) * len(alphas),
             f"exact-check: {len(battery)} battery rows for {len(kernels)}x{len(alphas)} cases")
    gap = max(row["generator_gap"] for row in battery)
    res = max(row["fk_residual"] for row in battery)
    _require(gap <= GENERATOR_GAP and report["max_generator_gap"] <= GENERATOR_GAP,
             f"exact-check: generator gap {max(gap, report['max_generator_gap']):.3e}")
    _require(res <= FK_RESIDUAL and report["max_fk_residual"] <= FK_RESIDUAL,
             f"exact-check: Feynman-Kac residual {max(res, report['max_fk_residual']):.3e}")
    return {"generator_gap": gap, "fk_residual": res}


# -- complete-graph ---------------------------------------------------------------


def _binom_tail(n: int, k: int, x: float) -> float:
    """P(Binomial(n, x) >= k)."""
    return sum(math.comb(n, j) * x**j * (1.0 - x) ** (n - j) for j in range(k, n + 1))


def _order_stat_quantile(n: int, k: int, level: float) -> float:
    """x with P(U_(k) <= x) = level for the k-th of n uniform order statistics."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _binom_tail(n, k, mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def linear_noise_sups(alpha: float, density0: float, horizon: float, dt: float = 1e-3,
                      paths: int = LNA_PATHS) -> np.ndarray:
    """sup_t |Z_t| over Euler paths of the linear-noise approximation.

    On the complete graph the density of ones u follows
    u' = G(u) = (1-alpha) u (1-u) (1-2u) (RK4 here), and sqrt(N) times the
    chain's gap to it follows dZ = G'(u) Z dt + sqrt(D(u)) dW, with per-site
    jump intensity D(u) = (1-u) up(u) + u down(u), up(u) = (1-u+alpha u) u,
    down(u) = (u + alpha (1-u)) (1-u).  Rates are written out here from the
    model definition; nothing is taken from ipsd.
    """
    def g(u):
        return (1.0 - alpha) * u * (1.0 - u) * (1.0 - 2.0 * u)

    steps = int(round(horizon / dt))
    u = [density0]
    for _ in range(steps):
        x = u[-1]
        k1 = g(x)
        k2 = g(x + 0.5 * dt * k1)
        k3 = g(x + 0.5 * dt * k2)
        k4 = g(x + dt * k3)
        u.append(x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
    u = np.array(u[:-1])
    slope = (1.0 - alpha) * ((1.0 - 2.0 * u) ** 2 - 2.0 * u * (1.0 - u))
    up = (1.0 - u + alpha * u) * u
    down = (u + alpha * (1.0 - u)) * (1.0 - u)
    scale = np.sqrt(((1.0 - u) * up + u * down) * dt)
    rng = np.random.default_rng(LNA_SEED)
    z = np.zeros(paths)
    sup = np.zeros(paths)
    for i in range(steps):
        z += slope[i] * z * dt + scale[i] * rng.standard_normal(paths)
        np.maximum(sup, np.abs(z), out=sup)
    return sup


def comparator_oracle(options: dict) -> dict:
    """Interval for sqrt(N) x the median sup-distance, from the linear-noise law.

    The median of R replicates is the ((R+1)/2)-th order statistic (the mean
    of the two middle ones for even R), so F(median) follows a Beta law under
    the linear-noise distribution F of sqrt(N) x sup-distance.  Its
    two-sided MEDIAN_LEVEL quantiles, mapped through F's empirical quantiles
    and widened by LNA_SLACK, bound sqrt(N) x median.
    """
    p = options["params"]
    alpha = float(p["alpha"])
    density0 = 1.0 - float(options["run"]["p0"])
    horizon = float(options["run"]["compare_t"])
    reps = int(options["run"]["reps"])
    sups = linear_noise_sups(alpha, density0, horizon)
    lo_q = _order_stat_quantile(reps, reps // 2 + reps % 2, MEDIAN_LEVEL / 2.0)
    hi_q = _order_stat_quantile(reps, reps // 2 + 1, 1.0 - MEDIAN_LEVEL / 2.0)
    return {"c": float(np.median(sups)),
            "low": float(np.quantile(sups, lo_q)) * (1.0 - LNA_SLACK),
            "high": float(np.quantile(sups, hi_q)) * (1.0 + LNA_SLACK)}


def check_meanfield(out: Path, options: dict, oracle: dict) -> dict:
    """Closed-form equilibrium; median sup-distance on the N^{-1/2} linear-noise scale."""
    report = read_json(out / "meanfield.json")
    alpha = float(options["params"]["alpha"])
    p_star = meanfield_equilibrium(1.0, alpha, alpha)
    _require(abs(report["equilibrium"] - p_star) <= 1e-12,
             f"meanfield: equilibrium {report['equilibrium']!r}, closed form {p_star!r}")
    n_vertices = int(options["run"]["compare_n"])
    scaled = math.sqrt(n_vertices) * report["comparator_median_sup"]
    _require(oracle["low"] <= scaled <= oracle["high"],
             f"meanfield: sqrt(N) x median sup-distance {scaled:.4f} outside the linear-noise "
             f"interval [{oracle['low']:.4f}, {oracle['high']:.4f}] (c={oracle['c']:.4f})")
    return {"sqrtN_median": scaled, "lna_c": oracle["c"],
            "interval": [oracle["low"], oracle["high"]]}


def check_sweep(out: Path, options: dict, oracle=None) -> dict:
    """Each swept ODE run ends within criterion 6's 1e-6 of p0*."""
    report = read_json(out / "sweep.json")
    section, key = options["sweep"]["vary"].split(".")
    values = [tok.strip() for tok in options["sweep"]["values"].split(",") if tok.strip()]
    _require([r["value"] for r in report["reports"]] == values,
             f"sweep: reported values {[r['value'] for r in report['reports']]} != {values}")
    worst = 0.0
    for entry in report["reports"]:
        params = dict(options["params"])
        params[key] = entry["value"]
        p_star = meanfield_equilibrium(float(params["lam"]), float(params["alpha01"]),
                                       float(params["alpha10"]))
        gap = abs(entry["report"]["terminal"] - p_star)
        _require(gap <= ODE_TOL, f"sweep: {key}={entry['value']} ends {gap:.3e} from p0*={p_star}")
        _require(abs(entry["report"]["equilibrium"] - p_star) <= 1e-12,
                 f"sweep: {key}={entry['value']} reports equilibrium {entry['report']['equilibrium']!r}")
        worst = max(worst, gap)
    return {"max_terminal_gap": worst}


# -- lattice-moments --------------------------------------------------------------


def check_diffusion_run(out: Path, options: dict, oracle=None) -> dict:
    """At mu = 2 from a constant 1/2 start, E p_t = 1/2 by the mirror symmetry."""
    _require(float(options["model"]["mu"]) == 2.0 and options["run"]["init"] == "const:0.5",
             "diffusion-run check needs mu = 2 and a constant 1/2 start")
    reps = int(options["run"]["reps"])
    rows = read_table(out / "diffusion_summary.csv")
    _require(len(rows["t"]) == len(_floats(options["run"]["grid"])), "diffusion-run: missing rows")
    _require(bool((rows["var_p"] > 0).all()), "diffusion-run: zero variance")
    ratio = np.abs(rows["mean_p"] - 0.5) / np.sqrt(rows["var_p"] / reps)
    _require(bool((ratio <= Z_LIMIT).all()),
             f"diffusion-run: mean_p off 1/2 by {ratio.max():.2f} x sqrt(var_p/reps)")
    return {"max_ratio": float(ratio.max())}


def check_walker_run(out: Path, options: dict, oracle=None) -> dict:
    """DBARW totals keep the parity of xi0; extinction is absorbing."""
    _require(options["walker"]["kind"] == "dbarw", "walker-run check is for DBARW")
    parity0 = sum(_counts(options["run"]["xi0"]).values()) % 2
    cap = int(options["run"]["cap"])
    totals = _by_replicate(read_table(out / "walker_sizes.csv"), "total").astype(np.int64)
    uncapped = totals <= cap
    broken = int((uncapped & (totals % 2 != parity0)).sum())
    _require(broken == 0, f"walker-run: {broken} uncapped totals change parity")
    revived = int(((totals[:, :-1] == 0) & (totals[:, 1:] > 0)).sum())
    _require(revived == 0, f"walker-run: {revived} walkers came back from extinction")
    return {"uncapped_totals": int(uncapped.sum()), "capped_totals": int((~uncapped).sum())}


def check_moment_check(out: Path, options: dict, oracle=None) -> dict:
    """Generator duality to 1e-10, and both forward step sizes agree with the dual."""
    report = read_json(out / "moment-check.json")
    _require(report["passed"] is True, "moment-check: not passed")
    gap = report["generator_gap"]
    _require(gap is not None and gap <= MOMENT_GAP, f"moment-check: generator gap {gap!r}")
    worst = 0.0
    for row in report["rows"]:
        d = row["dual"]
        for side in ("forward", "forward_half"):
            f = row[side]
            z = _z(f["mean"], f["stderr"], d["mean"], d["stderr"])
            _require(abs(z) < Z_LIMIT, f"moment-check: t={row['t']} {side} vs dual z={z:.2f}")
            worst = max(worst, abs(z))
    return {"generator_gap": gap, "max_abs_z": worst}


def check_extinct_probe(out: Path, options: dict, oracle=None) -> dict:
    """Forward moments under the dual bound; both decrease along the grid."""
    report = read_json(out / "extinct-probe.json")
    _require(report["passed"] is True, "extinct-probe: not passed")
    rows = report["rows"]
    zs = [_z(r["forward"]["mean"], r["forward"]["stderr"],
             r["dual_bound"]["mean"], r["dual_bound"]["stderr"]) for r in rows]
    _require(max(zs) <= 3.0, f"extinct-probe: forward above the dual bound, z={max(zs):.2f}")
    for side in ("forward", "dual_bound"):
        means = [r[side]["mean"] for r in rows]
        _require(all(b < a for a, b in zip(means, means[1:])), f"extinct-probe: {side} not decreasing")
    return {"max_z": max(zs)}


def check_coexist_probe(out: Path, options: dict, oracle=None) -> dict:
    """Both 99% lower bounds positive; the second-moment bound holds."""
    report = read_json(out / "coexist-probe.json")
    _require(report["passed"] is True, "coexist-probe: not passed")
    _require(report["het_lcb99"] > 0.0 and report["survival_lcb99"] > 0.0,
             "coexist-probe: a lower confidence bound is zero")
    # sigma^2 <= (1-2 kappa)^2 inside (kappa, 1-kappa) and <= 1 outside, replicate by
    # replicate, so the sample mean obeys the bound at the sample heterozygosity exactly.
    _require(report["sigma_sq"]["mean"] <= report["sigma_sq_bound"] + 1e-12,
             f"coexist-probe: E sigma^2 {report['sigma_sq']['mean']!r} above its bound")
    return {"het_lcb99": report["het_lcb99"], "survival_lcb99": report["survival_lcb99"]}
