"""Command-line interface.

    ipsd SUBCOMMAND [--config PATH] [--seed U64] [--reps N] [--out DIR]
                    [--threads N] [--set section.key=value ...]

Subcommands: spin-run, dual-run, parity-check, exact-check, meanfield,
diffusion-run, walker-run, moment-check, coexist-probe, extinct-probe,
sweep.  Values come from the INI config file (see configs/ for examples),
overridden by repeated ``--set`` flags; the master seed resolves as
--seed > config [run] seed > the IPSD_SEED environment variable.

Outputs are CSV tables plus one JSON report per run, written under --out
(default ``ipsd-results``).  Output bytes are a pure function of the
configuration and seed: worker count and wall clock never enter them.  The
``ipsd`` command reports a refused value, a missing key or an unreadable
config file as the one line ``ipsd: error: <message>`` and exits with
status 2, as argparse does for a bad flag.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import sys
from collections.abc import Callable
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import DiffusionParams, ensemble_observable
from .dualspin import ZBDistribution, evug_statistic, parity_duality_mc
from .exact import (MAX_EXACT_SITES, MAX_FK_WORK, build_generator_dual,
                    build_generator_from_events, build_generator_np, feynman_kac_check,
                    fk_check_work)
from .harness import (RunConfig, check_grid, check_horizon, format_float, load_config_file,
                      read_option, replicate_map, resolve_seed, write_csv, write_json)
from .kernel import (Kernel, complete_kernel, config_all, config_bernoulli, config_indicator,
                     explicit_kernel, torus_kernel)
from .lattice import Stencil, Torus, check_torus
from .meanfield import (COMPARATOR_DT, MAX_COMPARATOR_JUMPS, MAX_COMPARATOR_VERTICES,
                        MAX_ODE_STEPS, bind_density_rhs, comparator_jumps_bound, equilibrium,
                        integrate_ode, meanfield_comparator, ode_steps_bound)
from .momdual import (_check_coexist_args, _check_extinct_args, coexistence_probe,
                      extinction_probe, generator_duality_battery, moment_duality_mc, pairing)
from .rng import derive_stream
from .spin import SPIN_CHUNK, NPParams, simulate_gillespie
from .stats import MCEstimate, wilson_lower
from .walkers import BCRW, CRW, DBARW, check_chunk_cells, count_row, walker_ensemble


# -- config plumbing -----------------------------------------------------------
# Each cast below names the form it reads in its docstring, which a refusal
# quotes (harness._cast).  A subcommand reads and checks every value by key,
# then returns its run, a function of no arguments: no engine runs and no
# file is written until every value is read.

Run = Callable[[], dict]


def _parse_sites(cfg: RunConfig, key: str, n_sites: int) -> list[int]:
    """Site set [run] key: comma-separated distinct integers in [0, n_sites)."""
    sites = cfg.opt_list("run", key, cast=int)
    if not all(0 <= x < n_sites for x in sites) or len(set(sites)) < len(sites):
        raise ValueError(f"run.{key} must list distinct nonnegative sites < {n_sites}, got {sites}")
    return sites


def _parse_grid(cfg: RunConfig, key: str, default: list[float],
                horizon: float | None = None) -> list[float]:
    """The times of [run] key, sorted, as :func:`check_grid` allows; ``default`` when absent.

    With a ``horizon``, an entry past run.t is refused.
    """
    if key not in cfg.options.get("run", {}):
        return default
    return check_grid(cfg.opt_list("run", key, cast=float), f"run.{key}", horizon, "run.t")


def _parse_horizon(cfg: RunConfig, default: float, key: str = "t") -> float:
    """The time [run] key (run.t unless named), as :func:`check_horizon` allows."""
    return check_horizon(cfg.opt("run", key, default, float), f"run.{key}")


def _parse_p0(cfg: RunConfig, below: float | None = None) -> float:
    """The frequency [run] p0: in [0, 1], or in [0, below) when ``below`` is given."""
    p0 = cfg.opt("run", "p0", 0.5, float)
    if not (0.0 <= p0 <= 1.0 if below is None else 0.0 <= p0 < below):
        span = "[0, 1]" if below is None else f"[0, 1 - run.eps) = [0, {below})"
        raise ValueError(f"run.p0 must lie in {span}, got {p0}")
    return p0


def _parse_cap(cfg: RunConfig, default: int) -> int:
    """The walker-total cap [run] cap, at least 1."""
    cap = cfg.opt("run", "cap", default, int)
    if cap < 1:
        raise ValueError(f"run.cap must be at least 1, got {cap}")
    return cap


def _site_count(n_sites: int, tok: str) -> tuple[int, int]:
    """site or site:count, with a site of the torus and a positive count"""
    site, count = map(int, tok.split(":", 1) if ":" in tok else (tok, "1"))
    if not (0 <= site < n_sites and count > 0):
        raise ValueError(tok)
    return site, count


def _parse_counts(cfg: RunConfig, n_sites: int, default: list | None = None) -> dict[int, int]:
    """Particles of [run] xi0, "site:count,..." (count default 1), on sites [0, n_sites)."""
    out: dict[int, int] = {}
    for site, count in cfg.opt_list("run", "xi0", default, partial(_site_count, n_sites)):
        out[site] = out.get(site, 0) + count
    return out


def _edge(tok: str) -> tuple[int, int, float]:
    """x,y,weight with integer sites and a numeric weight"""
    x, y, w = tok.split(",")
    return int(x), int(y), float(w)


def _torus_size(cfg: RunConfig, section: str) -> tuple[int, int]:
    """d and L of [section], the site count L^d refused by key before anything is built."""
    d, L = cfg.opt(section, "d", 1, int), cfg.opt(section, "l", 8, int)
    check_torus(d, L, (f"{section}.d", f"{section}.l"))
    return d, L


def _build_kernel(cfg: RunConfig) -> Kernel:
    ktype = cfg.opt("kernel", "type", "torus")
    if ktype == "torus":
        return torus_kernel(*_torus_size(cfg, "kernel"))
    if ktype == "complete":
        return complete_kernel(cfg.opt("kernel", "n", 8, int))
    if ktype == "explicit":
        return explicit_kernel(cfg.opt("kernel", "n", cast=int),
                               cfg.opt_list("kernel", "edges", cast=_edge, sep=";"))
    raise ValueError(f"kernel.type must be torus, complete or explicit, got {ktype!r}")


def _build_params(cfg: RunConfig) -> NPParams:
    sec = cfg.options.get("params", {})
    if "alpha" in sec:
        for key in ("lam", "alpha01", "alpha10"):
            if key in sec:
                raise ValueError(f"params.alpha and params.{key} are both set; "
                                 f"params.alpha fixes the symmetric model, so set one or the other")
        return NPParams.symmetric(cfg.opt("params", "alpha", cast=float))
    return NPParams(lam=cfg.opt("params", "lam", 1.0, float),
                    alpha01=cfg.opt("params", "alpha01", 0.0, float),
                    alpha10=cfg.opt("params", "alpha10", 0.0, float))


def _stencil(d: int, spec: str) -> Stencil:
    """nn:RATE with a finite nonnegative RATE"""
    kind, rate = spec.split(":")
    if kind != "nn":
        raise ValueError(spec)
    return Stencil.nearest_neighbor(d, float(rate))


def _build_lattice(cfg: RunConfig) -> tuple[Torus, Stencil]:
    torus = Torus(*_torus_size(cfg, "lattice"))
    return torus, cfg.opt("model", "m", Stencil.nearest_neighbor(torus.d),
                          partial(_stencil, torus.d))


def _spin_init(n: int, spec: str) -> float | np.ndarray:
    """all0, all1, bernoulli:u with u in [0, 1], or indicator:x1,x2,... with sites of the kernel"""
    kind, _, arg = spec.partition(":")
    if spec in ("all0", "all1"):
        return config_all(n, int(spec[-1]))
    if kind == "bernoulli" and 0.0 <= float(arg) <= 1.0:
        return float(arg)
    if kind == "indicator":
        return config_indicator(n, [int(tok) for tok in arg.split(",") if tok.strip()])
    raise ValueError(spec)


def _field_init(spec: str) -> float | None:
    """const:v with v in [0, 1], or uniform"""
    if spec == "uniform":
        return None
    kind, v = spec.split(":")
    if kind != "const" or not 0.0 <= float(v) <= 1.0:
        raise ValueError(spec)
    return float(v)


def _build_diffusion(cfg: RunConfig) -> DiffusionParams:
    torus, stencil = _build_lattice(cfg)
    return DiffusionParams(
        torus=torus,
        stencil=stencil,
        s=cfg.opt("model", "s", 0.0, float),
        mu=cfg.opt("model", "mu", 0.0, float),
        noise_n=cfg.opt("model", "noise_n", 1.0, float),
        dt=cfg.opt("model", "dt", 1e-3, float),
    )


# -- chunk workers (module level so process pools can pickle them) -------------


def _spin_chunk(p, k, init, horizon, grid, size, rng):
    """Grid densities, terminal density and flip count of each run, from one engine call."""
    # init is a Bernoulli parameter, drawn from once per run, or one shared start
    eta0 = (np.stack([config_bernoulli(k.n, init, rng) for _ in range(size)])
            if isinstance(init, float) else np.tile(init, (size, 1)))
    traj = simulate_gillespie(p, k, eta0, horizon, rng)
    dens = traj.density_at([*grid, horizon])
    return dens[:, :-1], dens[:, -1], np.bincount(traj.rows, minlength=size)


def _site_and_mean(site, fields):
    """Focal-site value and spatial mean of each field in a batch; shape (b, 2)."""
    flat = fields.reshape(fields.shape[0], -1)
    return np.stack([flat[:, site], flat.mean(axis=1)], axis=1)


def _replicate_table(reps: int, grid, *values) -> list:
    """Columns replicate, time and ``values`` (reps, len(grid)) raveled; times formatted once."""
    times = [format_float(t) for t in grid] * reps
    return [np.repeat(np.arange(reps), len(grid)), times, *(v.ravel() for v in values)]


def _estimate_columns(ts, ests) -> list:
    """Columns t, estimate, stderr and reps of a table of MCEstimates at the times ``ts``."""
    return [list(ts), [e.mean for e in ests], [e.stderr for e in ests], [e.reps for e in ests]]


# -- subcommands ----------------------------------------------------------------


def cmd_spin_run(cfg: RunConfig) -> Run:
    p = _build_params(cfg)
    k = _build_kernel(cfg)
    horizon = _parse_horizon(cfg, 10.0)
    grid = _parse_grid(cfg, "grid", [horizon * j / 20.0 for j in range(21)], horizon)
    init = cfg.opt("run", "init", 0.5, partial(_spin_init, k.n))

    def run() -> dict:
        dens, terminal, flips = replicate_map(partial(_spin_chunk, p, k, init, horizon, grid),
                                              cfg.reps, cfg.seed, "spin-run", SPIN_CHUNK,
                                              cfg.threads)
        write_csv(cfg.out / "spin_density.csv", ["replicate", "time", "density"],
                  _replicate_table(cfg.reps, grid, dens))
        est = MCEstimate.from_samples(terminal)
        return {"terminal_density": est, "kernel_sites": k.n, "horizon": horizon,
                "flips": int(flips.sum())}
    return run


def cmd_dual_run(cfg: RunConfig) -> Run:
    p = _build_params(cfg)
    k = _build_kernel(cfg)
    horizon = _parse_horizon(cfg, 10.0)
    grid = _parse_grid(cfg, "grid", [horizon], horizon)
    B = _parse_sites(cfg, "b", k.n)
    cap = _parse_cap(cfg, 10)

    def run() -> dict:
        sizes, rows, log_events = evug_statistic(p, k, B, grid, cap, cfg.reps, cfg.seed,
                                                 "dual-run", cfg.threads)
        write_csv(cfg.out / "dual_sizes.csv", ["replicate", "t", "size"],
                  _replicate_table(cfg.reps, grid, sizes.astype(np.int64)))
        write_csv(cfg.out / "dual_survival.csv", ["t", "estimate", "stderr", "reps"],
                  _estimate_columns([row["t"] for row in rows], [row["survival"] for row in rows]))
        zb = ZBDistribution.from_samples(sizes[:, -1], cap=cap)
        return {"rows": rows, "cap": cap,
                "terminal_size_atoms": {int(s): float(q) for s, q in zip(zb.sizes, zb.probs)},
                "terminal_overflow_mass": zb.infinite_mass, "log_events": log_events}
    return run


def cmd_parity_check(cfg: RunConfig) -> Run:
    p = _build_params(cfg)
    k = _build_kernel(cfg)
    horizon = _parse_horizon(cfg, 5.0)
    A = _parse_sites(cfg, "a", k.n)
    B = _parse_sites(cfg, "b", k.n)

    def run() -> dict:
        mc = parity_duality_mc(p, k, A, B, horizon, cfg.reps, cfg.seed, "parity-check",
                               cfg.threads)
        write_csv(cfg.out / "parity_pathwise.csv",
                  ["replicate", "t", "parity_forward", "parity_dual"],
                  _replicate_table(cfg.reps, mc["times"], mc["pathwise_forward"].astype(np.int64),
                                   mc["pathwise_dual"].astype(np.int64)))
        write_csv(cfg.out / "parity_mc.csv", ["t", "estimate", "stderr", "reps"],
                  _estimate_columns([horizon] * 2, [mc["forward"], mc["dual"]]))
        return {"violations": mc["violations"], "forward": mc["forward"],
                "dual_chain": mc["dual"], "z": mc["z"],
                "passed": mc["violations"] == 0 and abs(mc["z"]) < 4.0,
                "log_events": mc["log_events"]}
    return run


def _exact_kernel(tok: str) -> tuple[str, list[int], partial]:
    """torus:d:L or complete:n with integer sizes"""
    kind, *dims = tok.split(":")
    dims = [int(size) for size in dims]
    if kind == "torus" and len(dims) == 2:
        return tok, dims, partial(torus_kernel, *dims)
    if kind == "complete" and len(dims) == 1:
        return tok, dims, partial(complete_kernel, *dims)
    raise ValueError(tok)


def _exact_sites(tok: str, dims: list[int], build: partial) -> tuple[str, int, partial]:
    """A parsed run.kernels token with its site count, a torus's L^d bounded before it is
    formed; outside the cast, whose refusal would name only the token's form."""
    if len(dims) == 1:
        return tok, dims[0], build
    try:
        check_torus(*dims)
    except ValueError as err:
        raise ValueError(f"run.kernels {tok}: {err}") from None
    return tok, dims[1] ** dims[0], build


def cmd_exact_check(cfg: RunConfig) -> Run:
    alphas = _parse_grid(cfg, "alphas", [0.0, 0.3, 0.7])
    tgrid = _parse_grid(cfg, "tgrid", [0.1, 1.0, 5.0])
    default = [_exact_kernel(tok) for tok in ("torus:1:3", "torus:1:4", "complete:3", "complete:4")]
    parsed = [_exact_sites(*kernel) for kernel in cfg.opt_list("run", "kernels", default,
                                                                _exact_kernel)]
    # every kernel and the work budget are checked before any generator is built
    for tok, n, _ in parsed:
        if n > MAX_EXACT_SITES:
            raise ValueError(f"kernel {tok} has {n} sites; exact checks allow at most "
                             f"{MAX_EXACT_SITES}")
    work = len(alphas) * sum(fk_check_work(n, t) for _, n, _ in parsed for t in tgrid)
    if work > MAX_FK_WORK:
        raise ValueError(f"run.tgrid projects {work:.4g} multiply-adds of uniformization series "
                         f"over run.kernels and run.alphas; the limit is {MAX_FK_WORK:.4g}")
    kernels = [(tok, build()) for tok, _, build in parsed]

    def run() -> dict:
        battery = []
        max_gap = 0.0
        max_res = 0.0
        for name, k in kernels:
            for alpha in alphas:
                p = NPParams.symmetric(alpha)
                g_np = build_generator_np(p, k)
                g_ev = build_generator_from_events(p, k)
                gap = float(np.abs(g_np.matrix - g_ev.matrix).max())
                g_dual = build_generator_dual(p, k)
                res = max(feynman_kac_check(g_np, g_dual, t) for t in tgrid)
                battery.append({"kernel": name, "alpha": alpha,
                                "generator_gap": gap, "fk_residual": res})
                max_gap = max(max_gap, gap)
                max_res = max(max_res, res)
        return {"max_generator_gap": max_gap, "max_fk_residual": max_res, "battery": battery}
    return run


def cmd_meanfield(cfg: RunConfig) -> Run:
    p = _build_params(cfg)
    p0 = _parse_p0(cfg)
    horizon = _parse_horizon(cfg, 50.0)
    compare_t = _parse_horizon(cfg, 3.0, "compare_t")
    dt = cfg.opt("run", "dt", 1e-3, float)
    if not 0.0 < dt < np.inf:
        raise ValueError(f"run.dt must be finite and positive, got {dt}")
    steps = ode_steps_bound(horizon, dt)
    if steps > MAX_ODE_STEPS:
        raise ValueError(f"run.t and run.dt project {steps:.4g} RK4 steps; the limit is "
                         f"{MAX_ODE_STEPS:.4g}")
    stride = cfg.opt("run", "stride", 100, int)
    if stride < 1:
        raise ValueError(f"run.stride must be at least 1, got {stride}")
    n_vertices = cfg.opt("run", "compare_n", 0, int)
    if n_vertices and n_vertices < 2:
        raise ValueError(f"run.compare_n must be 0 (no comparison) or at least 2, got {n_vertices}")
    if n_vertices > MAX_COMPARATOR_VERTICES:
        raise ValueError(f"run.compare_n must be at most {MAX_COMPARATOR_VERTICES}, "
                         f"got {n_vertices}")
    work = comparator_jumps_bound(n_vertices, p, compare_t, cfg.reps)
    if work > MAX_COMPARATOR_JUMPS:
        raise ValueError(f"run.compare_n projects {work:.4g} count-chain jumps over "
                         f"run.compare_t and run.reps; the limit is {MAX_COMPARATOR_JUMPS:.4g}")
    steps = ode_steps_bound(compare_t, COMPARATOR_DT)
    if n_vertices and steps > MAX_ODE_STEPS:
        raise ValueError(f"run.compare_t projects {steps:.4g} RK4 steps of the comparator's ODE "
                         f"at dt = {COMPARATOR_DT}; the limit is {MAX_ODE_STEPS:.4g}")

    eq = equilibrium(p.lam, p.alpha01, p.alpha10)
    # the ODE has no draws, so it runs while reading: a step too coarse for
    # RK4 is refused before any point of a sweep runs, and only the rows
    # the CSV keeps are held until then
    try:
        ts, xs = integrate_ode(bind_density_rhs(p.lam, p.alpha01, p.alpha10), [p0], horizon,
                               dt=dt, self_check=True)
    except ArithmeticError as err:  # the closed-form check, or a division by zero off [0, 1]
        raise ValueError(f"run.dt = {dt} is too coarse for RK4 on the density ODE: {err}") from None
    kept = sorted({*range(0, len(ts), stride), len(ts) - 1})  # each stride-th and the last
    path, terminal = [ts[kept], xs[kept, 0]], float(xs[-1, 0])

    def run() -> dict:
        write_csv(cfg.out / "meanfield_path.csv", ["t", "p0"], path)
        payload = {"equilibrium": eq, "terminal": terminal, "terminal_gap": abs(terminal - eq)}
        if n_vertices:
            rep = meanfield_comparator(n_vertices, p, 1.0 - p0, compare_t, cfg.reps,
                                       derive_stream(cfg.seed, "meanfield-compare"))
            payload["comparator_median_sup"] = rep.median
            payload["comparator_jumps"] = rep.jumps
            payload["comparator_steps"] = rep.steps
        return payload
    return run


def cmd_diffusion_run(cfg: RunConfig) -> Run:
    params = _build_diffusion(cfg)
    horizon = _parse_horizon(cfg, 1.0)
    grid = _parse_grid(cfg, "grid", [horizon * j / 10.0 for j in range(1, 11)], horizon)
    init = cfg.opt("run", "init", 0.5, _field_init)  # None: iid U[0, 1]
    kappa = cfg.opt("run", "kappa", 0.1, float)
    if not 0.0 < kappa < 0.5:
        raise ValueError(f"run.kappa must lie in (0, 1/2), got {kappa}")
    site = cfg.opt("run", "site", 0, int)
    if not 0 <= site < params.torus.n_sites:
        raise ValueError(f"run.site must lie in [0, {params.torus.n_sites}), got {site}")

    def run() -> dict:
        p0 = (np.full(params.torus.shape, init) if init is not None
              else derive_stream(cfg.seed, "diffusion-init").random(params.torus.shape))
        vals = ensemble_observable(params, p0, grid, partial(_site_and_mean, site),
                                   cfg.reps, cfg.seed, "diffusion-site", cfg.threads)
        report = [{"t": t, "mean_p": float(mean_vals.mean()), "var_p": float(site_vals.var(ddof=1)),
                   "het_stat": float(((site_vals > kappa) & (site_vals < 1.0 - kappa)).mean())}
                  for t, (site_vals, mean_vals) in zip(grid, vals)]
        header = ["t", "mean_p", "var_p", "het_stat"]
        write_csv(cfg.out / "diffusion_summary.csv", header,
                  [[row[key] for row in report] for key in header])
        return {"rows": report, "site": site, "kappa": kappa}
    return run


def cmd_walker_run(cfg: RunConfig) -> Run:
    torus, stencil = _build_lattice(cfg)
    kind_name = cfg.opt("walker", "kind", "crw")
    if kind_name == "crw":
        kind = CRW()
    elif kind_name == "dbarw":
        kind = DBARW(branch_rate=cfg.opt("walker", "branch_rate", cast=float))
    elif kind_name == "bcrw":
        kind = BCRW(s=cfg.opt("walker", "s", cast=float), mu=cfg.opt("walker", "mu", cast=float))
    else:
        raise ValueError(f"walker.kind must be crw, dbarw or bcrw, got {kind_name!r}")
    xi0 = _parse_counts(cfg, torus.n_sites)
    horizon = _parse_horizon(cfg, 10.0)
    grid = _parse_grid(cfg, "grid", [horizon], horizon)
    cap = _parse_cap(cfg, 100000)
    # a start over the cap, or a chunk over MAX_CHUNK_CELLS, is refused here
    count_row(xi0, torus, cap)
    check_chunk_cells(cfg.reps, torus.n_sites, len(grid))

    def run() -> dict:
        runs = walker_ensemble(kind, xi0, torus, stencil, grid, cap, cfg.reps, cfg.seed,
                               "walker-run", cfg.threads)
        write_csv(cfg.out / "walker_sizes.csv", ["replicate", "t", "total", "occupied_sites"],
                  _replicate_table(cfg.reps, grid, runs.sizes.astype(np.int64),
                                   runs.observed.astype(np.int64)))
        surv = MCEstimate.from_samples(runs.alive)
        return {"survival": surv,
                "survival_lcb99": wilson_lower(int(runs.alive.sum()), cfg.reps, 0.99),
                "cap_fraction": float(runs.capped.mean()), "kind": kind_name,
                "walker_events": int(runs.events.sum())}
    return run


def cmd_moment_check(cfg: RunConfig) -> Run:
    params = _build_diffusion(cfg)
    if params.noise_n != 1.0:  # every walker dual pairs with the N = 1 diffusion
        raise ValueError(f"model.noise_n must be 1 for moment-check, got {params.noise_n}")
    # "auto" resolved, and a regime without a walker dual refused, while reading
    regime = pairing(params.s, params.mu, cfg.opt("run", "regime", "auto"))[0]
    grid = _parse_grid(cfg, "grid", [0.25, 0.5])
    xi0 = _parse_counts(cfg, params.torus.n_sites, [(0, 2)])
    p0 = np.full(params.torus.shape, _parse_p0(cfg))
    cap = _parse_cap(cfg, 100000)
    # a start over the cap, or a chunk over MAX_CHUNK_CELLS, is refused here
    count_row(xi0, params.torus, cap)
    check_chunk_cells(cfg.reps, params.torus.n_sites, len(grid))

    def run() -> dict:
        rows = moment_duality_mc(params, p0, xi0, grid, cfg.reps, cfg.seed, regime=regime,
                                 cap=cap, threads=cfg.threads)
        ok = all(abs(r["z"]) < 4.0 and abs(r["z_half"]) < 4.0 for r in rows)
        gap = generator_duality_battery(regime, [(params.s, params.mu)], 200,
                                        params.torus, params.stencil, cfg.seed)
        return {"rows": rows, "passed": ok, "generator_gap": gap,
                "walker_events": rows[0]["walker_events"]}
    return run


def _probe_report(probe) -> dict:
    """Run a probe whose arguments are all read; its report, with its verdict."""
    rep = probe()
    return {**vars(rep), "passed": rep.passed}


def cmd_coexist_probe(cfg: RunConfig) -> Run:
    torus, stencil = _build_lattice(cfg)
    args = dict(s=cfg.opt("model", "s", cast=float), torus=torus,
                t_het=_parse_horizon(cfg, 10.0, "t_het"),
                horizon_surv=_parse_horizon(cfg, 50.0, "t_surv"),
                kappa=cfg.opt("run", "kappa", 0.1, float),
                reps_het=cfg.opt("run", "reps_het", cfg.reps, int),
                reps_surv=cfg.opt("run", "reps_surv", cfg.reps, int),
                cap=_parse_cap(cfg, 2000))
    dt = cfg.opt("model", "dt", 1e-3, float)
    _check_coexist_args(**args)
    return partial(_probe_report, partial(coexistence_probe, **args, stencil=stencil,
                                          master_seed=cfg.seed, dt=dt, threads=cfg.threads))


def cmd_extinct_probe(cfg: RunConfig) -> Run:
    torus, stencil = _build_lattice(cfg)
    # default margin 0.1: the weak Euler scheme overestimates the forward
    # moment at late grid times (by about 0.006 at t = 10 in the shipped
    # config), and a tight margin puts the bound below that (see README)
    eps = cfg.opt("run", "eps", 0.1, float)
    if not 0.0 < eps < 1.0:  # a NaN fails too
        raise ValueError(f"run.eps must lie in (0, 1), got {eps}")
    args = dict(s=cfg.opt("model", "s", cast=float), mu=cfg.opt("model", "mu", cast=float),
                torus=torus,
                p0_value=_parse_p0(cfg, 1.0 - eps),
                xi0=_parse_counts(cfg, torus.n_sites, [(0, 1)]),
                eps=eps,
                grid=_parse_grid(cfg, "grid", [1.0, 2.0, 5.0, 10.0]),
                reps_fwd=cfg.opt("run", "reps_fwd", cfg.reps, int),
                reps_dual=cfg.opt("run", "reps_dual", cfg.reps, int),
                cap=_parse_cap(cfg, 400))
    dt = cfg.opt("model", "dt", 1e-3, float)
    _check_extinct_args(**args)
    return partial(_probe_report, partial(extinction_probe, **args, stencil=stencil,
                                          master_seed=cfg.seed, dt=dt, threads=cfg.threads))


_COMMANDS = {
    "spin-run": cmd_spin_run,
    "dual-run": cmd_dual_run,
    "parity-check": cmd_parity_check,
    "exact-check": cmd_exact_check,
    "meanfield": cmd_meanfield,
    "diffusion-run": cmd_diffusion_run,
    "walker-run": cmd_walker_run,
    "moment-check": cmd_moment_check,
    "coexist-probe": cmd_coexist_probe,
    "extinct-probe": cmd_extinct_probe,
}


def _values(chunk: str) -> list[str]:
    """a nonempty comma-separated list of values"""
    values = [tok.strip() for tok in chunk.split(",") if tok.strip()]
    if not values:
        raise ValueError(chunk)
    return values


def cmd_sweep(cfg: RunConfig) -> Run:
    """Repeat a subcommand over the Cartesian product of value lists.

    ``vary`` names one or more section.key entries, comma-separated;
    ``values`` holds one comma-separated list per key, the lists separated
    by ";".  Points run in row-major order of ``vary`` (the last key varies
    fastest) and are labelled by their values joined with ";".  Every
    point's configuration is merged and read, with the checks each
    subcommand makes while reading, before the first point runs.
    """
    target = cfg.opt("sweep", "over")
    if target not in _COMMANDS:
        raise ValueError(f"sweep target must be one of {sorted(_COMMANDS)}")
    names = cfg.opt_list("sweep", "vary")
    for name in names:
        if "." not in name:
            raise ValueError(f"sweep.vary must be section.key, got {name!r}")
    lists = cfg.opt_list("sweep", "values", cast=_values, sep=";")
    if len(lists) != len(names):
        raise ValueError(f"sweep.values has {len(lists)} value lists for {len(names)} "
                         f"sweep.vary keys")
    points = []
    for point in itertools.product(*lists):
        sub_options = {s: dict(kv) for s, kv in cfg.options.items()}
        for name, val in zip(names, point):
            section, key = name.split(".", 1)
            # lower-cased as config files and --set store keys
            sub_options.setdefault(section, {})[key.lower()] = val
        subdir = ",".join(f"{name.replace('.', '_')}={val}" for name, val in zip(names, point))
        sub = RunConfig(subcommand=target, seed=cfg.seed, reps=cfg.reps,
                        out=cfg.out / subdir, threads=cfg.threads, options=sub_options)
        points.append((";".join(point), sub, _COMMANDS[target](sub)))
    vary = cfg.opt("sweep", "vary")

    def run() -> dict:
        reports = []
        csv_rows = []
        for label, sub, run_point in points:
            payload = run_point()
            write_json(sub.out / f"{target}.json", payload, sub)
            reports.append({"value": label, "report": payload})
            for path, num in _numeric_leaves(payload):
                csv_rows.append((label, path, num))
        write_csv(cfg.out / "sweep.csv", ["value", "metric", "metric_value"],
                  [[row[i] for row in csv_rows] for i in range(3)])
        return {"over": target, "vary": vary, "values": [r["value"] for r in reports],
                "reports": reports}
    return run


def _numeric_leaves(obj, prefix=""):
    out = []
    if isinstance(obj, MCEstimate):
        out.append((f"{prefix}.mean".lstrip("."), obj.mean))
        out.append((f"{prefix}.stderr".lstrip("."), obj.stderr))
    elif isinstance(obj, (int, float, np.floating, np.integer)):  # bool is an int
        out.append((prefix, float(obj)))
    elif isinstance(obj, dict):
        for kk, vv in obj.items():
            out.extend(_numeric_leaves(vv, f"{prefix}.{kk}".lstrip(".")))
    elif isinstance(obj, (list, tuple)):
        for i, vv in enumerate(obj):
            out.extend(_numeric_leaves(vv, f"{prefix}[{i}]"))
    return out


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ipsd", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"ipsd {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="INI config file")
    common.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    common.add_argument("--reps", type=int, default=None, help="replicate count")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--threads", type=int, default=None, help="worker processes")
    common.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in list(_COMMANDS) + ["sweep"]:
        sub.add_parser(name, parents=[common])
    return parser


def _merge_config(args) -> RunConfig:
    options = load_config_file(args.config) if args.config else {}
    for item in args.set:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"--set expects section.key=value, got {item!r}")
        lhs, value = item.split("=", 1)
        section, key = lhs.split(".", 1)
        options.setdefault(section.strip(), {})[key.strip().lower()] = value.strip()
    run_sec = options.get("run", {})
    seed = resolve_seed(args.seed, run_sec.get("seed"))
    reps = args.reps if args.reps is not None else read_option(options, "run", "reps", 1000, int)
    threads = (args.threads if args.threads is not None
               else read_option(options, "run", "threads", 1, int))
    out = args.out if args.out is not None else Path(run_sec.get("out", "ipsd-results"))
    return RunConfig(subcommand=args.subcommand, seed=seed, reps=reps,
                     out=out, threads=threads, options=options)


@cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`, built once per process: a parse leaves the parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _merge_config(args)
    fn = cmd_sweep if cfg.subcommand == "sweep" else _COMMANDS[cfg.subcommand]
    payload = fn(cfg)()
    path = write_json(cfg.out / f"{cfg.subcommand}.json", payload, cfg)
    print(f"wrote {path}")
    return 0


def console(argv=None) -> int:
    """The ``ipsd`` command: :func:`main`, with a refused input printed as one line, exit 2."""
    try:
        return main(argv)
    except (ValueError, KeyError, OSError, configparser.Error) as err:
        # a KeyError's str() quotes its message
        print(f"ipsd: error: {err.args[0] if isinstance(err, KeyError) else err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
