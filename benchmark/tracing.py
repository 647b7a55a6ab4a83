"""Span tracing of ipsd's public functions, installed from outside the package.

:class:`Tracer` rebinds each traced function wherever ipsd imported it (a
module attribute that *is* the function), and methods on their class, to
a wrapper that records one span: name, parent, start and end in
perf_counter nanoseconds, and counts taken from the call's arguments or
result.  Spans stay in memory until :meth:`Tracer.write`.

Times are derived from spans in two ways:

* self time: a span's duration minus the time its child spans cover;
* own-layer time: self time plus the own-layer time of children in the same
  layer, i.e. the call's duration minus what it spent in other layers.

``<layer>.self_s`` sums self time over a layer.  A unit cost such as
``walkers.us_per_event`` divides the own-layer time of the calls that do
that work by the count they report, so time a walker run spends building
its move table stays with the lattice layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "harness", "rng", "kernel", "lattice", "spin", "dualspin", "exact",
          "meanfield", "diffusion", "walkers", "momdual")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _events_up_to(args, kwargs, result):
    log, t = _arg(args, kwargs, 1, "log"), _arg(args, kwargs, 2, "t")
    return {"events": log.count_up_to(t)}


def _rk4_steps(horizon: float, step: float) -> int:
    """Steps integrate_ode's loop takes for one step size (same float arithmetic)."""
    t, n = 0.0, 0
    while t < horizon - 1e-15:
        t += min(step, horizon - t)
        n += 1
    return n


def _ode_steps(args, kwargs, result):
    horizon = _arg(args, kwargs, 2, "horizon")
    dt = kwargs.get("dt", args[3] if len(args) > 3 else 1e-3)
    steps = _rk4_steps(horizon, dt)
    if kwargs.get("self_check", args[4] if len(args) > 4 else False):
        steps += _rk4_steps(horizon, dt / 2.0)
    return {"steps": steps}


def _table_key(args, kwargs, result):
    p, k = _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "k")   # args[0] is the class
    digest = hashlib.sha1(k.indices.tobytes() + k.weights.tobytes()).hexdigest()
    return {"rows": len(result.rates), "key": f"{p}|{k.n}|{digest}"}


def _walker_run(args, kwargs, result):
    return {"events": result.n_events, "cap_hit": int(result.cap_time is not None)}


# (layer, module, attribute or Class.method, counts from (args, kwargs, result))
TARGETS = (
    ("cli", "ipsd.cli", "main", None),
    ("harness", "ipsd.harness", "load_config_file", None),
    ("harness", "ipsd.harness", "write_csv", lambda a, k, r: {"bytes": Path(r).stat().st_size}),
    ("harness", "ipsd.harness", "write_json", lambda a, k, r: {"bytes": Path(r).stat().st_size}),
    ("rng", "ipsd.rng", "derive_stream", None),
    ("kernel", "ipsd.kernel", "torus_kernel", lambda a, k, r: {"edges": len(r.indices)}),
    ("kernel", "ipsd.kernel", "complete_kernel", lambda a, k, r: {"edges": len(r.indices)}),
    ("kernel", "ipsd.kernel", "explicit_kernel", lambda a, k, r: {"edges": len(r.indices)}),
    ("lattice", "ipsd.lattice", "Torus.move_table",
     lambda a, k, r: {"key": f"{a[0]}|{_arg(a, k, 1, 'stencil')}"}),
    ("spin", "ipsd.spin", "simulate_gillespie", lambda a, k, r: {"flips": len(r)}),
    ("spin", "ipsd.spin", "SpinTrajectory.density_path", None),
    ("spin", "ipsd.spin", "EventTable.build", _table_key),
    ("spin", "ipsd.spin", "sample_event_log", lambda a, k, r: {"events": len(r)}),
    ("spin", "ipsd.spin", "replay_forward", _events_up_to),
    ("spin", "ipsd.spin", "replay_forward_batch", _events_up_to),
    ("dualspin", "ipsd.dualspin", "simulate_dual_fresh", None),
    ("dualspin", "ipsd.dualspin", "replay_dual", _events_up_to),
    ("dualspin", "ipsd.dualspin", "replay_dual_batch", _events_up_to),
    ("exact", "ipsd.exact", "build_generator_np", None),
    ("exact", "ipsd.exact", "build_generator_from_events", None),
    ("exact", "ipsd.exact", "build_generator_dual", None),
    ("exact", "ipsd.exact", "semigroup_apply", None),
    ("exact", "ipsd.exact", "feynman_kac_check", None),
    ("meanfield", "ipsd.meanfield", "integrate_ode", _ode_steps),
    ("meanfield", "ipsd.meanfield", "meanfield_comparator", None),
    ("diffusion", "ipsd.diffusion", "em_step", lambda a, k, r: {"site_steps": r.size}),
    ("diffusion", "ipsd.diffusion", "ensemble_observable", None),
    ("walkers", "ipsd.walkers", "simulate_walker", _walker_run),
    ("walkers", "ipsd.walkers", "walker_rates", None),
    ("walkers", "ipsd.walkers", "apply_transition", None),
    ("walkers", "ipsd.walkers", "survival_probability", None),
    ("momdual", "ipsd.momdual", "generator_duality_battery",
     lambda a, k, r: {"pairs": _arg(a, k, 2, "n_pairs")}),
    ("momdual", "ipsd.momdual", "gen_sigma_on_H", None),
    ("momdual", "ipsd.momdual", "gen_p_on_H", None),
    ("momdual", "ipsd.momdual", "gen_walker_on_H", None),
    ("momdual", "ipsd.momdual", "moment_duality_mc", None),
    ("momdual", "ipsd.momdual", "coexistence_probe", None),
    ("momdual", "ipsd.momdual", "extinction_probe", None),
)

GENERATORS = ("build_generator_np", "build_generator_from_events", "build_generator_dual")
KERNELS = ("torus_kernel", "complete_kernel", "explicit_kernel")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "rng.streams": "count", "rng.us_per_stream": "us",
    "kernel.edges": "count", "kernel.build_s": "s",
    "lattice.move_tables": "count", "lattice.distinct_move_tables": "count",
    "lattice.move_table_us": "us",
    "spin.flips": "count", "spin.us_per_flip": "us",
    "spin.table_builds": "count", "spin.distinct_tables": "count",
    "spin.table_rows": "count", "spin.table_build_s": "s",
    "spin.log_events": "count", "spin.log_us_per_event": "us",
    "spin.replay_ns_per_event": "ns",
    "dualspin.fresh_us_per_event": "us", "dualspin.replay_ns_per_event": "ns",
    "exact.generators": "count", "exact.generator_build_ms": "ms",
    "exact.semigroup_calls": "count", "exact.semigroup_ms": "ms",
    "meanfield.rk4_steps": "count", "meanfield.rk4_us_per_step": "us",
    "meanfield.comparator_s": "s",
    "diffusion.site_steps": "count", "diffusion.em_ns_per_site_step": "ns",
    "walkers.runs": "count", "walkers.events": "count", "walkers.us_per_event": "us",
    "walkers.cap_hits": "count",
    "momdual.battery_pairs": "count", "momdual.battery_us_per_pair": "us",
    "harness.bytes_written": "bytes", "harness.write_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


class Tracer:
    """Records spans around ipsd's public functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (parent, name, layer, start_ns, end_ns, counts)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (parent, name, layer, start, end, None)
            if count is not None:
                spans[sid] = (parent, name, layer, start, end, count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded ipsd module (import ipsd.cli first)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ipsd" or n.startswith("ipsd.")) and m is not None]
        for layer, module_name, attr, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, attr, raw.__func__, count))
                else:
                    new = self._wrap(layer, attr, raw, count)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(module, attr)
            new = self._wrap(layer, attr, orig, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: Path) -> None:
        """All spans as CSV: span,parent,name,layer,start_ns,end_ns,counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span,parent,name,layer,start_ns,end_ns,counts\n")
            for sid, (parent, name, layer, start, end, counts) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{layer},{start},{end},"
                         f"{json.dumps(counts, separators=(';', ':')) if counts else ''}\n")


def layer_metrics(spans: list[tuple], first: int = 0) -> dict[str, float]:
    """Per-layer metrics of spans[first:] (one round; parents precede children)."""
    sub = spans[first:]
    n = len(sub)
    parent = [p - first if p >= first else -1 for p, *_ in sub]
    dur = [end - start for _, _, _, start, end, _ in sub]
    own = list(dur)
    for i in range(n):
        if parent[i] >= 0:
            own[parent[i]] -= dur[i]
    self_ns = list(own)
    for i in range(n - 1, -1, -1):   # children before parents
        p = parent[i]
        if p >= 0 and sub[p][2] == sub[i][2]:
            own[p] += own[i]

    time_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    keys: dict[str, set] = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    fresh_events = 0
    for i, (_, name, layer, _, _, c) in enumerate(sub):
        time_ns[name] = time_ns.get(name, 0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        layer_self[layer] += self_ns[i]
        for key, value in (c or {}).items():
            if key == "key":
                keys.setdefault(name, set()).add(value)
            else:
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "sample_event_log" and parent[i] >= 0 and sub[parent[i]][1] == "simulate_dual_fresh":
            fresh_events += c["events"]

    def t(*names):
        return sum(time_ns.get(nm, 0) for nm in names)

    def k(name):
        return calls.get(name, 0)

    def c(key):
        return counts.get(key, 0)

    def per(total_ns, count, scale):
        return total_ns / scale / count if count else 0.0

    replay_fwd = c("replay_forward.events") + c("replay_forward_batch.events")
    replay_dual = c("replay_dual.events") + c("replay_dual_batch.events")
    out = {
        "rng.streams": k("derive_stream"),
        "rng.us_per_stream": per(t("derive_stream"), k("derive_stream"), 1e3),
        "kernel.edges": sum(c(f"{nm}.edges") for nm in KERNELS),
        "kernel.build_s": t(*KERNELS) / 1e9,
        "lattice.move_tables": k("Torus.move_table"),
        "lattice.distinct_move_tables": len(keys.get("Torus.move_table", ())),
        "lattice.move_table_us": per(t("Torus.move_table"), k("Torus.move_table"), 1e3),
        "spin.flips": c("simulate_gillespie.flips"),
        "spin.us_per_flip": per(t("simulate_gillespie"), c("simulate_gillespie.flips"), 1e3),
        "spin.table_builds": k("EventTable.build"),
        "spin.distinct_tables": len(keys.get("EventTable.build", ())),
        "spin.table_rows": c("EventTable.build.rows"),
        "spin.table_build_s": t("EventTable.build") / 1e9,
        "spin.log_events": c("sample_event_log.events"),
        "spin.log_us_per_event": per(t("sample_event_log"), c("sample_event_log.events"), 1e3),
        "spin.replay_ns_per_event": per(t("replay_forward", "replay_forward_batch"), replay_fwd, 1.0),
        "dualspin.fresh_us_per_event": per(t("simulate_dual_fresh"), fresh_events, 1e3),
        "dualspin.replay_ns_per_event": per(t("replay_dual", "replay_dual_batch"), replay_dual, 1.0),
        "exact.generators": sum(k(nm) for nm in GENERATORS),
        "exact.generator_build_ms": per(t(*GENERATORS), sum(k(nm) for nm in GENERATORS), 1e6),
        "exact.semigroup_calls": k("semigroup_apply"),
        "exact.semigroup_ms": per(t("semigroup_apply"), k("semigroup_apply"), 1e6),
        "meanfield.rk4_steps": c("integrate_ode.steps"),
        "meanfield.rk4_us_per_step": per(t("integrate_ode"), c("integrate_ode.steps"), 1e3),
        "meanfield.comparator_s": sum(dur[i] for i, s in enumerate(sub)
                                      if s[1] == "meanfield_comparator") / 1e9,
        "diffusion.site_steps": c("em_step.site_steps"),
        "diffusion.em_ns_per_site_step": per(t("em_step"), c("em_step.site_steps"), 1.0),
        "walkers.runs": k("simulate_walker"),
        "walkers.events": c("simulate_walker.events"),
        "walkers.us_per_event": per(t("simulate_walker"), c("simulate_walker.events"), 1e3),
        "walkers.cap_hits": c("simulate_walker.cap_hit"),
        "momdual.battery_pairs": c("generator_duality_battery.pairs"),
        "momdual.battery_us_per_pair": per(t("generator_duality_battery"),
                                           c("generator_duality_battery.pairs"), 1e3),
        "harness.bytes_written": c("write_csv.bytes") + c("write_json.bytes"),
        "harness.write_s": t("write_csv", "write_json") / 1e9,
    }
    out.update({f"{layer}.self_s": ns / 1e9 for layer, ns in layer_self.items()})
    return out
