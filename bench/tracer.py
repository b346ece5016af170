"""Span tracing of the weierforms layers, installed from outside the package.

Each traced callable is replaced by a wrapper that records a span: id, parent
span, thread, name, start and end (perf_counter_ns), and an optional detail
taken from the call's arguments.  The parent is the innermost open span of
the same thread, so spans made in the suite thread pool are roots of their
own threads.  Spans are kept in memory and written out by the caller.

Module-level functions are rebound in every weierforms module that imported
them by name, so calls between modules are seen too.  A target that does not
exist (a function a later version removed) is skipped.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

ASPECT_SPLIT = 2.0


def _lattice_detail(args, kwargs):
    """Period ratio of a lattice argument, for repeated-tau and Im-tau shares."""
    lat = args[0] if args else kwargs["lat"]
    return complex(lat.omega1) / complex(lat.omega2)


def _shell_sum_detail(args, kwargs):
    """(points, aspect |omega1|/|omega2| of the summed basis, at least 1)."""
    lat, n = args[0], args[2] if len(args) > 2 else kwargs["n_shells"]
    a, b = abs(lat.omega1), abs(lat.omega2)
    n = int(n)
    return ((2 * n + 1) ** 2 - 1, max(a, b) / min(a, b))


def _suite_detail(args, kwargs):
    return args[0] if args else kwargs.get("name")


# (module, attribute path, span name, detail)
TARGETS = (
    ("shells", "plan_truncation", "shells.plan", None),
    ("shells", "shell_sum", "shells.sum", _shell_sum_detail),
    ("lattice", "reduce_tau_matrix", "lattice.reduce_tau", None),
    ("lattice", "Lattice.lagrange_reduced", "lattice.lagrange", None),
    ("lattice", "Lattice.reduce_point", "lattice.reduce_point", None),
    ("lattice", "Lattice.__post_init__", "lattice.construct", None),
    ("trig", "wp_strip", "trig.wp_strip", None),
    ("trig", "wzeta_strip", "trig.wzeta_strip", None),
    ("trig", "eta_pair_strip", "trig.eta_pair", None),
    ("evaluate", "wp", "evaluate.wp", None),
    ("evaluate", "wzeta", "evaluate.wzeta", None),
    ("evaluate", "wp_lattice", "evaluate.wp_lattice", _lattice_detail),
    ("evaluate", "wzeta_lattice", "evaluate.wzeta_lattice", _lattice_detail),
    ("evaluate", "eta12", "evaluate.eta12", None),
    ("evaluate", "shell_value", "evaluate.shell_value", None),
    ("evaluate", "describe_route", "evaluate.describe_route", None),
    ("forms", "eval_f", "forms.eval_f", None),
    ("forms", "eval_g", "forms.eval_g", None),
    ("forms", "eval_h", "forms.eval_h", None),
    ("forms", "eval_hU", "forms.eval_hU", None),
    ("forms", "slash", "forms.slash", None),
    ("forms", "FormSpec.evaluate", "forms.FormSpec.evaluate", None),
    ("cusp", "lattice_row_sum_truncated", "cusp.row_sum", None),
    ("cusp", "cusp_report", "cusp.report", None),
    ("cusp", "lemma_eies_bound", "cusp.eies_bound", None),
    ("cusp", "verify_zeta2_recovery", "cusp.zeta2_recovery", None),
    ("cusp", "cusp_value_f_series", "cusp.f_series", None),
    ("arith", "zeta_r_enclosure", "arith.zeta_enclosure", None),
    ("verify", "run_suite", "verify.run_suite", _suite_detail),
    ("cli", "main", "cli.main", None),
)

# lru caches whose hit ratios are reported: (module, attribute, metric prefix)
CACHES = (
    ("trig", "eta_pair_strip", "trig.eta_pair"),
    ("evaluate", "_eta12_cached", "evaluate.eta12"),
)


class Tracer:
    def __init__(self, package: str = "weierforms"):
        self.package = package
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def _wrap(self, fn, name, detail):
        ids, local, spans = self._ids, self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            info = None
            if detail is not None:
                try:
                    info = detail(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError):
                    pass  # a changed signature loses the detail, not the call
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, t0, t1, info))

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names skipped."""
        skipped = []
        modules = self._modules()
        for mod_name, path, name, detail in TARGETS:
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                skipped.append(name)
                continue
            wrapped = self._wrap(original, name, detail)
            if owner_path:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)
        return skipped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _lru(fn):
    """The functools.lru_cache object behind ``fn``, through trace wrappers."""
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


def lru_caches(package: str = "weierforms") -> list:
    """Every lru cache held by a module of the package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for val in list(vars(mod).values()):
            cache = _lru(val) if callable(val) else None
            if cache is not None and getattr(cache, "__module__", "").startswith(package):
                found[id(cache)] = cache
    return list(found.values())


def cache_stats(package: str = "weierforms") -> dict[str, tuple[int, int]]:
    """(hits, misses) of each reported lru cache that exists."""
    out = {}
    for mod_name, attr, prefix in CACHES:
        cache = _lru(getattr(sys.modules.get(f"{package}.{mod_name}"), attr, None))
        if cache is not None:
            ci = cache.cache_info()
            out[prefix] = (ci.hits, ci.misses)
    return out


def im_tau_decade(im: float) -> str:
    """Name of the decade of Im tau: lt_1e-3, 1e-3, ..., 1e0, ge_1e1."""
    if im < 1e-3:
        return "lt_1e-3"
    for lo in ("1e-3", "1e-2", "1e-1", "1e0"):
        if im < 10.0 * float(lo):
            return lo
    return "ge_1e1"


IM_TAU_DECADES = ("lt_1e-3", "1e-3", "1e-2", "1e-1", "1e0", "ge_1e1")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, passes: int, cache: dict, suite_names) -> tuple[dict, dict]:
    """Per-layer metrics, {name: (value, unit)}, and property shares of the
    workload, {name: value}, from the spans of ``passes`` traced passes.

    The dispatch shares count wp_lattice/wzeta_lattice calls: how many repeat
    an earlier period ratio of the pass (what the quasi-period caches can
    reuse), and how they spread over Im-tau decades.

    Counts are per pass; times are per call or per evaluation.  An
    evaluation is an evaluate-layer span whose parent is not one (the same
    for the forms layer).  Self time is a span's duration minus that of its
    children.
    """
    by_id = {s[0]: s for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[1]:
            child_ns[s[1]] += s[5] - s[4]
    count: dict[str, int] = defaultdict(int)
    incl: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    outer: dict[str, int] = defaultdict(int)
    suite_ns: dict[str, int] = defaultdict(int)
    for sid, parent, _, name, t0, t1, info in spans:
        count[name] += 1
        incl[name] += t1 - t0
        own = t1 - t0 - child_ns[sid]
        self_ns[name] += own
        layer = _layer(name)
        layer_self[layer] += own
        if not parent or _layer(by_id[parent][3]) != layer:
            outer[layer] += 1
        if name == "verify.run_suite":
            suite_ns[info] += t1 - t0

    def per_call(name, scale):
        return incl[name] / count[name] / scale if count[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    sums = [s[6] for s in spans if s[3] == "shells.sum" and s[6] is not None]
    points = sum(p for p, _ in sums)
    elongated = sum(p for p, aspect in sums if aspect >= ASPECT_SPLIT)
    dispatch = [s[6] for s in spans if s[3] in ("evaluate.wp_lattice", "evaluate.wzeta_lattice")]
    seen: set = set()
    repeated = 0
    decades: dict[str, int] = defaultdict(int)
    for tau in dispatch:
        if tau is None:
            continue
        if tau.imag < 0:  # the Lattice constructor swaps such a basis
            tau = 1.0 / tau
        repeated += tau in seen
        seen.add(tau)
        decades[im_tau_decade(tau.imag)] += 1

    m = {
        "shells.sum.points.elongated": (elongated / passes, "count"),
        "shells.sum.points.square": ((points - elongated) / passes, "count"),
        "shells.sum.calls": (count["shells.sum"] / passes, "count"),
        "shells.sum.ns_per_point": (ratio(incl["shells.sum"], points), "ns"),
        "shells.plan.calls": (count["shells.plan"] / passes, "count"),
        "shells.plan.us_per_call": (per_call("shells.plan", 1e3), "us"),
        "shells.plan.accept_ratio": (ratio(count["shells.sum"], count["shells.plan"]), "ratio"),
        "lattice.reduce_tau.us_per_call": (per_call("lattice.reduce_tau", 1e3), "us"),
        "lattice.lagrange.us_per_call": (per_call("lattice.lagrange", 1e3), "us"),
        "lattice.reduce_point.us_per_call": (per_call("lattice.reduce_point", 1e3), "us"),
        "lattice.constructed_per_eval": (ratio(count["lattice.construct"], outer["evaluate"]), "count"),
        "trig.wp_strip.us_per_call": (per_call("trig.wp_strip", 1e3), "us"),
        "trig.wzeta_strip.us_per_call": (per_call("trig.wzeta_strip", 1e3), "us"),
        "trig.eta_pair.us_per_call": (per_call("trig.eta_pair", 1e3), "us"),
        "evaluate.self_us_per_eval": (ratio(layer_self["evaluate"], outer["evaluate"]) / 1e3, "us"),
        "evaluate.shell_route_share": (ratio(count["evaluate.shell_value"], len(dispatch)), "ratio"),
        "forms.self_us_per_eval": (ratio(layer_self["forms"], outer["forms"]) / 1e3, "us"),
        "forms.slash.us_per_call": (per_call("forms.slash", 1e3), "us"),
        "cusp.row_sum.ms_per_call": (per_call("cusp.row_sum", 1e6), "ms"),
        "cusp.report.us_per_call": (per_call("cusp.report", 1e3), "us"),
        "arith.zeta_enclosure.ms_per_call": (per_call("arith.zeta_enclosure", 1e6), "ms"),
        "cli.main.self_ms_per_call": (ratio(self_ns["cli.main"], count["cli.main"]) / 1e6, "ms"),
        "cli.describe_route.us_per_call": (per_call("evaluate.describe_route", 1e3), "us"),
        "trace.self_sum_s": (sum(layer_self.values()) / passes / 1e9, "s"),
    }
    for prefix in ("trig.eta_pair", "evaluate.eta12"):
        hits, misses = cache.get(prefix, (0, 0))  # a removed cache reads 0
        m[f"{prefix}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    for name in suite_names:
        m[f"verify.suite.{name}.s"] = (suite_ns[name] / passes / 1e9, "s")

    shares = {
        "evaluations_per_pass": outer["evaluate"] / passes,
        "spans_per_pass": len(spans) / passes,
        "dispatch.repeated_tau_share": ratio(repeated, len(dispatch)),
    }
    for dec in IM_TAU_DECADES:
        shares[f"dispatch.im_tau_share.{dec}"] = ratio(decades[dec], len(dispatch))
    return m, shares
