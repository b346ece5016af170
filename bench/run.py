"""Benchmark of certified evaluation in weierforms, end to end and per layer.

    python3 bench/run.py --workload point_mix --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory, never from an installed copy.  One run:

1. set-up: SETUP_PROBES fresh interpreters each import weierforms and make
   the workload's first evaluation (one more probe before them is dropped,
   it compiles the bytecode caches);
2. untraced passes over the workload's fixed operation list until
   ``--seconds`` have passed, on one CPU (pin_one_cpu), every lru cache of
   the package cleared before each pass, each operation timed on its own;
3. with ``--trace 1``: half the time untraced, then traced passes for the
   other half, with a span around each public call of every layer
   (tracer.py); spans are written to .bench_out/;
4. outside every timed region: each operation's result checked against
   its reference (reference.py), and against the first pass's result for
   the same input.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  ``failed``
counts operations that did not return a sound certificate: a WeierError
on an accepted input, a certificate that excludes its reference, a verify
row whose status is not ``pass``, or a result that differs from the first
pass.  ``correct`` is false when the program answered outside its
contract: an exception that is not a WeierError, a result that is not a
finite CertifiedValue, or verify output that is not a suite report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_us": "us",
    "op_p995_us": "us",
    "peak_rss_mb": "MB",
}

SPAN_FIELDS = ["id", "parent", "thread", "name", "start_ns", "end_ns", "detail"]


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a probe failed)."""


# ---------------------------------------------------------------------------
# set-up probes and environment


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe_setup(name: str, seed: int) -> list[dict]:
    records = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed)],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise BenchError(f"probe imported weierforms from {rec['module']}, not {SRC}")
        records.append(rec)
    return records[1:]


def environment(W, seeds, weier_tol_before, affinity_before: int, pinned: int) -> dict:
    """Facts that change what is measured.  The suite thread pool is sized
    from os.cpu_count(), so a count above the CPUs the run may use is flagged."""
    import numpy

    cpus = os.cpu_count()
    affinity = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": getattr(W.shells, "_HAVE_NUMBA", None),
        "cpu_count": cpus,
        "affinity_cpus_given": affinity_before,
        "affinity_cpus": affinity,
        "pinned_cpu": pinned,
        "cpu_count_matches_affinity": cpus == affinity,
        "weier_tol_cleared": True,
        "weier_tol_was_set": weier_tol_before is not None,
        "machine": platform.machine(),
        "seeds": seeds,
    }


# ---------------------------------------------------------------------------
# timed passes


def _signature(out):
    """A comparable form of one operation's outcome."""
    if isinstance(out, BaseException):
        return (type(out).__name__, str(out))
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return out  # verify: (exit code, JSON text)
    certs = out if isinstance(out, tuple) else (out,)
    return tuple((getattr(c, "value", c), getattr(c, "error", None)) for c in certs)


class Passes:
    """Results of the passes over one operation list."""

    def __init__(self, ops):
        self.ops = ops
        self.op_p50: list[float] = []
        self.op_p995: list[float] = []
        self.first: list | None = None
        self.differs = [False] * len(ops)
        self.cache: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # hits, misses

    def run(self, W, seconds: float, on_pass=lambda: None) -> list[float]:
        """Passes until ``seconds`` have gone by; returns their wall times."""
        walls = []
        start = time.perf_counter()
        while True:
            for cache in tracer.lru_caches():
                cache.cache_clear()
            outcomes, times = [], []
            t0 = time.perf_counter()
            for op in self.ops:
                s = time.perf_counter()
                try:
                    out = op.call(W)
                except Exception as exc:  # recorded; classified by the checks
                    out = exc
                times.append(time.perf_counter() - s)
                outcomes.append(out)
            walls.append(time.perf_counter() - t0)
            on_pass()
            q = statistics.quantiles(times, n=1000, method="inclusive") if len(times) > 1 else times * 999
            self.op_p50.append(q[499])
            self.op_p995.append(q[994])
            for key, (hits, misses) in tracer.cache_stats().items():
                self.cache[key][0] += hits
                self.cache[key][1] += misses
            if self.first is None:
                self.first = outcomes
            else:
                for i, (a, b) in enumerate(zip(self.first, outcomes)):
                    if _signature(a) != _signature(b):
                        self.differs[i] = True
            if time.perf_counter() - start >= seconds:
                return walls


# ---------------------------------------------------------------------------
# checks, outside the timed region


class Tally:
    def __init__(self):
        self.counts = Counter()
        self.groups: dict[tuple, Counter] = defaultdict(Counter)
        self.correct = True
        self.problems: list[str] = []

    def add(self, groups, **flags) -> None:
        for key, hit in (("attempted", True),) + tuple(flags.items()):
            if hit:
                self.counts[key] += 1
                for g in groups:
                    self.groups[g][key] += 1

    def contract_breach(self, what: str) -> None:
        self.correct = False
        if len(self.problems) < 10:
            self.problems.append(what)


def check_certified(passes: Passes, W, tally: Tally) -> None:
    """Every operation's first result against its reference; a result that
    changed in a later pass, traced or not, counts as failed."""
    from reference import Reference, excess

    ref = Reference()
    for op, out, differs in zip(passes.ops, passes.first, passes.differs):
        groups = (("class", op.kind), ("tol", f"{op.tol:g}"), ("im_tau", tracer.im_tau_decade(op.im_tau)))
        if isinstance(out, BaseException):
            if not isinstance(out, W.WeierError):
                tally.contract_breach(f"{op.kind}: {type(out).__name__}: {out}")
            tally.add(groups, failed=True, raised=True)
            continue
        certs = out if isinstance(out, tuple) else (out,)
        if not all(
            isinstance(c, W.CertifiedValue) and math.isfinite(abs(c.value)) for c in certs
        ):
            tally.contract_breach(f"{op.kind}: result {out!r} is not a finite certificate")
            tally.add(groups, failed=True)
            continue
        refs = op.ref(ref)
        refs = refs if isinstance(refs, tuple) else (refs,)
        unsound = any(excess(c.value, c.error, r) > 0.0 for c, r in zip(certs, refs))
        loose = any(c.error > op.tol for c in certs)
        tally.add(groups, failed=unsound or differs, unsound=unsound, loose=loose, nondeterministic=differs)


def check_verify(passes: Passes, W, tally: Tally) -> None:
    for op, out, differs in zip(passes.ops, passes.first, passes.differs):
        groups = (("class", op.kind),)
        if isinstance(out, BaseException):
            tally.contract_breach(f"{op.kind}: {type(out).__name__}: {out}")
            tally.add(groups, failed=True, raised=True)
            continue
        rc, text = out
        doc = workloads.verify_report(text)
        if "rows" not in doc:
            # a WeierError inside the suite leaves an error record
            if "error" not in doc:
                tally.contract_breach(f"{op.kind}: exit {rc}, output is not a suite report")
            tally.add(groups, failed=True, raised=True)
            continue
        for row in doc["rows"]:
            bad = row.get("status") != "pass"
            tally.add(
                groups,
                failed=bad or differs,
                unsound=bad and row.get("error") is not None,
                nondeterministic=differs,
            )


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: Passes, walls: list[float], setup: list[dict], peak_rss_kb: int) -> dict:
    """Medians over the run: of the set-up probes, and of each pass's wall
    time and per-operation latency percentiles."""
    values = {
        "setup_s": statistics.median(r["import_s"] + r["first_s"] for r in setup),
        "wall_s": statistics.median(walls),
        "op_p50_us": statistics.median(passes.op_p50) * 1e6,
        "op_p995_us": statistics.median(passes.op_p995) * 1e6,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(passes: Passes, walls: list[float], traced_walls: list[float], spans,
              setup: list[dict], tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics and property shares of a traced run."""
    m, shares = tracer.summarize(spans, len(traced_walls), passes.cache, workloads.SUITE_NAMES)
    suite_s = sum(m[f"verify.suite.{s}.s"][0] for s in workloads.SUITE_NAMES)
    attempted = max(tally.counts["attempted"], 1)
    wall_traced = statistics.median(traced_walls)
    m.update(
        {
            "verify.rows_per_s": (tally.counts["attempted"] / suite_s if suite_s else 0.0, "1/s"),
            "cli.import_s": (statistics.median(r["import_s"] for r in setup), "s"),
            "trace.wall_s": (wall_traced, "s"),
            "trace.overhead_s": (wall_traced - statistics.median(walls), "s"),
            "check.fail_frac": (tally.counts["failed"] / attempted, "ratio"),
            "check.unsound_frac": (tally.counts["unsound"] / attempted, "ratio"),
            "check.loose_frac": (tally.counts["loose"] / attempted, "ratio"),
        }
    )
    return m, shares


# ---------------------------------------------------------------------------
# running a workload


def pin_one_cpu() -> int:
    """Run this process, and the probes it starts, on one CPU of its set.

    No weierforms layer computes in parallel (the suite thread pool shares
    the GIL), but with two CPUs the pool's GIL hand-offs cross cores, and
    verify_suites passes then swung between 1.3 s and 2.0 s with the host's
    scheduling.  On one CPU the same passes repeat within a few percent.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    weier_tol_before = os.environ.pop("WEIER_TOL", None)
    affinity_before = len(os.sched_getaffinity(0))
    pinned = pin_one_cpu()
    setup = probe_setup(name, seed)

    sys.path.insert(0, str(SRC))
    import weierforms as W
    import weierforms.cli  # noqa: F401

    if not Path(W.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported weierforms from {W.__file__}, not {SRC}")
    make_ops = workloads.WORKLOADS[name][0]
    ops = make_ops(seed, W)
    env = environment(W, {name: seed}, weier_tol_before, affinity_before, pinned)
    print(f"bench workload={name} seed={seed} seconds={seconds} trace={int(trace)} ops/pass={len(ops)}")
    print("env " + json.dumps(env, sort_keys=True))

    passes = Passes(ops)
    walls = passes.run(W, seconds / 2 if trace else seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("passes untraced=%d wall_s=[%s]" % (len(walls), " ".join(f"{w:.4f}" for w in walls)))

    if trace:
        t = tracer.Tracer()
        skipped = t.install()
        marks: list[int] = []
        try:
            traced_walls = passes.run(W, seconds / 2, on_pass=lambda: marks.append(len(t.spans)))
        finally:
            t.uninstall()
        print("passes traced=%d wall_s=[%s] spans/pass=%d not traced: %s" % (
            len(traced_walls), " ".join(f"{w:.4f}" for w in traced_walls),
            marks[0], ", ".join(skipped) or "-"))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"pass": "first traced", "fields": SPAN_FIELDS}) + "\n")
            for sp in t.spans[: marks[0]]:
                fh.write(json.dumps(sp[:6] + (None if sp[6] is None else repr(sp[6]),)) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")

    tally = Tally()
    (check_verify if name == "verify_suites" else check_certified)(passes, W, tally)
    if trace:
        metrics, shares = per_layer(passes, walls, traced_walls, t.spans, setup, tally)
        for k, v in shares.items():
            print(f"share {k} {v:.6g}")
    else:
        metrics = end_to_end(passes, walls, setup, peak_rss_kb)

    attempted = tally.counts["attempted"]
    for key in ("failed", "unsound", "loose"):
        frac = tally.counts[key] / attempted if attempted else 0.0
        print(f"check {key}_frac {frac:.6f} ({tally.counts[key]} of {attempted})")
    for (kind, value), c in sorted(tally.groups.items()):
        parts = " ".join(f"{k}={c[k]}" for k in ("attempted", "failed", "raised", "unsound", "loose", "nondeterministic"))
        print(f"by {kind}={value} {parts}")
    for problem in tally.problems:
        print(f"contract breach: {problem}")
    for k, (v, unit) in metrics.items():
        print(f"metric {k} {v:.6g} {unit}")
    return {
        "correct": tally.correct,
        "attempted": attempted,
        "failed": tally.counts["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} failed:\n{proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if not (SRC / "weierforms" / "__init__.py").is_file():
            raise BenchError(f"no weierforms source tree under {SRC}")
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
