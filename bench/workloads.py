"""The benchmark workloads: operation lists made from a seed, and set-up evaluations.

shell_cusp     two evaluations on the forced shell route.  The elongated basis
               (20i, 1) exercises the truncation shape, the near-square basis
               (0.3+1.1i, 1) only the summation kernel.  Inputs do not depend
               on the seed.
verify_suites  all ten CLI verification suites at the seed, run in process:
               series route on repeated taus (warm quasi-period caches), the
               rejected shell plans of the auto router, slash, cusp values,
               zeta identities, the suite thread pool and the JSON output.
               No shell sums.
point_mix      independent calls of the nine public evaluators on distinct
               taus: cold caches, deep reductions of arbitrary bases, auto-route
               dispatch, and small shell sums at coarse tolerance.

A workload's operations are plain callables taking the imported package, so
they resolve every function when called and see the trace wrappers.  Only
entry points and flags that survive the planned API clean-ups are used: no
``jobs``, ``convention`` or ``k`` arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

SUITE_NAMES = (
    "lemma-fsta",
    "lemma-gsta",
    "defect-gstt",
    "theorem-hrst",
    "theorem-hU",
    "cusp-f",
    "cusp-h",
    "zeta2",
    "eies-bound",
    "identities",
)

POINT_CLASSES = (
    "wp",
    "wzeta",
    "wp_lattice",
    "wzeta_lattice",
    "eta12",
    "eval_f",
    "eval_g",
    "eval_h",
    "eval_hU",
)
POINT_TOLS = (1e-5, 1e-8, 1e-10, 1e-12)
# ops per (class, tol) stratum: 9 * 4 * 224 = 8064 ops per pass.  Only about
# 1.5% of them take the shell route, at tol 1e-5, and they carry half the
# time; their number varies between seeds, so fewer ops made wall_s and the
# tail latency swing between seeds (by 15% and 10% at 2016 ops).
POINT_PER_STRATUM = 224
IM_TAU_RANGE = (1e-3, 20.0)
RE_TAU_RANGE = (-1.5, 1.5)
# points are kept this far (in lattice coordinates) from lattice points,
# where values blow up and an absolute tolerance stops meaning anything
POLE_MARGIN = 0.05
_DENOMS = (2, 3, 4, 5, 6, 8, 10, 12)


@dataclass(frozen=True)
class Op:
    """One timed call.  ``ref`` maps a Reference to the reference value(s)."""

    kind: str
    tol: float
    im_tau: float
    call: Callable[[Any], Any]
    ref: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# shell_cusp


def shell_cusp_ops(seed: int, W) -> list[Op]:
    half = W.RationalPair.of(0, Fraction(1, 2))
    omega1, omega2, z = 0.3 + 1.1j, 1.0 + 0.0j, 0.25 - 0.1j

    def cusp_value(R):
        # f_(0,1/2)(20i) equals its cusp value 2 pi^2/3 up to O(exp(-40 pi)) ~ 1e-54
        import mpmath as mp

        with mp.workdps(50):
            return 2 * mp.pi**2 / 3

    return [
        Op("eval_f.elongated", 1e-8, 20.0,
           lambda W: W.eval_f(half, 20j, 1e-8, route="shell"), cusp_value),
        Op("wzeta_lattice.square", 1e-8, 1.1,
           lambda W: W.wzeta_lattice(W.Lattice(omega1, omega2), z, 1e-8, route="shell"),
           lambda R: R.wzeta_lattice(omega1, omega2, z)),
    ]


def shell_cusp_setup(W, seed: int):
    """The workload's first evaluation at tol 1e-4: same route and basis, 60 shells."""
    return W.eval_f(W.RationalPair.of(0, Fraction(1, 2)), 20j, 1e-4, route="shell")


# ---------------------------------------------------------------------------
# verify_suites


def run_verify(W, name: str, seed: int) -> tuple[int, str]:
    """One suite through the CLI entry point, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = W.cli.main(["verify", name, "--format", "json", "--seed", str(seed)])
    return rc, buf.getvalue()


def verify_ops(seed: int, W) -> list[Op]:
    return [
        Op(f"verify.{name}", math.nan, math.nan, lambda W, n=name: run_verify(W, n, seed), None)
        for name in SUITE_NAMES
    ]


def verify_setup(W, seed: int):
    """A small suite through the same CLI path (six cusp values at Y = 20)."""
    return run_verify(W, "cusp-f", seed)


def verify_report(text: str) -> dict:
    """One suite's JSON output; {} if it is not a JSON object."""
    try:
        doc = json.loads(text)
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


# ---------------------------------------------------------------------------
# point_mix


def _label(rng: random.Random, lo: int, hi: int, W, ok=lambda p: True):
    """Random non-integral label with s, t in [lo, hi) that passes ``ok``."""
    while True:
        qs, qt = rng.choice(_DENOMS), rng.choice(_DENOMS)
        s = Fraction(rng.randrange(lo * qs, hi * qs), qs)
        t = Fraction(rng.randrange(lo * qt, hi * qt), qt)
        p = W.RationalPair.of(s, t)
        if not p.is_integral() and ok(p):
            return p


def _cell_coords(rng: random.Random) -> tuple[float, float]:
    """Lattice coordinates in [-1.5, 1.5]^2 at least POLE_MARGIN from Z^2."""
    while True:
        u, v = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
        if max(abs(u - round(u)), abs(v - round(v))) >= POLE_MARGIN:
            return u, v


def _random_sl2(rng: random.Random, max_entry: int = 6) -> tuple[int, int, int, int]:
    """Word in T, T^-1 and S with entries bounded by max_entry."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(0, 8)):
        step = rng.choice(((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)))
        na = a * step[0] + b * step[2]
        nb = a * step[1] + b * step[3]
        nc = c * step[0] + d * step[2]
        nd = c * step[1] + d * step[3]
        if max(abs(na), abs(nb), abs(nc), abs(nd)) > max_entry:
            break
        a, b, c, d = na, nb, nc, nd
    return a, b, c, d


def _point_op(kind: str, tol: float, tau: complex, rng: random.Random, W) -> Op:
    im = tau.imag
    if kind in ("wp", "wzeta"):
        u, v = _cell_coords(rng)
        z = u * tau + v
        fn = kind
        return Op(kind, tol, im, lambda W: getattr(W, fn)(tau, z, tol),
                  lambda R: getattr(R, fn)(tau, z))
    if kind in ("wp_lattice", "wzeta_lattice"):
        # tau*Z + Z rotated and scaled, then given in a random unimodular basis
        angle = rng.uniform(0.0, 2.0 * math.pi)
        scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        w2 = scale * complex(math.cos(angle), math.sin(angle))
        w1 = tau * w2
        p, q, r, s = _random_sl2(rng)
        omega1, omega2 = p * w1 + q * w2, r * w1 + s * w2
        if rng.random() < 0.5:
            omega1, omega2 = omega2, omega1
        u, v = _cell_coords(rng)
        z = u * w1 + v * w2
        fn = kind
        return Op(kind, tol, im, lambda W: getattr(W, fn)(W.Lattice(omega1, omega2), z, tol),
                  lambda R: getattr(R, fn)(omega1, omega2, z))
    if kind == "eta12":
        return Op(kind, tol, im, lambda W: W.eta12(tau, tol), lambda R: R.eta12(tau))
    if kind == "eval_f":
        p = _label(rng, 0, 1, W)
        return Op(kind, tol, im, lambda W: W.eval_f(p, tau, tol), lambda R: R.f(p.s, p.t, tau))
    if kind == "eval_g":
        p = _label(rng, -2, 2, W)
        return Op(kind, tol, im, lambda W: W.eval_g(p, tau, tol), lambda R: R.g(p.s, p.t, tau))
    if kind == "eval_h":
        r = rng.choice((-2, 2, 3, 4))
        p = _label(rng, -1, 1, W, ok=lambda p: not p.scaled(r).is_integral())
        rp = p.scaled(r)
        return Op(kind, tol, im, lambda W: W.eval_h(r, p, tau, tol),
                  lambda R: r * R.g(p.s, p.t, tau) - R.g(rp.s, rp.t, tau))
    if kind == "eval_hU":
        a = _label(rng, -1, 1, W)
        b = _label(rng, -1, 1, W, ok=lambda b: not W.RationalPair(-a.s - b.s, -a.t - b.t).is_integral())
        labels = (a, b, W.RationalPair(-a.s - b.s, -a.t - b.t))
        return Op(kind, tol, im, lambda W: W.eval_hU(labels, tau, tol),
                  lambda R: sum(R.g(u.s, u.t, tau) for u in labels))
    raise ValueError(f"unknown op class {kind!r}")


def point_mix_ops(seed: int, W) -> list[Op]:
    """POINT_PER_STRATUM ops for every (class, tol) pair, shuffled.

    Within a stratum, log Im tau is stratified over IM_TAU_RANGE (one draw
    per equal-width slot), so every seed covers each decade alike; every
    other input is drawn independently.  No tau repeats.
    """
    rng = random.Random(seed)
    lo, hi = (math.log(x) for x in IM_TAU_RANGE)
    n = POINT_PER_STRATUM
    seen: set = set()
    ops = []
    for kind in POINT_CLASSES:
        for tol in POINT_TOLS:
            for k in range(n):
                while True:
                    im = math.exp(lo + (hi - lo) * (k + rng.random()) / n)
                    tau = complex(rng.uniform(*RE_TAU_RANGE), im)
                    if tau not in seen:
                        break
                seen.add(tau)
                ops.append(_point_op(kind, tol, tau, rng, W))
    rng.shuffle(ops)
    return ops


def point_mix_setup(W, seed: int):
    """A fixed weight-1 evaluation: forms, evaluate, lattice and trig layers."""
    return W.eval_h(2, W.RationalPair.of(0, Fraction(1, 3)), 0.3 + 1.2j, 1e-8)


WORKLOADS = {
    "shell_cusp": (shell_cusp_ops, shell_cusp_setup),
    "verify_suites": (verify_ops, verify_setup),
    "point_mix": (point_mix_ops, point_mix_setup),
}
