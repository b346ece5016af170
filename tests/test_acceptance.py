"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured residuals.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from fractions import Fraction

from weierforms import (
    Lattice,
    RationalPair,
    eval_f,
    eval_h,
    plan_truncation,
    run_suite,
    shell_value,
)
from weierforms.evaluate import _reported

PI = math.pi


def pair(s, t):
    return RationalPair.of(s, t)


def _report(n, text):
    print(f"ACCEPTANCE {n}: {text} PASS")


def test_criterion_1_cusp_value_half_shell_route():
    t0 = time.perf_counter()
    cv, route = _reported(eval_f, pair(0, Fraction(1, 2)), 20j, 1e-8, route="shell")
    assert route["route"] == "shell"
    elapsed = time.perf_counter() - t0
    residual = abs(cv.value - 2 * PI**2 / 3)
    assert residual < 1e-6
    assert cv.error <= 1e-8
    assert elapsed < 5.0
    _report(
        1,
        f"|f(0,1/2)(20i) - 2pi^2/3| = {residual:.3e} < 1e-6 via shell plan "
        f"(box {route['c_max']}x{route['d_max']}, tail={route['tail_bound']:.2e}) in {elapsed:.2f}s",
    )


def test_criterion_2_cusp_value_third():
    cv = eval_f(pair(0, Fraction(1, 3)), 20j, 1e-8)
    residual = abs(cv.value - PI**2)
    assert residual < 1e-6
    _report(2, f"|f(0,1/3)(20i) - pi^2| = {residual:.3e} < 1e-6")


def test_criterion_3_nonintegral_s_branch_and_zeta2():
    cv = eval_f(pair(Fraction(1, 2), 0), 20j, 1e-8)
    residual = abs(cv.value + PI**2 / 3)
    implied = -cv.value.real / 2.0
    zeta2_residual = abs(implied - PI**2 / 6)
    assert residual < 1e-6
    assert zeta2_residual < 1e-8
    _report(
        3,
        f"|f(1/2,0)(20i) + pi^2/3| = {residual:.3e} < 1e-6; "
        f"implied zeta_R(2) residual = {zeta2_residual:.3e} < 1e-8",
    )


def test_criterion_4_covariance_suites():
    t0 = time.perf_counter()
    rep_f = run_suite("lemma-fsta", seed=0)
    rep_g = run_suite("lemma-gsta", seed=0)
    elapsed = time.perf_counter() - t0
    assert len(rep_f.rows) == 200 and rep_f.failed == 0
    assert len(rep_g.rows) == 200 and rep_g.failed == 0
    assert elapsed < 60.0
    _report(
        4,
        f"weight-2 and weight-1 covariance: 200/200 + 200/200 instances, "
        f"residual <= certified error + 1e-9, in {elapsed:.1f}s",
    )


def test_criterion_5_defect_suite():
    rep = run_suite("defect-gstt", seed=0)
    assert len(rep.rows) == 50 and rep.failed == 0
    _report(5, "quasi-period defect u*eta1 + v*eta2: 50/50 stabilizer elements")


def test_criterion_6_invariance_suites():
    rep_h = run_suite("theorem-hrst", seed=0)
    rep_u = run_suite("theorem-hU", seed=0)
    assert rep_h.failed == 0 and len(rep_h.rows) == 600
    assert rep_u.failed == 0 and len(rep_u.rows) == 200
    _report(
        6,
        f"slash invariance: h {len(rep_h.rows)} checks, hU {len(rep_u.rows)} checks, zero failures",
    )


def test_criterion_7_series_identity():
    rep = run_suite("identities", seed=0)
    series_rows = [r for r in rep.rows if r.id.startswith("series-")]
    assert len(series_rows) == 6
    assert all(r.passed for r in series_rows)
    worst = max(r.residual for r in series_rows)
    assert rep.failed == 0
    _report(7, f"zeta-series identity on 6 arguments, worst residual {worst:.2e} < 1e-10")


def test_criterion_8_row_bound():
    rep = run_suite("eies-bound", seed=0)
    assert len(rep.rows) == 12 and rep.failed == 0
    _report(8, "enclosures of the full double sums below the closed bound for k in {3,4,5}, Y in {1,2,5,10}")


def test_criterion_9_h_cusp_modulus_and_phase():
    cv = eval_h(2, pair(0, Fraction(1, 3)), 20j, 1e-8)
    modulus_residual = abs(abs(cv.value) - math.sqrt(3.0) * PI)
    assert modulus_residual < 1e-6
    d_real = abs(cv.value - math.sqrt(3.0) * PI)
    d_imag = abs(cv.value - complex(0.0, -math.sqrt(3.0) * PI))
    supported = "sqrt(3)*pi" if d_real < d_imag else "-sqrt(3)*pi*i"
    assert supported == "sqrt(3)*pi"
    rep = run_suite("cusp-h", seed=0)
    assert rep.failed == 0
    _report(
        9,
        f"| |h| - sqrt(3)pi | = {modulus_residual:.3e} < 1e-6; oracle supports {supported} "
        f"(distance {d_real:.2e} vs {d_imag:.2e} to the alternative)",
    )


def test_criterion_10_doubling_validates_plans():
    lattices = [
        Lattice(1j, 1.0),
        Lattice(2j, 1.0),
        Lattice(0.5 + 1j, 1.0),
        Lattice(1 + 1.5j, 1.0),
        Lattice(-0.4 + 1.2j, 1.0),
    ]
    offsets = [0.35, 0.21 + 0.2j, -0.3 + 0.12j, 0.1 - 0.31j, -0.17 - 0.22j]
    checked = 0
    worst_margin = 0.0
    for lat in lattices:
        delta = lat.geometry.delta
        for off in offsets:
            z = off * delta
            for kind in ("wp", "wzeta"):
                plan = plan_truncation(lat, abs(z), 1e-3, kind=kind)
                base = shell_value(lat, z, plan)
                # the box of twice the half-widths, its lines closed alike
                doubled = dataclasses.replace(plan, c_max=2 * plan.c_max, d_max=2 * plan.d_max)
                change = abs(base.value - shell_value(lat, z, doubled).value)
                assert change < plan.tail_bound
                worst_margin = max(worst_margin, change / plan.tail_bound)
                checked += 1
    assert checked == 50
    _report(
        10,
        f"shell doubling on 50 grid points: |change| < tail bound everywhere "
        f"(worst change/bound = {worst_margin:.3f})",
    )
