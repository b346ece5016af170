from __future__ import annotations

import cmath
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weierforms import (
    DomainError,
    Lattice,
    PoleError,
    PrecisionError,
    RationalPair,
    eta12,
    eval_f,
    eval_g,
    eval_h,
    shell_value,
    wp,
    wp_lattice,
    wzeta,
    wzeta_lattice,
)
from weierforms import shells
from weierforms.arith import bernoulli
from weierforms.evaluate import POLE_RTOL, _eta2, _reduce, _reported
from weierforms.lattice import reduce_lattice, reduce_points, reduce_tau_matrix
from weierforms.shells import (
    POINT_BUDGET,
    TruncationPlan,
    _atanh_terms,
    _Bounds,
    _bulk_abs_bound,
    _closures,
    bulk_rounding_bound,
    plan_shell,
    plan_truncation,
    shell_route,
    shell_sum,
)
from weierforms.trig import eta2_strip

from oracles import GOLDEN, GOLDEN_BAND, brute_wp, brute_wzeta, mp_wp, mp_wzeta, mp_wzeta_mpc

TWO_PI_I = 2j * math.pi


def _far_bound(lat, kind, z_bound, c_max):
    """Bound (i) of shells on the lines |c| > c_max."""
    return _Bounds(lat, kind, z_bound).far(c_max)


def _partial_bound(lat, kind, z_bound, c_max, d_max):
    """Bound (ii) of shells on the partial lines |c| <= c_max, |d| > d_max."""
    return _Bounds(lat, kind, z_bound).partial(c_max, d_max)


def _seeded_reduced_taus(seed: int = 5, count: int = 8) -> list[complex]:
    """Ratios in the fundamental domain, |Re tau| <= 1/2 and |tau| >= 1, with Im tau in [sqrt(3)/2, 5]."""
    rng = random.Random(seed)
    taus = []
    while len(taus) < count:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(math.sqrt(3.0) / 2.0, 5.0))
        if abs(tau) >= 1.0:
            taus.append(tau)
    return taus


class TestGoldenValues:
    def test_wp_square_half(self):
        cv = wp_lattice(Lattice(1j, 1.0), 0.5, 1e-9)
        assert abs(cv.value - GOLDEN["wp_square_half"]) <= GOLDEN_BAND + cv.error

    def test_wp_square_half_period(self):
        cv = wp(1j, complex(0.5, 0.5), 1e-9)
        assert abs(cv.value) <= GOLDEN["wp_square_half_period_mod"] + cv.error + GOLDEN_BAND

    def test_wzeta_square_half(self):
        cv = wzeta_lattice(Lattice(1j, 1.0), 0.5, 1e-9)
        assert abs(cv.value - GOLDEN["wzeta_square_half"]) <= GOLDEN_BAND + cv.error
        # analytic cross-check: this value is pi/2
        assert abs(cv.value - math.pi / 2.0) < 1e-9

    def test_wzeta_thirds(self):
        a = wzeta(1j, 1.0 / 3.0, 1e-10)
        b = wzeta(1j, 2.0 / 3.0, 1e-10)
        assert abs(a.value - GOLDEN["wzeta_square_third"]) <= GOLDEN_BAND + a.error
        assert abs(b.value - GOLDEN["wzeta_square_two_thirds"]) <= GOLDEN_BAND + b.error

    def test_definitional_equality(self):
        assert wp(1j, 0.5, 1e-8).value == wp_lattice(Lattice(1j, 1.0), 0.5, 1e-8).value

    def test_square_lattice_closed_form_anchor(self):
        # classical lemniscatic constant: wp(1/2) on Z + iZ equals
        # gamma(1/4)^4 / (8 pi)
        anchor = math.gamma(0.25) ** 4 / (8.0 * math.pi)
        cv = wp(1j, 0.5, 1e-11)
        assert abs(cv.value - anchor) <= cv.error + 1e-12


class TestAgainstBruteForce:
    CASES = [
        (1j, 0.25 + 0.13j),
        (2j, 0.3 - 0.2j),
        (0.5 + 1j, 0.37 + 0.11j),
        (0.7 + 1.3j, -0.21 + 0.4j),
    ]

    @pytest.mark.parametrize("tau,z", CASES)
    def test_wp_matches_brute(self, tau, z):
        brute = brute_wp(tau, 1.0, z, radius=600)
        cv = wp(tau, z, 1e-10)
        # brute block truncation is O(1/radius^2) with a modest constant
        assert abs(cv.value - brute) <= 5e-5 + cv.error

    @pytest.mark.parametrize("tau,z", CASES[:2])
    def test_wzeta_matches_brute(self, tau, z):
        brute = brute_wzeta(tau, 1.0, z, radius=600)
        cv = wzeta(tau, z, 1e-10)
        assert abs(cv.value - brute) <= 5e-5 + cv.error


class TestRouteAgreement:
    GRID = [
        (Lattice(1j, 1.0), 0.5),
        (Lattice(1j, 1.0), 0.31 + 0.24j),
        (Lattice(2j, 1.0), 0.45 - 0.3j),
        (Lattice(0.5 + 1j, 1.0), 0.4 + 0.2j),
        (Lattice(1 + 1.5j, 1.0), -0.3 + 0.5j),
    ]

    @pytest.mark.parametrize("lat,z", GRID)
    def test_wp_routes_overlap(self, lat, z):
        a = wp_lattice(lat, z, 1e-5, route="shell")
        b = wp_lattice(lat, z, 1e-10, route="series")
        assert abs(a.value - b.value) <= a.error + b.error

    @pytest.mark.parametrize("lat,z", GRID)
    def test_wzeta_routes_overlap(self, lat, z):
        a = wzeta_lattice(lat, z, 1e-5, route="shell")
        b = wzeta_lattice(lat, z, 1e-10, route="series")
        assert abs(a.value - b.value) <= a.error + b.error

    def test_routes_overlap_randomized(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.5))
            lat = Lattice(tau, 1.0)
            delta = lat.geometry.delta
            z = delta * complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if abs(z) < 0.05:
                continue
            kindfn = wp_lattice if checked % 2 == 0 else wzeta_lattice
            a = kindfn(lat, z, 1e-4, route="shell")
            b = kindfn(lat, z, 1e-10, route="series")
            assert abs(a.value - b.value) <= a.error + b.error
            # the shell certificate must actually cover the truncation gap
            assert abs(a.value - b.value) <= a.error + 1e-9
            checked += 1


class TestSymmetries:
    def test_evenness(self):
        rng = random.Random(11)
        tol = 1e-9
        for _ in range(100):
            tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 10.0))
            z = rng.uniform(0.05, 0.45) * tau + rng.uniform(0.05, 0.45)
            a = wp(tau, z, tol)
            b = wp(tau, -z, tol)
            assert abs(a.value - b.value) <= 2.0 * tol

    def test_oddness(self):
        rng = random.Random(12)
        tol = 1e-9
        for _ in range(100):
            tau = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 10.0))
            z = rng.uniform(0.05, 0.45) * tau + rng.uniform(0.05, 0.45)
            a = wzeta(tau, z, tol)
            b = wzeta(tau, -z, tol)
            assert abs(a.value + b.value) <= 2.0 * tol

    def test_wp_double_periodicity(self):
        tol = 1e-9
        tau = 0.3 + 1.4j
        z = 0.21 + 0.2j
        base = wp(tau, z, tol)
        for shift in (1.0, tau, 2 * tau - 3, -tau + 2):
            moved = wp(tau, z + shift, tol)
            assert abs(moved.value - base.value) <= 2.0 * tol

    def test_wzeta_quasi_periodic_defect(self):
        tol = 1e-9
        tau = 0.3 + 1.4j
        z = 0.21 + 0.2j
        eta1, eta2 = eta12(tau, tol)
        base = wzeta(tau, z, tol)
        for m in range(-2, 3):
            for n in range(-2, 3):
                moved = wzeta(tau, z + m * tau + n, tol)
                predicted = base.value + m * eta1.value + n * eta2.value
                budget = (
                    moved.error
                    + base.error
                    + abs(m) * eta1.error
                    + abs(n) * eta2.error
                )
                assert abs(moved.value - predicted) <= max(4.0 * tol, budget)

    def test_homogeneity_wp_example_scale(self):
        # degree -2 rescaling at the j = 2+i example scale
        j = 2 + 1j
        lat = Lattice(1j, 1.0)
        a = wp_lattice(lat, 0.5, 1e-9)
        b = wp_lattice(Lattice(j * 1j, j), j * 0.5, 1e-9)
        assert abs(a.value - j**2 * b.value) <= 2e-9 * (1 + abs(j) ** 2)

    def test_homogeneity_wzeta_example_scale(self):
        j = 1 + 2j
        lat = Lattice(1j, 1.0)
        a = wzeta_lattice(lat, 0.5, 1e-9)
        b = wzeta_lattice(Lattice(j * 1j, j), j * 0.5, 1e-9)
        assert abs(a.value - j * b.value) <= 2e-9 * (1 + abs(j))

    @pytest.mark.parametrize("j", [2.0, 1j, 1 + 1j, 3 - 2j])
    def test_homogeneity(self, j):
        tol = 1e-9
        lat = Lattice(0.6 + 1.1j, 1.0)
        z = 0.27 + 0.31j
        a = wp_lattice(lat, z, tol)
        b = wp_lattice(Lattice(j * lat.omega1, j * lat.omega2), j * z, tol)
        assert abs(a.value - j**2 * b.value) <= 2.0 * tol * (1.0 + abs(j) ** 2)
        az = wzeta_lattice(lat, z, tol)
        bz = wzeta_lattice(Lattice(j * lat.omega1, j * lat.omega2), j * z, tol)
        assert abs(az.value - j * bz.value) <= 2.0 * tol * (1.0 + abs(j))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-1.0, 1.0),
        st.floats(0.5, 6.0),
        st.floats(-0.45, 0.45),
        st.floats(0.05, 0.45),
    )
    def test_parity_and_periodicity_fuzz(self, re_tau, im_tau, a, b):
        tau = complex(re_tau, im_tau)
        z = a * tau + b
        tol = 1e-9
        even_gap = abs(wp(tau, z, tol).value - wp(tau, -z, tol).value)
        assert even_gap <= 2.0 * tol
        odd_gap = abs(wzeta(tau, z, tol).value + wzeta(tau, -z, tol).value)
        assert odd_gap <= 2.0 * tol
        period_gap = abs(wp(tau, z + tau - 2, tol).value - wp(tau, z, tol).value)
        assert period_gap <= 2.0 * tol

    def test_pole_singularity_profile(self):
        # z^2 * wp -> 1 with error shrinking at least quadratically
        tau = 1j
        residuals = []
        for eps, tol in ((1e-2, 1e-9), (1e-3, 1e-7), (1e-4, 1e-4)):
            z = eps * (1 + 1j)
            cv = wp(tau, z, tol)
            residuals.append(abs(z * z * cv.value - 1.0))
        assert residuals[0] <= 1e-2**2
        assert residuals[1] <= 1e-3**2
        assert residuals[2] <= 1e-4**2
        assert residuals[1] <= residuals[0] * 1e-2
        assert residuals[2] <= residuals[1] * 1e-1


class TestEta:
    def test_base_point_independence_against_brute(self):
        # defining difference at two unrelated base points, via the
        # independent block-sum oracle
        eta2 = eta12(1j, 1e-9)[1]
        for z0 in (0.23 + 0.11j, 0.41 - 0.07j):
            direct = brute_wzeta(1j, 1.0, z0 + 1.0, radius=500) - brute_wzeta(
                1j, 1.0, z0, radius=500
            )
            assert abs(direct - eta2.value) <= 2e-4

    def test_square_lattice_values(self):
        eta1, eta2 = eta12(1j, 1e-10)
        assert abs(eta2.value - math.pi) < 1e-9
        assert abs(eta1.value - (-1j * math.pi)) < 1e-9

    @pytest.mark.parametrize("tau", [1j, 2j, 0.5 + 1j])
    def test_period_pairing_constant(self, tau):
        # eta2 * tau - eta1 is the same constant of modulus 2 pi on every lattice
        tol = 1e-10
        eta1, eta2 = eta12(tau, tol)
        combo = eta2.value * tau - eta1.value
        assert abs(abs(combo) - 2.0 * math.pi) < 1e-8
        assert abs(combo - TWO_PI_I) < 1e-8

    def test_tau_shift_invariance(self):
        tau = 0.3 + 1.2j
        _, eta2a = eta12(tau, 1e-10)
        _, eta2b = eta12(tau + 1.0, 1e-10)
        assert abs(eta2a.value - eta2b.value) <= eta2a.error + eta2b.error + 1e-12

    def test_shell_route_eta(self, monkeypatch):
        # eta2 of the reduced ratio is 2 wzeta(1/2): one shell sum
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return shell_sum(*args, **kwargs)

        monkeypatch.setattr(shells, "shell_sum", spy)
        eta1, eta2 = eta12(1j, 1e-5, route="shell")
        assert len(calls) == 1
        assert abs(eta2.value - math.pi) <= eta2.error + 1e-6
        assert abs(eta1.value + 1j * math.pi) <= eta1.error + 1e-6

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j, 2j, 5j, 0.3 + 0.2j, 0.5 + 0.5j * math.sqrt(3.0)] + _seeded_reduced_taus())
    def test_shell_route_eta_matches_series(self, tau):
        shell = eta12(tau, 1e-4, route="shell")
        series = eta12(tau, 1e-4, route="series")
        for a, b in zip(shell, series):
            assert abs(a.value - b.value) <= a.error + b.error
        # on the reduced ratio, 2 wzeta(1/2) agrees with the closed row series and
        # with the literal difference wzeta(z + 1) - wzeta(z) at two base points
        tau_r = reduce_lattice(Lattice(tau, 1.0)).tau
        lat = Lattice(tau_r, 1.0)
        for tol in (1e-6, 1e-9, 1e-12):
            eta2 = _eta2(tau_r, tol, "shell")
            assert eta2.error <= tol
            strip = eta2_strip(tau_r, tol)
            assert abs(eta2.value - strip.value) <= eta2.error + strip.error
            for base in (-0.5 + 0.13j, -0.57 + 0.09j):
                diff = shell_route(lat, base + 1.0, 0.25 * tol, "wzeta") - shell_route(lat, base, 0.25 * tol, "wzeta")
                assert abs(eta2.value - diff.value) <= eta2.error + diff.error


def _covolume(lat):
    return (lat.omega1 * lat.omega2.conjugate()).imag


class TestLagrangeReduction:
    @pytest.mark.parametrize("tau", [0.2j, 0.4 + 0.001j, 3 + 0.7j, -0.45 + 0.05j])
    def test_reduced_as_a_set(self, tau):
        lat = Lattice(tau, 1.0)
        red = reduce_lattice(lat)
        # the reduced basis at the caller's scale: 2**k times the unit-scale one, exactly
        red = Lattice(red.aa * 2.0**red.k, red.jj * 2.0**red.k)
        assert _covolume(red) == pytest.approx(_covolume(lat), rel=1e-12)
        w1, w2 = red.omega1, red.omega2
        shorter = min(abs(w1), abs(w2))
        # brute force over small coefficients of the original basis (tau, 1)
        shortest = min(
            abs(c * tau + d)
            for c in range(-30, 31)
            for d in range(-30, 31)
            if (c, d) != (0, 0)
        )
        assert shorter == pytest.approx(shortest, rel=1e-12)
        assert abs((w1 * w2.conjugate()).real) <= 0.5 * shorter**2 * (1 + 1e-12)


class TestPlans:
    def test_infinite_tol_gives_single_shell(self):
        # the smallest box: the first-shell points +-omega2 on the line c = 0
        plan = plan_truncation(Lattice(1j, 1.0), 0.4, math.inf)
        assert plan.box == (0, 1)
        assert plan.tail_bound < math.inf

    def test_monotone_in_tol(self):
        lat = Lattice(1j, 1.0)
        last = 0
        for tol in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            n = plan_truncation(lat, 0.4, tol).point_count
            assert n >= last
            last = n

    def test_margin_precondition(self):
        with pytest.raises(PrecisionError, match="margin"):
            plan_shell(Lattice(1j, 1.0), 1.5, 1e-6, "wp")

    def test_cap_exhaustion(self):
        # far from reduced (Im tau = 1e-7), bound (i) would fall by only
        # exp(-2 pi 1e-7) per line: the shell route refuses the basis by its
        # ratio; its reduced basis (Im tau = 1e7) needs no far line
        lat = Lattice(1 + 1e-7j, 1.0)
        z = 0.5 * lat.geometry.delta
        with pytest.raises(DomainError, match="not reduced"):
            plan_shell(lat, z, 1e3 * bulk_rounding_bound(lat, z, "wp"), "wp")
        basis = reduce_lattice(lat).basis
        assert plan_shell(basis, 0.5 * basis.geometry.delta, 1e-8, "wp").c_max == 0

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_tiny_tol_refused(self, tol):
        # refused as out of reach, not by an overflow in the box estimate
        with pytest.raises(PrecisionError):
            plan_truncation(Lattice(1j, 1.0), 0.4, tol)

    def test_point_budget(self):
        # a basis far from reduced (Im tau = 0.003) would need about 1100 lines
        # of thousands of points (h2 = 0.003 |omega2|): refused by its ratio; its
        # reduced basis (Im tau about 333) sums one line
        lat = Lattice(1 + 0.003j, 1.0)
        with pytest.raises(DomainError, match="not reduced"):
            plan_shell(lat, 0.5 * lat.geometry.delta, 1e-8, "wp")
        basis = reduce_lattice(lat).basis
        assert plan_shell(basis, 0.5 * basis.geometry.delta, 1e-8, "wp").c_max == 0

    def test_far_from_reduced_basis_plans_quickly(self, monkeypatch):
        # Im tau = 9.5e-6: the search once walked 17,019 values of c_max here;
        # the basis is refused before any bound is evaluated
        calls, far = [], _Bounds.far

        def counted(*args):
            calls.append(args)
            return far(*args)

        monkeypatch.setattr(_Bounds, "far", counted)
        lat = Lattice(-0.0015829836430624915 + 4.184715062317356e-05j, 4.395371689954808)
        with pytest.raises(DomainError, match="not reduced"):
            plan_shell(lat, 4.18e-11, 2.1e-12, "wzeta")
        assert calls == []

    def test_reference_plan_reaches_1e8(self):
        plan = plan_truncation(Lattice(1j, 1.0), 0.4, 1e-8)
        assert plan.tail_bound <= 1e-8

    @pytest.mark.parametrize(
        "lat,z",
        [
            (Lattice(1j, 1.0), 0.4),
            (Lattice(1j, 1.0), 0.28 + 0.3j),
            (Lattice(0.5 + 1.2j, 1.0), -0.25 + 0.33j),
        ],
    )
    def test_doubling_stays_within_tail_bound(self, lat, z):
        for kind in ("wp", "wzeta"):
            plan = plan_truncation(lat, abs(z), 1e-4, kind=kind)
            a = shell_value(lat, z, plan)
            assert abs(a.value - _doubled(lat, z, plan).value) < plan.tail_bound


    def test_shell_value_sums_the_plan_kind(self):
        # the plan carries its kind: a wzeta plan gives wzeta, within its certificate
        mp = pytest.importorskip("mpmath")
        lat = Lattice(0.3 + 1.1j, 1.0)
        for z in (0.2 + 0.1j, -0.35 + 0.3j, 0.45j):
            cv = shell_value(lat, z, shells.plan_shell(lat, z, 1e-6, "wzeta"))
            with mp.workdps(40):
                assert abs(mp.mpc(cv.value) - mp_wzeta_mpc(0.3 + 1.1j, z)) <= cv.error, z

    @pytest.mark.parametrize("kind", ["wp", "wzeta"])
    def test_shell_value_refuses_z_beyond_the_plan(self, kind):
        # the plan's tail bound holds for |z| <= z_bound only
        lat = Lattice(0.3 + 1.1j, 1.0)
        plan = plan_truncation(lat, 1e-6, 1e-6, kind=kind)
        for z in (0.5, -0.3 + 0.6j, 0.95j):
            with pytest.raises(DomainError, match="z_bound"):
                shell_value(lat, z, plan)


def _doubled(lat, z, plan):
    """The shell value on the box of twice the plan's half-widths, its lines closed alike."""
    doubled = dataclasses.replace(plan, c_max=2 * plan.c_max, d_max=2 * plan.d_max)
    return shell_value(lat, z, doubled)


class TestTailBound:
    """Bounds (i), the far lines |c| > c_max, and (ii), the partial lines
    |c| <= c_max, |d| > d_max, against the sums they bound."""

    @pytest.mark.parametrize(
        "basis",
        [(0.5 + 0.5j * math.sqrt(3.0), 1.0), (1j, 1.0), (0.3 + 1.1j, 1.0), (20j, 1.0), (2.3 + 1.7j, 1.1 - 0.4j)],
    )
    def test_far_lines(self, basis):
        # the hexagonal basis has delta = Im tau: at |z| = 0.999 delta next to
        # i*omega2, y -> Im tau and rho -> 1
        lat = reduce_lattice(Lattice(*basis)).basis
        unit = lat.omega2 / abs(lat.omega2)
        for frac in (0.3, 0.999):
            for theta in (0.0, 1.1, 0.5 * math.pi, 2.5):
                z = frac * lat.geometry.delta * unit * cmath.exp(1j * theta)
                for kind in ("wp", "wzeta"):
                    for c_max in (0, 1, 3):
                        bound = _far_bound(lat, kind, abs(z), c_max)
                        assert _mp_far_lines(lat, kind, z, c_max) <= bound, (frac, theta, kind)

    @pytest.mark.parametrize(
        "basis,tol,k",
        [
            ((0.3 + 1.1j, 1.0), 1e-3, 12),
            ((20j, 1.0), 3e-6, 10),
            ((0.5 + 0.866j, 1.0), 1e-3, 12),
            ((2.3 + 1.7j, 1.1 - 0.4j), 1e-3, 12),
        ],
    )
    def test_corners_counted_once(self, basis, tol, k):
        # bound (ii) takes only the partial lines, closed by Euler-Maclaurin:
        # the box's corners lie on the far lines of bound (i).  Against the
        # exact partial lines at the plan's d_max and at k times it
        lat = reduce_lattice(Lattice(*basis)).basis
        delta = lat.geometry.delta
        plan = plan_truncation(lat, 0.5 * delta, tol)
        for d_max in (plan.d_max, k * plan.d_max):
            for kind in ("wp", "wzeta"):
                bound = _partial_bound(lat, kind, 0.5 * delta, plan.c_max, d_max)
                assert bound == pytest.approx(_em_bound(lat, kind, 0.5 * delta, plan.c_max, d_max), rel=1e-11)
                for theta in (0.0, 1.3, 0.5 * math.pi):
                    z = 0.5 * delta * cmath.exp(1j * theta)
                    miss = _mp_partial_lines(lat, kind, z, plan.c_max, d_max) - _closures(lat, z, plan.c_max, d_max, kind)
                    assert abs(miss) <= bound, (kind, d_max, theta)

    def test_full_columns_off_a_reduced_basis(self):
        # the far lines are whole columns; far from reduced (Im tau = 1, tau = 3 + i)
        # the route refuses the basis, and bounds them on the reduced one
        lat = Lattice(3 + 1j, 1.0)
        basis = reduce_lattice(lat).basis
        for frac in (0.1, 0.999):
            z = frac * basis.geometry.delta * cmath.exp(0.4j)
            with pytest.raises(DomainError, match="not reduced"):
                plan_shell(lat, z, 1e-6, "wp")
            for kind in ("wp", "wzeta"):
                for c_max in (0, 2, 5):
                    assert _mp_far_lines(basis, kind, z, c_max) <= _far_bound(basis, kind, abs(z), c_max)

    def test_single_row_box(self):
        # with d_max = 0 every line is closed from its midpoint c omega1 + omega2/2,
        # which the margin (d_max + 1/2) h2 >= 2|z| admits for |z| <= h2/4
        lat = reduce_lattice(Lattice(0.3 + 1.1j, 1.0)).basis
        z_bound = 0.24 * lat.geometry.h2
        for kind in ("wp", "wzeta"):
            bound = _partial_bound(lat, kind, z_bound, 20, 0)
            assert bound < math.inf
            for theta in (0.2, 2.0, 4.0):
                z = z_bound * cmath.exp(1j * theta)
                assert abs(_mp_partial_lines(lat, kind, z, 20, 0) - _closures(lat, z, 20, 0, kind)) <= bound
        assert _partial_bound(lat, "wp", 0.26 * lat.geometry.h2, 20, 0) == math.inf

    def test_rho_at_one_is_infinite(self):
        # |z| at the margin of the hexagonal basis, where y = Im tau
        lat = reduce_lattice(Lattice(0.5 + 0.5j * math.sqrt(3.0), 1.0)).basis
        assert _far_bound(lat, "wp", lat.geometry.delta * (1.0 + 1e-13), 0) == math.inf
        with pytest.raises(PrecisionError, match="over the budget"):
            plan_truncation(lat, lat.geometry.delta * (1.0 + 1e-13), 1e-3)


def _mp_far_lines(lat, kind, z, c_max):
    """|Sum of f(w) over the lines |c| > c_max|, from the closed-form line pairs in 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        w1, w2, z = mp.mpc(lat.omega1), mp.mpc(lat.omega2), mp.mpc(z)
        tau, zp = w1 / w2, z / w2
        total = 0
        # the rows fall by exp(-2 pi Im tau): these reach 1e-45 of the first
        for c in range(c_max + 1, c_max + 3 + math.ceil(104.0 / (2.0 * math.pi * float(tau.imag)))):
            a, b, t = mp.pi * (zp - c * tau), mp.pi * (zp + c * tau), mp.pi * c * tau
            if kind == "wp":
                total += mp.pi**2 * (mp.csc(a) ** 2 + mp.csc(b) ** 2 - 2 * mp.csc(t) ** 2) / w2**2
            else:
                total += mp.pi * (mp.cot(a) + mp.cot(b)) / w2 + z * 2 * mp.pi**2 * mp.csc(t) ** 2 / w2**2
        return float(abs(total))


def _mp_partial_lines(lat, kind, z, c_max, d_max):
    """The sum of f(w) over the partial lines |c| <= c_max, |d| > d_max, in 40 digits.

    In pairs, w = omega2 (d + a) with a = c tau: Hurwitz zeta values for wp,
    a digamma difference and a Hurwitz zeta value for wzeta.
    """
    import mpmath as mp

    with mp.workdps(40):
        w1, w2, z = mp.mpc(lat.omega1), mp.mpc(lat.omega2), mp.mpc(z)
        zp, total = z / w2, 0
        for c in range(-c_max, c_max + 1):
            start = d_max + 1 + c * w1 / w2
            if kind == "wp":
                total += (mp.zeta(2, start - zp) + mp.zeta(2, start + zp) - 2 * mp.zeta(2, start)) / w2**2
            else:
                total += (mp.digamma(start - zp) - mp.digamma(start + zp)) / w2 + 2 * z * mp.zeta(2, start) / w2**2
        return complex(total)


def _em_bound(lat, kind, z_bound, c_max, d_max):
    """Bound (ii) from its formula: 2 (2 c_max + 1) times the remainder
    |B_12| 13 |omega2|^12 kappa |z|^e / (h2 G^14) plus 256u times the
    moduli of the closure's terms (module docstring of shells, Tail (ii))."""
    u = 2.0**-53
    l1, l2 = abs(lat.omega1), abs(lat.omega2)
    h2 = lat.geometry.h2 * (1.0 - 16.0 * u * l2 / lat.geometry.h2)
    start = (d_max + 0.5) * h2 - 2.0 * u * (c_max * l1 + (d_max + 1) * l2)
    far = start - z_bound
    halves = [float((Fraction(2) ** (1 - 2 * k) - 1) * bernoulli(2 * k)) for k in range(1, 7)]
    if kind == "wp":
        remainder = 691.0 / 2730.0 * 13 * z_bound / (h2 * l2**2) * (l2 / far) ** 14
        terms = 4.0 * z_bound**2 / (3.0 * l2 * start**3)
        terms += sum(2.0 * abs(b) * (l2 / far) ** (2 * k - 1) / far**2 for k, b in enumerate(halves, 1))
    else:
        remainder = 691.0 / 2730.0 * 13 * 0.5 * z_bound**2 / (h2 * l2**2) * (l2 / far) ** 14
        terms = 4.0 * z_bound**3 / (9.0 * l2 * start**3)
        terms += sum(abs(b) * (2 + 2 * k) / (4 * k) * (l2 / far) ** (2 * k - 1) / far for k, b in enumerate(halves, 1))
    return 2.0 * (2 * c_max + 1) * (remainder + 256.0 * u * terms)


# elongated, near-square, tall and skewed bases
PLAN_BASES = [(20j, 1.0), (0.3 + 1.1j, 1.0), (1.0, 4j), (2.3 + 1.7j, 1.1 - 0.4j)]
LATTICE_FNS = (("wp", wp_lattice), ("wzeta", wzeta_lattice))


def _is_fewest_on_the_rule(lat, tol, plan):
    """The plan meets tol, its d_max - 1 misses (or d_max = d_min), and no
    c_max has a box that meets tol with fewer points (or as few, before it)."""
    kind, z_bound = plan.kind, plan.z_bound
    rounding = bulk_rounding_bound(lat, z_bound, kind)

    def spent(c, d):
        return _far_bound(lat, kind, z_bound, c) + _partial_bound(lat, kind, z_bound, c, d) + rounding

    def fewest_rows(c):
        # the smallest d_max >= 1 that meets tol on c_max = c, by bisection
        lo, hi = 0, POINT_BUDGET
        if spent(c, hi) > tol:
            return None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if spent(c, mid) <= tol else (mid, hi)
        return hi

    if spent(*plan.box) > tol or fewest_rows(plan.c_max) != plan.d_max:
        return False
    for c in range(POINT_BUDGET):
        # no box on c_max = c has fewer lines than 2c + 1 or rows than d_max >= 1
        if (2 * c + 1) * 3 - 1 > plan.point_count:
            return True
        d = fewest_rows(c)
        if d is not None:
            points = (2 * c + 1) * (2 * d + 1) - 1
            if points < plan.point_count or (points == plan.point_count and c < plan.c_max):
                return False
    return True


class TestFullTolerancePlans:
    """The shell route's box takes all of tol that the rounding leaves."""

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("basis", PLAN_BASES)
    def test_plans_on_the_grid(self, basis, tol):
        lat = Lattice(*basis)
        red = reduce_lattice(lat)
        z = 0.1 * red.basis.geometry.delta * cmath.exp(0.7j)
        for kind, fn in LATTICE_FNS:
            shell, info = _reported(fn, lat, z, tol, route="shell")
            series = fn(lat, z, tol, route="series")
            assert shell.error <= tol
            assert abs(shell.value - series.value) <= shell.error + series.error
            # doubling the box moves the sum by less than its tail bound
            plan = TruncationPlan(info["c_max"], info["d_max"], info["tail_bound"], info["shell_constant"], kind, abs(z))
            assert abs(shell.value - _doubled(red.basis, z, plan).value) < info["tail_bound"]
            # no larger in either half-width than the box of a tail within tol/2
            half = plan_truncation(red.basis, abs(z), 0.5 * tol, kind=kind)
            assert info["c_max"] <= half.c_max and info["d_max"] <= half.d_max

    def test_benchmark_plans(self, monkeypatch):
        # bounding the whole outside by Sum |w|^-4 needed (156, 3101),
        # 1,941,538 points, and (1929, 2199), 16,975,740 points; the far
        # lines' row tails left one line of 736 points resp. seven of 3,072,
        # and closing the lines by Euler-Maclaurin leaves 10 resp. 62
        plans = []

        def spy(lat, z_bound, tol, *, kind):
            plans.append((lat, tol, plan_truncation(lat, z_bound, tol, kind=kind)))
            return plans[-1][2]

        monkeypatch.setattr(shells, "plan_truncation", spy)
        wp_value, elongated = _reported(wp_lattice, Lattice(20j, 1.0), 0.5, 1e-8, route="shell")
        zeta_value, square = _reported(wzeta_lattice, Lattice(0.3 + 1.1j, 1.0), 0.25 - 0.1j, 1e-8, route="shell")
        assert (elongated["c_max"], elongated["d_max"], elongated["points"]) == (0, 5, 10)
        assert (square["c_max"], square["d_max"], square["points"]) == (3, 4, 62)
        assert len(plans) == 2
        for lat, share, plan in plans:
            assert _is_fewest_on_the_rule(lat, share, plan)
        # and the values summed on them lie within their certificates of the 40-digit oracle
        assert abs(wp_value.value - mp_wp(20j, 0.5)) <= wp_value.error <= 1e-8
        assert abs(zeta_value.value - mp_wzeta(0.3 + 1.1j, 0.25 - 0.1j)) <= zeta_value.error <= 1e-8

    @pytest.mark.parametrize("tol", [1e-3, 1e-5, 1e-7, 1e-9, 1e-12])
    @pytest.mark.parametrize("basis", PLAN_BASES + [(0.5 + 0.866j, 1.0)])
    def test_plan_is_the_first_box_on_the_rule(self, basis, tol):
        lat = reduce_lattice(Lattice(*basis)).basis
        for frac in (0.05, 0.5, 0.999, 1.0):
            for kind in ("wp", "wzeta"):
                try:
                    plan = plan_truncation(lat, frac * lat.geometry.delta, tol, kind=kind)
                except PrecisionError:
                    continue
                assert _is_fewest_on_the_rule(lat, tol, plan), (frac, kind)

    @pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("basis", [(1 + 0.3j, 1.0), (1.0, 0.2 + 0.4j)])
    def test_plan_off_a_reduced_basis_is_a_candidate(self, basis, tol):
        # the shell route refuses the basis; on the reduced one, the two
        # candidates by direct scans: c1, the first c_max whose bound (i) is
        # below what the rounding leaves of tol, and c1 + 1, each with its
        # fewest rows; the plan is the one with fewer points, and meets tol
        with pytest.raises(DomainError, match="not reduced"):
            plan_shell(Lattice(*basis), 1e-3, tol, "wp")
        lat = reduce_lattice(Lattice(*basis)).basis
        for frac in (0.05, 0.5, 0.999):
            for kind in ("wp", "wzeta"):
                z_bound = frac * lat.geometry.delta
                rounding = bulk_rounding_bound(lat, z_bound, kind)
                if rounding >= tol:
                    with pytest.raises(PrecisionError, match="rounding bound"):
                        plan_truncation(lat, z_bound, tol, kind=kind)
                    continue
                budget = tol - rounding
                c1 = next(c for c in range(POINT_BUDGET) if _far_bound(lat, kind, z_bound, c) < budget)
                boxes = []
                for c in (c1, c1 + 1):
                    share = budget - _far_bound(lat, kind, z_bound, c)
                    d = next(d for d in range(1, POINT_BUDGET) if _partial_bound(lat, kind, z_bound, c, d) <= share)
                    boxes.append(((2 * c + 1) * (2 * d + 1) - 1, c, d))
                plan = plan_truncation(lat, z_bound, tol, kind=kind)
                assert plan.box == min(boxes)[1:], (frac, kind)
                assert plan.tail_bound + rounding <= tol
                spent = _far_bound(lat, kind, z_bound, plan.c_max) + _partial_bound(lat, kind, z_bound, *plan.box)
                assert plan.tail_bound == spent

    def test_plan_off_a_reduced_basis_may_not_be_the_fewest(self):
        # Im tau = 0.25: bound (i) would fall by only exp(-pi/2) per line, and
        # the box of c_max = 19, beyond the candidates 17 and 18, had fewer
        # points.  The route refuses the basis, and on the reduced one its plan
        # is the fewest on the rule
        lat = Lattice(0.16426680087030032 + 0.24948510656751263j, 1.0)
        z_bound, tol = 0.12474255328375632, 2.3379565877421616e-11
        with pytest.raises(DomainError, match="not reduced"):
            plan_shell(lat, z_bound, tol, "wzeta")
        basis = reduce_lattice(lat).basis
        plan = plan_truncation(basis, 0.5 * basis.geometry.delta, tol, kind="wzeta")
        assert _is_fewest_on_the_rule(basis, tol, plan)

    def test_plans_evaluate_few_bounds(self, monkeypatch):
        # the benchmark's two plans and the six of an h on the shell route
        # evaluate no more bounds (i) and (ii) than the search they replaced
        # did: 5, 7 and 42
        calls = []

        def counted(bound):
            def spy(*args):
                calls.append(args)
                return bound(*args)

            return spy

        monkeypatch.setattr(_Bounds, "far", counted(_Bounds.far))
        monkeypatch.setattr(_Bounds, "partial", counted(_Bounds.partial))
        half, third = RationalPair.of(0, Fraction(1, 2)), RationalPair.of(0, Fraction(1, 3))
        for run, parent in (
            (lambda: eval_f(half, 20j, 1e-8, route="shell"), 5),
            (lambda: wzeta_lattice(Lattice(0.3 + 1.1j, 1.0), 0.25 - 0.1j, 1e-8, route="shell"), 7),
            (lambda: eval_h(2, third, 1.1j, 1e-6, route="shell"), 42),
        ):
            calls.clear()
            run()
            assert 0 < len(calls) <= parent

    def test_shell_value_derives_each_bound_once(self, monkeypatch):
        # the benchmark's two values: one pole check, one first shell and one a
        # priori rounding, which the value reuses from its plan, and no more
        # row tails (bound (i)) than the c walk needs: c = 0, the start, its
        # steps and c1 + 1
        counts = {}

        def counted(name, fn):
            def spy(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return spy

        for name in ("_check_pole", "_first_shell", "bulk_rounding_bound", "_wp_tail", "_z_tail"):
            monkeypatch.setattr(shells, name, counted(name, getattr(shells, name)))
        half = RationalPair.of(0, Fraction(1, 2))
        for fn, args in ((eval_f, (half, 20j)), (wzeta_lattice, (Lattice(0.3 + 1.1j, 1.0), 0.25 - 0.1j))):
            counts.clear()
            _, info = _reported(fn, *args, 1e-8, route="shell")
            assert counts["_check_pole"] == 1 and counts["_first_shell"] == 1 and counts["bulk_rounding_bound"] == 1
            assert counts.get("_wp_tail", 0) + counts.get("_z_tail", 0) <= info["c_max"] + 2

    def test_closure_series_meets_its_budget(self):
        # the wzeta closure's integral -Sum_{j<J} t^(2j+3)/(2j+3) at J =
        # _atanh_terms(|t|^2) is within u |t|^3 of -(atanh(t) - t); J is at most
        # 24 at |t| = 1/2, where J - 1 terms miss by 3.5 u |t|^3
        mp = pytest.importorskip("mpmath")
        rng = random.Random(34)
        ts = [0.5, -0.5j, 0.5 * cmath.exp(0.3j), 1e-8, 1e-8j]
        ts += [rng.uniform(0.0, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(300)]
        with mp.workdps(40):
            for t in map(complex, ts):
                terms = _atanh_terms(abs(t) ** 2)
                partial = mp.fsum(mp.mpc(t) ** (2 * j + 3) / (2 * j + 3) for j in range(terms))
                assert terms <= 24 and abs(partial - (mp.atanh(t) - t)) <= 2.0**-53 * abs(t) ** 3, t

    def test_row_walk_starts_at_the_rounding_root(self, monkeypatch):
        # here the closures' rounding, not the Euler-Maclaurin remainder, decides
        # d_max: a walk from the remainder's root, near 19, took 1,149 steps
        calls, partial = [], _Bounds.partial

        def spy(*args):
            calls.append(args)
            return partial(*args)

        monkeypatch.setattr(_Bounds, "partial", spy)
        lat = Lattice(-5.617658370119283e-09 - 1.3856758031920324e-07j, -5.176745466573823e-08 + 8.239493606701452e-09j)
        plan = plan_truncation(lat, 2.6029363975198063e-09, 3.2232215424625084e-11, kind="wzeta")
        assert plan.box == (2, 593) and len(calls) <= 10

    @pytest.mark.parametrize(
        "basis,z,tol",
        [
            ((20j, 1.0), 0.5, 1e-8),
            ((0.3 + 1.1j, 1.0), 0.25 - 0.1j, 1e-6),
            ((1.0, 4j), -0.3 + 0.2j, 1e-6),
            ((2.3 + 1.7j, 1.1 - 0.4j), 0.1 + 0.05j, 1e-7),
        ],
    )
    def test_describe_route_reports_the_summed_box(self, basis, z, tol, monkeypatch):
        boxes = []

        def spy(lat, z, plan):
            boxes.append(plan.box)
            return shell_sum(lat, z, plan)

        monkeypatch.setattr(shells, "shell_sum", spy)
        lat = Lattice(*basis)
        for kind, fn in LATTICE_FNS:
            boxes.clear()
            fn(lat, z, tol, route="shell")
            _, info = _reported(fn, lat, z, tol, route="shell")
            # the evaluation's box, then that of the reported evaluation
            assert boxes == [(info["c_max"], info["d_max"])] * 2

    def test_describe_route_reports_every_box_of_a_label(self, monkeypatch):
        # eval_g sums the label's box and the one of eta2 = 2 wzeta(1/2)
        boxes = []

        def spy(lat, z, plan):
            boxes.append(plan.box)
            return shell_sum(lat, z, plan)

        monkeypatch.setattr(shells, "shell_sum", spy)
        label = (Fraction(4, 3), Fraction(1, 3))
        eval_g(RationalPair.of(*label), 1.2j, 1e-6, route="shell")
        summed = list(boxes)
        boxes.clear()
        _, info = _reported(eval_g, RationalPair.of(*label), 1.2j, 1e-6, route="shell")
        assert boxes == summed
        assert info == {"route": "shell", "boxes": 2, "points": 88}
        assert sum((2 * c + 1) * (2 * d + 1) - 1 for c, d in summed) == 88

    def test_rounding_alone_over_tol_is_refused_before_summing(self, monkeypatch):
        # near the pole the principal part's rounding alone exceeds tol
        def no_sum(*args, **kwargs):
            raise AssertionError("summed a refused box")

        monkeypatch.setattr(shells, "shell_sum", no_sum)
        with pytest.raises(PrecisionError, match="certificate exceeds"):
            wp_lattice(Lattice(1j, 1.0), 1e-7, 1e-12, route="shell")
        with pytest.raises(PrecisionError, match="certificate exceeds"):
            _reported(wp_lattice, Lattice(1j, 1.0), 1e-7, 1e-12, route="shell")


class TestKernelParity:
    def test_paired_half_box_matches_unpaired_full_box(self):
        w1, w2 = 0.4 + 1.3j, 1.0
        z = 0.27 - 0.19j
        unpaired = {
            "wp": lambda w: 1.0 / (z - w) ** 2 - 1.0 / w**2,
            "wzeta": lambda w: 1.0 / (z - w) + 1.0 / w + z / w**2,
        }
        for c_max, d_max in ((7, 9), (12, 3), (0, 5), (4, 0)):
            for kind, f in unpaired.items():
                terms = [
                    f(c * w1 + d * w2)
                    for c in range(-c_max, c_max + 1)
                    for d in range(-d_max, d_max + 1)
                    if c or d
                ]
                ref = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
                total, rounding = shell_sum(Lattice(w1, w2), z, TruncationPlan(c_max, d_max, 0.0, 1.0, kind, abs(z)))
                assert abs(total - ref) <= 1e-13 * abs(ref)
                assert 0.0 < rounding < 1e-12

    @pytest.mark.parametrize("re_tau", [0.0, 0.5])
    @pytest.mark.parametrize("im_tau", [0.87, 2.0, 20.0, 50.0])
    def test_a_priori_abs_bound_dominates_bulk(self, im_tau, re_tau):
        # Sum |g| over the half-box points with max(|c|, |d|) >= 2, which the
        # kernel's rounding bound takes from _bulk_abs_bound instead of measuring
        lat = reduce_lattice(Lattice(complex(re_tau, im_tau), 1.0)).basis
        delta = lat.geometry.delta
        for rho in (0.2, 1.0):
            for kind in ("wp", "wzeta"):
                plan = plan_truncation(lat, rho * delta, 1e-3, kind=kind)
                c = np.arange(-plan.c_max, plan.c_max + 1)
                d = np.arange(plan.d_max + 1)[:, None]
                bulk = ((d > 0) | (c > 0)) & (np.maximum(abs(c), d) >= 2)
                w = (c * lat.omega1 + d * lat.omega2)[bulk]
                for theta in (0.3, 1.9, 3.0):
                    z = rho * delta * cmath.exp(1j * theta)
                    q = (z - w) * (z + w)
                    if kind == "wp":
                        g = z * z * (3.0 * w * w - z * z) / (q * q * w * w)
                    else:
                        g = z**3 / (q * w * w)
                    assert np.abs(g).sum() <= _bulk_abs_bound(lat, abs(z), kind), (rho, kind, theta)


class TestErrors:
    def test_pole_on_lattice_point(self):
        with pytest.raises(PoleError):
            wp(1j, 0.0, 1e-8)
        with pytest.raises(PoleError):
            wp(1j, 1 + 1j, 1e-8)
        with pytest.raises(PoleError):
            wzeta(1j, complex(3.0, 2.0), 1e-8)

    def test_pole_carries_nearest_point(self):
        try:
            wp(1j, 2 + 3j + 1e-12, 1e-8)
        except PoleError as exc:
            assert exc.nearest is not None
            assert abs(exc.nearest - (2 + 3j)) < 1e-9
        else:
            pytest.fail("expected PoleError")

    @pytest.mark.parametrize("corner", [0j, 2.0 * (0.5 + 0.87j) + 1.0, -(0.5 + 0.87j)])
    def test_pole_guard_on_sheared_basis(self, corner):
        # tau near the corner of the fundamental domain: delta (min over the
        # basis edges) is well below |J| = 1, so the guard's |J| prefilter must
        # not decide on its own
        tau = 0.5 + 0.87j
        delta = reduce_lattice(Lattice(tau, 1.0)).basis.geometry.delta
        assert delta < 0.9
        direction = cmath.exp(0.3j)
        near = corner + 0.99 * POLE_RTOL * delta * direction
        for call in (
            lambda z: wp(tau, z, 1e-8),
            lambda z: wzeta(tau, z, 1e-8),
            lambda z: wp_lattice(Lattice(tau, 1.0), z, 1e-8),
        ):
            with pytest.raises(PoleError) as info:
                call(near)
            assert info.value.nearest == near - reduce_lattice(Lattice(tau, 1.0), near).point
            assert abs(info.value.nearest - corner) < 1e-15
            cv = call(corner + 1.01 * POLE_RTOL * delta * direction)
            assert cmath.isfinite(cv.value)

    def test_label_of_high_level_is_a_pole(self):
        # the label (1/10^9, 0) is exactly off the lattice, but its point lies
        # within POLE_RTOL of 0: refused by the label's name, nearest 0
        with pytest.raises(PoleError, match=r"label \(1/1000000000, 0\)") as info:
            eval_f(RationalPair.of(Fraction(1, 10**9), 0), 1j)
        assert info.value.nearest == 0j

    def test_reports_at_the_callers_scale(self):
        # the evaluation runs on the unit-scale reduction; the pole's nearest
        # lattice point and the reported scale are the caller's
        big = Lattice(1e100j, 1e100)
        with pytest.raises(PoleError) as info:
            wp_lattice(big, 3e100 + 2e100j + 1e80, 1e-200)
        assert abs(info.value.nearest - (3e100 + 2e100j)) <= 1e-15 * 1e100
        with pytest.raises(PoleError) as info:
            list(_reduce(big, ((2 + Fraction(1, 10**9), Fraction(3)),)))
        assert abs(info.value.nearest - (3e100 + 2e100j)) <= 1e-15 * 1e100
        for lat, modulus in ((big, 1e100), (Lattice(0.8j, 1.0), 0.8)):
            assert _reported(wp_lattice, lat, 0.3 * lat.omega2, route="series")[1]["scale_modulus"] == modulus

    def test_shell_route_at_a_lattice_point(self):
        # z = 0 and the first-shell points are poles, not a division by zero
        lat = Lattice(1j, 1.0)
        for call in (
            lambda: shells.plan_shell(lat, 1.0, 1e-6, "wp"),
            lambda: shells.plan_shell(lat, 0j, 1e-6, "wp"),
            lambda: shell_value(lat, -1.0, shells.TruncationPlan(2, 2, 1e-6, 1.0, "wzeta", 1.0)),
            lambda: shells.shell_route(lat, -1j, 1e-6, "wzeta"),
            lambda: shell_value(lat, 0j, plan_truncation(lat, 0.5, 1e-6)),
        ):
            with pytest.raises(PoleError):
                call()

    def test_tolerance_floor(self):
        # no tolerance floor: a tol below 1e-12 returns a certificate that holds
        cv = wp(1j, 0.5, 1e-13)
        assert abs(cv.value - mp_wp(1j, 0.5, rows=12, dps=30)) <= cv.error

    def test_floor_tolerance_falls_back_to_series(self):
        # the shell plan for 5e-13 would blow the shell cap; auto must not
        # surface that as a failure
        cv = wp(1j, 0.5, 1e-12)
        assert cv.error <= 1e-12

    def test_forced_shell_margin_failure(self):
        # z far outside the margin of the long thin lattice
        with pytest.raises(PrecisionError):
            wp_lattice(Lattice(20j, 1.0), 10j, 1e-8, route="shell")

    def test_degenerate_lattice_rejected(self):
        with pytest.raises(DomainError):
            Lattice(1.0, 2.0)
        with pytest.raises(DomainError):
            wp(1.0 - 1j, 0.5, 1e-8)


def _fraction_reduction(lat: Lattice, z):
    """reduce_lattice's outputs from Fraction arithmetic, each rounded once at the end.

    z is a complex point or a label (s, t), the point s*omega1 + t*omega2.
    The lengths are at unit scale: over 2**k, the power of two at or below
    J's larger component.
    """
    a, b, c, d = reduce_tau_matrix(lat.tau)
    w1r, w1i, w2r, w2i = map(Fraction, (lat.omega1.real, lat.omega1.imag, lat.omega2.real, lat.omega2.imag))
    if isinstance(z, tuple):
        s, t = z
        zr, zi = s * w1r + t * w2r, s * w1i + t * w2i
    else:
        zr, zi = Fraction(z.real), Fraction(z.imag)
    ar, ai = a * w1r + b * w2r, a * w1i + b * w2i
    jr, ji = c * w1r + d * w2r, c * w1i + d * w2i
    norm = jr * jr + ji * ji
    det = ai * jr - ar * ji
    m, n = round((zi * jr - zr * ji) / det), round((ai * zr - ar * zi) / det)
    pr, pi = zr - m * ar - n * jr, zi - m * ai - n * ji
    top = max(abs(jr), abs(ji))
    k = top.numerator.bit_length() - top.denominator.bit_length()
    k -= Fraction(2) ** k > top
    unit = Fraction(2) ** k

    def fl(re, im):
        return complex(float(re), float(im))

    return {
        "matrix": (a, b, c, d),
        "tau": fl((ar * jr + ai * ji) / norm, det / norm),
        "jj": fl(jr / unit, ji / unit),
        "A": fl(ar / unit, ai / unit),
        "point": fl(pr / unit, pi / unit),
        "z0": fl((pr * jr + pi * ji) / norm, (pi * jr - pr * ji) / norm),
        "u": float((pi * jr - pr * ji) / det),
        "m": m,
        "n": n,
        "k": k,
    }


def _reduction_fields(red) -> dict:
    """The fields of a Reduction that _fraction_reduction computes."""
    return {
        "matrix": red.matrix,
        "tau": red.tau,
        "jj": red.jj,
        "A": red.basis.omega1,
        "point": red.point,
        "z0": red.z0,
        "u": red.u,
        "m": red.m,
        "n": red.n,
        "k": red.k,
    }


def _random_unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    """A word in T, T^-1 and S with entries at most 6."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(0, 8)):
        p, q, r, s = rng.choice(((1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)))
        step = (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)
        if max(map(abs, step)) > 6:
            break
        a, b, c, d = step
    return a, b, c, d


def _random_bases(seed: int, count: int = 300):
    """(lat, tau, w2): Im tau down to 1e-4; half the bases are tau*Z + Z itself,
    half that lattice rotated, scaled by w2 and given in a random unimodular basis."""
    rng = random.Random(seed)
    for k in range(count):
        tau = complex(rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-4.0, 0.5))
        if k % 2:
            w2 = cmath.rect(2.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            p, q, r, s = _random_unimodular(rng)
            yield rng, Lattice(p * tau * w2 + q * w2, r * tau * w2 + s * w2), tau, w2
        else:
            yield rng, Lattice(tau, 1.0), tau, 1.0


class TestReduction:
    def test_exact_reduction_matches_fractions(self):
        for rng, lat, tau, w2 in _random_bases(20261018):
            z = (rng.uniform(-1.5, 1.5) * tau + rng.uniform(-1.5, 1.5)) * w2
            red = reduce_lattice(lat, z)
            assert _reduction_fields(red) == _fraction_reduction(lat, z), (lat, z)
            assert red.basis.omega2 == red.jj
            assert abs(red.tau.real) <= 0.5 + 1e-9 and abs(red.tau) >= 1.0 - 1e-9

    def test_shared_reduction_matches_one_point_calls(self):
        # the points of one call share the lattice reduction and a common
        # denominator; each Reduction is still the one-point result, bit for bit
        for rng, lat, tau, w2 in _random_bases(20261019):
            zs = [
                (rng.uniform(-2.5, 2.5) * tau + rng.uniform(-2.5, 2.5)) * w2
                for _ in range(rng.randint(1, 4))
            ]
            reds = reduce_points(lat, zs)
            assert len(reds) == len(zs)
            for z, red in zip(zs, reds):
                one = reduce_lattice(lat, z)
                for field in dataclasses.fields(one):
                    got, want = getattr(red, field.name), getattr(one, field.name)
                    assert repr(got) == repr(want), (lat, z, field.name)

    def test_label_reduction_matches_fractions(self):
        # a label (s, t) is the point s*omega1 + t*omega2 taken exactly: every
        # output is its exact rational rounded once, in a call that mixes
        # labels and complex points as in one alone
        for rng, lat, tau, w2 in _random_bases(20261020):
            labels = [
                (Fraction(rng.randrange(-30, 30), q), Fraction(rng.randrange(-30, 30), rng.choice((1, 2, q))))
                for q in (rng.randint(1, 12), 2, rng.randint(1, 12))
            ]
            z = (rng.uniform(-1.5, 1.5) * tau + rng.uniform(-1.5, 1.5)) * w2
            points = [labels[0], z, labels[1], labels[2]]
            for p, red in zip(points, reduce_points(lat, points)):
                assert _reduction_fields(red) == _fraction_reduction(lat, p), (lat, p)
                assert _reduction_fields(reduce_lattice(lat, p)) == _fraction_reduction(lat, p)

    def test_reduction_ties_round_to_even(self):
        red = reduce_lattice(Lattice(1j, 1.0), 0.5 + 1.5j)
        assert (red.m, red.n, red.point) == (2, 0, 0.5 - 0.5j)

    def test_reduction_rejects_non_finite_point(self):
        with pytest.raises(DomainError):
            reduce_lattice(Lattice(1j, 1.0), complex(math.nan, 0.0))

    @pytest.mark.parametrize(
        "tau",
        [0.49 + 0.001j, -3.7 + 0.02j, 0.333 + 5e-4j, 10.2 + 0.3j],
    )
    def test_reduce_tau_matrix(self, tau):
        a, b, c, d = reduce_tau_matrix(tau)
        assert a * d - b * c == 1
        reduced = (a * tau + b) / (c * tau + d)
        assert abs(reduced.real) <= 0.5 + 1e-9
        assert abs(reduced) >= 1.0 - 1e-9

    def test_small_im_tau_evaluation(self):
        # Mobius-type image with tiny imaginary part still evaluates; the
        # certificate stays honest (values here are ~1e5, so the binary64
        # floor is far above 1e-8 absolute) and symmetry still holds
        tau = 0.25 + 4e-4j
        cv = wp(tau, 0.1 + 1e-4j, 1e-8)
        assert cmath.isfinite(cv.value)
        assert cv.error < 1e-2
        even = wp(tau, -(0.1 + 1e-4j), 1e-8)
        assert abs(cv.value - even.value) <= cv.error + even.error
