from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from weierforms import (
    DomainError,
    FormSpec,
    RationalPair,
    cusp_report,
    cusp_value,
    cusp_value_f_series,
    eval_f,
    lattice_row_sum_enclosure,
    lemma_eies_bound,
    run_suite,
)
from weierforms.cusp import _row_sum_enclosure

from oracles import mp_wp_mpc, mp_wzeta_mpc

PI = math.pi
ZETA3 = 1.2020569031595943  # classical constant, for the closed-bound spot check


def pair(s, t):
    return RationalPair.of(s, t)


def f_limit(s, t) -> complex:
    return cusp_value(FormSpec.wp_form(s, t)).value


def h_limit(r, t) -> complex:
    return cusp_value(FormSpec.h_form(r, 0, t)).value


class TestClosedCuspValuesF:
    def test_half(self):
        assert abs(f_limit(0, Fraction(1, 2)) - 2 * PI**2 / 3) < 1e-12

    def test_third(self):
        assert abs(f_limit(0, Fraction(1, 3)) - PI**2) < 1e-12

    def test_nonintegral_s_branch(self):
        assert abs(f_limit(Fraction(1, 2), 0) + PI**2 / 3) < 1e-14
        assert abs(f_limit(Fraction(1, 3), Fraction(1, 5)) + PI**2 / 3) < 1e-14

    def test_integral_rejected(self):
        with pytest.raises(DomainError):
            f_limit(1, 0)

    GRID = [
        (0, Fraction(1, 2)),
        (0, Fraction(1, 3)),
        (0, Fraction(1, 4)),
        (Fraction(1, 2), 0),
        (Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]

    @pytest.mark.parametrize("s,t", GRID)
    def test_numeric_limits_on_grid(self, s, t):
        p = pair(s, t)
        cv = eval_f(p, 20j, 1e-8)
        assert abs(cv.value - f_limit(s, t)) <= 1e-6


class TestSeriesIdentity:
    def test_half_value(self):
        cv = cusp_value_f_series(Fraction(1, 2), 60)
        assert abs(cv.value - 2 * PI**2 / 3) < 1e-10

    def test_third_value(self):
        cv = cusp_value_f_series(Fraction(1, 3), 80)
        assert abs(cv.value - PI**2) < 1e-10

    def test_quarter_matches_closed_form(self):
        cv = cusp_value_f_series(Fraction(1, 4), 80)
        closed = f_limit(0, Fraction(1, 4))
        assert abs(cv.value - closed) <= cv.error

    @pytest.mark.parametrize(
        "t", [Fraction(1, 6), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    )
    def test_identity_grid(self, t):
        cv = cusp_value_f_series(t, 80)
        closed = f_limit(0, t)
        assert abs(cv.value - closed) < 1e-10
        assert abs(cv.value - closed) <= cv.error  # stated tail bound honored

    def test_domain(self):
        with pytest.raises(DomainError):
            cusp_value_f_series(Fraction(3, 2), 40)
        with pytest.raises(DomainError):
            cusp_value_f_series(Fraction(1, 2), 0)

    def test_tail_bound_decreases_with_terms(self):
        e1 = cusp_value_f_series(Fraction(1, 2), 20).error
        e2 = cusp_value_f_series(Fraction(1, 2), 40).error
        assert e2 < e1


class TestClosedCuspValuesH:
    def test_value_at_third_is_real_sqrt3_pi(self):
        v = h_limit(2, Fraction(1, 3))
        assert abs(v.real - math.sqrt(3.0) * PI) < 1e-12
        assert abs(v.imag) < 1e-12

    def test_r_minus_one_vanishes(self):
        for t in (Fraction(1, 5), Fraction(1, 3), Fraction(2, 7)):
            assert abs(h_limit(-1, t)) < 1e-12

    @pytest.mark.parametrize("r,t", [(2, Fraction(1, 5)), (3, Fraction(1, 5)), (2, Fraction(2, 7))])
    def test_conjugate_symmetry(self, r, t):
        a = h_limit(r, t)
        b = h_limit(r, 1 - t)
        assert abs(b - (-a.conjugate())) < 1e-12

    def test_poles_rejected(self):
        with pytest.raises(DomainError):
            h_limit(2, Fraction(3, 1))
        with pytest.raises(DomainError):
            h_limit(3, Fraction(1, 3))
        with pytest.raises(DomainError):
            h_limit(0, Fraction(1, 3))

    def test_matches_numeric_limit(self):
        form = FormSpec.h_form(2, 0, Fraction(1, 3))
        cv = form.evaluate(20j, 1e-8)
        assert abs(cv.value - h_limit(2, Fraction(1, 3))) < 1e-6


class TestRowBound:
    def test_spot_value(self):
        zeta2 = PI**2 / 6
        expected = 4.0 * ZETA3 / 8.0 + 2.0 * PI * zeta2 / 4.0
        assert abs(lemma_eies_bound(3, 2.0) - expected) < 1e-9

    def test_monotone_in_height(self):
        assert lemma_eies_bound(3, 4.0) < lemma_eies_bound(3, 2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lemma_eies_bound(2, 1.0)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("im_tau", [1.0, 2.0, 5.0, 10.0])
    def test_truncated_sum_below_bound(self, k, im_tau):
        # the enclosure of the full sum, which bounds every truncation, stays below the lemma
        total = lattice_row_sum_enclosure(k, complex(0.0, im_tau))
        assert total.value.real + total.error < lemma_eies_bound(k, im_tau)
        assert _row_sum_broadcast(k, complex(0.0, im_tau), 200) < total.value.real + total.error

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("im_tau", [1.0, 2.0])
    def test_enclosure_contains_the_full_sum(self, k, im_tau):
        import mpmath as mp

        total = lattice_row_sum_enclosure(k, complex(0.0, im_tau))
        with mp.workdps(30):
            miss = abs(mp.mpf(total.value.real) - _mp_row_sum(k, im_tau))
        assert total.value.imag == 0.0 and miss <= total.error <= 1e-13 * total.value.real

    def test_enclosure_at_a_large_real_part(self):
        # the sum is invariant under tau -> tau + 1, and Re tau is reduced mod 1
        # exactly: at 1e17 the near rows' tail starts no longer cancel to 0
        at_i = lattice_row_sum_enclosure(3, 1j)
        far = lattice_row_sum_enclosure(3, 1e17 + 1j)
        assert (far.value, far.error) == (at_i.value, at_i.error)
        assert lattice_row_sum_enclosure(3, 3e15 + 1j).error < 1e-13


def _mp_row_sum(k, im_tau, dps=30):
    """The full sum at tau = i Y to dps digits by Poisson summation over d in each
    row (the Chowla-Selberg split): sum_d (d^2 + b^2)^-s is
    sqrt(pi) Gamma(s - 1/2)/Gamma(s) b^(1-2s) plus
    4 pi^s/Gamma(s) b^(1/2-s) sum_n n^(s-1/2) K_(s-1/2)(2 pi n b), s = k/2, b = cY."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        s, y = mp.mpf(k) / 2, mp.mpf(im_tau)
        total = mp.sqrt(mp.pi) * mp.gamma(s - 0.5) / mp.gamma(s) * y ** (1 - 2 * s) * mp.zeta(2 * s - 1)
        # K_nu(x) < e^-x: the terms stop below 10^-(dps + 8)
        c = 1
        while 2 * mp.pi * c * y < 2.5 * dps + 20:
            n = 1
            while 2 * mp.pi * n * c * y < 2.5 * dps + 20:
                b = c * y
                total += 4 * mp.pi**s / mp.gamma(s) * b ** (0.5 - s) * n ** (s - 0.5) * mp.besselk(s - 0.5, 2 * mp.pi * n * b)
                n += 1
            c += 1
        return 2 * total


def _mp_lattice_sum(k, tau, dps=30):
    """The sum over c != 0 and every d of |c tau + d|^-k to dps digits: tau is
    reduced in mpmath to tau_r = (a tau + b)/J, J = c tau + d, where the sum
    over all of tau*Z + Z is |J|^-k times that over tau_r*Z + Z, and the rows
    at tau_r = x + iy are summed as in _mp_row_sum, each term n times
    cos(2 pi n c x) (Poisson summation of sum_d ((d + c x)^2 + (c y)^2)^-s)."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        t, (a, b, c, d) = mp.mpc(tau), (1, 0, 0, 1)
        while True:
            n = int(mp.nint(t.real))
            t, a, b = t - n, a - n * c, b - n * d
            if abs(t) >= 1:
                break
            t, a, b, c, d = -1 / t, -c, -d, a, b
        s, x, y = mp.mpf(k) / 2, t.real, t.imag
        rows = mp.sqrt(mp.pi) * mp.gamma(s - 0.5) / mp.gamma(s) * y ** (1 - 2 * s) * mp.zeta(2 * s - 1)
        m = 1
        while 2 * mp.pi * m * y < 2.5 * dps + 20:
            n = 1
            while 2 * mp.pi * n * m * y < 2.5 * dps + 20:
                w = m * y
                rows += 4 * mp.pi**s / mp.gamma(s) * w ** (0.5 - s) * n ** (s - 0.5) * mp.besselk(s - 0.5, 2 * mp.pi * n * w) * mp.cos(2 * mp.pi * n * m * x)
                n += 1
            m += 1
        return abs(c * mp.mpc(tau) + d) ** -k * (2 * rows + 2 * mp.zeta(k)) - 2 * mp.zeta(k)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("tau", [0.3141 + 1e-3j, -0.2718 + 1e-6j])
def test_enclosure_at_small_height(k, tau):
    # the rows are summed at the reduced ratio, so a call takes well under 0.1 s
    # at any height (point by point, 16/Im tau rows took 1.2 s at 0.3 + 0.001i)
    import mpmath as mp

    start = time.perf_counter()
    total = lattice_row_sum_enclosure(k, tau)
    assert time.perf_counter() - start < 0.1
    with mp.workdps(30):
        miss = abs(mp.mpf(total.value.real) - _mp_lattice_sum(k, tau))
    assert total.value.imag == 0.0 and miss <= total.error <= 1e-13 * total.value.real


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("tau", [0.3 + 0.01j, 0.1 + 0.5j, 0.45 + 0.8j])
def test_reduced_enclosure_agrees_with_the_rows(k, tau):
    # at the reduced ratio and row by row at tau itself, the two enclosures meet
    reduced, direct = lattice_row_sum_enclosure(k, tau), _row_sum_enclosure(k, tau)
    assert abs(reduced.value - direct.value) <= reduced.error + direct.error


def _row_sum_broadcast(k, tau, shells):
    """The sum over c != 0, max(|c|, |d|) <= shells in numpy broadcast temporaries."""
    c = np.arange(1, shells + 1, dtype=np.float64)[:, None]
    d = np.arange(-shells, shells + 1, dtype=np.float64)[None, :]
    re = c * tau.real + d
    im = c * tau.imag
    mod2 = re * re + im * im
    return float(2.0 * np.sum(mod2 ** (-k / 2.0)))


@pytest.mark.parametrize("k", [3, 4, 5, 7])
@pytest.mark.parametrize("tau", [1j, 2j, 10j, 0.3 + 1.1j, -0.5 + 0.87j])
@pytest.mark.parametrize("shells", [1, 17, 500])
def test_row_sum_matches_broadcast_reference(k, tau, shells):
    # the truncated sum lies below the enclosure's upper end, and its omitted
    # points bound the distance to the lower end: tau is reduced, so
    # |c tau + d|^2 >= (c^2 + d^2)/2 and the 8m - 2 points with c != 0 and
    # max(|c|, |d|) = m add at most 8m (m^2/2)^(-k/2)
    total = lattice_row_sum_enclosure(k, tau)
    truncated = _row_sum_broadcast(k, tau, shells)
    omitted = 8.0 * 2.0 ** (k / 2.0) * shells ** (2 - k) / (k - 2)
    assert total.value.real - total.error <= truncated * (1.0 + 1e-12) + omitted
    assert truncated * (1.0 - 1e-12) <= total.value.real + total.error


class TestZetaRecovery:
    def test_recovery_passes(self):
        rows = run_suite("zeta2").rows
        assert [r.id for r in rows] == ["zeta2-Y5", "zeta2-Y10", "zeta2-Y20", "zeta2-implied"]
        assert all(r.passed and r.residual <= r.bound for r in rows)
        assert abs(rows[-1].value.real - PI**2 / 6.0) < 1e-8

    def test_residuals_decrease_then_floor(self):
        rows = run_suite("zeta2").rows
        assert rows[0].residual >= rows[1].residual - 1e-14


class TestReports:
    def test_cusp_report_valid(self):
        rep = cusp_report(FormSpec.wp_form(0, Fraction(1, 2)), 20.0, 1e-8)
        assert rep.valid
        assert rep.residual < 1e-6
        assert abs(rep.closed_form - 2 * PI**2 / 3) < 1e-12

    def test_report_bound_sums_its_parts(self):
        rep = cusp_report(FormSpec.h_form(3, 0, Fraction(1, 5)), 20.0, 1e-8)
        assert rep.bound == rep.numeric.error + rep.closed_error + rep.gap
        assert rep.valid and rep.bound < 1e-12

    @pytest.mark.parametrize("Y", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_bad_height_rejected(self, Y):
        with pytest.raises(DomainError):
            cusp_report(FormSpec.wp_form(0, Fraction(1, 2)), Y)

    def test_cusp_value_dispatch(self):
        mp = pytest.importorskip("mpmath")
        closed = cusp_value(FormSpec.wp_form(0, Fraction(1, 3)))
        assert abs(closed.value - PI**2) < 1e-12
        # the ball holds pi^2, and its radius is a few ulps of it
        with mp.workdps(40):
            assert abs(mp.mpc(closed.value) - mp.pi**2) <= closed.error
        assert 0.0 < closed.error < 1e-13
        with pytest.raises(DomainError):
            cusp_value(FormSpec.zeta_form(0, Fraction(1, 3)))
        with pytest.raises(DomainError):
            cusp_value(FormSpec.h_form(2, Fraction(1, 2), Fraction(1, 3)))


def _mpq(mp, x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


class TestFiniteHeightGap:
    """The reported gap bounds |form(iY) - limit| and the closed value's error
    bounds its rounding, both measured against the mpmath oracles.  The gap
    is below 1e-50 at Y = 20 for s = 0 labels, hence the working precision."""

    DPS = 90
    HEIGHTS = [1.0, 2.0, 5.0, 10.0, 20.0]

    def _check(self, form, value, limit, Y):
        import mpmath as mp

        rep = cusp_report(form, Y, 1e-8)
        with mp.workdps(self.DPS):
            assert rep.gap >= abs(value - limit)
            assert rep.closed_error >= abs(mp.mpc(rep.closed_form) - limit)
        assert rep.valid

    @pytest.mark.parametrize("Y", HEIGHTS)
    @pytest.mark.parametrize(
        "s,t",
        [(0, Fraction(1, 2)), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 3))],
    )
    def test_f(self, s, t, Y):
        import mpmath as mp

        with mp.workdps(self.DPS):
            tau = mp.mpc(0, Y)
            value = mp_wp_mpc(tau, _mpq(mp, s) * tau + _mpq(mp, t), dps=self.DPS)
            if Fraction(s).denominator == 1:
                limit = mp.pi**2 * (1 / mp.sin(mp.pi * _mpq(mp, t)) ** 2 - mp.mpf(1) / 3)
            else:
                limit = -(mp.pi**2) / 3
        self._check(FormSpec.wp_form(s, t), value, limit, Y)

    @pytest.mark.parametrize("Y", HEIGHTS)
    @pytest.mark.parametrize("r,t", [(3, Fraction(1, 5)), (-1, Fraction(1, 4)), (2, Fraction(2, 7))])
    def test_h(self, r, t, Y):
        import mpmath as mp

        with mp.workdps(self.DPS):
            tau = mp.mpc(0, Y)
            t_mp, rt_mp = _mpq(mp, t), _mpq(mp, r * t)
            value = r * mp_wzeta_mpc(tau, t_mp, dps=self.DPS) - mp_wzeta_mpc(tau, rt_mp, dps=self.DPS)
            limit = mp.pi * (r * mp.cot(mp.pi * t_mp) - mp.cot(mp.pi * rt_mp))
        self._check(FormSpec.h_form(r, 0, t), value, limit, Y)

    @pytest.mark.parametrize("Y", [2.0, 5.0])
    @pytest.mark.parametrize("r,t", [(3, Fraction(1, 5)), (-1, Fraction(1, 4)), (2, Fraction(2, 7))])
    def test_h_gap_is_the_cot_tail(self, r, t, Y):
        # the eta2 parts of r g_(0,t) - g_(0,rt) cancel, so the gap is the tail
        # of the cot rows alone; at Y = 2 the residual is almost all gap, and
        # the bound stays within 1.3 times it
        rep = cusp_report(FormSpec.h_form(r, 0, t), Y, 1e-10)
        assert rep.residual <= rep.bound
        if Y == 2.0 and r != -1:  # h[-1](0, t) vanishes identically
            assert rep.bound <= 1.3 * rep.residual
