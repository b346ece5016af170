from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from weierforms import (
    CertifiedValue,
    DomainError,
    as_rational,
    bernoulli,
    e_of,
    zeta_even,
    zeta_r_enclosure,
)
from weierforms.arith import BERNOULLI_CAP, hurwitz_terms, zeta_even_coefficient


class TestBernoulli:
    def test_base_values(self):
        # B_2 and B_4 computed by hand from sum_{j<=n} C(n+1,j) B_j = 0
        assert bernoulli(0) == Fraction(1)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(8) == Fraction(-1, 30)

    def test_recurrence_exact(self):
        # includes the odd entries: B_1 = -1/2, B_odd = 0 afterwards
        def b(j):
            if j == 1:
                return Fraction(-1, 2)
            if j % 2 == 1:
                return Fraction(0)
            return bernoulli(j)

        for n in range(2, 42, 2):
            total = sum(comb(n + 1, j) * b(j) for j in range(n + 1))
            assert total == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bernoulli(3)
        with pytest.raises(DomainError):
            bernoulli(-2)
        with pytest.raises(DomainError):
            bernoulli(BERNOULLI_CAP + 2)
        with pytest.raises(DomainError):
            bernoulli(2.0)  # type: ignore[arg-type]

    def test_cap_value_computes(self):
        v = bernoulli(BERNOULLI_CAP)
        assert v.denominator > 0

    def test_concurrent_first_access(self):
        # fresh interpreter so the memo table really is cold when the
        # threads race on it; it imports the same weierforms as this one
        import os
        import subprocess
        import sys

        import weierforms

        src = os.path.dirname(os.path.dirname(weierforms.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        code = (
            "import threading\n"
            "from fractions import Fraction\n"
            "from weierforms.arith import bernoulli\n"
            "results = [None] * 8\n"
            "def work(i):\n"
            "    results[i] = bernoulli(220)\n"
            "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
            "[t.start() for t in threads]\n"
            "[t.join() for t in threads]\n"
            "assert all(r == results[0] for r in results)\n"
            "assert results[0] == bernoulli(220)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr


class TestZetaEven:
    def test_pi_squared_over_six(self):
        cv = zeta_even(2)
        assert abs(cv.value - math.pi**2 / 6.0) <= cv.error

    def test_known_values(self):
        assert abs(zeta_even(4).value - math.pi**4 / 90.0) < 1e-13
        assert abs(zeta_even(6).value - math.pi**6 / 945.0) < 1e-12

    def test_exact_coefficients(self):
        assert zeta_even_coefficient(2) == Fraction(1, 6)
        assert zeta_even_coefficient(4) == Fraction(1, 90)
        assert zeta_even_coefficient(6) == Fraction(1, 945)

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            zeta_even(3)
        with pytest.raises(DomainError):
            zeta_even(1)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_against_direct_partial_sum(self, n):
        # partial sum to 10^6 plus the analytic tail window
        partial = math.fsum(d ** (-n) for d in range(1, 10**6 + 1))
        tail_allowance = (1.0 / (n - 1)) * 10.0 ** (-6 * (n - 1))
        cv = zeta_even(n)
        assert abs(cv.value - partial) <= tail_allowance + cv.error

    def test_enclosure_contains_truth(self):
        z3 = zeta_r_enclosure(3.0)
        assert abs(z3.value - 1.2020569031595943) <= z3.error
        z2 = zeta_r_enclosure(2.0)
        assert abs(z2.value - math.pi**2 / 6.0) <= z2.error


class TestZetaEnclosure:
    """Euler-Maclaurin enclosure of zeta_R(s) against 40-digit mpmath."""

    @pytest.mark.parametrize(
        "s", [1.0001, 1.01, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.3, 22.0, 50.0, 1100.0, 1e6, 1e300, math.inf]
    )
    def test_contains_and_tight(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            truth = mpmath.mpf(1) if math.isinf(s) else mpmath.zeta(mpmath.mpf(s))
            cv = zeta_r_enclosure(s)
            assert cv.value.imag == 0.0
            assert abs(mpmath.mpf(cv.value.real) - truth) <= cv.error
            if s >= 1.5:
                assert cv.error <= 1e-14 * truth

    @pytest.mark.parametrize("s", [1.0, 0.5, -3.0, -math.inf, math.nan])
    def test_domain(self, s):
        with pytest.raises(DomainError):
            zeta_r_enclosure(s)


class TestHurwitzTerms:
    """The shared Euler-Maclaurin terms of H(s, x) = sum_{m>=0} (x+m)^-s against
    mpmath, at integer s and at x like those of the row tails and of zeta_R."""

    @pytest.mark.parametrize("x", [16.5, 20.0, 40.25])
    def test_encloses_hurwitz_zeta(self, x):
        mpmath = pytest.importorskip("mpmath")
        u = 0.5 * math.ulp(1.0)
        for s in range(3, 31):
            terms, omitted, rounding = hurwitz_terms(float(s), x)
            assert len(terms) == 8
            total = math.fsum(terms)
            radius = omitted + 1.01 * (rounding + u * total)
            # mpmath's zeta(s, x) at 40 digits is off by up to 3e-13 (relative) on
            # this grid, at 60 digits by 2e-21
            with mpmath.workdps(80):
                assert abs(mpmath.mpf(total) - mpmath.zeta(s, x)) <= radius, (s, x)
            if s <= 5:  # the k of the eies-bound rows: a few ulps
                assert radius <= 1e-14 * total, (s, x)

    @pytest.mark.parametrize("s,x", [(1.0, 20.0), (0.5, 20.0), (3.0, 0.0), (3.0, -1.5), (math.nan, 20.0)])
    def test_domain(self, s, x):
        with pytest.raises(DomainError):
            hurwitz_terms(s, x)


class TestEOf:
    def test_trivial_points(self):
        assert e_of(0) == 1
        assert abs(e_of(Fraction(1, 2)) + 1.0) < 1e-15
        root = e_of(Fraction(1, 3))
        assert abs(root - complex(-0.5, math.sqrt(3.0) / 2.0)) < 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    )
    def test_periodicity_and_inverse(self, x, y):
        z = complex(x, y)
        a = e_of(z + 1)
        b = e_of(z)
        assert abs(a - b) <= 1e-12 * (1.0 + abs(b))
        prod = e_of(z) * e_of(-z)
        assert abs(prod - 1.0) <= 1e-12


class TestCertifiedValue:
    def test_addition_adds_errors(self):
        a = CertifiedValue(1 + 2j, 1e-9)
        b = CertifiedValue(3 - 1j, 2e-9)
        c = a + b
        assert c.value == 4 + 1j
        assert c.error == pytest.approx(3e-9)

    def test_product_rule(self):
        a = CertifiedValue(2.0, 1e-8)
        b = CertifiedValue(3.0, 1e-8)
        c = a * b
        assert c.value == 6.0
        assert c.error == pytest.approx(2.0 * 1e-8 + 3.0 * 1e-8, rel=1e-6)

    def test_scalar_ops(self):
        a = CertifiedValue(1j, 1e-10)
        assert (a * 2).error == pytest.approx(2e-10)
        assert (-a).value == -1j
        assert (a * 3j).error == pytest.approx(3e-10)

    def test_invalid_error_rejected(self):
        with pytest.raises(DomainError):
            CertifiedValue(0.0, -1.0)
        with pytest.raises(DomainError):
            CertifiedValue(0.0, math.inf)
        with pytest.raises(DomainError):
            CertifiedValue(0.0, math.nan)

    @pytest.mark.parametrize("err", [-1e-300, -math.inf, "nan", "inf"])
    def test_more_invalid_errors_rejected(self, err):
        with pytest.raises(DomainError):
            CertifiedValue(0.0, err)

    def test_immutable(self):
        a = CertifiedValue(1 + 2j, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.value = 0j
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.error = 0.0
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 1

    def test_equality_hash_and_repr(self):
        a = CertifiedValue(1, 0)
        assert (type(a.value), type(a.error)) == (complex, float)
        assert a == CertifiedValue(1 + 0j, 0.0) == CertifiedValue(1, -0.0)
        assert a != CertifiedValue(1 + 0j, 1e-300)
        assert hash(a) == hash((1 + 0j, 0.0))
        assert repr(a) == "CertifiedValue(value=(1+0j), error=0.0)"
        assert repr(CertifiedValue(-0.5j, 2.5e-9)) == "CertifiedValue(value=(-0-0.5j), error=2.5e-09)"

    def test_copy_and_pickle_round_trip(self):
        a = CertifiedValue(3.25 - 1e-300j, 1.5e-12)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)

    def test_agreement(self):
        a = CertifiedValue(3 + 4j, 0.5)
        assert a.agrees_with(CertifiedValue(3 + 4j + 0.4, 0.0))
        assert not a.agrees_with(CertifiedValue(10.0, 0.1))


def _pair(z) -> tuple[Fraction, Fraction]:
    z = complex(z) if isinstance(z, (float, complex)) else z
    if isinstance(z, complex):
        return Fraction(z.real), Fraction(z.imag)
    return Fraction(z), Fraction(0)


def _root(q: Fraction, up: bool) -> Fraction:
    """sqrt(q), or a rational within a relative 2^-200 below (or above) it."""
    m = q.numerator * q.denominator << 400
    n = math.isqrt(m)
    return Fraction(n + (up and n * n < m), q.denominator << 200)


def _norm2(p) -> Fraction:
    return p[0] * p[0] + p[1] * p[1]


def _exact(op: str, a, b) -> tuple[Fraction, Fraction]:
    (ax, ay), (bx, by) = a, b
    if op == "+":
        return ax + bx, ay + by
    if op == "-":
        return ax - bx, ay - by
    if op == "*":
        return ax * bx - ay * by, ax * by + ay * bx
    n = _norm2(b)
    return (ax * bx + ay * by) / n, (ay * bx - ax * by) / n


def _propagated(op: str, a, ra: Fraction, b, rb: Fraction) -> Fraction:
    """An upper bound on how far op moves when its operands move within their radii."""
    if op in "+-":
        return ra + rb
    na, nb = _root(_norm2(a), True), _root(_norm2(b), True)
    if op == "*":
        return na * rb + nb * ra + ra * rb
    lo = _root(_norm2(b), False)
    return (ra + na * rb / lo) / (lo - rb)


_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def _normal(lo: int, hi: int, signed: bool = True):
    """Floats of modulus in [2^(lo-1), 2^hi), either sign: the normal range the bounds count in."""
    mantissa = st.floats(0.5, 1.0, exclude_max=True)
    sign = st.sampled_from((1.0, -1.0) if signed else (1.0,))
    return st.builds(lambda m, e, s: s * math.ldexp(m, e), mantissa, st.integers(lo, hi), sign)


def _wide_float():
    return st.one_of(st.just(0.0), _normal(-200, 200))


def _radius():
    return st.one_of(st.just(0.0), _normal(-260, 200, signed=False))


def _ball():
    return st.builds(lambda x, y, r: CertifiedValue(complex(x, y), r), _wide_float(), _wide_float(), _radius())


def _scalar():
    return st.one_of(
        st.integers(-(2**60), 2**60),
        _wide_float(),
        st.builds(complex, _wide_float(), _wide_float()),
    )


class TestBallArithmetic:
    """Each operation's disc holds the exact result of its operands' midpoints
    widened by the propagated radii, checked in rationals."""

    def check(self, op, left, right):
        lv, lr = (left.value, Fraction(left.error)) if isinstance(left, CertifiedValue) else (left, Fraction(0))
        rv, rr = (right.value, Fraction(right.error)) if isinstance(right, CertifiedValue) else (right, Fraction(0))
        a, b = _pair(lv), _pair(rv)
        try:
            out = _OPS[op](left, right)
        except DomainError:
            # refused only where the divisor's disc holds 0, or nearly
            assert op == "/" and rr >= _root(_norm2(b), False) * (1 - Fraction(1, 2**48))
            return
        assert isinstance(out, CertifiedValue)
        assert op != "/" or rr < _root(_norm2(b), False)
        c = _pair(out.value)
        slack = Fraction(out.error) - _propagated(op, a, lr, b, rr)
        assert slack >= 0
        e = _exact(op, a, b)
        assert (c[0] - e[0]) ** 2 + (c[1] - e[1]) ** 2 <= slack * slack

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_OPS)), _ball(), _ball())
    def test_ball_ball(self, op, left, right):
        self.check(op, left, right)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_OPS)), _ball(), _scalar(), st.booleans())
    def test_ball_scalar(self, op, ball, scalar, scalar_first):
        self.check(op, scalar, ball) if scalar_first else self.check(op, ball, scalar)

    def test_midpoint_rounding_is_counted(self):
        # 1 + 2^-60 rounds to 1: the sum's disc must still hold it
        self.check("+", CertifiedValue.exact(1.0), 2.0**-60)
        assert (CertifiedValue.exact(1.0) + 2.0**-60).error > 0.0

    def test_radii_sum_is_rounded_up(self):
        # 1 + 2^-60 rounds to 1 as well: the radius must not
        self.check("+", CertifiedValue(1.0, 1.0), CertifiedValue(0.0, 2.0**-60))
        assert Fraction((CertifiedValue(1.0, 1.0) + CertifiedValue(0.0, 2.0**-60)).error) >= 1 + Fraction(1, 2**60)

    def test_big_int_carries_its_rounding(self):
        # 2^60 + 1 rounds to 2^60, and the sum cancels to 0
        self.check("+", CertifiedValue.exact(-(2.0**60)), 2**60 + 1)
        self.check("-", CertifiedValue.exact(2.0**60), 2**60 + 1)

    # midpoints whose rounding, found by search, is 1.98 u |result| (a product
    # that cancels in its real part) and 3.48 u |result| (Smith's quotient)
    @pytest.mark.parametrize(
        "op,a,b",
        [
            ("*", 0.5412085614757267 + 0.5408335915465243j, 0.9289111765784036 + 0.9294357947948578j),
            ("/", -0.5596969707963461 + 0.6087141421886058j, 0.6004741207280828 + 0.5522279597792142j),
        ],
    )
    def test_near_worst_midpoint_rounding(self, op, a, b):
        self.check(op, CertifiedValue.exact(a), b)
        self.check(op, CertifiedValue.exact(a), CertifiedValue.exact(b))

    def test_divisor_disc_holding_zero_refused(self):
        with pytest.raises(DomainError):
            CertifiedValue(1.0, 0.0) / CertifiedValue(1.0, 1.0)
        with pytest.raises(DomainError):
            2.0 / CertifiedValue(1e-3j, 2e-3)
        with pytest.raises(DomainError):
            CertifiedValue(1.0, 0.0) / 0


class TestAsRational:
    def test_accepts_exact_forms(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("-2") == Fraction(-2)
        assert as_rational(5) == Fraction(5)
        assert as_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_decimals(self):
        with pytest.raises(DomainError):
            as_rational("0.3333")
        with pytest.raises(DomainError):
            as_rational("1e-3")
        with pytest.raises(DomainError):
            as_rational(0.5)
