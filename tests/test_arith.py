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
from weierforms.arith import BERNOULLI_CAP, zeta_even_coefficient


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
        assert a.scaled(3j).error == pytest.approx(3e-10)

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

    def test_abs_bounds_and_agreement(self):
        a = CertifiedValue(3 + 4j, 0.5)
        lo, hi = a.abs_bounds()
        assert lo == pytest.approx(4.5)
        assert hi == pytest.approx(5.5)
        assert a.agrees_with(CertifiedValue(3 + 4j + 0.4, 0.0))
        assert not a.agrees_with(CertifiedValue(10.0, 0.1))


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
