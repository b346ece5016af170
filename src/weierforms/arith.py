"""Exact rational arithmetic, Bernoulli numbers, zeta values, Euler-Maclaurin terms and e(*).

Rational scalars are plain ``fractions.Fraction`` (arbitrary precision,
always in lowest terms, positive denominator), re-exported as ``Rational``.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Rational as _RationalABC

from .errors import DomainError

__all__ = [
    "Rational",
    "as_rational",
    "CertifiedValue",
    "bernoulli",
    "BERNOULLI_CAP",
    "zeta_even",
    "zeta_even_coefficient",
    "hurwitz_terms",
    "zeta_r_enclosure",
    "e_of",
]

Rational = Fraction

_EPS = math.ulp(1.0)
_U = 0.5 * _EPS


def as_rational(x) -> Fraction:
    """Coerce ``x`` (Fraction, int, or a 'p/q' string) to an exact Fraction.

    Floats and decimal strings are rejected: torsion labels and group
    arithmetic must stay exact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, _RationalABC):
        return Fraction(x.numerator, x.denominator)
    if isinstance(x, str):
        s = x.strip()
        if "." in s or "e" in s.lower():
            raise DomainError(f"rational expected as 'p/q', got decimal {x!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational {x!r}") from exc
    raise DomainError(f"cannot interpret {type(x).__name__} as an exact rational")


# A midpoint rounds by u |result| under + and -, sqrt(5) u |result| under complex *
# (Brent, Percival and Zimmermann 2007), 5 sqrt(2) u |result| under / (Smith's algorithm,
# as in CPython).  A radius formula rounds at most 13 times (abs twice, being within an
# ulp): times 1 + 8 eps it is an upper bound, 4 subnormals cover its underflows.
_MUL_U, _DIV_U = 2.25 * _U, 7.125 * _U
_UP, _TINY, _INF = 1.0 + 8.0 * _EPS, 4.0 * math.ulp(0.0), math.inf


def _scalar(x) -> tuple[complex, float]:  # an operand that is not a ball: exact, but an int beyond 2**53
    s = complex(x)
    if type(x) is int and -(2**53) <= x <= 2**53 or isinstance(x, (float, complex)):
        return s, 0.0
    return s, _U * abs(s)


def _ball(value: complex, radius: float) -> "CertifiedValue":  # a result: value is complex already
    radius = radius * _UP + _TINY
    if not radius < _INF:  # an overflow, or a nan operand
        raise DomainError(f"error bound must be finite and nonnegative, got {radius!r}")
    cv = _new(CertifiedValue)
    _set_value(cv, value)
    _set_error(cv, radius)
    return cv


def _quotient(a: complex, ra: float, b: complex, rb: float) -> "CertifiedValue":
    # |a'/b' - a/b| <= (ra + |a| rb/|b|) / (|b| - rb); x (1 - 2 eps) is below |b|
    x = abs(b)
    den = x * (1.0 - 2.0 * _EPS) - rb
    if not den > 0.0:
        raise DomainError(f"divisor {b!r} +- {rb!r} may be 0")
    value = a / b
    return _ball(value, (ra + abs(a) * rb / x) / den + _DIV_U * abs(value))


def _inverse(x: complex, k: int = 1) -> "CertifiedValue":
    """1/x**k, k = 1 or 2, with the bits of x**-k, for an x rounded once per component."""
    if k not in (1, 2):
        raise DomainError(f"weight must be 1 or 2, got {k!r}")
    r = _U * abs(x)
    if k == 2:
        j = _ball(x, r)
        j = j * j
        x, r = j.value, j.error
    return _quotient(1.0, 0.0, x, r)


@dataclass(frozen=True, slots=True, init=False)
class CertifiedValue:
    """A complex value with a rigorous absolute-error bound: the ball of radius
    ``error`` about ``value`` (van der Hoeven 2009; Johansson, arXiv:1611.02831).

    ``+ - * /`` propagate the operands' radii, add the midpoint's own rounding
    and round up; a scalar operand is exact, but an int beyond 2**53.
    """

    value: complex
    error: float

    def __init__(self, value: complex, error: float):
        # most values arrive as complex and float already; coerce the rest
        value = value if type(value) is complex else complex(value)
        err = error if type(error) is float else float(error)
        if not 0.0 <= err < math.inf:
            raise DomainError(f"error bound must be finite and nonnegative, got {error!r}")
        _set_value(self, value)
        _set_error(self, err)

    @classmethod
    def exact(cls, value: complex) -> "CertifiedValue":
        return cls(complex(value), 0.0)

    def __add__(self, other):
        b, rb = (other.value, other.error) if other.__class__ is CertifiedValue else _scalar(other)
        value = self.value + b
        return _ball(value, self.error + rb + _U * abs(value))

    __radd__ = __add__

    def __sub__(self, other):
        b, rb = (other.value, other.error) if other.__class__ is CertifiedValue else _scalar(other)
        value = self.value - b
        return _ball(value, self.error + rb + _U * abs(value))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return CertifiedValue(-self.value, self.error)

    def __mul__(self, other):
        b, rb = (other.value, other.error) if other.__class__ is CertifiedValue else _scalar(other)
        value = self.value * b
        # |a| rb + |b| ra + ra rb
        radius = abs(self.value) * rb + (abs(b) + rb) * self.error
        return _ball(value, radius + _MUL_U * abs(value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b, rb = (other.value, other.error) if other.__class__ is CertifiedValue else _scalar(other)
        return _quotient(self.value, self.error, b, rb)

    def __rtruediv__(self, other):
        return _quotient(*_scalar(other), self.value, self.error)

    def agrees_with(self, other: "CertifiedValue") -> bool:
        """True when the two certified discs can contain a common value."""
        return abs(self.value - other.value) <= self.error + other.error


_new, _set_value, _set_error = object.__new__, CertifiedValue.value.__set__, CertifiedValue.error.__set__
PI = CertifiedValue(math.pi, _U * math.pi)
TWO_PI_I = CertifiedValue(complex(0.0, 2.0 * math.pi), _EPS * math.pi)  # fl(2 pi) = 2 fl(pi)


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, memoized, thread-safe first initialization)

BERNOULLI_CAP = 256

_bernoulli_lock = threading.Lock()
_bernoulli_table: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _extend_bernoulli(n: int) -> None:
    # recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, with B_1 = -1/2
    table = _bernoulli_table
    while len(table) <= n:
        m = len(table)
        if m % 2 == 1:
            table.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j in range(m):
            bj = table[j]
            if bj:
                acc += comb(m + 1, j) * bj
        table.append(-acc / (m + 1))


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n for even n >= 0 (B_1 convention: -1/2).

    The full table up to ``n`` is computed once by the defining recurrence of
    1/2 z + z/(e^z - 1) and cached.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError("bernoulli index must be an integer")
    if n < 0:
        raise DomainError(f"bernoulli index must be nonnegative, got {n}")
    if n % 2 != 0:
        raise DomainError(f"bernoulli is defined here for even indices only, got {n}")
    if n > BERNOULLI_CAP:
        raise DomainError(f"bernoulli index {n} exceeds cap {BERNOULLI_CAP}")
    if len(_bernoulli_table) <= n:
        with _bernoulli_lock:
            _extend_bernoulli(n)
    return _bernoulli_table[n]


def zeta_even_coefficient(n: int) -> Fraction:
    """Exact rational c with zeta_R(n) = c * pi**n, for even n >= 2."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2 or n % 2 != 0:
        raise DomainError(f"even integer >= 2 required, got {n!r}")
    half = n // 2
    sign = -1 if half % 2 == 0 else 1  # (-1)**(n/2 - 1)
    return Fraction(sign) * bernoulli(n) * Fraction(2**n, 2 * math.factorial(n))


def zeta_even(n: int) -> CertifiedValue:
    """zeta_R(n) for even n >= 2 via the Bernoulli closed form.

    The rational coefficient is exact; the only error is the final
    binary64 rounding of c * pi**n.
    """
    coeff = zeta_even_coefficient(n)
    value = float(coeff) * math.pi**n
    return CertifiedValue(value, 8.0 * _EPS * abs(value))


# Euler-Maclaurin for H(s, x) = sum_{m>=0} (x+m)^-s (``hurwitz_terms``): p = 6
# corrections and the first omitted one.  B_2 .. B_14 from DLMF Table 24.2.1,
# kept apart from ``bernoulli`` so that the two routes to the even zeta values
# stay independent.  zeta_r_enclosure sums n < _EM_N directly, and forms no
# corrections below _EM_N^-s = _EM_TINY (s > ~208; see its docstring).
_EM_B = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
)
# per correction j: 2j - 2, B_2j/(2j)! and its rounding (6j+1)u relative to its modulus
_EM_STEPS = tuple((2 * j - 2, float(b / math.factorial(2 * j)), (6 * j + 1) * _U) for j, b in enumerate(_EM_B, 1))
_EM_N, _EM_TINY = 20, 2.0**-900


def hurwitz_terms(s: float, x: float) -> tuple[list[float], float, float]:
    """(terms, omitted, rounding) of H(s, x) = sum_{m>=0} (x+m)^-s, s > 1, x > 0.

    With y = x^-s the terms are the integral x y/(s-1), the half term y/2 and
    the corrections B_2j/(2j)! y prod_{i=0}^{2j-2} (s+i)/x, j = 1..p, and
    H(s, x) = sum(terms) + R.  Every even derivative of (x+m)^-s in m is
    positive, so R has the sign of the first omitted term (j = p + 1) and is
    at most its size, ``omitted`` (DLMF 2.10.1, 24.17; Johansson,
    arXiv:1309.2877, section 2).  Built from the ratios (s+i)/x times y, the
    corrections stay finite for every s.

    ``rounding`` bounds the terms' rounding for exact s and x, u = 2^-53, first
    order, while every term is normal: pow within one ulp (2u).  The integral:
    y, the product, s - 1 and the quotient, 5u.  The half term: 2u.  A
    correction j, and the omitted term alike: y, then per ratio (s+i), /x and
    the product 3u, then B_2j/(2j)! (one rounding of an exact quotient) and the
    product: (6j+1)u.  The caller adds the rounding of the sum it forms.
    """
    if not (s > 1.0 and x > 0.0):
        raise DomainError(f"Euler-Maclaurin terms need s > 1 and x > 0, got s = {s!r}, x = {x!r}")
    y = x**-s
    integral, half, t = x * y / (s - 1.0), 0.5 * y, y * (s / x)
    terms = [integral, half]
    rounding = 5.0 * _U * integral + 2.0 * _U * half
    for i, coeff, weight in _EM_STEPS:
        if i:
            si = s + i
            t = t * ((si - 1) / x) * (si / x)
        term = coeff * t
        terms.append(term)
        rounding += weight * abs(term)
    return terms, abs(terms.pop()), rounding


def zeta_r_enclosure(s: float) -> CertifiedValue:
    """Certified enclosure of zeta_R(s) = sum_{n<N} n^-s + H(s, N), s > 1, N = 20,
    the tail by Euler-Maclaurin (:func:`hurwitz_terms`).  Works for odd integer
    arguments, where the Bernoulli form does not apply.

    Rounding, u = 2^-53, first order: n^-s within one ulp (2u), exact for
    n = 1; the tail's terms as ``hurwitz_terms`` counts them; one ``math.fsum``
    over all terms, u of the result.  The factor 1.01 covers second-order terms
    and the sums that form the bound.

    When N^-s < 2^-900 (s > ~208) only the head is summed: the tail
    sum_{n>=N} n^-s <= N^-s (1 + N/(s-1)) < 2^-899 joins the error, with
    2^-1074 for each head term that leaves the normal range.  Otherwise
    every term formed is normal, so the relative counts above hold.
    """
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"zeta enclosure requires s > 1, got {s}")
    n = _EM_N
    head = [1.0] + [float(m) ** -s for m in range(2, n)]
    head_sum = math.fsum(head)
    rounding = 2.0 * _U * (head_sum - 1.0)
    if float(n) ** -s < _EM_TINY:
        err = 2.0**-899 + (n - 1) * 2.0**-1074 + 1.01 * (rounding + _U * head_sum)
        return CertifiedValue(head_sum, err)
    terms, omitted, tail_rounding = hurwitz_terms(s, float(n))
    mid = math.fsum(head + terms)
    return CertifiedValue(mid, omitted + 1.01 * (rounding + tail_rounding + _U * mid))


def e_of(x) -> complex:
    """e(x) := exp(2 pi i x) for rational, real, or complex x.

    The real part is reduced modulo 1 first (an exact symmetry of e), which
    keeps the result accurate for large |Re x|.
    """
    if isinstance(x, (Fraction, _RationalABC)) and not isinstance(x, (float, complex)):
        frac = Fraction(x.numerator, x.denominator) % 1
        return cmath.exp(2j * math.pi * float(frac))
    z = complex(x)
    re = math.remainder(z.real, 1.0)
    return cmath.exp(2j * math.pi * complex(re, z.imag))
