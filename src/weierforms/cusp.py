"""Closed-form cusp values, the s = 0 series identity, the explicit
double-sum bound used to control rows of lattice points and a certified
enclosure of that double sum, and :func:`cusp_report`, the comparison of a
value at tau = iY with its closed cusp value that the ``table`` command and
the cusp-f, cusp-h and zeta2 suites read.

The cusp of interest is i*infinity; values at other cusps are obtained by
transporting with the slash action, so only the limits below are needed in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import PI, TWO_PI_I, CertifiedValue, as_rational, bernoulli, e_of, hurwitz_terms, zeta_even, zeta_r_enclosure
from .errors import DomainError
from .evaluate import DEFAULT_TOL
from .forms import FormSpec
from .trig import _wp_tail, _z_tail

__all__ = [
    "cusp_value_f_series",
    "cusp_value",
    "lemma_eies_bound",
    "lattice_row_sum_enclosure",
    "CuspValueReport",
    "cusp_report",
]

_EPS = math.ulp(1.0)
_U = 0.5 * _EPS
_PI = math.pi


def cusp_value_f_series(t, terms: int = 80) -> CertifiedValue:
    """The s = 0 cusp value as 1/t^2 + 2 sum_{n>=1} (2n+1) zeta_R(2n+2) t^(2n).

    Tail bound (zeta values decrease): 2 zeta_R(2) (2N+3) t^(2N+2)/(1-t^2)^2.
    """
    t = as_rational(t)
    if not (0 < t < 1):
        raise DomainError(f"series argument must satisfy 0 < t < 1, got {t}")
    if terms < 1:
        raise DomainError("need at least one series term")
    tf = float(t)
    acc = 1.0 / tf**2
    absacc = acc
    err = 0.0
    power = 1.0
    for n in range(1, terms + 1):
        power *= tf * tf
        zv = zeta_even(2 * n + 2)
        term = 2.0 * (2 * n + 1) * zv.value * power
        acc += term
        absacc += abs(term)
        err += 2.0 * (2 * n + 1) * zv.error * power
    z2 = math.pi**2 / 6.0
    tail = 2.0 * z2 * (2 * terms + 3) * tf ** (2 * terms + 2) / (1.0 - tf * tf) ** 2
    err += tail + 64.0 * _EPS * absacc
    return CertifiedValue(complex(acc), err)


def cusp_value(form: FormSpec) -> CertifiedValue:
    """The closed i*infinity value of f, or of h at an s = 0 label, as a ball
    whose radius bounds its rounding (``FormSpec`` has checked the label):

        f, s integral:     -(pi^2/3) (e(t) + 10 + e(-t)) / (e(t) - 2 + e(-t));
        f, s non-integral: -(pi^2/3);
        h[r](0, t):        2 pi i ( (r-1)/2 + r/(e(t)-1) - 1/(e(rt)-1) ).
    """
    p = form.p
    if form.kind == "wp":
        third = -(PI * PI) / 3
        if p.s.denominator != 1:
            return third
        # the argument 2 pi x carries 3u (x, fl(pi), the product), <= 6 pi u absolute,
        # and cos one ulp (<= 2u): |d two_cos| <= 2 (2 + 6 pi) u < 42u
        two_cos = CertifiedValue(2.0 * math.cos(2.0 * _PI * float(p.t % 1)), 42.0 * _U)
        return third * (two_cos + 10.0) / (two_cos - 2.0)
    if form.kind != "h":
        raise DomainError(f"no closed cusp value for kind {form.kind!r}")
    if p.s != 0:
        raise DomainError("closed cusp value implemented for s = 0 labels only; transport other cusps with the slash action")
    # e_of(x): the argument 2 pi x carries 3u, <= 6 pi u absolute, and cos and
    # sin one ulp each: < 22u absolute
    a = CertifiedValue(e_of(p.t), 22.0 * _U) - 1.0
    b = CertifiedValue(e_of(form.r * p.t), 22.0 * _U) - 1.0
    return TWO_PI_I * ((form.r - 1) / 2.0 + form.r / a - 1.0 / b)


def _gap(form: FormSpec, Y: float) -> float:
    """Bound on |form(iY) - closed value| for a form that has a closed value.

    Row 0 of the row series of :mod:`weierforms.trig` is the limit, so the
    gap is at most the tail of the rows c >= 1, with |Im z| = |s'| Y for
    s' = s - round(s) (wp(z) = wp(z - round(s) tau)).  For f with s' != 0
    row 0 also keeps pi^2/sin^2(pi z'), at most 4 pi^2 q/(1-q)^2 with
    q = e^(-2 pi |s'| Y).  For h = r g_(0,t) - g_(0,rt) the eta2 parts
    r t eta2 - rt eta2 of wzeta = C + z eta2 cancel exactly, so h is
    r C(t) - C(rt) over the cot rows C; the limit is its row 0, and
    ``_z_tail`` bounds the rows c >= 1 of each part alike.
    """
    # rounding, u = 2^-53: an exp argument x <= 3 pi Y is within 5u x, so exp
    # is within (2 + 5x) u, where x <= 745 unless the output is 0 (outputs
    # below the normal range are off by < 1e-300 absolute); a factor
    # 1 - e^(-x) then loses (6 + 2/x) u, and the tails have such factors for
    # x = 2 pi Y and x >= pi Y (three in all) and, for s' != 0, the square of
    # one for x = 2 pi |s'| Y.  With the ~20 other operations the total stays
    # below (64 + 16 pi min(Y, 80) + 2/Y + 1/(|s'| Y)) u, a first-order count
    # that holds while it stays below 1/100.
    y = abs(float(form.p.s - round(form.p.s))) * Y if form.kind == "wp" else 0.0
    spread = 64.0 + 16.0 * _PI * min(Y, 80.0) + 2.0 / Y + (1.0 / y if y else 0.0)
    if _U * spread > 0.01:
        raise DomainError(f"Y = {Y!r} is too close to the real axis for a finite-height bound")
    if form.kind == "wp":
        gap = _wp_tail(Y, y, 0)
        if y:
            q = math.exp(-2.0 * _PI * y)
            gap += 4.0 * _PI**2 * q / (1.0 - q) ** 2
    else:
        gap = (abs(form.r) + 1) * _z_tail(Y, 0.0, 0)
    return gap * (1.0 + 1.01 * _U * spread)


# ---------------------------------------------------------------------------
# the closed bound on sum over c != 0 of |c tau + d|^(-k), and a certified
# enclosure of that sum


def _zeta_r(k: int) -> CertifiedValue:
    if k % 2 == 0:
        return zeta_even(k)
    return zeta_r_enclosure(float(k))


def lemma_eies_bound(k: int, im_tau: float) -> float:
    """The closed bound 4 zeta_R(k)/Y^k + 2 pi zeta_R(k-1)/Y^(k-1), Y = Im tau.

    Valid for integer k >= 3; the full double sum must stay strictly below
    it.  Upper-biased by the zeta enclosures' error.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    y = float(im_tau)
    if not y > 0.0:
        raise DomainError("Im tau must be positive")
    zk = _zeta_r(k)
    zk1 = _zeta_r(k - 1)
    return (
        4.0 * (zk.value.real + zk.error) / y**k
        + 2.0 * _PI * (zk1.value.real + zk1.error) / y ** (k - 1)
    )


# Row c of the sum is R_c = sum_d psi(d + a), psi(s) = (s^2 + b^2)^(-k/2),
# a = c Re tau, b = c Im tau; its integral over the line is W_k b^(1-k),
# W_k = sqrt(pi) Gamma((k-1)/2) / Gamma(k/2) (W_3 = 2, W_4 = pi/2, W_(k+2) = W_k (k-1)/k).
# Far rows, b >= 16: Euler-Maclaurin over the whole line has no end terms, so
# |R_c - W_k b^(1-k)| <= |B_20|/20! Int |psi^(20)| (DLMF 2.10.1); on the disc of
# radius b/2 about a real s, |sigma^2 + b^2| >= (s^2 + b^2)/4, and Cauchy's
# estimate |psi^(m)(s)| <= m! (2/b)^m 2^k psi(s) leaves eps(b) W_k b^(1-k),
# eps(b) = |B_20| 2^k (2/b)^20.  They sum to W_k Y^(1-k) (zeta_R(k-1) - sum_{c<C} c^(1-k)).
# Near rows: the points with |s| < T = b max(4, sqrt(2k)) + 16 are summed, and
# each tail sum_{m>=0} psi(x + m), x >= T, by the binomial series of psi as
# sum_j (-1)^j C_j b^2j H(k+2j, x), C_j = (k/2)_j / j!, H(n, x) = sum_{m>=0} (x+m)^-n,
# whose terms fall (ratio <= (k/2)(b/x)^2 <= 1, as H(n+2, x) <= H(n, x)/x^2), so
# the last one summed bounds the rest.  H(n, x) is ``arith.hurwitz_terms``, its
# first omitted term bounding the remainder.
# Rounding, u = 2^-53, with pow within one ulp, as ``arith`` assumes:
# s^2 + b^2 is within (4 + sk) u, sk = |Re tau|/Im tau (the rounding of a and b
# enters through |s a| <= sk (s^2 + b^2)/2), a direct term within
# (k/2)(4 + sk) u + 2u; the terms of H as ``hurwitz_terms`` counts them, and
# their fsum, C_j b^2j and the product within (3j + 2 + n sk) u of their moduli
# (the rounding of x moves H(n, x) by n |dx|/x); a far row within 12u.  Each
# part counts the moduli of its terms; the fsums add u each.


def _row_tail(k: int, b: float, x: float, sk: float) -> tuple[float, float]:
    """(sum_{m>=0} psi(x + m), error bound) for x >= b max(4, sqrt(2k)) + 16."""
    values, err, coeff, j = [], 0.0, 1.0, 0
    while True:
        n = k + 2 * j
        terms, omitted, rounding = hurwitz_terms(float(n), x)
        term = coeff * math.fsum(terms)
        values.append(-term if j % 2 else term)
        err += coeff * (omitted + rounding + (3 * j + 2 + n * sk) * _U * math.fsum(map(abs, terms)))
        if term <= _U * values[0]:
            return math.fsum(values), err + term + _U * values[0]
        coeff *= (0.5 * k + j) / (j + 1) * b * b
        j += 1


def lattice_row_sum_enclosure(k: int, tau: complex) -> CertifiedValue:
    """Certified enclosure of the full sum over c != 0 and every d of |c tau + d|^(-k).

    Integer k >= 3.  Twice the rows c >= 1: near rows directly with their
    tails closed by series, far rows in closed form (comment above).  The
    ball's radius bounds the remainders and the rounding.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    t = complex(tau)
    if not t.imag > 0.0:
        raise DomainError("Im tau must be positive")
    x, y = math.remainder(t.real, 1.0), t.imag  # exact; the sum is invariant under tau -> tau + 1
    sk = abs(x) / y
    parts, err, c = [], 0.0, 1
    while c * y < 16.0:
        a, bb = c * x, (c * y) ** 2
        reach = c * y * max(4.0, math.sqrt(2.0 * k)) + 16.0
        lo, hi = math.floor(-reach - a), math.ceil(reach - a)
        parts.append(math.fsum([((s := d + a) * s + bb) ** (-0.5 * k) for d in range(lo + 1, hi)]))
        err += ((0.5 * k * (4.0 + sk) + 3.0) * _U) * parts[-1]
        for start in (hi + a, -(lo + a)):
            tail, tail_err = _row_tail(k, c * y, start, sk)
            parts.append(tail)
            err += tail_err
        c += 1
    zeta, head = _zeta_r(k - 1), math.fsum(float(n) ** (1 - k) for n in range(1, c))
    w = Fraction(2) if k % 2 else Fraction(1, 2)
    for j in range(3 if k % 2 else 4, k, 2):
        w *= Fraction(j - 1, j)
    # W_k within 3u, its power of Y 2u
    scale = float(w) * (1.0 if k % 2 else _PI) * y ** (1 - k)
    parts.append(scale * (zeta.value.real - head))
    eps = abs(float(bernoulli(20))) * 2.0**k * (2.0 / (c * y)) ** 20
    err += scale * (zeta.error + 4.0 * _U * (zeta.value.real + head)) + (eps + 12.0 * _U) * parts[-1]
    total = math.fsum(parts)
    return CertifiedValue(2.0 * total, 2.0 * 1.01 * (err + _U * total))


# ---------------------------------------------------------------------------
# cusp-value reports (for the table command and the verification suites)


@dataclass(frozen=True)
class CuspValueReport:
    """The value at tau = iY against the closed cusp value.

    ``closed_error`` bounds the rounding of ``closed_form`` and ``gap`` the
    finite-height gap |form(iY) - limit|, so the residual is within ``bound``.
    """

    label: str
    closed_form: complex
    closed_error: float
    numeric: CertifiedValue
    Y: float
    residual: float
    gap: float

    @property
    def bound(self) -> float:
        return self.numeric.error + self.closed_error + self.gap

    @property
    def valid(self) -> bool:
        return self.residual <= self.bound


def cusp_report(form: FormSpec, Y: float, tol: float = DEFAULT_TOL) -> CuspValueReport:
    """Compare the numeric value at tau = iY against the closed cusp value."""
    Y = float(Y)
    if not (Y > 0.0 and math.isfinite(Y)):
        raise DomainError(f"Y must be positive and finite, got {Y!r}")
    closed = cusp_value(form)
    gap = _gap(form, Y)
    numeric = form.evaluate(complex(0.0, Y), tol)
    return CuspValueReport(
        label=form.describe(),
        closed_form=closed.value,
        closed_error=closed.error,
        numeric=numeric,
        Y=Y,
        residual=abs(closed.value - numeric.value),
        gap=gap,
    )
