"""Closed-form cusp values, the s = 0 series identity, the explicit
double-sum bound used to control rows of lattice points, and
:func:`cusp_report`, the comparison of a value at tau = iY with its closed
cusp value that the ``table`` command and the cusp-f, cusp-h and zeta2
suites read.

The cusp of interest is i*infinity; values at other cusps are obtained by
transporting with the slash action, so only the limits below are needed in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import PI, TWO_PI_I, CertifiedValue, as_rational, e_of, zeta_even, zeta_r_enclosure
from .errors import DomainError
from .evaluate import DEFAULT_TOL
from .forms import FormSpec, RationalPair
from .trig import _wp_tail, _z_tail

__all__ = [
    "cusp_value_f",
    "cusp_value_f_series",
    "cusp_value_h",
    "cusp_value",
    "lemma_eies_bound",
    "lattice_row_sum_truncated",
    "CuspValueReport",
    "cusp_report",
]

_EPS = math.ulp(1.0)
_U = 0.5 * _EPS
_PI = math.pi


def _closed_f(p: RationalPair) -> CertifiedValue:
    """The i*infinity limit of the weight-2 member, with a bound on its rounding."""
    if p.is_integral():
        raise DomainError(f"label {p} is integral")
    third = -(PI * PI) / 3
    if p.s.denominator != 1:
        return third
    # the argument 2 pi x carries 3u (x, fl(pi), the product), <= 6 pi u absolute,
    # and cos one ulp (<= 2u): |d two_cos| <= 2 (2 + 6 pi) u < 42u
    two_cos = CertifiedValue(2.0 * math.cos(2.0 * _PI * float(p.t % 1)), 42.0 * _U)
    return third * (two_cos + 10.0) / (two_cos - 2.0)


def cusp_value_f(p: RationalPair) -> complex:
    """Limit of the weight-2 member at i*infinity (exact two-branch form).

    s integral: -(pi^2/3) (e(t) + 10 + e(-t)) / (e(t) - 2 + e(-t));
    s non-integral: -(pi^2/3).
    """
    return _closed_f(p).value


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


def _closed_h(r: int, t) -> CertifiedValue:
    """The i*infinity limit of h for an s = 0 label, with a bound on its rounding."""
    if not isinstance(r, int) or isinstance(r, bool) or r == 0:
        raise DomainError(f"r must be a nonzero integer, got {r!r}")
    t = as_rational(t)
    if t.denominator == 1:
        raise DomainError(f"t = {t} is integral: e(t) = 1 is a pole of the formula")
    rt = r * t
    if rt.denominator == 1:
        raise DomainError(f"r*t = {rt} is integral: e(rt) = 1 is a pole of the formula")
    # e_of(x): the argument 2 pi x carries 3u, <= 6 pi u absolute, and cos and
    # sin one ulp each: < 22u absolute
    a = CertifiedValue(e_of(t), 22.0 * _U) - 1.0
    b = CertifiedValue(e_of(rt), 22.0 * _U) - 1.0
    return TWO_PI_I * ((r - 1) / 2.0 + r / a - 1.0 / b)


def cusp_value_h(r: int, t) -> complex:
    """Limit of the weight-1 combination at i*infinity for s = 0 labels:

        2 pi i ( (r-1)/2 + r/(e(t)-1) - 1/(e(rt)-1) ).
    """
    return _closed_h(r, t).value


def _closed(form: FormSpec) -> CertifiedValue:
    if form.kind == "wp":
        return _closed_f(form.p)
    if form.kind == "h":
        if form.p.s != 0:
            raise DomainError(
                "closed cusp value implemented for s = 0 labels only; "
                "transport other cusps with the slash action"
            )
        return _closed_h(form.r, form.p.t)
    raise DomainError(f"no closed cusp value for kind {form.kind!r}")


def cusp_value(form: FormSpec) -> complex:
    """Closed-form i*infinity value for the supported form kinds."""
    return _closed(form).value


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
# explicit bound on sum over c != 0 of |c tau + d|^(-k)


def _zeta_r(k: int) -> CertifiedValue:
    if k % 2 == 0:
        return zeta_even(k)
    return zeta_r_enclosure(float(k))


def lemma_eies_bound(k: int, im_tau: float) -> float:
    """The closed bound 4 zeta_R(k)/Y^k + 2 pi zeta_R(k-1)/Y^(k-1), Y = Im tau.

    Valid for integer k >= 3; the truncated double sum must stay strictly
    below it.  Upper-biased by the zeta enclosures' error.
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


def lattice_row_sum_truncated(k: int, tau: complex, shells: int = 500) -> float:
    """Truncated sum over c != 0, max(|c|,|d|) <= shells of |c tau + d|^(-k).

    All terms are positive, so any truncation is a strict lower bound for the
    full sum.
    """
    import numpy as np

    if not isinstance(k, int) or isinstance(k, bool) or k < 3:
        raise DomainError(f"k must be an integer >= 3, got {k!r}")
    t = complex(tau)
    if not t.imag > 0.0:
        raise DomainError("Im tau must be positive")
    c = np.arange(1, shells + 1, dtype=np.float64)
    d = np.arange(-shells, shells + 1, dtype=np.float64)
    # one buffer, |c tau + d|^2 formed in place: (c Re tau + d)^2 + (c Im tau)^2
    buf = np.add.outer(c * t.real, d)
    np.square(buf, out=buf)
    im = c * t.imag
    buf += (im * im)[:, None]
    np.power(buf, -k / 2.0, out=buf)
    # +-c pair off by d -> -d symmetry
    return float(2.0 * np.sum(buf))


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
    closed = _closed(form)
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
