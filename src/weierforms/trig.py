"""Row-summed series for the lattice functions on a reduced period ratio.

Summing the defining lattice sums over d for each fixed c (legitimate by
absolute convergence) collapses every row to a closed trigonometric form:

  wp(tau, z)    = pi^2 [ 1/sin^2(pi z) - 1/3
                         + sum_{c>=1} ( 1/sin^2(pi(z-c tau)) + 1/sin^2(pi(z+c tau))
                                        - 2/sin^2(pi c tau) ) ]
  wzeta(tau, z) = C(tau, z) + z eta2(tau), with the cot rows

  C(tau, z)     = pi cot(pi z) + sum_{c>=1} pi [cot(pi(z-c tau)) + cot(pi(z+c tau))]

and the quasi-period eta2 = wzeta(tau, z + 1) - wzeta(tau, z), which is the
z-coefficient of the rows because cot is 1-periodic (DLMF 23.8):

  eta2(tau)     = pi^2 [ 1/3 + 2 sum_{c>=1} 1/sin^2(pi c tau) ] = (pi^2/3) E2(tau)

So wzeta has no series of its own: :func:`z_strip` sums C and
:func:`eta2_strip` sums eta2, and :mod:`weierforms.evaluate` combines them
(eta1 follows from Legendre's relation there).

With u = e(w) (whichever of e(w), e(-w) has modulus < 1):

  1/sin^2(pi w) = -4u/(1-u)^2,   cot(pi w) = -+ i (1+u)/(1-u)

so row c decays like exp(-2 pi (c Im tau - |Im z|)) and the tail beyond C
rows is bounded by an explicit geometric series.  Callers must supply
Im tau >= TAU_IM_MIN and |Im z| <= Im(tau)/2 (both guaranteed after
reduction), which keeps every row factor below exp(-pi Im tau).  The tail
bounds themselves (``_wp_tail`` and ``_z_tail``; eta2's is half of
``_wp_tail`` at y = 0) hold for any
Im tau > 0 and |Im z| <= y < Im tau, where rho = exp(-2 pi (Im tau - y)) < 1
bounds every row factor |u| for c >= 1 (|1 - u| >= 1 - rho): the shell planner
bounds the far lines of its box with them (:mod:`weierforms.shells`).

At z0 = u tau + v the cot rows give the logarithmic derivative of the Klein
form, Z = wzeta(z0) - u eta1 - v eta2 = C(tau, z0) + 2 pi i u (Kubert-Lang,
Modular Units, 1981).  Z vanishes at the half periods, which are zeros of
cot, where the argument's rounding is absolute rather than relative: each cot
term's rounding budget carries pi |pi w| |1 + cot^2(pi w)|, the change of
pi cot(pi w) under a relative change of pi w, besides |pi cot(pi w)|.  The
budget is a sum of per-term moduli, taken before the terms cancel.

Every tail is its value at 0 rows times exp(-2 pi Im tau rows), so the row
count is found from that closed form and then confirmed against the tail
itself: it is the first row count whose tail meets the target.  The factors
rho and 1/(1-q) of a strip are computed once for all of its tails.  The strips
share one loop, :func:`_strip_sum`; each gives only its row terms.
"""

from __future__ import annotations

import cmath
import math

from .arith import CertifiedValue
from .errors import DomainError, PrecisionError

__all__ = ["wp_strip", "eta2_strip", "z_strip", "TAU_IM_MIN"]

_EPS = math.ulp(1.0)
_PI = math.pi
_PI2 = math.pi * math.pi
_MAX_ROWS = 1024
_ROUND_FACTOR = 64.0
# the smallest positive float: a target that underflowed to 0 is met only
# where the tail underflows as well
_TINY = math.ulp(0.0)
# the smallest tail confirmed by the closed-form count alone (_rows_needed)
_NORMAL_TAIL = 1e-280


def _inv_sin2_pi(w: complex) -> complex:
    """1/sin(pi w)^2, stable on both ends of the strip."""
    if abs(w.imag) < 0.25:
        s = cmath.sin(_PI * w)
        return 1.0 / (s * s)
    u = cmath.exp(2j * _PI * (w if w.imag > 0.0 else -w))
    om = 1.0 - u
    return -4.0 * u / (om * om)


def _cot_pi(w: complex) -> complex:
    """cot(pi w), stable on both ends of the strip."""
    if abs(w.imag) < 0.25:
        return cmath.cos(_PI * w) / cmath.sin(_PI * w)
    if w.imag > 0.0:
        u = cmath.exp(2j * _PI * w)
        return -1j * (1.0 + u) / (1.0 - u)
    v = cmath.exp(-2j * _PI * w)
    return 1j * (1.0 + v) / (1.0 - v)


TAU_IM_MIN = 0.5


def _check_strip(tau: complex, z: complex) -> tuple[float, float]:
    im_tau = tau.imag
    if im_tau < TAU_IM_MIN:
        raise DomainError(f"row-sum series needs Im tau >= {TAU_IM_MIN}, got {im_tau}")
    y = z.imag
    if abs(y) > 0.5 * im_tau * (1.0 + 1e-9) + 1e-300:
        raise DomainError("row-sum series needs |Im z| <= Im(tau)/2; reduce z first")
    return im_tau, y


def _strip_factors(im_tau: float, y: float) -> tuple[float, float]:
    """rho and 1/(1-q) of a strip, shared by its tails at every row count."""
    rho = math.exp(-2.0 * _PI * (im_tau - abs(y)))
    q_inv = 1.0 / (1.0 - math.exp(-2.0 * _PI * im_tau))
    return rho, q_inv


def _row_factors(im_tau: float, y: float, rows: int) -> tuple[float, float, float]:
    """The three leading moduli of the rows beyond ``rows``."""
    a = 2.0 * _PI * im_tau * (rows + 1)
    return math.exp(2.0 * _PI * y - a), math.exp(-2.0 * _PI * y - a), math.exp(-a)


def _wp_tail(im_tau: float, y: float, rows: int, strip: tuple[float, float] | None = None) -> float:
    rho, q_inv = strip or _strip_factors(im_tau, y)
    plus, minus, zero = _row_factors(im_tau, y, rows)
    return 4.0 * _PI2 * (plus + minus + 2.0 * zero) * q_inv / (1.0 - rho) ** 2


def _z_tail(im_tau: float, y: float, rows: int, strip: tuple[float, float] | None = None) -> float:
    # sum_{c>rows} pi |cot(pi(z-c tau)) + cot(pi(z+c tau))|, the tail of the cot rows
    rho, q_inv = strip or _strip_factors(im_tau, y)
    plus, minus, _ = _row_factors(im_tau, y, rows)
    return 2.0 * _PI * (plus + minus) / (1.0 - rho) * q_inv


def _rows_needed(tail_fn, target: float, im_tau: float) -> tuple[int, float]:
    """(rows, tail_fn(rows)) for the fewest rows, at most _MAX_ROWS, whose
    tail_fn(rows) <= target.

    tail_fn is nonincreasing in rows and proportional to
    exp(-2 pi Im tau rows), so the count is the ceiling of the closed-form
    guess log(tail_fn(0) / target) / (2 pi Im tau).  Its float evaluation is
    within about 1e-12 rows of the exact crossing, and so is each direct
    evaluation of tail_fn, while a guess more than 1e-9 (relative) from an
    integer has a margin of at least 3e-9 in the tail on both sides: there
    one evaluation of tail_fn confirms the count.  Next to an integer, at a
    tail below _NORMAL_TAIL (near the subnormal range, where the tails lose
    relative precision), or where the guess is out of range, the count is
    stepped to with direct evaluations, which gives the first hit of a scan
    from 0 exactly.
    """
    rows = 0
    tail = tail_fn(0)
    if tail <= target:
        return rows, tail
    try:
        guess = (math.log(tail) - math.log(max(target, _TINY))) / (2.0 * _PI * im_tau)
        rows = min(max(math.ceil(guess), 0), _MAX_ROWS)
        clear = abs(guess - round(guess)) > 1e-9 * max(1.0, guess)
    except (ValueError, OverflowError):
        rows, clear = _MAX_ROWS, False
    tail = tail_fn(rows)
    if clear and _NORMAL_TAIL <= tail <= target:
        return rows, tail
    while rows > 0:
        below = tail_fn(rows - 1)
        if not below <= target:
            break
        rows, tail = rows - 1, below
    while not tail <= target:
        if rows >= _MAX_ROWS:
            raise PrecisionError("row-sum tail does not reach the requested tolerance")
        rows += 1
        tail = tail_fn(rows)
    return rows, tail


def _strip_sum(tau: complex, z: complex, tol: float, tail_fn, scale: float, row) -> CertifiedValue:
    """scale * sum_{c<=rows} of row(tau, z, c) = (value, moduli of its terms) for z
    in the strip, on the fewest rows whose tail_fn(im_tau, y, rows, strip) meets
    tol/2; the certificate is that tail plus _ROUND_FACTOR eps scale times the moduli."""
    im_tau, y = _check_strip(tau, z)
    strip = _strip_factors(im_tau, y)
    rows, tail = _rows_needed(lambda c: tail_fn(im_tau, y, c, strip), 0.5 * tol, im_tau)
    acc, absacc = row(tau, z, 0)
    for c in range(1, rows + 1):
        value, moduli = row(tau, z, c)
        acc += value
        absacc += moduli
    return CertifiedValue(scale * acc, tail + _ROUND_FACTOR * _EPS * scale * absacc)


def _wp_row(tau: complex, z: complex, c: int) -> tuple[complex, float]:
    if not c:
        s = _inv_sin2_pi(z)
        return s - 1.0 / 3.0, abs(s) + 1.0 / 3.0
    ct = c * tau
    t1, t2, t3 = _inv_sin2_pi(z - ct), _inv_sin2_pi(z + ct), _inv_sin2_pi(ct)
    return t1 + t2 - 2.0 * t3, abs(t1) + abs(t2) + 2.0 * abs(t3)


def wp_strip(tau: complex, z: complex, tol: float) -> CertifiedValue:
    """wp on tau*Z + Z for z already reduced into the horizontal strip."""
    return _strip_sum(tau, z, tol, _wp_tail, _PI2, _wp_row)


def _eta2_row(tau: complex, z: complex, c: int) -> tuple[complex, float]:
    t = 2.0 * _inv_sin2_pi(c * tau) if c else 1.0 / 3.0
    return t, abs(t)


def eta2_strip(tau: complex, tol: float) -> CertifiedValue:
    """The quasi-period eta2 of tau*Z + Z for a reduced tau (module docstring)."""
    # the tail 2 pi^2 sum_{c>rows} 4 q^c / (1-q)^2, q = e(-Im tau), is half the
    # wp tail at y = 0
    return _strip_sum(tau, 0j, tol, lambda im_tau, y, c, strip: 0.5 * _wp_tail(im_tau, y, c, strip), _PI2, _eta2_row)


def _cot_term(w: complex) -> tuple[complex, float]:
    # cot(pi w) and its rounding budget over pi: |cot| + |pi w| |1 + cot^2|
    k = _cot_pi(w)
    return k, abs(k) + _PI * abs(w) * abs(1.0 + k * k)


def _cot_row(tau: complex, z0: complex, c: int) -> tuple[complex, float]:
    if not c:
        return _cot_term(z0)
    ct = c * tau
    (k1, a1), (k2, a2) = _cot_term(z0 - ct), _cot_term(z0 + ct)
    return k1 + k2, a1 + a2


def z_strip(tau: complex, z0: complex, tol: float) -> CertifiedValue:
    """The cot rows C(tau, z0) for z0 already reduced into the strip (module docstring)."""
    return _strip_sum(tau, z0, tol, _z_tail, _PI, _cot_row)
