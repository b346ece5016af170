"""The shell route: box lattice sums with a proven tail bound, and the certified values on them.

The direct sums run over the box |c| <= c_max, |d| <= d_max of a generator
basis (on the shell route the reduced basis of ``lattice.reduce_lattice``,
whose ratio lies in the fundamental domain), w = c*omega1 + d*omega2.
The box is symmetric under w -> -w, so it is summed as half a box (the lines
c <= 0 from d = 1 and the lines c >= 1 from d = 0) of half pairs g:

  wp:    2g = f(w) + f(-w) = 2 z^2 (3w^2 - z^2) / ((z-w)^2 (z+w)^2 w^2)
  wzeta: 2g = f(w) + f(-w) = 2 z^3 / ((z-w) (z+w) w^2)

With r = |z/w| < 1 their power series give |2g| <= 2 S(r) |z|^p / |w|^4,
S_wp(r) = (3 - r^2)/(1 - r^2)^2 (p = 2), S_wzeta(r) = 1/(1 - r^2) (p = 3).

Kernel.  ``shell_sum`` sums every point in pure Python in the factored form
above, which does not cancel when z sits next to w, one line at a time with
``math.fsum``; its rounding is derived next to it.

Tail.  Write tau = omega1/omega2, z' = z/omega2 and y = z_bound/|omega2|;
h2 = covolume/|omega1| is the distance of omega2 from the line R*omega1, so
|w| >= |d| h2.  The margin |z| <= delta <= e1 <= Im(tau) |omega2| gives
y <= Im tau.  The points outside the box split into two sets, each symmetric
under w -> -w.

(i) Far lines |c| > c_max, every d.  Summed over d (by absolute convergence,
and the Mittag-Leffler expansions of csc^2 and cot), the lines c and -c give
exactly the row c of :mod:`weierforms.trig`:

  wp:    omega2^-2 pi^2 [csc^2(pi(z'-c tau)) + csc^2(pi(z'+c tau)) - 2 csc^2(pi c tau)]
  wzeta: omega2^-1 pi [cot(pi(z'-c tau)) + cot(pi(z'+c tau))] + z omega2^-2 2 pi^2 csc^2(pi c tau)

(the 1/w terms of the two lines cancel).  So their sum is at most trig's row
tails beyond c_max at Im tau and y: ``_wp_tail``/|omega2|^2 resp.
``_z_tail``/|omega2|.  The csc^2 term needs no bound of its own: with
Q = e(c tau), s = 2 pi z' and 1/((1 - e(z')Q)(1 - e(-z')Q)) =
Sum_n Q^n sin((n+1)s)/sin(s), the wzeta row is
4 pi Q Sum_{n>=0} Q^n [sin((n+1)s) - (n+1)s], and |sin x - x| <= e^|x|/2
puts it below 2 pi |Q| e^(2 pi y) / (1 - |Q| e^(2 pi y)), within ``_z_tail``'s
row term.  The tails need only rho = exp(-2 pi (Im tau - y)) < 1; where
rho >= 1 (|z| within 1e-12 of the margin) the bound is infinite.  Im tau is
rounded down and y, rho and q = exp(-2 pi Im tau) up, and a factor 1 + 1e-12
covers the rounding of the exponents (at most 4u of arguments below 760).

(ii) Partial lines |c| <= c_max, |d| > d_max.  ``shell_value`` closes each
line of the half box by Euler-Maclaurin summation from the midpoint (NIST
DLMF 2.10(i), 24.4.27; Apostol, Amer. Math. Monthly 106, 1999, for real end
points; Johansson, Numer. Algorithms 69, 2015): with x = d,
W = c omega1 + (d_max + 1/2) omega2 and B_2k(1/2) = (2^(1-2k) - 1) B_2k,

  Sum_{d > d_max} g = Int_{d_max+1/2}^oo g dx - Sum_{k<=P} B_2k(1/2)/(2k)! g^(2k-1) + R,
  |R| <= |B_2P|/(2P)! Int |g^(2P)| dx,

a derivative in x being omega2^m times the one in w, where

  wp:    Int_W^oo g dw = z^2 / (W (W^2 - z^2)),
         g^(2k-1) = -(2k)!/2 [(W-z)^-(2k+1) + (W+z)^-(2k+1) - 2 W^-(2k+1)]
  wzeta: Int_W^oo g dw = -Sum_{j>=1} t^(2j+1)/(2j+1), t = z/W (26 terms, |t| <= 1/2),
         g^(2k-1) = (2k-1)!/2 [(W-z)^-2k - (W+z)^-2k - 4k z W^-(2k+1)].

For |w| > |z|, |f^(m)(w)| is at most (m+2)! |z| (|w| - |z|)^-(m+3) (wp: the
mean value theorem on (s - w)^-(m+2) from s = 0 to z) resp.
(m+2)!/2 |z|^2 (|w| - |z|)^-(m+3) (wzeta: f = -Sum_{n>=2} z^n w^-(n+1)), and
|w| >= x h2 on the line, so

  |R| <= |B_2P| (2P+1) kappa |z|^e |omega2|^2P / (h2 G^(2P+2)),  G = (d_max + 1/2) h2 - |z|,

(e, kappa) = (1, 1) for wp and (2, 1/2) for wzeta, and P = 6.  Bound (ii) is
2 (2 c_max + 1) times that plus the closures' rounding, where (d_max + 1/2) h2
>= 2|z| (so |t| <= 1/2), h2 rounded down and G lowered by the rounding of W.

Box.  Bound (i) and (ii) share tol less the a priori rounding
(``bulk_rounding_bound``, the same for every box).  c1 is the fewest far lines
whose bound (i) is below that budget; for c_max in {c1, c1 + 1}, d_max is the
fewest rows whose bound (ii) meets the rest, and the plan is the candidate with
fewer points, c1 on a tie.  On a reduced basis no box has fewer points:
Im tau >= sqrt(3)/2, so bound (i) falls by exp(-2 pi Im tau) < 1/230 per line,
while bound (ii) is proportional to 2 c_max + 1 (the rows' rounding only adds
to it), so from c1 + 1 on d_max cannot fall while c_max < 230.  The lines
number about log(1/tol) / Im tau: at most 7 on reduced bases of scale e^-30 to
e^30 at tol down to 1e-30.  On other bases the box meets tol, but a larger
c_max may have fewer points.

Budget.  A shell value is the principal part 1/z^2 resp. 1/z plus the sum and
the closures; its certificate adds the tail bound (i) + (ii), the a priori
rounding, the first shell's and that of the principal part and the additions.
``plan_shell`` bounds the last two first (they do not depend on the box) and
plans the box at the rest of tol times 1 - 4 eps, which absorbs the rounding
of those sums.  ``shell_route`` raises PrecisionError when |z| exceeds the
margin, when those two terms reach tol, when ``plan_truncation`` refuses the
box, or when the certificate exceeds tol.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .arith import CertifiedValue, bernoulli
from .errors import DomainError, PoleError, PrecisionError
from .lattice import Lattice
from .trig import _wp_tail, _z_tail

__all__ = [
    "TruncationPlan",
    "plan_truncation",
    "shell_sum",
    "bulk_rounding_bound",
    "plan_shell",
    "shell_value",
    "shell_route",
    "POINT_BUDGET",
]

_EPS = math.ulp(1.0)
_U = 0.5 * _EPS

# the most points an admitted box may have: about what the kernel sums in a second
POINT_BUDGET = 4_000_000

# summand kind -> p, the power of |z| in the pair majorant, and S(1/2)
_KINDS = {"wp": 2, "wzeta": 3}
_S_HALF = {"wp": 44.0 / 9.0, "wzeta": 4.0 / 3.0}
# summand kind -> the largest |w| on which the kernel's denominator and its
# partial products, at most 4|w|^6 (wp) resp. 2|w|^4 (wzeta) as |z| <= |w|, stay
# in the float range, with a factor 2 for slack; a shell constant below 2^30
# over it may take the first shell's denominators below the normal range.
_W_RANGE = {"wp": (sys.float_info.max / 8.0) ** (1.0 / 6.0), "wzeta": (sys.float_info.max / 8.0) ** 0.25}
_OUT_OF_RANGE = "shell route infeasible: the basis lies outside the kernel's float range"
_MARGIN_SLACK = 1.0 + 1e-12

# where set, the list of what an evaluation ran: each plan shell_route summed, each reduction
_RECORD = ContextVar("weierforms_record", default=None)

# Euler-Maclaurin closures (module docstring, Tail (ii)): P, B_2k(1/2), the
# coefficient of omega2^(2k-1) times the bracket of correction k, and
# |B_2P| (2P+1) kappa
_EM_P = 6
_EM_HALF = [float((Fraction(2) ** (1 - 2 * k) - 1) * bernoulli(2 * k)) for k in range(1, _EM_P + 1)]
_EM_COEFF = {"wp": [b / 2.0 for b in _EM_HALF], "wzeta": [-b / (4.0 * k) for k, b in enumerate(_EM_HALF, 1)]}
_EM_REM = {kind: abs(float(bernoulli(2 * _EM_P))) * (2 * _EM_P + 1) * kap for kind, kap in (("wp", 1.0), ("wzeta", 0.5))}
# 1/(2j+3), j < 26: the series of the wzeta closure's integral
_ATANH = [1.0 / (2 * j + 3) for j in range(26)]


@dataclass(frozen=True)
class TruncationPlan:
    """Box |c| <= c_max, |d| <= d_max with a proven bound on the omitted tail.

    ``tail_bound`` bounds, for any |z| <= z_bound, the sum outside the box less
    the closures ``shell_value`` adds, their rounding included;
    ``shell_constant`` is delta (|w| >= delta * max(|c|, |d|)).
    """

    c_max: int
    d_max: int
    tail_bound: float
    shell_constant: float
    kind: str
    z_bound: float

    @property
    def box(self) -> tuple[int, int]:
        return self.c_max, self.d_max

    @property
    def point_count(self) -> int:
        return (2 * self.c_max + 1) * (2 * self.d_max + 1) - 1


def _check_margin(lat: Lattice, z_bound: float) -> None:
    delta = lat.geometry.delta
    if z_bound > delta * _MARGIN_SLACK:
        raise DomainError(
            f"|z| = {z_bound:.6g} exceeds the shell constant {delta:.6g}; "
            "the margin |z/w| <= 1/2 would fail beyond the first shell"
        )


def _check_pole(lat: Lattice, z: complex) -> None:
    """Refuse z = 0 and the first-shell points, where the principal part or a
    pair's denominator is 0; other points of the box are beyond the margin."""
    w1, w2 = lat.omega1, lat.omega2
    if z == 0 or any(z in (w, -w) for w in (w1, w2, w2 - w1, w2 + w1)):
        raise PoleError(f"z = {z!r} is a lattice point, a pole of wp and wzeta", nearest=z)


def _check_kernel_range(lat: Lattice, kind: str, c_max: int, d_max: int) -> None:
    """Raise PrecisionError when the kernel would leave the float range on the box.

    |w| is convex in (c, d), so its largest value on the box is at a corner.
    """
    cw1, dw2 = c_max * lat.omega1, d_max * lat.omega2
    top = _W_RANGE[kind]
    if max(abs(cw1 + dw2), abs(cw1 - dw2)) > top or lat.geometry.delta * top < 2.0**30:
        raise PrecisionError(_OUT_OF_RANGE)


def _down(lat: Lattice) -> float:
    """Im tau = h1/|omega2| and h2 are within (2 skew + 4) u of their computed
    values, skew = |omega1| |omega2| / covolume: this factor rounds them down."""
    return 1.0 - 8.0 * _EPS * abs(lat.omega1) * abs(lat.omega2) / lat.covolume


def _far_bound(lat: Lattice, kind: str, z_bound: float, c_max: int) -> float:
    """Bound (i) on |Sum of f(w) over the lines |c| > c_max| for |z| <= z_bound (module docstring, Tail)."""
    l2 = abs(lat.omega2)
    im_tau = lat.geometry.h1 / l2 * _down(lat)
    y = z_bound / l2 * (1.0 + 4.0 * _EPS)
    rho, q = (math.exp(-2.0 * math.pi * t) * (1.0 + 4.0 * _EPS) for t in (im_tau - y, im_tau))
    if not rho < 1.0:
        return math.inf
    strip = (rho, 1.0 / (1.0 - q))
    tail = _wp_tail(im_tau, y, c_max, strip) / l2**2 if kind == "wp" else _z_tail(im_tau, y, c_max, strip) / l2
    return (1.0 + 1e-12) * tail


# The closures' rounding, u = 2^-53, against the moduli of their terms, with
# |W -+ z| >= |W|/2 >= |z|: 1/(W -+ z) 10.1u, a power n of it and the bracket's
# sums (13n + 2)u, the coefficient, the power of omega2 and two products
# (6k + 7)u: at most (32k + 24)u.  The wzeta integral: t, t^3 and the product
# 37u, Horner's 26 steps 138u of |t|^3 Sum 4^-j/(2j+3) <= 4|t|^3/9, truncation
# below u |t|^3.  The sums (P + 2)u: all within 256u of the moduli.
_CLOSURE_U = 256.0


def _partial_bound(lat: Lattice, kind: str, z_bound: float, c_max: int, d_max: int) -> float:
    """Bound (ii) for |z| <= z_bound: the Euler-Maclaurin remainder of the
    closed partial lines |c| <= c_max, |d| > d_max and the closures' rounding
    (module docstring, Tail); infinite where (d_max + 1/2) h2 < 2|z|."""
    l2 = abs(lat.omega2)
    h2 = lat.geometry.h2 * _down(lat)
    # |W| >= start, less the rounding of W = c omega1 + (d_max + 1/2) omega2
    start = (d_max + 0.5) * h2 - _EPS * (c_max * abs(lat.omega1) + (d_max + 1) * l2)
    if not start >= 2.0 * z_bound:
        return math.inf
    far = start - z_bound
    ratio = l2 / far
    if kind == "wp":
        remainder = _EM_REM[kind] * z_bound * ratio ** (2 * _EM_P + 2) / (h2 * l2 * l2)
        moduli = 4.0 * z_bound**2 / (3.0 * l2 * start**3)
        moduli += sum(2.0 * abs(b) * ratio ** (2 * k - 1) / far**2 for k, b in enumerate(_EM_HALF, 1))
    else:
        remainder = _EM_REM[kind] * z_bound**2 * ratio ** (2 * _EM_P + 2) / (h2 * l2 * l2)
        moduli = 4.0 * z_bound**3 / (9.0 * l2 * start**3)
        moduli += sum(abs(b) * (2 + 2 * k) / (4 * k) * ratio ** (2 * k - 1) / far for k, b in enumerate(_EM_HALF, 1))
    return (1.0 + 1e-12) * 2.0 * (2 * c_max + 1) * (remainder + _CLOSURE_U * _U * moduli)


def plan_truncation(
    lat: Lattice,
    z_bound: float,
    tol: float = 1e-8,
    *,
    kind: str = "wp",
) -> TruncationPlan:
    """The box of the module docstring's rule (Box): its tail bound plus
    :func:`bulk_rounding_bound` is <= tol, and on a reduced basis no box with
    fewer points is, nor one with as many and a smaller c_max.

    Requires z_bound <= delta.  Raises PrecisionError when neither candidate
    box meets tol within POINT_BUDGET points, when the rounding alone reaches
    tol, or when the basis or the box lies outside the kernel's float range.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown summand kind {kind!r}")
    z_bound = float(z_bound)
    if z_bound < 0.0:
        raise DomainError("z_bound must be nonnegative")
    _check_margin(lat, z_bound)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    _check_kernel_range(lat, kind, 1, 1)
    spent = bulk_rounding_bound(lat, z_bound, kind)
    if spent >= tol:
        raise PrecisionError(f"tolerance {tol:.3g} below the kernel's rounding bound {spent:.3g}")
    budget = tol - spent
    over = PrecisionError(f"shell route needs more than {POINT_BUDGET:,} points, over the budget")
    far = _far_bound(lat, kind, z_bound, 0)
    if far == math.inf:
        raise over
    l2, h2 = abs(lat.omega2), lat.geometry.h2 * _down(lat)
    # c1, the fewest far lines within budget: bound (i) is its value at 0 times
    # about exp(-2 pi Im tau c_max), so this start is at or below it
    decay = 2.0 * math.pi * lat.geometry.h1 / l2
    c = 0 if far <= budget else max(0, math.floor((math.log(far) - math.log(budget)) / decay) - 1)
    if c:
        far = _far_bound(lat, kind, z_bound, c)
    # while the fewest points on c lines, those of d_max = 1, are within POINT_BUDGET
    while far >= budget and 6 * c + 2 <= POINT_BUDGET:
        c += 1
        far = _far_bound(lat, kind, z_bound, c)
    if far >= budget:
        raise over
    # bound (ii) exceeds its remainder, (2 c_max + 1) amp (|omega2|/G)^(2P+2), and
    # the rounding of its k = 1 closures, (2 c_max + 1) lead |omega2| / G^p (wp:
    # p = 3, wzeta: 2); every d_max below either root misses the share, or the margin
    amp = 2.0 * _EM_REM[kind] * z_bound ** (1 if kind == "wp" else 2) / (h2 * l2 * l2)
    lead = 2.0 * _CLOSURE_U * _U * abs(_EM_HALF[0]) * (2.0 if kind == "wp" else 1.0)
    boxes = []
    for c_max, far in ((c, far), (c + 1, _far_bound(lat, kind, z_bound, c + 1))):
        # within POINT_BUDGET; c1 + 1 has fewer points only with fewer rows
        most = min([((POINT_BUDGET + 1) // (2 * c_max + 1) - 1) // 2] + [box[2] - 1 for box in boxes])
        grow = ((2 * c_max + 1) * amp / (budget - far)) ** (1.0 / (2 * _EM_P + 2))
        reach = ((2 * c_max + 1) * lead * l2 / (budget - far)) ** (1.0 / (3 if kind == "wp" else 2))
        x = max(2.0 * z_bound, z_bound + l2 * grow, z_bound + reach) / h2 - 0.5
        d = max(1, math.ceil(x - 1e-9 * max(1.0, x))) if x <= most else most + 1
        while d <= most and (partial := _partial_bound(lat, kind, z_bound, c_max, d)) > budget - far:
            d += 1
        if d <= most:
            boxes.append(((2 * c_max + 1) * (2 * d + 1) - 1, c_max, d, far + partial))
    if not boxes:
        raise over
    _, c, d, tail = min(boxes)
    _check_kernel_range(lat, kind, c, d + 1)
    return TruncationPlan(c, d, tail, lat.geometry.delta, kind, z_bound)


# ---------------------------------------------------------------------------
# Summation kernel.  Each half-box point gives g = zz (3s - zz) / (q^2 s) (wp)
# resp. z^3 / (q s) (wzeta), zz = z^2, s = w^2, q = (z-w)(z+w); the factor zz
# resp. z^3 multiplies the sum once, and the sum is doubled exactly.
#
# Rounding, u = 2^-53, normwise and relative, first order: complex + and -,
# and a real times a complex: u; complex *: 2.83u (Higham, Lemma 3.5);
# complex / (Smith's algorithm, as in CPython): 7.07u.  With |z| <= |w|:
# s, zz 2.83; q 4.83; wp: 3s - zz (3|w|^2 + |z|^2 <= 2|3w^2 - z^2|) 8.66,
# q^2 s 18.15, the quotient 33.88, zz and its product 5.66 -> 40u; wzeta:
# 1/(q s) 17.56, z^3 and its product 8.49 -> 27u.  The rounding of
# w = c*omega1 + d*omega2, |dw| <= 2u M |w| with M = |omega1|/h1 + |omega2|/h2,
# moves g by |dw| |g'|, |g'/g| <= 5/|w| + 2/|w-z| + 2/|w+z| (wp) resp.
# 2/|w| + 1/|w-z| + 1/|w+z|: beyond the first shell (max(|c|, |d|) >= 2, so
# |w -+ z| >= |w|/2) at most 26 M u resp. 12 M u, which also covers a closure's
# W, off by at most 2u M |w| of each point of its line.  There Sum |g| is bounded
# a priori: the shell max(|c|, |d|) = n has 4n half-plane points, all with
# |w| >= n delta, so Sum |g| <= S(1/2) |z|^p 4 (zeta(3) - 1) / delta^4.  The
# first shell counts its computed |g|; omega2 -+ omega1 are formed with one
# rounding, |dw| <= u |w|, and add twice the derivative bound at the point,
# valid while |dw| <= |w -+ z|/16 (otherwise the bound is infinite).  The
# fsums: u Sum|g| twice.  1.01 covers second order and the margin's slack.

_POINT_U = {"wp": 40.0, "wzeta": 27.0}
_SHIFT_U = {"wp": 26.0, "wzeta": 12.0}
_ZETA3 = 1.2020569031595942


def _bulk_abs_bound(lat: Lattice, z_abs: float, kind: str) -> float:
    """A priori bound on Sum |g| over the half-plane points with max(|c|, |d|) >= 2."""
    return _S_HALF[kind] * z_abs ** _KINDS[kind] * 4.0 * (_ZETA3 - 1.0) / lat.geometry.delta**4


def bulk_rounding_bound(lat: Lattice, z_abs: float, kind: str) -> float:
    """A priori bound on the rounding of ``shell_sum`` beyond the first shell,
    for every |z| <= z_abs <= delta and every box."""
    g = lat.geometry
    spread = abs(lat.omega1) / g.h1 + abs(lat.omega2) / g.h2
    per_term = _POINT_U[kind] + _SHIFT_U[kind] * spread + 2.0
    return 1.01 * _EPS * per_term * _bulk_abs_bound(lat, z_abs, kind)


def _first_shell(lat: Lattice, z: complex, c_max: int, d_max: int, kind: str) -> tuple[float, float]:
    """(Sum |g|, rounding bound) over the first-shell points of the half box (comment above)."""
    w1, w2 = lat.omega1, lat.omega2
    points = ([(w1, False)] if c_max else []) + ([(w2, False)] if d_max else [])
    if c_max and d_max:
        points += [(w2 - w1, True), (w2 + w1, True)]
    zz = z * z
    abs_sum = bound = 0.0
    for w, rounded in points:
        q, s = (z - w) * (z + w), w * w
        g = abs(zz * (3.0 * s - zz) / (q * q * s) if kind == "wp" else zz * z / (q * s))
        abs_sum += g
        bound += 1.01 * _U * (_POINT_U[kind] + 2.0) * g
        if rounded:
            dw = _U * (1.0 + _EPS) * abs(w)
            near = (abs(w), abs(w - z), abs(w + z))
            if dw > min(near) / 16.0:
                return abs_sum, math.inf
            weights = (5.0, 2.0, 2.0) if kind == "wp" else (2.0, 1.0, 1.0)
            bound += 2.0 * g * dw * sum(a / b for a, b in zip(weights, near))
    return abs_sum, bound


def shell_sum(
    lat: Lattice, z: complex, box: tuple[int, int], kind: str = "wp"
) -> tuple[complex, float]:
    """Sum the chosen summand over the box (c_max, d_max) in the basis of ``lat``.

    Returns (sum, rounding_bound), without the principal part (1/z^2 or 1/z)
    or the closures.  Requires |z| <= delta, as the planner does, and raises
    PrecisionError on a box outside the kernel's float range.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown summand kind {kind!r}")
    c_max, d_max = box
    if any(not isinstance(n, int) or isinstance(n, bool) or n < 0 for n in box):
        raise DomainError(f"box half-widths must be nonnegative integers, got {box!r}")
    if c_max == 0 and d_max == 0:
        return 0.0 + 0.0j, 0.0
    z = complex(z)
    _check_margin(lat, abs(z))
    _check_pole(lat, z)
    _check_kernel_range(lat, kind, c_max, d_max)
    w1, w2 = complex(lat.omega1), complex(lat.omega2)
    zz = z * z
    dw2 = [d * w2 for d in range(d_max + 1)]
    re_parts, im_parts = [], []
    for c in range(-c_max, c_max + 1):
        cw1 = c * w1
        # the half box: the lines c <= 0 from d = 1, the lines c >= 1 from d = 0
        ws = [cw1 + dw for dw in dw2[c <= 0 :]]
        if kind == "wp":
            line = [(3.0 * (s := w * w) - zz) / ((q := (z - w) * (z + w)) * q * s) for w in ws]
        else:
            line = [1.0 / ((z - w) * (z + w) * (w * w)) for w in ws]
        re_parts.append(math.fsum([g.real for g in line]))
        im_parts.append(math.fsum([g.imag for g in line]))
    total = 2.0 * (zz if kind == "wp" else zz * z) * complex(math.fsum(re_parts), math.fsum(im_parts))
    if not cmath.isfinite(total):
        raise PrecisionError(_OUT_OF_RANGE)
    return total, bulk_rounding_bound(lat, abs(z), kind) + 2.0 * _first_shell(lat, z, c_max, d_max, kind)[1]


def _closures(lat: Lattice, z: complex, c_max: int, d_max: int, kind: str) -> complex:
    """The Euler-Maclaurin closures of the half box's lines beyond d_max, doubled
    (module docstring, Tail (ii)); their error and rounding are bound (ii)."""
    w1, w2 = complex(lat.omega1), complex(lat.omega2)
    zz = z * z
    re_parts, im_parts = [], []
    for c in range(-c_max, c_max + 1):
        w = c * w1 + (d_max + 0.5) * w2
        rm, rp, r0 = 1.0 / (w - z), 1.0 / (w + z), 1.0 / w
        # the powers of omega2 ride on the ratios omega2/(W -+ z), omega2/W, in range
        um, up, u0 = w2 * rm, w2 * rp, w2 * r0
        um2, up2, u02 = um * um, up * up, u0 * u0
        if kind == "wp":
            terms = [zz / (w2 * w * (w * w - zz))]
            tm, tp, t0 = um * rm * rm, up * rp * rp, 2.0 * u0 * r0 * r0
        else:
            t = z * r0
            t2 = t * t
            acc = 0j
            for a in reversed(_ATANH):
                acc = acc * t2 + a
            terms = [-(t * t2 * acc) / w2]
            tm, tp, t0 = um * rm, up * rp, 4.0 * u0 * z * r0 * r0
        for k, coeff in enumerate(_EM_COEFF[kind], 1):
            terms.append(coeff * (tm + tp - t0) if kind == "wp" else coeff * (tm - tp - k * t0))
            tm, tp, t0 = tm * um2, tp * up2, t0 * u02
        re_parts.append(math.fsum([v.real for v in terms]))
        im_parts.append(math.fsum([v.imag for v in terms]))
    return 2.0 * complex(math.fsum(re_parts), math.fsum(im_parts))


# ---------------------------------------------------------------------------
# Shell route: the planned sum plus the principal part, certified within tol
# (module docstring, Budget).


def _principal(z: complex, kind: str) -> complex:
    return 1.0 / (z * z) if kind == "wp" else 1.0 / z


def _addition_bound(principal: complex, total_abs: float) -> float:
    """Rounding of the principal part, of the closures' addition to the sum and
    of the principal part's to a total of modulus total_abs.

    principal: z*z (2.83 u) and Smith's division (7.07 u); the two sums: u (|p| + 2 |total|)
    """
    return 6.0 * _EPS * abs(principal) + 2.0 * _EPS * total_abs


def plan_shell(lat: Lattice, z: complex, tol: float, kind: str) -> TruncationPlan:
    """The admitted plan of the shell value at z within tol, or PrecisionError
    with the reason for refusing it.

    The box takes all of tol that the terms of the certificate which do not
    depend on it leave: the first shell's rounding and the principal part's
    rounding and addition, with an a priori bound on the modulus of the sum.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown summand kind {kind!r}")
    z = complex(z)
    try:
        _check_margin(lat, abs(z))
    except DomainError:
        raise PrecisionError("shell route infeasible: |z| exceeds the margin of the reduced basis") from None
    _check_pole(lat, z)
    _check_kernel_range(lat, kind, 1, 1)
    first_abs, bound = _first_shell(lat, z, 1, 1, kind)
    # 1.01 covers the rounding of the computed sum against the exact one; the
    # closures differ from the tails they close by at most tol
    modulus = 2.02 * (first_abs + _bulk_abs_bound(lat, abs(z), kind)) + tol
    fixed = 2.0 * bound + _addition_bound(_principal(z, kind), modulus)
    if not fixed < tol:
        raise PrecisionError(f"shell certificate exceeds the requested tolerance: the rounding at z alone is {fixed:.3g}")
    # the certificate is a sum of five terms; a share 4 eps smaller absorbs
    # its rounding and that of the planner's sum
    return plan_truncation(lat, abs(z), (tol - fixed) * (1.0 - 4.0 * _EPS), kind=kind)


def shell_value(lat: Lattice, z: complex, plan: TruncationPlan) -> CertifiedValue:
    """Principal part plus the planned shell sum of ``plan.kind`` and its
    closures, with the plan's certificate; the plan must cover |z|."""
    z, kind = complex(z), plan.kind
    if abs(z) > plan.z_bound:
        raise DomainError(f"|z| = {abs(z):.6g} exceeds the plan's z_bound {plan.z_bound:.6g}")
    box, rounding = shell_sum(lat, z, plan.box, kind)
    total = box + _closures(lat, z, plan.c_max, plan.d_max, kind)
    principal = _principal(z, kind)
    err = plan.tail_bound + rounding + _addition_bound(principal, abs(total))
    return CertifiedValue(principal + total, err)


def shell_route(lat: Lattice, z: complex, tol: float, kind: str) -> CertifiedValue:
    """The shell value at z on the plan of :func:`plan_shell`, certified within tol."""
    plan = plan_shell(lat, z, tol, kind)
    cv = shell_value(lat, z, plan)
    if cv.error > tol:
        raise PrecisionError("shell certificate exceeds the requested tolerance")
    if (record := _RECORD.get()) is not None:
        record.append(plan)
    return cv
