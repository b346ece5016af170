"""The shell route: box lattice sums with a proven tail bound, and the certified values on them.

The direct sums run over the box |c| <= c_max, |d| <= d_max of a generator
basis (on the shell route the reduced basis of ``lattice.reduce_lattice``,
whose ratio lies in the fundamental domain), w = c*omega1 + d*omega2.
The box is symmetric under w -> -w, so it is summed as half a box (rows
d >= 1 with every c, and the row d = 0 with c >= 1) of paired summands

  wp pair:    f(w) + f(-w) = 2 z^2 (3w^2 - z^2) / ((z-w)^2 (z+w)^2 w^2)
  wzeta pair: f(w) + f(-w) = 2 z^3 / ((z-w) (z+w) w^2)

with r = |z/w| < 1 their even/odd power series give

  |f(w) + f(-w)| <= 2 S(r) |z|^p / |w|^4,
  S_wp(r) = (3 - r^2) / (1 - r^2)^2,  p = 2;   S_wzeta(r) = 1 / (1 - r^2),  p = 3

(S(1/2) = 44/9 resp. 4/3; on real tails r is tiny and S is near 3 resp. 1).

Kernel.  Beyond the first shell (max(|c|, |d|) >= 2, where |w| >= 2|z|) the
half pairs are summed in numpy blocks in the forms

  wp:    3 z^2 (w^2 - z^2/3) / ((z^2 - w^2)^2 w^2)
  wzeta: z^3 / ((z^2 - w^2) w^2)

whose denominators cannot cancel there (|z^2 - w^2| >= 3|w|^2/4).  The
constant factor 3z^2 resp. z^3 multiplies the fsum of the row partials once,
which leaves 8 resp. 6 array passes per point.  The at most four first-shell
points of the half box, where z may sit next to w, are summed in the factored
form above.  The rounding bound is derived next to the kernel: 39u resp. 27u
per bulk point and 40u resp. 24u per first-shell point, plus the rounding of w
and of the sums.  The bulk's Sum |g| is bounded a priori, not measured: the
shell max(|c|, |d|) = n has 4n half-box points, all with |w| >= n delta, so
Sum_bulk |g| <= S(1/2) |z|^p 4 (zeta(3) - 1) / delta^4.  numpy is imported on
the kernel's first call, so the series route, the cusp values and every
verify suite but eies-bound run without loading it.

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
(``_z_tail`` + |z'| ``_eta2_tail``)/|omega2|.  Those need only
rho = exp(-2 pi (Im tau - y)) < 1; where rho >= 1 (|z| within 1e-12 of the
margin) the bound is infinite.  Im tau is rounded down and y, rho and
q = exp(-2 pi Im tau) up, and a factor 1 + 1e-12 covers the rounding of the
exponents (at most 4u of arguments below 760 in modulus).

(ii) Partial lines |c| <= c_max, |d| > d_max.  Here |w| >= (d_max+1) h2
>= 2 z_bound (d_max >= d_min), so r <= 1/2 and, by the pair bound, the sum is
at most S(r) |z|^p Sum |w|^-4 <= S(r) |z|^p (2 c_max + 1) b_rows / (d_max + 1/2)^3,
with b_rows = 2 / (3 h2^4) and r = z_bound / ((d_max+1) h2), by convexity
(Sum_{d > D} d^-4 <= (D + 1/2)^-3 / 3).  Where z^p/w^4 keeps its phase along
the lines (a rectangular basis, z on the line c = 0) it is nearly exact.

Box.  For c_max = 0, 1, 2, ...: bound (i) and the bulk's rounding bound
(``bulk_rounding_bound``, which grows with c_max) leave a share of tol, and
d_max is the smallest value >= d_min whose bound (ii) meets it: every d_max
below the cube root of S(0) |z|^p (2 c_max + 1) b_rows / share, less 1/2,
misses (S(r) >= S(0)), and one evaluation confirms the integer above it
(the box below is tried too where the root lies next to an integer).  The
plan is the candidate with the fewest points.  A box with a larger c_max
has at least (2 c_max + 1)(2 max(d_min, root) + 1) - 1 points, the root
taken at the share tol minus the rounding bound; that grows with c_max, so
the search stops once it exceeds the best count (in particular once
(2 c_max + 1)(2 d_min + 1) does).  Bound (i) is its value at c_max = 0 times
exp(-2 pi Im tau c_max), so the search starts just below the first c_max at
which it alone leaves a share.  The number of lines grows like
log(1/tol) / Im tau and d_max like tol^(-1/3).

Budget.  A plan's tail bound (i) + (ii) plus the a priori rounding bound of
its bulk is <= tol.  A shell value (``shell_value``) is the principal part
1/z^2 resp. 1/z plus the sum, and its certificate has five terms: the tail,
the bulk's rounding, the first shell's rounding, the principal part's
rounding and that of the final addition.  The last three do not depend on
the box, so ``plan_shell`` bounds them first, with an a priori bound on
|sum| (the first shell's computed |g| and the bulk's a priori Sum |g|), and
plans the box at the rest of tol times 1 - 4 eps (eps = ulp(1)), which
absorbs the rounding of the five-term sum and of the planner's.  So the
tail takes nearly the whole tolerance.  The shell route (``shell_route``)
raises PrecisionError when |z| exceeds the margin of the basis, when the
terms independent of the box alone reach tol, when ``plan_truncation``
refuses the box (no box within SHELL_CAP meets the tolerance, the best has
more than POINT_BUDGET points, or the basis lies outside the planner's float
range), or when the summed certificate exceeds tol.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .arith import CertifiedValue
from .errors import DomainError, PrecisionError
from .lattice import Lattice
from .trig import _eta2_tail, _wp_tail, _z_tail

__all__ = [
    "TruncationPlan",
    "plan_truncation",
    "shell_sum",
    "bulk_rounding_bound",
    "plan_shell",
    "shell_value",
    "shell_route",
    "eta2_shell",
    "SHELL_CAP",
    "POINT_BUDGET",
]

_EPS = math.ulp(1.0)

# the largest half-width max(c_max, d_max) of an admitted box: it bounds the
# kernel's lists, which hold one fsum partial per row
SHELL_CAP = 10**6
# the most points an admitted box may have
POINT_BUDGET = 800_000_000

# summand kind -> p, the power of |z| in the pair majorant
_KINDS = {"wp": 2, "wzeta": 3}
# summand kind -> the largest |w| on which the kernel's denominator,
# (z^2 - w^2)^2 w^2 (wp) resp. (z^2 - w^2) w^2 (wzeta), stays in the float
# range: |z| <= |w| gives |z^2 - w^2| <= 2|w|^2, so it and its partial products
# are at most 4 |w|^6 resp. 2 |w|^4; a factor 2 covers the margin slack and rounding
_W_RANGE = {"wp": (sys.float_info.max / 8.0) ** (1.0 / 6.0), "wzeta": (sys.float_info.max / 8.0) ** 0.25}
_OUT_OF_RANGE = "shell route infeasible: the basis lies outside the planner's float range"
_MARGIN_SLACK = 1.0 + 1e-12
# half-box points per numpy block
_BLOCK_POINTS = 1 << 15


@dataclass(frozen=True)
class TruncationPlan:
    """Box |c| <= c_max, |d| <= d_max with a proven bound on the omitted tail.

    ``tail_bound`` bounds the absolute value of the sum over all lattice
    points outside the box for any |z| <= z_bound; ``shell_constant`` is the
    uniform modulus lower bound delta (|w| >= delta * max(|c|, |d|)).
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


def _row_coeff(lat: Lattice) -> float:
    """b_rows = 2 / (3 h2^4) of bound (ii) (module docstring, Tail).

    Raises PrecisionError when it or |omega2|^-2, the scale of bound (i),
    leaves the positive float range (a basis far longer or shorter than
    1e77), where no plan is derived.
    """
    try:
        coeffs = (2.0 / (3.0 * lat.geometry.h2**4), abs(lat.omega2) ** -2)
    except (OverflowError, ZeroDivisionError):
        coeffs = (math.inf,)
    if not all(0.0 < c < math.inf for c in coeffs):
        raise PrecisionError(_OUT_OF_RANGE)
    return coeffs[0]


def _check_kernel_range(lat: Lattice, kind: str, c_max: int, d_max: int) -> None:
    """Raise PrecisionError when the kernel would leave the float range on the box.

    |w| is convex in (c, d), so its largest value on the box is at a corner.
    """
    cw1, dw2 = c_max * lat.omega1, d_max * lat.omega2
    if max(abs(cw1 + dw2), abs(cw1 - dw2)) > _W_RANGE[kind]:
        raise PrecisionError(_OUT_OF_RANGE)


def _pair_coeff(kind: str, r2: float) -> float:
    """S(r) for r^2 = r2 <= 1/4."""
    if kind == "wp":
        return (3.0 - r2) / (1.0 - r2) ** 2
    return 1.0 / (1.0 - r2)


def _far_bound(lat: Lattice, kind: str, z_bound: float, c_max: int) -> float:
    """Bound (i) on |Sum of f(w) over the lines |c| > c_max| for |z| <= z_bound (module docstring, Tail)."""
    l2 = abs(lat.omega2)
    skew = abs(lat.omega1) * l2 / lat.covolume
    # Im tau = covolume / |omega2|^2 is within (2 skew + 4) u of the computed value
    im_tau = lat.geometry.h1 / l2 * (1.0 - 8.0 * _EPS * skew)
    y = z_bound / l2 * (1.0 + 4.0 * _EPS)
    rho, q = (math.exp(-2.0 * math.pi * t) * (1.0 + 4.0 * _EPS) for t in (im_tau - y, im_tau))
    if not rho < 1.0:
        return math.inf
    q_inv = 1.0 / (1.0 - q)
    if kind == "wp":
        tail = _wp_tail(im_tau, y, c_max, (rho, q_inv)) / l2**2
    else:
        tail = (_z_tail(im_tau, y, c_max, (rho, q_inv)) + y * _eta2_tail(im_tau, c_max, (q, q_inv))) / l2
    return (1.0 + 1e-12) * tail


def _partial_bound(lat: Lattice, kind: str, z_bound: float, c_max: int, d_max: int) -> float:
    """Bound (ii) on |Sum of f(w) over |c| <= c_max, |d| > d_max| for |z| <= z_bound (module docstring, Tail)."""
    r = z_bound / ((d_max + 1) * lat.geometry.h2)
    lines = 2 * c_max + 1
    return _pair_coeff(kind, r * r) * z_bound ** _KINDS[kind] * lines * _row_coeff(lat) / (d_max + 0.5) ** 3


def plan_truncation(
    lat: Lattice,
    z_bound: float,
    tol: float = 1e-8,
    *,
    kind: str = "wp",
) -> TruncationPlan:
    """The box with the fewest points whose tail bound plus bulk rounding bound is <= tol.

    Among the boxes whose proven tail bound plus :func:`bulk_rounding_bound`,
    the a priori rounding of ``shell_sum``'s bulk on it, is <= tol (so
    ``tail_bound <= tol`` holds as well), the one with the fewest points,
    found by the search of the module docstring (Box); the first such c_max
    on a tie.  Requires z_bound <= delta, so that |z/w| <= 1/2 holds beyond
    the first shell; d_max is large enough that |z/w| <= 1/2 on every point
    of the partial lines.  Raises PrecisionError when no box with
    max(c_max, d_max) <= SHELL_CAP meets tol, when the best has more than
    POINT_BUDGET points, when the bulk rounding alone reaches tol, or when the
    basis lies outside the float range of the bound's coefficients or the
    box outside that of the kernel.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown summand kind {kind!r}")
    z_bound = float(z_bound)
    if z_bound < 0.0:
        raise DomainError("z_bound must be nonnegative")
    _check_margin(lat, z_bound)
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    g = lat.geometry
    # S(0) |z|^p b_rows: bound (ii) per line at r = 0, below its value at any d_max
    amp = _pair_coeff(kind, 0.0) * z_bound ** _KINDS[kind] * _row_coeff(lat)
    d_min = max(1, math.ceil(2.0 * z_bound / g.h2) - 1)
    far0 = _far_bound(lat, kind, z_bound, 0)
    unreachable = PrecisionError(f"tolerance {tol:.3g} unreachable within the shell cap {SHELL_CAP}")
    if d_min > SHELL_CAP or far0 == math.inf:
        raise unreachable
    decay = 2.0 * math.pi * g.h1 / abs(lat.omega2)

    def root(c: int, share: float) -> float:
        # every d_max below this misses share on c_max = c
        return (amp * (2 * c + 1) / share) ** (1.0 / 3.0) - 0.5

    def first_line(share: float) -> int:
        # a c_max at or below the first one whose bound (i) is <= share
        if far0 <= share:
            return 0
        return max(0, math.floor((math.log(far0) - math.log(share)) / decay) - 1)

    def rows(c: int, share: float) -> int:
        # the smallest d_max >= d_min whose bound (ii) on c_max = c is <= share
        x = root(c, share)
        if not x <= SHELL_CAP:
            return SHELL_CAP + 1
        d = max(d_min, math.ceil(x))
        # next to an integer the root's rounding can decide: try the box below
        if d - 1 >= d_min and d - 1 > x - 1e-9 * max(1.0, x) and _partial_bound(lat, kind, z_bound, c, d - 1) <= share:
            d -= 1
        while d <= SHELL_CAP and _partial_bound(lat, kind, z_bound, c, d) > share:
            d += 1
        return d

    c = first_line(tol)
    spent = bulk_rounding_bound(lat, z_bound, kind, c)
    if spent >= tol:
        raise PrecisionError(f"tolerance {tol:.3g} below the kernel's rounding bound {spent:.3g}")
    best = None  # (points, c_max, d_max, tail bound)
    while c <= SHELL_CAP and spent < tol:
        # a box with c_max >= c leaves its partial lines at most tol - spent,
        # so it has at least this many points, which grows with c
        least = root(c, tol - spent)
        lines = 2 * c + 1
        if least > SHELL_CAP or (best and lines * (2.0 * max(d_min, least) + 1.0) - 1.0 > best[0]):
            break
        far = _far_bound(lat, kind, z_bound, c)
        share = tol - spent - far
        if share > 0.0:
            d = rows(c, share)
            points = lines * (2 * d + 1) - 1
            if d <= SHELL_CAP and (best is None or points < best[0]):
                best = (points, c, d, far + _partial_bound(lat, kind, z_bound, c, d))
            c += 1
        else:
            c = max(c + 1, first_line(tol - spent))
        spent = bulk_rounding_bound(lat, z_bound, kind, c)
    if best is None:
        raise unreachable
    points, c, d, tail = best
    _check_kernel_range(lat, kind, c, d)
    if points > POINT_BUDGET:
        raise PrecisionError(f"shell route needs {points:,} points, over the budget {POINT_BUDGET:,}")
    return TruncationPlan(c, d, tail, g.delta, kind, z_bound)


# ---------------------------------------------------------------------------
# Summation kernel.  Each half-box point contributes the half pair g; the sum
# is doubled exactly.
#
# Bulk, max(|c|, |d|) >= 2.  There |w| >= 2 delta >= 2|z|, so with zz = z^2 and
# s = w^2, |zz| <= |s|/4 and |zz - s| >= 3|s|/4: the forms
#   wzeta: g = z^3 / ((zz - s) s)
#   wp:    g = 3zz (s - zz/3) / ((zz - s)^2 s)
# do not cancel.  The constant factor (z^3 resp. 3zz) stays outside the sum and
# multiplies the math.fsum of the row partials once.  Passes per block:
#   w = d*omega2 + c*omega1, s = w*w, q = zz - s, then
#   wzeta: q *= s, q = 1/q                                      (6 with the row sum)
#   wp:    q *= q, q *= s, s -= zz/3, s /= q                    (8 with the row sum)
# First shell of the half box, (1,0), (-1,1), (0,1), (1,1): z may sit next to
# w and zz - s cancels.  ``_first_shell`` sums these <= 4 points with the
# factored form
#   wp:    g = z^2 (3w^2 - z^2) / (((z-w)(z+w))^2 w^2)
#   wzeta: g = z^3 / ((z-w)(z+w) w^2)
# and the bulk skips them: row 0 starts at c = 2, and the (up to) three entries
# c = -1, 0, 1 of row 1 are zeroed before the row sum.
#
# Rounding, u = 2^-53.  Per operation (normwise, relative): complex + and -,
# and a real times or by a complex: u; complex *: 2*sqrt(2) u (Higham, Lemma 3.5,
# with or without FMA); complex / (Smith's algorithm, as in numpy and
# CPython): 5*sqrt(2) u.  np.reciprocal of a complex array is Smith's algorithm
# with numerator 1 (numpy's umath loop: r = b/a, d = a + b*r, 1/d and -r/d for
# |b| <= |a|, mirrored otherwise), fewer roundings, within the same bound.
# First order, relative errors add along a product.
#   Bulk (|zz| <= |s|/4, so |zz| + |s| <= 5|q|/3):
#     s: 2.83;  zz: 2.83;  q = zz - s: 2.83 * 5/3 + 1 = 5.72
#     wzeta: q s: 11.38;  1/(q s): 18.45;  z^3 = zz*z: 5.66;  times the sum: 2.83
#            -> 26.94 -> 27 u
#     wp:    zz/3: 3.83;  t = s - zz/3 (|t| >= 11|s|/12): 2.83 * 12/11 + 3.83/11
#            + 1 = 4.44;  q^2: 14.27;  q^2 s: 19.93;  t / (q^2 s): 31.44;
#            3zz: 3.83;  times the sum: 2.83 -> 38.10 -> 39 u
#   First shell (|z| <= delta <= |w|):
#     wp:    w^2: 2.83;  3w^2 - z^2: 2 * (3.83 u over 3|w|^2 + |z|^2 <= 2|3w^2 - z^2|)
#            + 1 = 8.66;  num = z^2 (3w^2 - z^2): 14.32;  (z-w)(z+w): 4.83;
#            squared: 12.49;  den: 18.15;  g: 39.54 -> 40 u
#     wzeta: z^3: 5.66;  den = (z-w)(z+w) w^2: 10.49;  g: 23.22 -> 24 u
# w = c*omega1 + d*omega2 is itself rounded: each component is two products
# and a sum, so |dw| <= 2u (|c| |omega1| + |d| |omega2|) <= 2u M |w| with
# M = |omega1|/h1 + |omega2|/h2 (|c| <= |w|/h1, |d| <= |w|/h2).  That moves g
# by |dw| |g'|, |g'/g| <= 5/|w| + 2/|w-z| + 2/|w+z| (wp) resp.
# 2/|w| + 1/|w-z| + 1/|w+z| (wzeta).  In the bulk |w -+ z| >= |w|/2, so the
# shift costs at most 26 M u (wp) resp. 12 M u (wzeta).  In the first shell
# the points omega1 and omega2 are exact and omega2 -+ omega1 are formed with
# one rounding, |dw| <= u |w|; those two get their own term, twice the
# derivative bound at the point, valid while |dw| <= |w -+ z|/16 (otherwise
# the bound is infinite).
# Sum|g| is bounded a priori in the bulk: |g| <= S(1/2) |z|^p / |w|^4, and the
# shell max(|c|, |d|) = n has 4n points in the half box, all with |w| >= n delta,
# so Sum_bulk |g| <= S(1/2) |z|^p * 4 (zeta(3) - 1) / delta^4.  The first shell
# counts its computed |g|.  Each row is summed by numpy in some order, at most
# (len - 1) u Sum|g| for any order (normwise, by the triangle inequality), the
# row partials by math.fsum, correctly rounded: u Sum|g|, and the bulk and the
# first-shell values by a last math.fsum: u Sum|g|.  The factor 1.01 covers the
# second-order terms and the slack of the margin check.

_BULK_U = {"wp": 39.0, "wzeta": 27.0}
_FIRST_U = {"wp": 40.0, "wzeta": 24.0}
_SHIFT_U = {"wp": 26.0, "wzeta": 12.0}
_ZETA3 = 1.2020569031595942


def _bulk_abs_bound(lat: Lattice, z_abs: float, kind: str) -> float:
    """A priori bound on Sum |g| over the half-box points with max(|c|, |d|) >= 2."""
    delta = lat.geometry.delta
    return _pair_coeff(kind, 0.25) * z_abs ** _KINDS[kind] * 4.0 * (_ZETA3 - 1.0) / delta**4


def bulk_rounding_bound(lat: Lattice, z_abs: float, kind: str, c_max: int) -> float:
    """A priori bound on the rounding of ``shell_sum``'s bulk on a box of half-width c_max.

    It holds for every |z| <= z_abs <= delta and every d_max: it depends on
    the box only through the length 2 c_max + 1 of the numpy rows, and grows
    with c_max.
    """
    g = lat.geometry
    spread = abs(lat.omega1) / g.h1 + abs(lat.omega2) / g.h2
    per_term = _BULK_U[kind] + _SHIFT_U[kind] * spread + (2 * c_max + 1) + 1.0
    return 1.01 * _EPS * per_term * _bulk_abs_bound(lat, z_abs, kind)


def _first_shell(lat: Lattice, z: complex, c_max: int, d_max: int, kind: str):
    """Half pairs at the first-shell points of the half box, and their rounding bound.

    Returns (values, bound): the bound covers the arithmetic of each value, its
    share of the last fsum and, for omega2 -+ omega1, the rounding of w.
    """
    w1, w2 = lat.omega1, lat.omega2
    # (point, formed with one rounding)
    points = [(w1, False)] if c_max else []
    if d_max:
        points.append((w2, False))
        if c_max:
            points += [(w2 - w1, True), (w2 + w1, True)]
    wp_kind = kind == "wp"
    zpow = z * z if wp_kind else z * z * z
    values = []
    bound = 0.0
    for w, rounded in points:
        q = (z - w) * (z + w)
        s = w * w
        g = zpow * (3.0 * s - zpow) / (q * q * s) if wp_kind else zpow / (q * s)
        values.append(g)
        bound += 1.01 * 0.5 * _EPS * (_FIRST_U[kind] + 1.0) * abs(g)
        if not rounded:
            continue
        dw = 0.5 * _EPS * (1.0 + _EPS) * abs(w)
        near_m, near_p, wa = abs(w - z), abs(w + z), abs(w)
        if dw > min(near_m, near_p, wa) / 16.0:
            bound = math.inf
        elif wp_kind:
            bound += 2.0 * abs(g) * dw * (5.0 / wa + 2.0 / near_m + 2.0 / near_p)
        else:
            bound += 2.0 * abs(g) * dw * (2.0 / wa + 1.0 / near_m + 1.0 / near_p)
    return values, bound


def shell_sum(
    lat: Lattice, z: complex, box: tuple[int, int], kind: str = "wp"
) -> tuple[complex, float]:
    """Sum the chosen summand over the box (c_max, d_max) in the basis of ``lat``.

    Returns (sum, rounding_bound).  The principal part (1/z^2 or 1/z) is not
    included.  Requires |z| <= delta (the planner's precondition), which the
    rounding bound relies on, and raises PrecisionError on a box outside the
    kernel's float range, as the planner does.  Deterministic: fixed blocks
    and summation order.
    """
    import numpy as np

    if kind not in _KINDS:
        raise DomainError(f"unknown summand kind {kind!r}")
    c_max, d_max = (int(n) for n in box)
    if c_max < 0 or d_max < 0:
        raise DomainError("box half-widths must be nonnegative")
    if c_max == 0 and d_max == 0:
        return 0.0 + 0.0j, 0.0
    z = complex(z)
    _check_margin(lat, abs(z))
    _check_kernel_range(lat, kind, c_max, d_max)
    wp_kind = kind == "wp"
    w1, w2 = complex(lat.omega1), complex(lat.omega2)
    zz = z * z
    zz3 = zz / 3.0

    cw1 = np.arange(-c_max, c_max + 1) * w1
    step = max(1, _BLOCK_POINTS // cw1.size)
    # scratch for the points and one temporary, reused by every block
    bufs = np.empty((2, min(step, max(d_max, 1)), cw1.size), complex)
    re_parts: list[float] = []
    im_parts: list[float] = []

    def add(w, q, first_row=False):
        w *= w
        np.subtract(zz, w, out=q)
        if wp_kind:
            q *= q
            q *= w
            w -= zz3
            g = np.divide(w, q, out=w)
        else:
            q *= w
            g = np.reciprocal(q, out=q)
        if first_row:
            g[0, max(c_max - 1, 0) : c_max + 2] = 0.0
        rows = g.sum(axis=-1)
        re_parts.extend(np.atleast_1d(rows.real).tolist())
        im_parts.extend(np.atleast_1d(rows.imag).tolist())

    if c_max > 1:
        row0 = bufs[:, 0, : c_max - 1]
        row0[0] = cw1[c_max + 2 :]
        add(*row0)
    for d0 in range(1, d_max + 1, step):
        dw2 = np.arange(d0, min(d0 + step, d_max + 1)) * w2
        block = bufs[:, : dw2.size]
        np.add(dw2[:, None], cw1, out=block[0])
        add(*block, first_row=d0 == 1)
    factor = 3.0 * zz if wp_kind else zz * z
    bulk = factor * complex(math.fsum(re_parts), math.fsum(im_parts))
    first, first_bound = _first_shell(lat, z, c_max, d_max, kind)
    total = 2.0 * complex(
        math.fsum([bulk.real] + [v.real for v in first]),
        math.fsum([bulk.imag] + [v.imag for v in first]),
    )

    return total, bulk_rounding_bound(lat, abs(z), kind, c_max) + 2.0 * first_bound


# ---------------------------------------------------------------------------
# Shell route: the planned sum plus the principal part, certified within tol
# (module docstring, Budget).


def _principal(z: complex, kind: str) -> complex:
    return 1.0 / (z * z) if kind == "wp" else 1.0 / z


def _addition_bound(principal: complex, total_abs: float) -> float:
    """Rounding of the principal part and of its addition to a shell sum of modulus total_abs.

    principal: z*z (2.83 u) and Smith's division (7.07 u); the sum: u (|p| + |total|)
    """
    return 6.0 * _EPS * abs(principal) + _EPS * total_abs


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
    _check_kernel_range(lat, kind, 1, 1)
    values, bound = _first_shell(lat, z, 1, 1, kind)
    # 1.01 covers the rounding of the computed sum against the exact one
    modulus = 2.02 * (math.fsum(abs(v) for v in values) + _bulk_abs_bound(lat, abs(z), kind))
    fixed = 2.0 * bound + _addition_bound(_principal(z, kind), modulus)
    if not fixed < tol:
        raise PrecisionError(f"shell certificate exceeds the requested tolerance: the rounding at z alone is {fixed:.3g}")
    # the certificate is a sum of five terms; a share 4 eps smaller absorbs
    # its rounding and that of the planner's sum
    return plan_truncation(lat, abs(z), (tol - fixed) * (1.0 - 4.0 * _EPS), kind=kind)


def shell_value(lat: Lattice, z: complex, plan: TruncationPlan, kind: str = "wp") -> CertifiedValue:
    """Principal part plus the planned shell sum, with the plan's certificate."""
    z = complex(z)
    total, rounding = shell_sum(lat, z, plan.box, kind)
    principal = _principal(z, kind)
    value = principal + total
    err = plan.tail_bound + rounding + _addition_bound(principal, abs(total))
    return CertifiedValue(value, err)


def shell_route(lat: Lattice, z: complex, tol: float, kind: str) -> CertifiedValue:
    """The shell value at z on the plan of :func:`plan_shell`, certified within tol."""
    cv = shell_value(lat, z, plan_shell(lat, z, tol, kind), kind)
    if cv.error > tol:
        raise PrecisionError("shell certificate exceeds the requested tolerance")
    return cv


def eta2_shell(tau_r: complex, tol: float) -> CertifiedValue:
    """The quasi-period eta2 of tau_r*Z + Z for a reduced ratio, within tol.

    A literal difference wzeta(z + 1) - wzeta(z) of shell values at base
    points near -1/2 and +1/2, which lie inside the summation margin of every
    reduced basis.  The same difference at a second base point must agree
    within both certificates; otherwise PrecisionError.
    """
    lat = Lattice(tau_r, 1.0)

    def difference(base: complex) -> CertifiedValue:
        return shell_route(lat, base + 1.0, 0.25 * tol, "wzeta") - shell_route(lat, base, 0.25 * tol, "wzeta")

    eta2, eta2_b = difference(0.13j - 0.5), difference(-0.07 + 0.09j - 0.5)
    if abs(eta2.value - eta2_b.value) > eta2.error + eta2_b.error:
        raise PrecisionError("eta2 depends on the base point beyond its certificates")
    return eta2
