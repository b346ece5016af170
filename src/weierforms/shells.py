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

Tail.  h1 = covolume/|omega2| and h2 = covolume/|omega1| are the distances of
omega1 from the line R*omega2 and of omega2 from R*omega1, so |w| >= |c| h1
and |w| >= |d| h2.  A point outside the box has |d| > d_max or |c| > c_max,
hence |w| >= min((d_max+1) h2, (c_max+1) h1) =: R and r <= z_bound / R,
which the planner keeps <= 1/2.  The omitted part of the sum is half the sum
of the pairs outside the box, so it is at most S(r) |z|^p Sum_out |w|^-4.
The points outside the box are the rows |d| > d_max (every c) and the
partial columns |c| > c_max, |d| <= d_max; each is counted once.

Segment lemma: a unimodal f sampled with spacing L on a segment [a, b]
(end points included) sums to at most max f + (1/L) Int_a^b f: every sample
but the two next to the peak is at most the mean of f over the gap on its
side toward the peak, and those two are at most max f plus the mean over
the gap between them.  Along a line at distance rho from 0,
|w|^-4 = (rho^2 + x^2)^-2 is unimodal with maximum rho^-4.

Rows: row d lies on a line at distance rho = |d| h2 from R*omega1 with
spacing |omega1|; on the whole line the lemma gives rho^-4 +
pi/(2 |omega1| rho^3).  Summing over |d| > d_max by convexity
(Sum_{d > D} d^-s <= (D + 1/2)^(1-s) / (s-1)):

  rows <= a_rows / X^2 + b_rows / X^3,   X = d_max + 1/2,
  a_rows = pi / (2 |omega1| h2^3),  b_rows = 2 / (3 h2^4).

Partial columns: the points c omega1 + t omega2, |t| <= d_max, lie on a line
at distance rho = |c| h1 from R*omega2 with spacing L = |omega2|, on the
segment x in [c mu - d_max L, c mu + d_max L], mu = Re(omega1 conj omega2)/L.
The lemma bounds the column by rho^-4 + G(c), G(c) = Int_{|t| <= d_max}
|c omega1 + t omega2|^-4 dt.  The rho^-4 terms sum to b_cols / Y^3,
b_cols = 2 / (3 h1^4), Y = c_max + 1/2.  For fixed t, q(c) = |c omega1 +
t omega2|^2 is a quadratic with minimum m = t^2 covolume^2 / |omega1|^2 at
c0 = -t nu / |omega1|^2, nu = Re(omega1 conj omega2), and q^-2 is convex in c
where (c - c0)^2 >= m / (5 |omega1|^2).  So G is convex on c >= Y when

  Y |omega1|^2 >= d_max (|nu| + covolume/2)      (1/2 > 1/sqrt(5)),

and then Sum_{c > c_max} G(c) <= Int_Y^inf G, the integral of |w|^-4 over
the half strip {s omega1 + t omega2 : s > Y, |t| <= d_max} divided by the
covolume; c < -c_max is its mirror image.  In polar coordinates a ray from
0 enters the half strip through its near edge s = Y and leaves through a
side t = +-d_max, and a line at distance p contributes (1/2p^2) Int
cos^2(theta - phi) dtheta = (F(t_b) - F(t_a)) / (4 p^2) over the part of it
between tangential coordinates p t_a and p t_b, F(t) = atan(t) + t/(1+t^2).
With k = covolume, D = d_max, l1 = |omega1|, l2 = |omega2|:

  cols <= (l2^2 (F(tn+) - F(tn-)) / Y^2 - l1^2 (pi - F(ts+) - F(ts-)) / D^2)
          / (2 k^3) + b_cols / Y^3
       =  (a_cols/Y^2) (F(tn+) - F(tn-)) / pi
          - (a_rows/D^2) (pi - F(ts+) - F(ts-)) / pi + b_cols / Y^3,
  tn+- = (Y nu +- D l2^2) / (Y k),   ts+- = (Y l1^2 +- D nu) / (D k),

with a_cols = pi / (2 |omega2| h1^3) = pi l2^2 / (2 k^3), plus an allowance
for the rounding of the closed form, whose terms cancel.  a_cols / Y^2 is
the integral over the whole half plane s > Y, so the half strip's never
exceeds it, and where the convexity condition fails (only on bases far from
reduced) it bounds the full columns: cols <= a_cols / Y^2 + b_cols / Y^3.

Aspect.  At leading order rows and columns bound the integral of |w|^-4
outside the parallelogram |s| <= Y, |t| <= X, over the covolume.  Times the
parallelogram's area, that integral depends on Y l1 / (X l2) only, and
symmetrically under inverting it (the closed form above, written for the
four sides), and it is least at 1 (checked on the bases of the tests), so
the point count for a given bound is least at Y l1 = X l2: c_max/d_max =
l2/l1 = sqrt(a_cols / a_rows) (1/20 for the basis (20i, 1)), the aspect
that balanced the full rows and columns as well.
``plan_truncation`` inverts the leading terms, a_rows + K over X^2 with K the
columns' integral term on the aspect rule at unit scale, and steps d_max to
the first box on the rule that meets the tolerance.

Budget.  A plan's box is the first on the aspect rule whose tail bound plus
the a priori rounding bound of its bulk (``bulk_rounding_bound``, which grows
with c_max) is <= tol.  A shell value (``shell_value``) is the principal part
1/z^2 resp. 1/z plus the sum, and its certificate has five terms: the tail,
the bulk's rounding, the first shell's rounding, the principal part's
rounding and that of the final addition.  The last three do not depend on
the box, so ``plan_shell`` bounds them first, with an a priori bound on
|sum| (the first shell's computed |g| and the bulk's a priori Sum |g|), and
plans the box at the rest of tol times 1 - 4 eps (eps = ulp(1)), which
absorbs the rounding of the five-term sum and of the planner's.  So the
tail takes nearly the whole tolerance, and since the point count scales
like 1/tail, the box has about half the points of one whose tail is held
within tol/2.  The shell route (``shell_route``) raises PrecisionError when
|z| exceeds the margin of the basis, when the terms independent of the box
alone reach tol, when ``plan_truncation`` refuses the box (the tolerance out
of reach within SHELL_CAP, more than POINT_BUDGET points, or a basis outside
the planner's float range), or when the summed certificate exceeds tol.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .arith import CertifiedValue
from .errors import DomainError, PrecisionError
from .lattice import Lattice

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


def _outside_coeffs(lat: Lattice) -> tuple[float, float, float, float]:
    """(a_rows, b_rows, a_cols, b_cols) of the bound on Sum_out |w|^-4.

    Raises PrecisionError when one of them leaves the positive float range
    (a basis far longer or shorter than 1e77), where no plan is derived.
    """
    g = lat.geometry
    try:
        coeffs = (
            math.pi / (2.0 * abs(lat.omega1) * g.h2**3),
            2.0 / (3.0 * g.h2**4),
            math.pi / (2.0 * abs(lat.omega2) * g.h1**3),
            2.0 / (3.0 * g.h1**4),
        )
    except (OverflowError, ZeroDivisionError):
        coeffs = (math.inf,)
    if not all(0.0 < c < math.inf for c in coeffs):
        raise PrecisionError(_OUT_OF_RANGE)
    return coeffs


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


def _atan_area(t: float) -> float:
    """F(t) = atan(t) + t/(1+t^2) = 2 Int_0^atan(t) cos^2 (module docstring, Tail)."""
    return math.atan(t) + t / (1.0 + t * t)


def _column_integrals(lat: Lattice, a_rows: float, a_cols: float, y: float, d: float) -> float:
    """The partial columns' integral terms beyond Y = y, over |t| <= d (module docstring, Tail).

    Homogeneous of degree -2 in (y, d): the half strips' closed form where
    the columns' integrals are convex in c from y on, else the full
    columns' a_cols / y^2, which bounds it everywhere.
    """
    full = a_cols / (y * y)
    w1, w2, k = lat.omega1, lat.omega2, lat.covolume
    l1_sq, l2_sq = abs(w1) ** 2, abs(w2) ** 2
    nu = w1.real * w2.real + w1.imag * w2.imag
    if y * l1_sq < d * (abs(nu) + 0.5 * k):
        return full
    if d == 0:
        return 0.0
    edge = a_rows / (d * d)
    tn = ((y * nu + d * l2_sq) / (y * k), (y * nu - d * l2_sq) / (y * k))
    ts = ((y * l1_sq + d * nu) / (d * k), (y * l1_sq - d * nu) / (d * k))
    near = _atan_area(tn[0]) - _atan_area(tn[1])
    sides = math.pi - _atan_area(ts[0]) - _atan_area(ts[1])
    # near and sides cancel, so their rounding is bounded by their moduli:
    # nu and k are within 3 u l1 l2 of their values (skew = l1 l2 / k >= 1),
    # so each t is within 14 u skew (1 + T), T = max |t| of its line; with
    # |F'| <= 2 and |F| < 2.1, 128 u skew (1 + T) covers a line's two F, its
    # coefficient, the products and the differences
    skew = math.sqrt(l1_sq * l2_sq) / k
    rounding = 128.0 * _EPS * skew * (full * (1.0 + max(map(abs, tn))) + edge * (1.0 + max(map(abs, ts))))
    strip = (full * near - edge * sides) / math.pi + rounding
    return strip if strip < full else full


def _outside_bound(lat: Lattice, c_max: int, d_max: int) -> float:
    """Bound on Sum |w|^-4 over the lattice points outside the box (module docstring, Tail)."""
    a_rows, b_rows, a_cols, b_cols = _outside_coeffs(lat)
    x, y = d_max + 0.5, c_max + 0.5
    return a_rows / x**2 + b_rows / x**3 + _column_integrals(lat, a_rows, a_cols, y, d_max) + b_cols / y**3


def _tail_bound(lat: Lattice, kind: str, z_bound: float, c_max: int, d_max: int) -> float:
    """Bound on |Sum of f(w) over the lattice points outside the box| for |z| <= z_bound."""
    g = lat.geometry
    r = z_bound / min((d_max + 1) * g.h2, (c_max + 1) * g.h1)
    return _pair_coeff(kind, r * r) * z_bound ** _KINDS[kind] * _outside_bound(lat, c_max, d_max)


def plan_truncation(
    lat: Lattice,
    z_bound: float,
    tol: float = 1e-8,
    *,
    kind: str = "wp",
) -> TruncationPlan:
    """Box of the aspect rule whose tail bound plus bulk rounding bound is <= tol.

    The smallest such box on the aspect rule: its proven tail bound plus
    :func:`bulk_rounding_bound`, the a priori rounding of ``shell_sum``'s
    bulk on it, is <= tol, so ``tail_bound <= tol`` holds as well.
    Requires z_bound <= delta, so that |z/w| <= 1/2 holds beyond the first
    shell; the box always contains the first shell and is large enough that
    |z/w| <= 1/2 on every point outside it.  Raises PrecisionError when the
    box would need max(c_max, d_max) > SHELL_CAP or more than POINT_BUDGET
    points, when the bulk rounding alone exceeds tol, or when the basis lies
    outside the float range of the bound's coefficients or the box outside
    that of the kernel.
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
    a_rows, b_rows, a_cols, b_cols = _outside_coeffs(lat)
    aspect = math.sqrt(a_cols / a_rows)
    d_min = max(1, math.ceil(2.0 * z_bound / g.h2) - 1)
    c_min = max(1, math.ceil(2.0 * z_bound / g.h1) - 1)
    unreachable = f"tolerance {tol:.3g} unreachable within the shell cap {SHELL_CAP}"
    if max(c_min, d_min) > SHELL_CAP or _tail_bound(lat, kind, z_bound, SHELL_CAP, SHELL_CAP) > tol:
        raise PrecisionError(unreachable)
    amp = _pair_coeff(kind, 0.0) * z_bound ** _KINDS[kind]
    # the columns' integral terms on the aspect rule, c_max = aspect * d_max, at unit scale
    lead = a_rows + _column_integrals(lat, a_rows, a_cols, aspect, 1.0)

    def start(share: float) -> int:
        # leading terms with c_max = aspect * d_max, X = d_max + 1/2:
        # amp * (lead / X^2 + (b_rows + b_cols / aspect^3) / X^3) = share,
        # i.e. X^3 - a X - b = 0; Newton from above the root stays above it
        if not (math.isfinite(share) and amp > 0.0):
            return d_min
        a = amp * lead / share
        b = amp * (b_rows + b_cols / aspect**3) / share
        x = max(math.sqrt(2.0 * a), (2.0 * b) ** (1.0 / 3.0))
        for _ in range(8):
            x -= (x**3 - a * x - b) / (3.0 * x * x - a)
        return max(d_min, math.floor(x - 0.5))

    def box(d: int) -> tuple[int, float, float]:
        # (c_max, tail bound, bulk rounding bound) of the box on the rule at d_max = d
        c = max(c_min, math.ceil(aspect * d))
        if max(c, d) > SHELL_CAP:
            raise PrecisionError(unreachable)
        return c, _tail_bound(lat, kind, z_bound, c, d), bulk_rounding_bound(lat, z_bound, kind, c)

    # the estimate lands a few boxes from the answer, on either side (the
    # rule's ceil moves c_max in steps): step up past the boxes that miss
    # tol, then down while the box below meets it too, so the plan is the
    # first box on the rule that meets tol
    missed = d_min - 1
    d = start(tol)
    c, tail, spent = box(d)
    while tail + spent > tol:
        if spent >= tol:
            raise PrecisionError(f"tolerance {tol:.3g} below the kernel's rounding bound {spent:.3g}")
        # the rounding grows with the box, so the tail's share on a larger
        # box is at most tol - spent: the estimate at that share stays near
        # the answer
        missed = d
        d = max(d + 1, start(tol - spent))
        c, tail, spent = box(d)
    while d - 1 > missed:
        below = box(d - 1)
        if below[1] + below[2] > tol:
            break
        d -= 1
        c, tail, spent = below
    _check_kernel_range(lat, kind, c, d)
    plan = TruncationPlan(c, d, tail, g.delta, kind, z_bound)
    if plan.point_count > POINT_BUDGET:
        raise PrecisionError(f"shell route needs {plan.point_count:,} points, over the budget {POINT_BUDGET:,}")
    return plan


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
