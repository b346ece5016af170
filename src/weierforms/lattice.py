"""Lattices in the complex plane: bases, reduction, point reduction, geometry.

A lattice is stored as an ordered generator pair (omega1, omega2) with
Im(omega1/omega2) > 0.  ``reduce_points`` reduces a lattice once and each of
a list of points in its reduced basis, in exact integer arithmetic, and
rounds each output once (``reduce_lattice`` is its one-point case); a point is
a complex number or an exact label (s, t), the point s*omega1 + t*omega2 in
basis coordinates.  The basis change is unimodular, so it never changes the
underlying point set, and the reduction is at unit scale (:class:`Reduction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError

__all__ = [
    "Lattice",
    "LatticeGeometry",
    "Reduction",
    "reduce_lattice",
    "reduce_points",
    "reduce_tau_matrix",
]


@dataclass(frozen=True)
class LatticeGeometry:
    """Lower-bound geometry of a basis, used by truncation planning.

    ``e1``/``e2`` are the minima of |omega1 + y*omega2| (y in [-1,1]) and
    |x*omega1 + omega2| (x in [-1,1]); ``h1``/``h2`` the distances from each
    generator to the line spanned by the other; ``delta`` = min(e1, e2).
    For every integer point c*omega1 + d*omega2 with max(|c|,|d|) = n the
    modulus is >= n*delta, and >= |c|*h1, >= |d|*h2 individually.
    """

    e1: float
    e2: float
    h1: float
    h2: float
    delta: float


def _edge_min(wa: complex, wb: complex) -> float:
    # min over t in [-1, 1] of |wa + t*wb|, at t = -Re(wa conj wb) / |wb|^2
    try:
        t = -(wa.real * wb.real + wa.imag * wb.imag) / abs(wb) ** 2
    except (OverflowError, ZeroDivisionError):
        # |wb|^2 outside the float range (|wb| above ~1e154 or below ~1e-162):
        # the same t as the real part of a quotient, which does not square |wb|
        t = -(wa / wb).real
    t = max(-1.0, min(1.0, t))
    return abs(wa + t * wb)


@dataclass(frozen=True)
class Lattice:
    """Z-module omega1*Z + omega2*Z with R-linearly independent generators.

    The constructor swaps the generators if needed so that
    Im(omega1/omega2) > 0.
    """

    omega1: complex
    omega2: complex

    def __post_init__(self):
        w1 = complex(self.omega1)
        w2 = complex(self.omega2)
        if not (w1 and w2):
            raise DomainError("generators must be R-linearly independent and nonzero")
        # the ratio in either order, as the lattice does not depend on it
        tau, inv = w1 / w2, w2 / w1
        size = math.hypot(tau.real, tau.imag)
        if not (size < math.inf and math.hypot(inv.real, inv.imag) < math.inf):
            raise DomainError(f"generator ratio ({w1!r})/({w2!r}) or its inverse leaves the float range")
        if not abs(tau.imag) > 1e-15 * size:
            raise DomainError("generators must be R-linearly independent and nonzero")
        if tau.imag < 0.0:
            w1, w2 = w2, w1
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    @property
    def tau(self) -> complex:
        """Period ratio omega1/omega2; lies in the upper half plane."""
        return self.omega1 / self.omega2

    @property
    def covolume(self) -> float:
        # Im(omega1 * conj(omega2))
        return self.omega1.imag * self.omega2.real - self.omega1.real * self.omega2.imag

    @cached_property
    def geometry(self) -> LatticeGeometry:
        e1 = _edge_min(self.omega1, self.omega2)
        e2 = _edge_min(self.omega2, self.omega1)
        d = self.covolume
        return LatticeGeometry(
            e1=e1,
            e2=e2,
            h1=d / abs(self.omega2),
            h2=d / abs(self.omega1),
            delta=min(e1, e2),
        )


def reduce_tau_matrix(tau: complex) -> tuple[int, int, int, int]:
    """Integer matrix (a, b, c, d), det 1, with (a*tau+b)/(c*tau+d) in the
    fundamental domain |Re| <= 1/2, modulus >= 1 (up to float slack).

    Entries are exact integers; apply them to the original tau to obtain the
    reduced ratio.
    """
    t = complex(tau)
    if not t.imag > 0.0:
        raise DomainError(f"tau must satisfy Im tau > 0, got {tau!r}")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(20_000):
        n = round(t.real)
        if n != 0:
            # t -> t - n is left multiplication by (1, -n; 0, 1)
            t = complex(t.real - n, t.imag)
            a, b, c, d = a - n * c, b - n * d, c, d
        if abs(t) < 1.0 - 1e-12:
            # t -> -1/t is left multiplication by (0, -1; 1, 0)
            t = -1.0 / t
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise DomainError("tau reduction did not converge")
    return a, b, c, d


# not frozen: a frozen dataclass's __init__ costs about four times as much,
# and every evaluation builds one Reduction per point
@dataclass
class Reduction:
    """A lattice and a point after one unimodular reduction, computed exactly.

    ``matrix`` (a, b, c, d) is ``reduce_tau_matrix(omega1/omega2)``.  The
    reduced basis is (A, J) = (a*omega1 + b*omega2, c*omega1 + d*omega2), with
    ratio ``tau`` = A/J in the fundamental domain, so (A, J) is
    Lagrange-reduced: J is a shortest nonzero vector and
    |Re(A*conj(J))| <= |J|**2 / 2.  The point splits as z = P + m*A + n*J
    with P = u*A + v*J, u and v in [-1/2, 1/2]; ``u`` is that A-coordinate,
    and ``z0`` = P/J = u*tau + v is the image of the point on tau*Z + Z.
    ``aa``, ``jj`` and ``point`` are A, J and P at unit scale, times 2**-k for
    the int ``k`` that puts |jj| in [1, 2*sqrt(2)) (or |aa| below 2**1024,
    where |tau| passes 2**1022); ``basis`` is the Lattice (aa, jj).  Every
    float field is its exact value rounded once.
    """

    matrix: tuple[int, int, int, int]
    tau: complex
    aa: complex
    jj: complex
    point: complex
    z0: complex
    u: float
    m: int
    n: int
    k: int

    @cached_property
    def basis(self) -> Lattice:
        # built on first use: the series route never reads it
        return Lattice(self.aa, self.jj)


def _nearest(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties to even, for den > 0."""
    q, r = divmod(2 * num + den, 2 * den)
    return q - 1 if r == 0 and q % 2 else q


def reduce_points(lat: Lattice, zs) -> list[Reduction]:
    """The exact reductions of ``lat`` and each point of zs (see :class:`Reduction`).

    A point is a complex number, or a label: a tuple (s, t) of rationals
    (``Fraction`` or int) standing for the point s*omega1 + t*omega2, exactly.
    The lattice is reduced once: omega1, omega2 and the complex points are
    written as Gaussian integers over one common power of two, the matrix is
    applied in integers, and each output component is one correctly rounded
    int / int, the lengths over the power of two of the unit scale.  A label's
    coordinates in (A, J) are (s*d - t*c, t*a - s*b), over the label's level.
    Every output is an exact rational rounded once, so each Reduction equals
    the one-point reduction of its point.
    """
    zs = [z if type(z) is tuple else complex(z) for z in zs]
    for z in zs:
        if type(z) is complex and not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError(f"z must be finite, got {z!r}")
    matrix = a, b, c, d = reduce_tau_matrix(lat.tau)
    ratios = [
        x.as_integer_ratio()
        for w in (lat.omega1, lat.omega2, *(z for z in zs if type(z) is complex))
        for x in (w.real, w.imag)
    ]
    den = max(q for _, q in ratios)
    w1r, w1i, w2r, w2i, *zints = (p * (den // q) for p, q in ratios)
    ar, ai = a * w1r + b * w2r, a * w1i + b * w2i
    jr, ji = c * w1r + d * w2r, c * w1i + d * w2i
    # 2**k = unit/den puts J's larger component in [1, 2) and A's below 2**1023
    unit = 1 << max(max(abs(jr), abs(ji)).bit_length() - 1, max(abs(ar), abs(ai)).bit_length() - 1023)
    k = unit.bit_length() - den.bit_length()
    norm = jr * jr + ji * ji
    # Im(A conj J) > 0 in units of den**2: the coefficients of z in (A, J)
    # are Im(z conj J) / det and Im(A conj z) / det
    det = ai * jr - ar * ji
    zints = iter(zints)
    tr = ar * jr + ai * ji
    tau = complex(tr / norm, det / norm)
    aa = complex(ar / unit, ai / unit)
    jj = complex(jr / unit, ji / unit)
    reds = []
    for z in zs:
        if type(z) is tuple:
            # the label over its level L: (s, t) = (S, T) / L, and its
            # coordinates in (A, J) are (S*d - T*c, T*a - S*b) / L
            s, t = z
            level = math.lcm(s.denominator, t.denominator)
            sn, tn = s.numerator * (level // s.denominator), t.numerator * (level // t.denominator)
            un, vn = sn * d - tn * c, tn * a - sn * b
            m, n = _nearest(un, level), _nearest(vn, level)
            un -= m * level
            vn -= n * level
            scale, zscale = level * unit, level * norm
            point = complex((un * ar + vn * jr) / scale, (un * ai + vn * ji) / scale)
            # z0 = (un*tau + vn) / L with tau = (tr + i*det) / norm
            z0 = complex((un * tr + vn * norm) / zscale, un * det / zscale)
            u = un / level
        else:
            zr, zi = next(zints), next(zints)
            m = _nearest(zi * jr - zr * ji, det)
            n = _nearest(ai * zr - ar * zi, det)
            pr, pi = zr - m * ar - n * jr, zi - m * ai - n * ji
            point = complex(pr / unit, pi / unit)
            z0 = complex((pr * jr + pi * ji) / norm, (pi * jr - pr * ji) / norm)
            u = (pi * jr - pr * ji) / det
        reds.append(Reduction(matrix, tau, aa, jj, point, z0, u, m, n, k))
    return reds


def reduce_lattice(lat: Lattice, z: complex = 0j) -> Reduction:
    """The exact reduction of ``lat`` and the point z: the one-point :func:`reduce_points`."""
    return reduce_points(lat, (z,))[0]
