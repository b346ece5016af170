"""Lattices in the complex plane: bases, reduction, point reduction, geometry.

A lattice is stored as an ordered generator pair (omega1, omega2) with
Im(omega1/omega2) > 0.  Basis changes used here (Lagrange reduction,
upper-half-plane reduction of the period ratio) are unimodular, so they
never change the underlying point set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError

__all__ = ["Lattice", "TauLattice", "LatticeGeometry", "reduce_tau_matrix"]

_EPS = math.ulp(1.0)


def _imag_product(a: complex, b: complex) -> float:
    """Im(a * conj(b)) without forming the product's real part error-prone way."""
    return a.imag * b.real - a.real * b.imag


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
    covolume: float


def _edge_min(wa: complex, wb: complex) -> float:
    # min over t in [-1, 1] of |wa + t*wb|; quadratic in t
    denom = abs(wb) ** 2
    t = -(wa.real * wb.real + wa.imag * wb.imag) / denom
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
        d = _imag_product(w1, w2)
        scale = abs(w1) * abs(w2)
        if scale == 0.0 or abs(d) <= 1e-15 * scale:
            raise DomainError("generators must be R-linearly independent and nonzero")
        if d < 0.0:
            w1, w2 = w2, w1
        object.__setattr__(self, "omega1", w1)
        object.__setattr__(self, "omega2", w2)

    @property
    def tau(self) -> complex:
        """Period ratio omega1/omega2; lies in the upper half plane."""
        return self.omega1 / self.omega2

    @property
    def covolume(self) -> float:
        return _imag_product(self.omega1, self.omega2)

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
            covolume=d,
        )

    def reduce_point(self, z: complex) -> tuple[complex, int, int]:
        """Split z = z0 + m*omega1 + n*omega2 with basis coefficients of z0 in [-1/2, 1/2].

        Returns (z0, m, n).
        """
        z = complex(z)
        d = self.covolume
        alpha = _imag_product(z, self.omega2) / d
        beta = -_imag_product(z, self.omega1) / d
        m = round(alpha)
        n = round(beta)
        z0 = z - m * self.omega1 - n * self.omega2
        return z0, m, n

    def lagrange_reduced(self) -> "Lattice":
        """Unimodular basis change to a Lagrange-reduced basis of the same lattice.

        As a set the pair is Lagrange-reduced: the shorter generator is a
        shortest nonzero vector of the lattice, and
        |Re(omega1*conj(omega2))| <= min(|omega1|, |omega2|)**2 / 2 (up to the
        rounding of the steps w1 - mu*w2).  The constructor's orientation swap
        decides the order, so omega1 may be the shorter generator: tau = 0.2i
        gives (0.2i, 1).
        """
        w1, w2 = self.omega1, self.omega2
        # Gauss reduction on the pair, shortest vector second
        for _ in range(4096):
            if abs(w1) < abs(w2):
                w1, w2 = w2, w1
            mu = round((w1.real * w2.real + w1.imag * w2.imag) / abs(w2) ** 2)
            if mu == 0:
                break
            w1 = w1 - mu * w2
        if abs(w1) < abs(w2):
            w1, w2 = w2, w1
        return Lattice(w1, w2)


@dataclass(frozen=True)
class TauLattice:
    """Normalized lattice tau*Z + Z with tau in the upper half plane."""

    tau: complex

    def __post_init__(self):
        t = complex(self.tau)
        if not t.imag > 0.0:
            raise DomainError(f"tau must satisfy Im tau > 0, got {t!r}")
        object.__setattr__(self, "tau", t)

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.tau, 1.0 + 0.0j)


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
