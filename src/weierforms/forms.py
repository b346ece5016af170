"""Torsion labels, the SL(2,Z) action, congruence subgroups, slash operator,
and the certified evaluators of the weight-2 and weight-1 families.

The congruence subgroups read their congruence on the lower-left entry c:
Gamma0(N) is c == 0 mod N, the reading on which the exact stabilizers of the
labels (0, 1/2) and (0, 1/3) are Gamma0(2) and Gamma1(3).

Exactness contract: every label, matrix action and group-membership test in
this module is exact integer/rational arithmetic; tolerances appear only in
the complex evaluators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .arith import CertifiedValue, _inverse, as_rational
from .errors import DomainError
from .evaluate import DEFAULT_TOL, _check_args, _label_values

__all__ = [
    "RationalPair",
    "ModularMatrix",
    "IDENTITY",
    "S_MATRIX",
    "T_MATRIX",
    "pair_act",
    "gamma_st_contains",
    "principal_congruence_contains",
    "hecke_contains",
    "gamma1_contains",
    "slash",
    "eval_f",
    "eval_g",
    "eval_h",
    "eval_hU",
    "defect_coefficients",
    "FormSpec",
    "random_sl2",
    "random_in_group",
]

@dataclass(frozen=True)
class RationalPair:
    """Exact rational label (s, t); the torsion point is z = s*tau + t."""

    s: Fraction
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", as_rational(self.s))
        object.__setattr__(self, "t", as_rational(self.t))

    @classmethod
    def of(cls, s, t) -> "RationalPair":
        return cls(as_rational(s), as_rational(t))

    def is_integral(self) -> bool:
        return self.s.denominator == 1 and self.t.denominator == 1

    def canonical(self) -> "RationalPair":
        """Representative with 0 <= s < 1 and 0 <= t < 1."""
        return RationalPair(self.s % 1, self.t % 1)

    def level(self) -> int:
        """Common denominator L of s and t (the label's level)."""
        return lcm(self.s.denominator, self.t.denominator)

    def scaled(self, r: int) -> "RationalPair":
        return RationalPair(r * self.s, r * self.t)

    def shifted(self, m: int, n: int) -> "RationalPair":
        return RationalPair(self.s + m, self.t + n)

    def __neg__(self) -> "RationalPair":
        return RationalPair(-self.s, -self.t)

    def __str__(self):
        return f"({self.s},{self.t})"


def _dyadic(tau: complex) -> tuple[int, int, int]:
    """(x, y, q) with tau = (x + i*y)/q exactly and q a power of two."""
    tau = complex(tau)
    (xn, xq), (yn, yq) = tau.real.as_integer_ratio(), tau.imag.as_integer_ratio()
    q = max(xq, yq)
    return xn * (q // xq), yn * (q // yq), q


@dataclass(frozen=True)
class ModularMatrix:
    """Integer matrix (a, b; c, d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for entry in (self.a, self.b, self.c, self.d):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise DomainError("matrix entries must be integers")
        if self.a * self.d - self.b * self.c != 1:
            raise DomainError(
                f"determinant must be 1, got {self.a * self.d - self.b * self.c}"
            )

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def mobius(self, tau: complex) -> complex:
        """(a*tau + b)/(c*tau + d), computed exactly and rounded once per component."""
        x, y, q = _dyadic(tau)
        nr, ni = self.a * x + self.b * q, self.a * y
        dr, di = self.c * x + self.d * q, self.c * y
        norm = dr * dr + di * di
        return complex((nr * dr + ni * di) / norm, (ni * dr - nr * di) / norm)

    def cocycle(self, tau: complex) -> complex:
        """The automorphy factor c*tau + d, computed exactly and rounded once per component."""
        x, y, q = _dyadic(tau)
        return complex((self.c * x + self.d * q) / q, self.c * y / q)

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __str__(self):
        return f"[{self.a},{self.b};{self.c},{self.d}]"


IDENTITY = ModularMatrix(1, 0, 0, 1)
S_MATRIX = ModularMatrix(0, -1, 1, 0)
T_MATRIX = ModularMatrix(1, 1, 0, 1)


def pair_act(p: RationalPair, mat: ModularMatrix) -> RationalPair:
    """Right action (s, t) -> (s*a + t*c, s*b + t*d), exact and uncanonicalized."""
    return RationalPair(p.s * mat.a + p.t * mat.c, p.s * mat.b + p.t * mat.d)


def gamma_st_contains(p: RationalPair, mat: ModularMatrix) -> bool:
    """Exact test of (s,t)*A - (s,t) in Z^2 (the stabilizer of the label mod Z^2).

    With (s, t) = (S, T)/L over the level L, the test is two congruences mod L:
    S(a - 1) + T c = 0 and S b + T(d - 1) = 0.
    """
    s, t = p.s, p.t
    level = lcm(s.denominator, t.denominator)
    ns, nt = s.numerator * (level // s.denominator), t.numerator * (level // t.denominator)
    return (ns * (mat.a - 1) + nt * mat.c) % level == 0 and (ns * mat.b + nt * (mat.d - 1)) % level == 0


def _check_level(level: int) -> None:
    if not isinstance(level, int) or isinstance(level, bool) or level < 1:
        raise DomainError(f"level must be a positive integer, got {level!r}")


def principal_congruence_contains(level: int, mat: ModularMatrix) -> bool:
    """A == identity mod level."""
    _check_level(level)
    return (
        (mat.a - 1) % level == 0
        and mat.b % level == 0
        and mat.c % level == 0
        and (mat.d - 1) % level == 0
    )


def hecke_contains(level: int, mat: ModularMatrix) -> bool:
    """Hecke congruence subgroup Gamma0(level): c == 0 mod level."""
    _check_level(level)
    return mat.c % level == 0


def gamma1_contains(level: int, mat: ModularMatrix) -> bool:
    """Gamma1(level): a == d == 1 and c == 0 mod level."""
    _check_level(level)
    return (mat.a - 1) % level == 0 and (mat.d - 1) % level == 0 and mat.c % level == 0


def slash(
    evaluator: Callable[[complex, float], CertifiedValue],
    weight: int,
    mat: ModularMatrix,
    tau: complex,
    tol: float = DEFAULT_TOL,
) -> CertifiedValue:
    """Weight-k slash action, k = 1 or 2: (c tau + d)^(-k) * value at the Mobius
    image, with the cocycle c tau + d a ball about its one rounding."""
    tau = complex(tau)
    if not tau.imag > 0.0:
        raise DomainError("slash needs Im tau > 0")
    return _inverse(mat.cocycle(tau), weight) * evaluator(mat.mobius(tau), tol)


# ---------------------------------------------------------------------------
# evaluators of the two families


def _require_noninteger(p: RationalPair, what: str) -> None:
    if p.is_integral():
        raise DomainError(f"{what} label {p} is integral; the torsion point is a pole")


def _check_h(r: int, p: RationalPair) -> None:
    """Label constraints of h[r](s, t): r a nonzero integer, neither p nor r*p integral."""
    if not isinstance(r, int) or isinstance(r, bool) or r == 0:
        raise DomainError(f"r must be a nonzero integer, got {r!r}")
    _require_noninteger(p, "weight-1")
    if (r * p.s.numerator) % p.s.denominator == 0 and (r * p.t.numerator) % p.t.denominator == 0:
        raise DomainError(f"label {p} scaled by {r} is integral; choose another r")


def _check_hU(labels: tuple[RationalPair, ...]) -> None:
    """Label constraints of hU: nonempty, exact sum (0, 0), no integral label."""
    if not labels:
        raise DomainError("label list must be nonempty")
    # the exact sums, as integers over a common denominator
    parts = [x for u in labels for x in (u.s, u.t)]
    level = lcm(*(x.denominator for x in parts))
    if any(sum(x.numerator * (level // x.denominator) for x in parts[k::2]) for k in (0, 1)):
        total_s = sum((u.s for u in labels), Fraction(0))
        total_t = sum((u.t for u in labels), Fraction(0))
        raise DomainError(f"labels must sum to (0,0) exactly, got ({total_s},{total_t})")
    for u in labels:
        _require_noninteger(u, "weight-1")


def eval_f(p: RationalPair, tau: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """Weight-2 family member: wp(tau, s*tau + t).

    The exact label goes through the lattice reduction, which reduces it mod
    Z^2 (the value only depends on the class of (s, t)) and rounds the
    reduced point once.
    """
    _require_noninteger(p, "weight-2")
    _check_args(tol, route)
    return _label_values(tau, ((p.s, p.t),), tol, route, "wp")[0]


def eval_g(p: RationalPair, tau: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """Weight-1 building block: wzeta(tau, s*tau + t) at the exact label.

    Shifting the label by (m, n) changes the value by m*eta1 + n*eta2, which
    the covariance law depends on; the reduction restores that shift.
    """
    _require_noninteger(p, "weight-1")
    _check_args(tol, route)
    return _label_values(tau, ((p.s, p.t),), tol, route, "wzeta")[0]


def eval_h(r: int, p: RationalPair, tau: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """Modular weight-1 combination r*g_(s,t) - g_(rs,rt).

    The quasi-periods cancel: it equals r*Z_(s,t) - Z_(rs,rt) with Z the
    Klein-form logarithmic derivative (``evaluate._zeta``).  Both parts are
    evaluated at tolerance tol/(|r|+1) so the certified error of the
    difference stays below tol despite the cancellation; they share one
    reduction of the lattice.
    """
    _check_h(r, p)
    _check_args(tol, route)
    zp, zrp = _label_values(tau, ((p.s, p.t), (r * p.s, r * p.t)), tol / (abs(r) + 1), route, "klein")
    return zp * r - zrp


def eval_hU(labels: Sequence[RationalPair], tau: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """Sum of g over a tuple of labels whose exact sum is (0, 0).

    The quasi-periods cancel, so it is the sum of Z over the labels
    (``evaluate._zeta``), each at tol/len(labels), all on one reduction of
    the lattice.
    """
    labels = tuple(labels)
    _check_hU(labels)
    _check_args(tol, route)
    values = _label_values(tau, [(u.s, u.t) for u in labels], tol / len(labels), route, "klein")
    return sum(values, CertifiedValue.exact(0.0))


def defect_coefficients(p: RationalPair, mat: ModularMatrix) -> tuple[Fraction, Fraction]:
    """(u, v) = (s(a-1) + t c, s b + t(d-1)); integers exactly when A stabilizes the label."""
    u = p.s * (mat.a - 1) + p.t * mat.c
    v = p.s * mat.b + p.t * (mat.d - 1)
    return u, v


# ---------------------------------------------------------------------------
# tagged form descriptions


@dataclass(frozen=True)
class FormSpec:
    """Tagged description of one member of the evaluated families.

    kind 'wp' (weight 2), 'zeta'/'h'/'hU' (weight 1).  Construct through the
    factory classmethods, which validate the label constraints.
    """

    kind: str
    p: RationalPair | None = None
    r: int | None = None
    labels: tuple[RationalPair, ...] | None = None

    @classmethod
    def wp_form(cls, s, t) -> "FormSpec":
        p = RationalPair.of(s, t)
        _require_noninteger(p, "weight-2")
        return cls("wp", p=p.canonical())

    @classmethod
    def zeta_form(cls, s, t) -> "FormSpec":
        # kept uncanonicalized: label shifts move the value by quasi-periods
        p = RationalPair.of(s, t)
        _require_noninteger(p, "weight-1")
        return cls("zeta", p=p)

    @classmethod
    def h_form(cls, r: int, s, t) -> "FormSpec":
        p = RationalPair.of(s, t)
        _check_h(r, p)
        # the combination is invariant under label shifts, so canonicalize
        return cls("h", p=p.canonical(), r=r)

    @classmethod
    def hU_form(cls, labels: Sequence[RationalPair]) -> "FormSpec":
        labels = tuple(labels)
        _check_hU(labels)
        return cls("hU", labels=labels)

    @property
    def weight(self) -> int:
        return 2 if self.kind == "wp" else 1

    def evaluate(self, tau: complex, tol: float = DEFAULT_TOL, **opts) -> CertifiedValue:
        if self.kind == "wp":
            return eval_f(self.p, tau, tol, **opts)
        if self.kind == "zeta":
            return eval_g(self.p, tau, tol, **opts)
        if self.kind == "h":
            return eval_h(self.r, self.p, tau, tol, **opts)
        if self.kind == "hU":
            return eval_hU(self.labels, tau, tol, **opts)
        raise DomainError(f"unknown form kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "wp":
            return f"f{self.p}"
        if self.kind == "zeta":
            return f"g{self.p}"
        if self.kind == "h":
            return f"h[r={self.r}]{self.p}"
        return "hU{" + ",".join(str(u) for u in self.labels) + "}"


# ---------------------------------------------------------------------------
# random sampling of group elements (coverage, not uniformity)


# S, T and T^-1 as (a, b, c, d)
_STEPS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))


def random_sl2(rng: random.Random, max_entry: int = 20) -> ModularMatrix:
    """Random word of at most 24 standard generators with all entries <= max_entry.

    A word whose running product leaves the entry box is dropped and a new
    one drawn.  The product is walked on plain int tuples; only the accepted
    word becomes a ``ModularMatrix``.
    """
    while True:
        length = rng.randint(0, 24)
        a, b, c, d = 1, 0, 0, 1
        for _ in range(length):
            sa, sb, sc, sd = rng.choice(_STEPS)
            a, b, c, d = a * sa + b * sc, a * sb + b * sd, c * sa + d * sc, c * sb + d * sd
            if max(abs(a), abs(b), abs(c), abs(d)) > max_entry:
                break
        else:
            return ModularMatrix(a, b, c, d)


def random_in_group(
    rng: random.Random,
    contains: Callable[[ModularMatrix], bool],
    max_entry: int = 20,
    max_tries: int = 20_000,
) -> ModularMatrix:
    """Rejection-sample a matrix satisfying ``contains``."""
    for _ in range(max_tries):
        mat = random_sl2(rng, max_entry=max_entry)
        if contains(mat):
            return mat
    raise DomainError("could not sample a group element within the try budget")
