"""Certified evaluators for the Weierstrass lattice functions.

Two routes compute every value:

* ``shell``  - direct summation over a box of the Lagrange-reduced basis
  under a :class:`TruncationPlan` (the ground-truth route; cost grows like
  tol**-1 in points);
* ``series`` - exact unimodular reduction of the basis, homogeneity scaling,
  and the exponentially convergent row-sum series of :mod:`weierforms.trig`.

One planner, ``_plan_shell``, makes the shell-admission decision for both
evaluation and :func:`describe_route`: it returns the admitted plan, or a
refusal because |z| exceeds the margin of the reduced basis, the tolerance
is out of reach within ``shell_cap``, or the box has more points than the
budget (``AUTO_SHELL_POINTS`` for ``auto``, ``FORCED_SHELL_POINTS`` for
``shell``).  ``auto`` falls back to the series route on a refusal, and also
when the summed shell certificate exceeds ``tol``; ``shell`` raises
:class:`PrecisionError` with the reason instead.  Both routes return a
:class:`CertifiedValue` whose error field is a rigorous absolute bound, and
they agree within the sum of their certificates (exercised heavily by the
test-suite).

Each public call reduces the basis (Lagrange) and guards against poles once.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import TWO_PI, CertifiedValue
from .errors import DomainError, PoleError, PrecisionError
from .lattice import Lattice, TauLattice, reduce_tau_matrix
from .shells import SHELL_CAP, TruncationPlan, plan_truncation, shell_sum
from .trig import checked_difference, eta_pair_strip, wp_strip, wzeta_strip

__all__ = [
    "DEFAULT_TOL",
    "TOL_FLOOR",
    "wp",
    "wp_lattice",
    "wzeta",
    "wzeta_lattice",
    "eta12",
    "shell_value",
]

DEFAULT_TOL = 1e-8
TOL_FLOOR = 1e-12
POLE_RTOL = 1e-8

AUTO_SHELL_POINTS = 400_000
FORCED_SHELL_POINTS = 800_000_000

_EPS = math.ulp(1.0)
_ROUTES = ("auto", "shell", "series")


def _as_lattice(lat) -> Lattice:
    if isinstance(lat, Lattice):
        return lat
    if isinstance(lat, TauLattice):
        return lat.lattice
    if isinstance(lat, (tuple, list)) and len(lat) == 2:
        return Lattice(lat[0], lat[1])
    raise DomainError(f"cannot interpret {lat!r} as a lattice")


def _as_tau(tau) -> complex:
    if isinstance(tau, TauLattice):
        return tau.tau
    t = complex(tau)
    if not t.imag > 0.0:
        raise DomainError(f"tau must satisfy Im tau > 0, got {tau!r}")
    return t


def _check_args(tol: float, route: str) -> None:
    if route not in _ROUTES:
        raise DomainError(f"route must be one of {_ROUTES}, got {route!r}")
    if not tol >= TOL_FLOOR:
        raise DomainError(f"tolerance must be >= {TOL_FLOOR}, got {tol!r}")


def _pole_guard(lat_reduced: Lattice, z: complex) -> None:
    z0, _, _ = lat_reduced.reduce_point(z)
    if abs(z0) < POLE_RTOL * lat_reduced.geometry.delta:
        raise PoleError(
            f"z = {z!r} lies on the lattice (within {POLE_RTOL:g} * shell constant)",
            nearest=z - z0,
        )


# ---------------------------------------------------------------------------
# series route: exact reductions + row-sum series


def _reduction_data(lat: Lattice):
    """(tau_reduced, jj) with lat = jj * (tau_reduced Z + Z), both exact identities."""
    tau0 = lat.tau
    a, b, c, d = reduce_tau_matrix(tau0)
    j1 = c * tau0 + d
    tau_r = (a * tau0 + b) / j1
    return tau_r, lat.omega2 * j1


def _bucket_tol(tol: float) -> float:
    return 10.0 ** math.floor(math.log10(max(tol, 1e-14)))


def _series(lat: Lattice, z: complex, tol: float, kind: str) -> CertifiedValue:
    tau_r, jj = _reduction_data(lat)
    latr = Lattice(tau_r, 1.0)
    z0, m, n = latr.reduce_point(z / jj)
    if abs(z0) < POLE_RTOL * latr.geometry.delta:
        raise PoleError(f"z = {z!r} lies on the lattice", nearest=z - z0 * jj)
    if kind == "wp":
        return wp_strip(tau_r, z0, tol * abs(jj) ** 2).scaled(jj**-2)
    scaled_tol = tol * abs(jj)
    cv = wzeta_strip(tau_r, z0, 0.5 * scaled_tol)
    if m or n:
        eta1, eta2 = eta_pair_strip(tau_r, _bucket_tol(0.25 * scaled_tol / (abs(m) + abs(n))))
        cv = cv + eta1 * m + eta2 * n
    return cv.scaled(1.0 / jj)


# ---------------------------------------------------------------------------
# shell route


def shell_value(
    lat: Lattice, z: complex, plan: TruncationPlan, kind: str = "wp"
) -> CertifiedValue:
    """Principal part plus the planned shell sum, with the plan's certificate."""
    z = complex(z)
    total, rounding = shell_sum(lat, z, plan.box, kind)
    if kind == "wp":
        principal = 1.0 / (z * z)
    else:
        principal = 1.0 / z
    value = principal + total
    # principal: z*z (2.83 u) and Smith's division (7.07 u); the sum: u (|p| + |total|)
    err = plan.tail_bound + rounding + 6.0 * _EPS * abs(principal) + _EPS * abs(total)
    return CertifiedValue(value, err)


def _plan_shell(
    lat_reduced: Lattice, z: complex, tol: float, route: str, kind: str, shell_cap: int
) -> tuple[TruncationPlan | None, str]:
    """The shell-admission decision: the admitted plan, or None and the reason for refusal."""
    budget = FORCED_SHELL_POINTS if route == "shell" else AUTO_SHELL_POINTS
    try:
        plan = plan_truncation(lat_reduced, abs(z), 0.5 * tol, kind=kind, shell_cap=shell_cap)
    except DomainError:
        return None, "shell route infeasible: |z| exceeds the margin of the reduced basis"
    except PrecisionError as exc:
        return None, str(exc)
    if plan.point_count > budget:
        return None, f"shell route needs {plan.point_count:,} points, over the budget {budget:,}"
    return plan, ""


def _evaluate(lat, lat_reduced, z, tol, route, kind, shell_cap) -> CertifiedValue:
    """Evaluate a pole-guarded request: the admitted shell plan, else the series."""
    if route != "series":
        plan, reason = _plan_shell(lat_reduced, z, tol, route, kind, shell_cap)
        if plan is not None:
            cv = shell_value(lat_reduced, z, plan, kind)
            if cv.error <= tol:
                return cv
            reason = "shell certificate exceeds the requested tolerance"
        if route == "shell":
            raise PrecisionError(reason)
    return _series(lat, z, tol, kind)


def _dispatch(lat, z, tol, route, kind, shell_cap) -> CertifiedValue:
    _check_args(tol, route)
    lat = _as_lattice(lat)
    z = complex(z)
    lat_reduced = lat.lagrange_reduced()
    _pole_guard(lat_reduced, z)
    return _evaluate(lat, lat_reduced, z, tol, route, kind, shell_cap)


def wp_lattice(
    lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP
) -> CertifiedValue:
    """wp(lattice, z) with certified absolute error <= tol.

    Summed over a box of the Lagrange-reduced basis when that is
    affordable (a unimodular relabeling of the same lattice points), and by
    the reduced row-sum series otherwise.
    """
    return _dispatch(lat, z, tol, route, "wp", shell_cap)


def wzeta_lattice(
    lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP
) -> CertifiedValue:
    """wzeta(lattice, z) with certified absolute error <= tol."""
    return _dispatch(lat, z, tol, route, "wzeta", shell_cap)


def wp(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP) -> CertifiedValue:
    """wp(tau, z) on the lattice tau*Z + Z.

    z is first reduced by the period lattice (an exact symmetry of wp), so
    only the reduced representative is ever summed.
    """
    _check_args(tol, route)
    lat = Lattice(_as_tau(tau), 1.0)
    z = complex(z)
    lat_reduced = lat.lagrange_reduced()
    _pole_guard(lat_reduced, z)
    z0, _, _ = lat.reduce_point(z)
    return _evaluate(lat, lat_reduced, z0, tol, route, "wp", shell_cap)


def wzeta(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP) -> CertifiedValue:
    """wzeta(tau, z) on the lattice tau*Z + Z.

    Evaluates at the lattice-reduced point and restores the quasi-periodic
    defect m*eta1 + n*eta2 exactly.
    """
    _check_args(tol, route)
    t = _as_tau(tau)
    lat = Lattice(t, 1.0)
    z = complex(z)
    lat_reduced = lat.lagrange_reduced()
    _pole_guard(lat_reduced, z)
    z0, m, n = lat.reduce_point(z)
    if m == 0 and n == 0:
        return _evaluate(lat, lat_reduced, z0, tol, route, "wzeta", shell_cap)
    # the base value gets half the budget, which must meet the floor too
    _check_args(0.5 * tol, route)
    base = _evaluate(lat, lat_reduced, z0, 0.5 * tol, route, "wzeta", shell_cap)
    eta1, eta2 = eta12(t, 0.25 * tol / (abs(m) + abs(n)), route=route, shell_cap=shell_cap)
    return base + eta1 * m + eta2 * n


@lru_cache(maxsize=256)
def _eta12_cached(t: complex, tol: float, route: str, shell_cap: int) -> tuple[CertifiedValue, CertifiedValue]:
    # quasi-periods of the reduced ratio, transported back along the
    # unimodular basis change (quasi-periods are additive in the period)
    a, b, c, d = reduce_tau_matrix(t)
    j1 = c * t + d
    tau_r = (a * t + b) / j1
    coeff = max(abs(a) + abs(b), abs(c) + abs(d), 1)
    tol_r = 0.5 * tol * abs(j1) / coeff
    if route == "shell":
        eta1_r, eta2_r = _eta_pair_shell(tau_r, tol_r, shell_cap)
    else:
        eta1_r, eta2_r = eta_pair_strip(tau_r, _bucket_tol(tol_r))
    eta1 = (eta1_r * d - eta2_r * b).scaled(1.0 / j1)
    eta2 = (eta1_r * (-c) + eta2_r * a).scaled(1.0 / j1)
    return eta1, eta2


def _eta_pair_shell(tau_r: complex, tol: float, shell_cap: int) -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods of a reduced ratio from shell sums, each within tol.

    eta2 is a literal difference of shell wzeta values; its base points near
    -1/2 and +1/2 lie inside the summation margin of every reduced basis.
    eta1 follows from Legendre's relation eta1 = tau*eta2 - 2 pi i.
    """
    lat = Lattice(tau_r, 1.0)
    tol2 = 0.5 * tol / abs(tau_r)

    def wz(z: complex) -> CertifiedValue:
        return wzeta_lattice(lat, z, 0.25 * tol2, route="shell", shell_cap=shell_cap)

    eta2 = checked_difference(wz, 1.0, 0.13j - 0.5, -0.07 + 0.09j - 0.5, tol2, "eta2")
    prod = eta2.value * tau_r
    eta1 = prod - complex(0.0, TWO_PI)
    # rounding (_EPS = 2u): the product sqrt(5) u |prod|, fl(2 pi) 2 pi u,
    # the subtraction u |eta1|
    rounding = _EPS * (2.0 * abs(prod) + abs(eta1) + 4.0)
    return CertifiedValue(eta1, abs(tau_r) * eta2.error + rounding), eta2


def eta12(tau, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP) -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods (eta1, eta2) of tau*Z + Z.

    eta1 = wzeta(tau, z + tau) - wzeta(tau, z) and eta2 the same with z + 1;
    tau is first reduced to the fundamental domain and the quasi-periods of
    the reduced ratio are transported back.  ``route="series"`` computes both
    as such differences of row-sum values, checked to be independent of the
    base point to within 4 tol; ``route="shell"`` does so for eta2 with shell
    sums and takes eta1 from Legendre's relation eta1 = tau*eta2 - 2 pi i.
    """
    _check_args(tol, route)
    t = _as_tau(tau)
    if route == "auto":
        route = "series"
    return _eta12_cached(t, float(tol), route, shell_cap)


def describe_route(lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", kind: str = "wp", shell_cap: int = SHELL_CAP) -> dict:
    """Report, without summing, which route a request resolves to and its plan."""
    _check_args(tol, route)
    lat = _as_lattice(lat)
    z = complex(z)
    if route != "series":
        plan, _ = _plan_shell(lat.lagrange_reduced(), z, tol, route, kind, shell_cap)
        if plan is not None:
            return {
                "route": "shell",
                "c_max": plan.c_max,
                "d_max": plan.d_max,
                "points": plan.point_count,
                "tail_bound": plan.tail_bound,
                "shell_constant": plan.shell_constant,
            }
        if route == "shell":
            return {"route": "shell", "feasible": False}
    tau_r, jj = _reduction_data(lat)
    return {
        "route": "series",
        "reduced_tau_re": tau_r.real,
        "reduced_tau_im": tau_r.imag,
        "scale_modulus": abs(jj),
    }
