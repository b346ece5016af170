"""Certified evaluators for the Weierstrass lattice functions.

Two routes compute every value:

* ``shell``  - direct summation over a box of the Lagrange-reduced basis
  under a :class:`TruncationPlan` (the ground-truth route; cost grows like
  tol**-1 in points);
* ``series`` - exact unimodular reduction of the basis, homogeneity scaling,
  and the exponentially convergent row-sum series of :mod:`weierforms.trig`.

``auto`` picks the shell route when its planned cost is small and falls back
to the series route otherwise.  Both return a :class:`CertifiedValue` whose
error field is a rigorous absolute bound, and they agree within the sum of
their certificates (exercised heavily by the test-suite).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import CertifiedValue
from .errors import DomainError, PoleError, PrecisionError
from .lattice import Lattice, TauLattice, reduce_tau_matrix
from .shells import SHELL_CAP, TruncationPlan, plan_truncation, shell_sum
from .trig import eta_pair_strip, wp_strip, wzeta_strip

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


def _pole_guard(lat: Lattice, lat_reduced: Lattice, z: complex) -> None:
    z0, m, n = lat_reduced.reduce_point(z)
    delta = lat_reduced.geometry.delta
    if abs(z0) < POLE_RTOL * delta:
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


def _series_wp(lat: Lattice, z: complex, tol: float) -> CertifiedValue:
    tau_r, jj = _reduction_data(lat)
    latr = Lattice(tau_r, 1.0)
    z0, _, _ = latr.reduce_point(z / jj)
    if abs(z0) < POLE_RTOL * latr.geometry.delta:
        raise PoleError(f"z = {z!r} lies on the lattice", nearest=z - z0 * jj)
    cv = wp_strip(tau_r, z0, tol * abs(jj) ** 2)
    return cv.scaled(jj**-2)


def _bucket_tol(tol: float) -> float:
    return 10.0 ** math.floor(math.log10(max(tol, 1e-14)))


def _series_wzeta(lat: Lattice, z: complex, tol: float) -> CertifiedValue:
    tau_r, jj = _reduction_data(lat)
    latr = Lattice(tau_r, 1.0)
    z0, m, n = latr.reduce_point(z / jj)
    if abs(z0) < POLE_RTOL * latr.geometry.delta:
        raise PoleError(f"z = {z!r} lies on the lattice", nearest=z - z0 * jj)
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


def _try_shell(
    lat_reduced: Lattice, z: complex, tol: float, kind: str, route: str, shell_cap: int
) -> CertifiedValue | None:
    budget = FORCED_SHELL_POINTS if route == "shell" else AUTO_SHELL_POINTS
    try:
        plan = plan_truncation(lat_reduced, abs(z), 0.5 * tol, kind=kind, shell_cap=shell_cap)
    except DomainError:
        if route == "shell":
            raise PrecisionError(
                "shell route infeasible: |z| exceeds the margin of the reduced basis"
            )
        return None
    except PrecisionError:
        if route == "shell":
            raise
        return None
    if plan.point_count > budget:
        if route == "shell":
            raise PrecisionError(
                f"shell route needs {plan.point_count:,} points, over the budget {budget:,}"
            )
        return None
    cv = shell_value(lat_reduced, z, plan, kind)
    if cv.error > tol:
        if route == "shell":
            raise PrecisionError("shell certificate exceeds the requested tolerance")
        return None
    return cv


def _dispatch(lat, z, tol, route, kind, shell_cap) -> CertifiedValue:
    _check_args(tol, route)
    lat = _as_lattice(lat)
    z = complex(z)
    lat_reduced = lat.lagrange_reduced()
    _pole_guard(lat, lat_reduced, z)
    if route in ("auto", "shell"):
        cv = _try_shell(lat_reduced, z, tol, kind, route, shell_cap)
        if cv is not None:
            return cv
    if kind == "wp":
        return _series_wp(lat, z, tol)
    return _series_wzeta(lat, z, tol)


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
    t = _as_tau(tau)
    lat = Lattice(t, 1.0)
    z = complex(z)
    _pole_guard(lat, lat.lagrange_reduced(), z)
    z0, _, _ = lat.reduce_point(z)
    return wp_lattice(lat, z0, tol, route=route, shell_cap=shell_cap)


def wzeta(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP) -> CertifiedValue:
    """wzeta(tau, z) on the lattice tau*Z + Z.

    Evaluates at the lattice-reduced point and restores the quasi-periodic
    defect m*eta1 + n*eta2 exactly.
    """
    _check_args(tol, route)
    t = _as_tau(tau)
    lat = Lattice(t, 1.0)
    z = complex(z)
    _pole_guard(lat, lat.lagrange_reduced(), z)
    z0, m, n = lat.reduce_point(z)
    if m == 0 and n == 0:
        return wzeta_lattice(lat, z0, tol, route=route, shell_cap=shell_cap)
    base = wzeta_lattice(lat, z0, 0.5 * tol, route=route, shell_cap=shell_cap)
    eta1, eta2 = eta12(t, 0.25 * tol / (abs(m) + abs(n)), route=route, shell_cap=shell_cap)
    return base + eta1 * m + eta2 * n


def _eta_diff_shell(lat: Lattice, period: complex, s0: complex, tol: float, shell_cap: int) -> CertifiedValue:
    z0 = s0 - 0.5 * period
    hi = wzeta_lattice(lat, z0 + period, tol, route="shell", shell_cap=shell_cap)
    lo = wzeta_lattice(lat, z0, tol, route="shell", shell_cap=shell_cap)
    return hi - lo


@lru_cache(maxsize=256)
def _eta12_cached(t: complex, tol: float, route: str, shell_cap: int) -> tuple[CertifiedValue, CertifiedValue]:
    if route == "shell":
        # literal differences of shell evaluations; base points straddle the
        # period so both endpoints stay inside the summation margin
        lat = Lattice(t, 1.0)
        quarter = 0.25 * tol
        eta1 = _eta_diff_shell(lat, t, 0.25, quarter, shell_cap)
        eta1b = _eta_diff_shell(lat, t, 0.375, quarter, shell_cap)
        if abs(eta1.value - eta1b.value) > 4.0 * tol + eta1.error + eta1b.error:
            raise PrecisionError("eta1 depends on the base point beyond tolerance")
        eta2 = _eta_diff_shell(lat, 1.0, 0.13j, quarter, shell_cap)
        eta2b = _eta_diff_shell(lat, 1.0, -0.07 + 0.09j, quarter, shell_cap)
        if abs(eta2.value - eta2b.value) > 4.0 * tol + eta2.error + eta2b.error:
            raise PrecisionError("eta2 depends on the base point beyond tolerance")
        return eta1, eta2
    # series route: quasi-periods of the reduced ratio, transported back along
    # the unimodular basis change (quasi-periods are additive in the period)
    a, b, c, d = reduce_tau_matrix(t)
    j1 = c * t + d
    tau_r = (a * t + b) / j1
    coeff = max(abs(a) + abs(b), abs(c) + abs(d), 1)
    eta1_r, eta2_r = eta_pair_strip(tau_r, _bucket_tol(0.5 * tol * abs(j1) / coeff))
    eta1 = (eta1_r * d - eta2_r * b).scaled(1.0 / j1)
    eta2 = (eta1_r * (-c) + eta2_r * a).scaled(1.0 / j1)
    return eta1, eta2


def eta12(tau, tol: float = DEFAULT_TOL, *, route: str = "auto", shell_cap: int = SHELL_CAP) -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods (eta1, eta2) of tau*Z + Z.

    eta1 = wzeta(tau, z + tau) - wzeta(tau, z) and eta2 the same with z + 1;
    both are computed as such differences and checked to be independent of
    the base point to within 4 tol.
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
    lat_reduced = lat.lagrange_reduced()
    if route in ("auto", "shell"):
        budget = FORCED_SHELL_POINTS if route == "shell" else AUTO_SHELL_POINTS
        try:
            plan = plan_truncation(lat_reduced, abs(z), 0.5 * tol, kind=kind, shell_cap=shell_cap)
        except (DomainError, PrecisionError):
            plan = None
        if plan is not None and plan.point_count <= budget:
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
