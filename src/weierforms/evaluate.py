"""Certified evaluators for the Weierstrass lattice functions.

Every evaluation first reduces the lattice once, and each of its points in
the reduced basis, exactly (:func:`weierforms.lattice.reduce_points`); the
forms of :mod:`weierforms.forms` pass their exact labels (s, t) rather than
float points, and the parts of ``eval_h`` and ``eval_hU`` share that one
reduction.  Each point is
guarded against poles on its own result: the shell constant delta of the
reduced basis (A, J) is at most |J|, so the guard reads the basis geometry
only for points within 2 * POLE_RTOL * |J| of a lattice point.  Two routes
then compute the value:

* ``series`` (also spelled ``auto``) - homogeneity scaling onto the reduced
  ratio and the exponentially convergent row-sum series of
  :mod:`weierforms.trig`;
* ``shell`` - direct summation over a box of the reduced basis under a
  :class:`TruncationPlan` (the ground-truth route; cost grows like tol**-1
  in points).  The route raises :class:`PrecisionError` when |z| exceeds
  the margin of the reduced basis, when :func:`plan_truncation` refuses the
  box (the tolerance out of reach within ``SHELL_CAP``, more than
  ``POINT_BUDGET`` points, or a basis outside the planner's float range),
  or when the summed certificate exceeds ``tol``.

Both routes return a :class:`CertifiedValue` whose error field is a
rigorous absolute bound, and they agree within the sum of their
certificates (exercised heavily by the test-suite).
"""

from __future__ import annotations

import math

from .arith import TWO_PI, CertifiedValue
from .errors import DomainError, PoleError, PrecisionError
from .lattice import Lattice, Reduction, TauLattice, reduce_lattice, reduce_points
from .shells import TruncationPlan, plan_truncation, shell_sum
from .trig import eta2_strip, wp_strip, wzeta_strip, z_strip

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


def _reduce(lat: Lattice, zs):
    """The one reduction of a request, each point guarded against poles as it is taken.

    Guarding lazily keeps the order of errors of one evaluation per point: a
    pole at a later point does not preempt an error of an earlier one.
    delta <= e2 = min over x in [-1, 1] of |J + x*A| <= |J|, so a point with
    |point| >= 2 * POLE_RTOL * |J| passes without building the geometry.  A
    label (s, t) is guarded alike: its reduced point is exactly nonzero, but
    at a level beyond about 1/POLE_RTOL it is too close to the lattice for
    binary64, and the strips overflow on it.
    """
    for z, red in zip(zs, reduce_points(lat, zs)):
        pt = abs(red.point)
        if pt < 2.0 * POLE_RTOL * abs(red.jj) and pt < POLE_RTOL * red.basis.geometry.delta:
            if type(z) is tuple:
                what, nearest = f"label ({z[0]}, {z[1]})", red.m * red.aa + red.n * red.jj
            else:
                what, nearest = f"z = {z!r}", z - red.point
            raise PoleError(f"{what} lies on the lattice (within {POLE_RTOL:g} * shell constant)", nearest=nearest)
        yield red


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


def _plan_shell(basis: Lattice, z: complex, tol: float, kind: str) -> TruncationPlan:
    """The admitted shell plan, or PrecisionError with the reason for refusing it."""
    try:
        return plan_truncation(basis, abs(z), 0.5 * tol, kind=kind)
    except DomainError:
        raise PrecisionError("shell route infeasible: |z| exceeds the margin of the reduced basis") from None


def _shell(basis: Lattice, z: complex, tol: float, kind: str) -> CertifiedValue:
    cv = shell_value(basis, z, _plan_shell(basis, z, tol, kind), kind)
    if cv.error > tol:
        raise PrecisionError("shell certificate exceeds the requested tolerance")
    return cv


def checked_difference(wz, base: complex, base_b: complex, tol: float) -> CertifiedValue:
    """eta2 = wz(base + 1) - wz(base) of a certified wzeta.

    The same difference at ``base_b`` must agree to within 4 tol plus both
    certificates; otherwise PrecisionError.
    """
    eta = wz(base + 1.0) - wz(base)
    eta_b = wz(base_b + 1.0) - wz(base_b)
    if abs(eta.value - eta_b.value) > 4.0 * tol + eta.error + eta_b.error:
        raise PrecisionError("eta2 depends on the base point beyond tolerance")
    return eta


def _eta_pair(tau_r: complex, tol: float, route: str) -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods of tau_r*Z + Z for a reduced ratio, each within tol.

    eta2 is the closed row series of :func:`eta2_strip`, or on the shell route
    a literal difference of shell wzeta values, whose base points near -1/2
    and +1/2 lie inside the summation margin of every reduced basis.  eta1
    follows from Legendre's relation eta1 = tau*eta2 - 2 pi i.
    """
    tol2 = 0.5 * tol / abs(tau_r)
    if route == "shell":
        lat = Lattice(tau_r, 1.0)

        def wz(z: complex) -> CertifiedValue:
            return _shell(lat, z, 0.25 * tol2, "wzeta")

        eta2 = checked_difference(wz, 0.13j - 0.5, -0.07 + 0.09j - 0.5, tol2)
    else:
        eta2 = eta2_strip(tau_r, tol2)
    prod = eta2.value * tau_r
    eta1 = prod - complex(0.0, TWO_PI)
    # rounding (_EPS = 2u): the product sqrt(5) u |prod|, fl(2 pi) 2 pi u,
    # the subtraction u |eta1|
    rounding = _EPS * (2.0 * abs(prod) + abs(eta1) + 4.0)
    return CertifiedValue(eta1, abs(tau_r) * eta2.error + rounding), eta2


# ---------------------------------------------------------------------------
# dispatch


def _evaluate(red: Reduction, tol: float, route: str, kind: str) -> CertifiedValue:
    """The value at z = point + m*A + n*J.

    That is the value at the reduced point, plus m*eta(A) + n*eta(J) for wzeta,
    with eta(A), eta(J) the quasi-periods of tau*Z + Z scaled by 1/J.
    """
    shift = abs(red.m) + abs(red.n) if kind == "wzeta" else 0
    base_tol = 0.5 * tol if shift else tol
    if route == "shell":
        cv = _shell(red.basis, red.point, base_tol, kind)
    elif kind == "wp":
        cv = wp_strip(red.tau, red.z0, tol * abs(red.jj) ** 2).scaled(red.jj**-2)
    else:
        cv = wzeta_strip(red.tau, red.z0, base_tol * abs(red.jj)).scaled(1.0 / red.jj)
    if not shift:
        return cv
    eta1, eta2 = _eta_pair(red.tau, 0.25 * tol * abs(red.jj) / shift, route)
    return cv + (eta1 * red.m + eta2 * red.n).scaled(1.0 / red.jj)


def _klein(red: Reduction, tol: float, route: str) -> CertifiedValue:
    """Z = wzeta(z) - s*eta1 - t*eta2 at the point z = s*tau + t of a label (s, t).

    Z is the logarithmic derivative of the Klein form: it depends on the label
    mod Z^2 only, so it is taken at the reduced point u*A + v*J, where it is
    (wzeta(z0) - u*eta1 - v*eta2) / J on tau*Z + Z.  By Legendre's relation
    that is (C(z0) + 2 pi i u) / J with C the cot rows of :func:`z_strip`.
    The shell route sums wzeta at the reduced point and subtracts
    u*eta1 + v*eta2 = eta2*z0 - 2 pi i u with eta2 from :func:`_eta_pair`.
    """
    scale = 1.0 / red.jj
    if route != "shell":
        return z_strip(red.tau, red.z0, red.u, tol * abs(red.jj)).scaled(scale)
    cv = _shell(red.basis, red.point, 0.5 * tol, "wzeta")
    # eta2 within tol |J| / (4 |tau|) and |z0| <= |tau| (|u|, |v| <= 1/2 <= |tau|/2)
    _, eta2 = _eta_pair(red.tau, tol * abs(red.jj), route)
    prod = eta2.value * red.z0
    shift = 2j * math.pi * red.u
    value = prod - shift
    # rounding (_EPS = 2u): z0 and the product 3 u |prod|, u and 2 pi u times
    # 2 pi |u|, the subtraction u |value|
    rounding = _EPS * (2.0 * abs(prod) + abs(value) + 2.0 * abs(shift))
    return cv - CertifiedValue(value, abs(red.z0) * eta2.error + rounding).scaled(scale)


def _dispatch(lat, z, tol, route, kind) -> CertifiedValue:
    _check_args(tol, route)
    lat = _as_lattice(lat)
    z = complex(z)
    (red,) = _reduce(lat, (z,))
    if route == "shell":
        # the ground truth sums at z itself, using no (quasi-)periodicity
        return _shell(red.basis, z, tol, kind)
    return _evaluate(red, tol, route, kind)


def wp_lattice(lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """wp(lattice, z) with certified absolute error <= tol.

    By the row-sum series on the reduced ratio; ``route="shell"`` sums over a
    box of the reduced basis (a unimodular relabeling of the same lattice
    points) at z itself.
    """
    return _dispatch(lat, z, tol, route, "wp")


def wzeta_lattice(lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """wzeta(lattice, z) with certified absolute error <= tol."""
    return _dispatch(lat, z, tol, route, "wzeta")


def wp(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """wp(tau, z) on the lattice tau*Z + Z.

    z is first reduced by the period lattice (an exact symmetry of wp), so
    only the reduced representative is ever summed.
    """
    _check_args(tol, route)
    (red,) = _reduce(Lattice(_as_tau(tau), 1.0), (complex(z),))
    return _evaluate(red, tol, route, "wp")


def wzeta(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """wzeta(tau, z) on the lattice tau*Z + Z.

    Evaluates at the lattice-reduced point and restores the quasi-periodic
    defect m*eta1 + n*eta2.
    """
    _check_args(tol, route)
    (red,) = _reduce(Lattice(_as_tau(tau), 1.0), (complex(z),))
    return _evaluate(red, tol, route, "wzeta")


def _label_values(tau, labels, part: float, route: str, kind: str) -> list[CertifiedValue]:
    """``kind`` on tau*Z + Z at each exact label, a tuple (s, t) of rationals
    standing for the point s*tau + t, one reduction for all, at a share of a
    tolerance that the caller checked with ``_check_args``.

    ``kind`` is "wp", "wzeta" or "klein" (:func:`_klein`).  The share may lie
    below TOL_FLOOR; where rounding then exceeds it, the certificate is
    honestly larger than the share.
    """
    reds = _reduce(Lattice(_as_tau(tau), 1.0), labels)
    if kind == "klein":
        return [_klein(red, part, route) for red in reds]
    return [_evaluate(red, part, route, kind) for red in reds]


def eta12(tau, tol: float = DEFAULT_TOL, *, route: str = "auto") -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods (eta1, eta2) of tau*Z + Z.

    eta1 = wzeta(tau, z + tau) - wzeta(tau, z) and eta2 the same with z + 1.
    tau is first reduced to the fundamental domain; eta2 of the reduced ratio
    comes from its closed row series (``route="series"``) or from a literal
    difference of shell wzeta values (``route="shell"``), eta1 from Legendre's
    relation eta1 = tau*eta2 - 2 pi i, and both are transported back along
    the unimodular basis change (quasi-periods are additive in the period).
    """
    _check_args(tol, route)
    red = reduce_lattice(Lattice(_as_tau(tau), 1.0))
    a, b, c, d = red.matrix
    coeff = max(abs(a) + abs(b), abs(c) + abs(d), 1)
    eta1_r, eta2_r = _eta_pair(red.tau, 0.5 * tol * abs(red.jj) / coeff, route)
    eta1 = (eta1_r * d - eta2_r * b).scaled(1.0 / red.jj)
    eta2 = (eta1_r * (-c) + eta2_r * a).scaled(1.0 / red.jj)
    return eta1, eta2


def describe_route(lat, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto", kind: str = "wp") -> dict:
    """Report, without summing, the route a lattice-function request runs on and its plan."""
    _check_args(tol, route)
    red = reduce_lattice(_as_lattice(lat))
    if route == "shell":
        try:
            plan = _plan_shell(red.basis, complex(z), tol, kind)
        except PrecisionError:
            return {"route": "shell", "feasible": False}
        return {
            "route": "shell",
            "c_max": plan.c_max,
            "d_max": plan.d_max,
            "points": plan.point_count,
            "tail_bound": plan.tail_bound,
            "shell_constant": plan.shell_constant,
        }
    return {
        "route": "series",
        "reduced_tau_re": red.tau.real,
        "reduced_tau_im": red.tau.imag,
        "scale_modulus": abs(red.jj),
    }
