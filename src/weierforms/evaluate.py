"""Certified evaluators for the Weierstrass lattice functions.

Every evaluation first reduces the lattice once, and each of its points in
the reduced basis, exactly (:func:`weierforms.lattice.reduce_points`); the
forms of :mod:`weierforms.forms` pass their exact labels (s, t) rather than
float points, and the parts of ``eval_h`` and ``eval_hU`` share that one
reduction.  The reduction is at unit scale, the lattice over a power of two
2**k, and wp and wzeta are homogeneous of weight 2 and 1: every route runs
there at tol * 2**(w k), and :func:`_unscale` takes each result back.  Each
point is guarded against poles on its own result: the shell constant delta
of the reduced basis (A, J) is at most |J|, so the guard reads the basis
geometry only for points within 2 * POLE_RTOL * |J| of a lattice point.  Two
routes then compute the value:

* ``series`` (also spelled ``auto``) - homogeneity scaling onto the reduced
  ratio and the exponentially convergent row-sum series of
  :mod:`weierforms.trig`;
* ``shell`` - direct summation over a box of the reduced basis (the
  ground-truth route; far lines bounded by their row tails and lines closed
  by Euler-Maclaurin: about log(1/tol) lines of tol**(-1/14) points), planned, summed
  and certified by :func:`weierforms.shells.shell_route`; the "Budget."
  section of :mod:`weierforms.shells` splits the tolerance and lists when
  the route raises :class:`PrecisionError`.  ``eval`` reports the route
  from a record of the evaluation that ran (:func:`_reported`), so the
  reported boxes are the ones summed.

Every wzeta-type value - ``wzeta``, the series route of ``wzeta_lattice``,
``eval_g``, and the Klein-form parts of ``eval_h`` and ``eval_hU`` - is one
linear form over two sums of the reduced lattice tau*Z + Z, the cot rows C and
the quasi-period eta2 (:func:`_zeta`); the route decides only how those two
are summed, and eta2 is summed at most once per evaluation, on the shell
route as 2*wzeta(1/2): wzeta is odd, so eta2 = wzeta(1/2) - wzeta(-1/2)
(DLMF 23.2).  eta1 enters through Legendre's relation, and only ``eta12``
forms it.

Both routes return a :class:`CertifiedValue` whose error field is a
rigorous absolute bound, and they agree within the sum of their
certificates (exercised heavily by the test-suite).
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

from .arith import TWO_PI_I, CertifiedValue, _ball, _inverse, _new, _set_error, _set_value
from .errors import DomainError, PoleError, PrecisionError
from .lattice import Lattice, reduce_lattice, reduce_points
from .shells import _RECORD, TruncationPlan, shell_route, shell_value
from .trig import eta2_strip, wp_strip, z_strip

__all__ = [
    "DEFAULT_TOL",
    "wp",
    "wp_lattice",
    "wzeta",
    "wzeta_lattice",
    "eta12",
    "shell_value",
]

DEFAULT_TOL = 1e-8
POLE_RTOL = 1e-8

_EPS = math.ulp(1.0)
_NORMAL = sys.float_info.min
_ROUTES = ("auto", "shell", "series")


def _as_lattice(lat) -> Lattice:
    if isinstance(lat, Lattice):
        return lat
    if isinstance(lat, (tuple, list)) and len(lat) == 2:
        return Lattice(lat[0], lat[1])
    raise DomainError(f"cannot interpret {lat!r} as a lattice")


def _as_tau(tau) -> complex:
    t = complex(tau)
    if not t.imag > 0.0:
        raise DomainError(f"tau must satisfy Im tau > 0, got {tau!r}")
    return t


def _check_args(tol: float, route: str) -> None:
    if route not in _ROUTES:
        raise DomainError(f"route must be one of {_ROUTES}, got {route!r}")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")


def _unit_tol(tol: float, e: int) -> float:
    """tol * 2**e, the tolerance at unit scale; where that overflows, any is met."""
    try:
        return math.ldexp(tol, e)
    except OverflowError:
        return sys.float_info.max


def _unscale(cv: CertifiedValue, e: int) -> CertifiedValue:
    """cv times 2**e, back from the unit-scale reduction: exact in the normal
    range, rounded once and then up as a ball (arith._ball) where a part leaves it."""
    if not e:
        return cv
    v, r = cv.value, cv.error
    try:
        re, im, err = math.ldexp(v.real, e), math.ldexp(v.imag, e), math.ldexp(r, e)
    except OverflowError:
        raise PrecisionError(f"a value scaled by 2**{e} from the unit-scale lattice leaves the float range") from None
    if abs(re) < _NORMAL and v.real or abs(im) < _NORMAL and v.imag or err < _NORMAL and r:
        return _ball(complex(re, im), err)
    cv = _new(CertifiedValue)
    _set_value(cv, complex(re, im))
    _set_error(cv, err)
    return cv


def _plan_to_scale(w: int, k: int, j: float = 1.0) -> None:
    """Rewrite the plan shell_route recorded last, for a value of weight w, to the
    summed lattice times j * 2**k: its tail bound over (j * 2**k)**w, rounded up
    (j != 1 only at weight 1), and its shell constant times j * 2**k."""
    if (record := _RECORD.get()) is not None:
        p = record[-1]
        tail = p.tail_bound if j == 1.0 else p.tail_bound / j * (1.0 + 2.0 * _EPS)
        record[-1] = replace(p, tail_bound=math.ldexp(tail, -w * k), shell_constant=math.ldexp(p.shell_constant * j, k))


def _basis_route(red, z: complex, tol: float, kind: str) -> CertifiedValue:
    """shell_route on the unit-scale basis of red at z within tol: the value and
    the plan it records at the caller's scale."""
    w = 2 if kind == "wp" else 1
    try:
        cv = shell_route(red.basis, z, _unit_tol(tol, w * red.k), kind)
    except PrecisionError as exc:  # its figures are those at unit scale
        raise (PrecisionError(f"{exc} (on the lattice times 2**{-red.k})") if red.k else exc) from None
    _plan_to_scale(w, red.k)
    return _unscale(cv, -w * red.k)


def _reduce(lat: Lattice, zs):
    """The one reduction of a request, each point guarded against poles as it is taken.

    Guarding lazily keeps the order of errors of one evaluation per point: a
    pole at a later point does not preempt an error of an earlier one.
    delta <= e2 = min over x in [-1, 1] of |J + x*A| <= |J|, so a point with
    |point| >= 2 * POLE_RTOL * |J| passes without building the geometry.  A
    label (s, t) is guarded alike: its reduced point is exactly nonzero, but
    at a level beyond about 1/POLE_RTOL it is too close to the lattice for
    binary64, and the strips overflow on it.  :func:`_reported` reads the record.
    """
    record = _RECORD.get()
    for z, red in zip(zs, reduce_points(lat, zs)):
        pt = abs(red.point)
        if pt < 2.0 * POLE_RTOL * abs(red.jj) and pt < POLE_RTOL * red.basis.geometry.delta:
            # 2**k, the caller's scale against red's, is a float: -1074 <= k < 1024
            if type(z) is tuple:
                what, nearest = f"label ({z[0]}, {z[1]})", (red.m * red.aa + red.n * red.jj) * 2.0**red.k
            else:
                what, nearest = f"z = {z!r}", z - red.point * 2.0**red.k
            raise PoleError(f"{what} lies on the lattice (within {POLE_RTOL:g} * shell constant)", nearest=nearest)
        if record is not None:
            record.append(red)
        yield red


# ---------------------------------------------------------------------------
# dispatch


def _eta2(tau_r: complex, tol: float, route: str) -> CertifiedValue:
    """The quasi-period eta2 of tau_r*Z + Z for a reduced ratio, within tol: the
    closed row series, or on the shell route twice the shell value at 1/2 (module
    docstring; delta >= sqrt(3)/2), within a quarter of tol to leave the doubling room."""
    return 2.0 * shell_route(Lattice(tau_r, 1.0), 0.5, 0.25 * tol, "wzeta") if route == "shell" else eta2_strip(tau_r, tol)


def _zeta(reds, tol: float, route: str, klein: bool) -> list[CertifiedValue]:
    """wzeta at z = point + m*A + n*J, or with ``klein`` the Klein-form Z of a
    label, at each reduced point of one reduction, within tol.

    On tau*Z + Z (the lattice over J) both are one linear form in two sums:
    eta2 and C = J*wzeta(point) - eta2*z0.  With W = z/J = z0 + m*tau + n,
    quasi-periodicity and Legendre's relation eta1 = tau*eta2 - 2 pi i give

        wzeta(z) = (C + W*eta2 - 2 pi i m) / J,    Z = (C + 2 pi i u) / J,

    since Z depends on the label mod Z^2 only and is
    (wzeta(tau, z0) - u*eta1 - v*eta2) / J at the reduced point.  The series
    route sums C as the cot rows of :func:`z_strip`.  The shell route sums
    wzeta(tau, z0) = C + eta2*z0 instead, so there the coefficient of eta2 is
    W - z0 = m*tau + n, or -z0 for Z.  eta2 is summed once for all points, at
    the smallest share any of them needs, and not at all where every
    coefficient is 0.
    """
    shell = route == "shell"
    parts = []
    eta_tol = None
    for red in reds:
        part = _unit_tol(tol, red.k) * abs(red.jj)
        if klein:
            # |z0| <= |tau|: the share of eta2 is the same for every label; u is rounded once
            coeff, bound, dw, k = (-red.z0 if shell else 0j), abs(red.tau), 0.0, red.u and CertifiedValue(red.u, 0.5 * _EPS * abs(red.u))
        else:
            try:
                mt = red.m * red.tau
                shift = mt + red.n
            except OverflowError:  # m or n is an int beyond the float range
                mt = shift = math.inf
            coeff, k = (shift if shell else red.z0 + shift), -red.m
            # W rounds up to three times, each within u of its result, and
            # m itself where |m| > 2**53
            bound, dw = abs(coeff), _EPS * (abs(mt) + abs(shift) + abs(coeff))
            # below this, as |m| <= |m*tau| and |eta2| < 4, the terms W*eta2 and 2 pi m stay in range
            if not dw < _EPS * sys.float_info.max / 16.0:
                raise PrecisionError("wzeta(z) leaves the float range: z/J = z0 + m*tau + n is too large")
        if coeff:
            part *= 0.5
            eta_tol = part / bound if eta_tol is None else min(eta_tol, part / bound)
        if shell:
            base = shell_route(Lattice(red.tau, 1.0), red.z0, part, "wzeta")
            _plan_to_scale(1, red.k, abs(red.jj))
        else:
            base = z_strip(red.tau, red.z0, part)
        parts.append((red, base, coeff, k, dw))
    eta2 = None if eta_tol is None else _eta2(parts[0][0].tau, eta_tol, route)
    inv = _inverse(parts[0][0].jj)
    values = []
    for red, base, coeff, k, dw in parts:
        if coeff:
            base = base + eta2 * CertifiedValue(coeff, dw)
        if k:
            base = base + TWO_PI_I * k
        # + 0.0, exact, makes a zero component +0.0 whichever terms were absent
        values.append(_unscale((base + 0.0 if 0.0 in (base.value.real, base.value.imag) else base) * inv, -red.k))
    return values


def _evaluate(reds, tol: float, route: str, kind: str) -> list[CertifiedValue]:
    """``kind`` ("wp", "wzeta" or "klein") at each reduced point of one
    reduction, within tol: wp by homogeneity from tau*Z + Z, the others by
    :func:`_zeta`.
    """
    if kind != "wp":
        return _zeta(reds, tol, route, kind == "klein")
    if route == "shell":
        return [_basis_route(red, red.point, tol, kind) for red in reds]
    return [_unscale(wp_strip(red.tau, red.z0, _unit_tol(tol, 2 * red.k) * abs(red.jj) ** 2) * _inverse(red.jj, 2), -2 * red.k)
            for red in reds]


def _dispatch(lat, z, tol, route, kind) -> CertifiedValue:
    _check_args(tol, route)
    lat = _as_lattice(lat)
    z = complex(z)
    (red,) = _reduce(lat, (z,))
    if route == "shell":
        # the ground truth sums at z itself, at unit scale, using no (quasi-)periodicity
        return _basis_route(red, _unscale(CertifiedValue(z, 0.0), -red.k).value, tol, kind)
    return _evaluate((red,), tol, route, kind)[0]


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
    return _evaluate(_reduce(Lattice(_as_tau(tau), 1.0), (complex(z),)), tol, route, "wp")[0]


def wzeta(tau, z: complex, tol: float = DEFAULT_TOL, *, route: str = "auto") -> CertifiedValue:
    """wzeta(tau, z) on the lattice tau*Z + Z.

    Evaluates at the lattice-reduced point and restores the quasi-periodic
    defect m*eta1 + n*eta2.
    """
    _check_args(tol, route)
    return _evaluate(_reduce(Lattice(_as_tau(tau), 1.0), (complex(z),)), tol, route, "wzeta")[0]


def _label_values(tau, labels, part: float, route: str, kind: str) -> list[CertifiedValue]:
    """``kind`` on tau*Z + Z at each exact label, a tuple (s, t) of rationals
    standing for the point s*tau + t, one reduction for all, at a share of a
    tolerance that the caller checked with ``_check_args``.

    ``kind`` is "wp", "wzeta" or "klein" (:func:`_zeta`).  Where rounding
    exceeds the share, the certificate is honestly larger than the share.
    """
    return _evaluate(_reduce(Lattice(_as_tau(tau), 1.0), labels), part, route, kind)


def eta12(tau, tol: float = DEFAULT_TOL, *, route: str = "auto") -> tuple[CertifiedValue, CertifiedValue]:
    """Quasi-periods (eta1, eta2) of tau*Z + Z.

    eta1 = wzeta(tau, z + tau) - wzeta(tau, z) and eta2 the same with z + 1.
    tau is first reduced to the fundamental domain; eta2 of the reduced ratio
    comes from its closed row series (``route="series"``) or from twice the
    shell value wzeta(1/2) (``route="shell"``), eta1 from Legendre's
    relation eta1 = tau*eta2 - 2 pi i, and both are transported back along
    the unimodular basis change (quasi-periods are additive in the period).
    """
    _check_args(tol, route)
    red = reduce_lattice(Lattice(_as_tau(tau), 1.0))
    a, b, c, d = red.matrix
    coeff = max(abs(a) + abs(b), abs(c) + abs(d), 1)
    # eta2_r within tol |J| / (4 coeff |tau_r|), so that eta1_r is within tol |J| / (4 coeff)
    eta2_r = _eta2(red.tau, 0.25 * _unit_tol(tol, red.k) * abs(red.jj) / coeff / abs(red.tau), route)
    eta1_r = eta2_r * red.tau - TWO_PI_I
    inv = _inverse(red.jj)
    return _unscale((eta1_r * d - eta2_r * b) * inv, -red.k), _unscale((eta1_r * (-c) + eta2_r * a) * inv, -red.k)


def _reported(fn, *args, **kwargs) -> tuple:
    """``fn(*args, **kwargs)`` and the report of its route, read from what it recorded:
    the reduced ratio and scale (series), the box summed (shell), or the number
    of boxes and their points where it summed several (labels and eta2)."""
    record = []
    token = _RECORD.set(record)
    try:
        value = fn(*args, **kwargs)
    finally:
        _RECORD.reset(token)
    plans = [p for p in record if isinstance(p, TruncationPlan)]
    if not plans:
        red = record[0]
        return value, {"route": "series", "reduced_tau_re": red.tau.real, "reduced_tau_im": red.tau.imag,
                       "scale_modulus": math.ldexp(abs(red.jj), red.k)}
    if len(plans) > 1:
        return value, {"route": "shell", "boxes": len(plans), "points": sum(p.point_count for p in plans)}
    (p,) = plans
    return value, {"route": "shell", "c_max": p.c_max, "d_max": p.d_max, "points": p.point_count,
                   "tail_bound": p.tail_bound, "shell_constant": p.shell_constant}
