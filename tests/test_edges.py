"""Input validation and dispatch edge cases across the package."""

from __future__ import annotations

import cmath
import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

from weierforms import (
    DomainError,
    Lattice,
    PoleError,
    PrecisionError,
    eta12,
    lattice_row_sum_enclosure,
    random_in_group,
    shell_sum,
    slash,
    wp,
    wp_lattice,
    wzeta,
    wzeta_lattice,
)
from weierforms.evaluate import _reported
from weierforms.shells import POINT_BUDGET, _far_bound, bulk_rounding_bound, shell_route
from weierforms.trig import wp_strip, z_strip

from oracles import mp_lattice, mp_wp_mpc, mp_wzeta_mpc


# (kind, basis, z, tol, cap, summed, forced-shell refusal): an admitted box
# keeps max(c_max, d_max) <= cap = 10^6 and at most POINT_BUDGET points;
# ``summed`` is "shell" where the forced shell route's value is checked
# against the series route
ROUTE_CASES = [
    # |z| beyond the margin of the reduced basis
    ("wp", (1j, 1.0), 1.2, 1e-8, 10**6, "series", "margin"),
    ("wzeta", (1j, 1.0), 1.2, 1e-8, 10**6, "series", "margin"),
    # admitted and summed at 1e-12: five lines of 21 points on either side of
    # the line c = 0 (230 points each)
    ("wp", (1j, 1.0), 0.4, 1e-12, 10**6, "shell", None),
    ("wzeta", (1j, 1.0), 0.9, 1e-12, 10**6, "shell", None),
    # admitted, with 62 (wp) and 34 (wzeta) points
    ("wp", (1j, 1.0), 0.3, 1e-6, 10**6, "series", None),
    ("wzeta", (1j, 1.0), 0.3, 1e-6, 10**6, "series", None),
    # admitted and summed (98 points)
    ("wp", (1j, 1.0), 0.4, 5e-9, 10**6, "shell", None),
    # admitted
    ("wp", (0.3 + 1.2j, 1.0), 0.2 - 0.1j, 1e-4, 10**6, "shell", None),
    ("wzeta", (0.3 + 1.2j, 1.0), 0.2 - 0.1j, 1e-4, 10**6, "shell", None),
    # refused before summing: the rounding of the principal part near the pole
    # alone exceeds tol
    ("wp", (1j, 1.0), 1e-7, 1e-12, 10**6, "shell", "certificate exceeds"),
    ("wzeta", (1j, 1.0), 1e-7, 1e-12, 10**6, "shell", "certificate exceeds"),
]


class TestDispatchEdges:
    @pytest.mark.parametrize("kind,basis,z,tol,cap,summed,refusal", ROUTE_CASES)
    def test_auto_route_follows_the_plan(self, kind, basis, z, tol, cap, summed, refusal):
        # "auto" is the series route, whatever the forced shell route does
        fn = wp_lattice if kind == "wp" else wzeta_lattice
        lat = Lattice(*basis)
        auto, info = _reported(fn, lat, z, tol, route="auto")
        series, series_info = _reported(fn, lat, z, tol, route="series")
        assert info == series_info
        assert info["route"] == "series"
        assert (auto.value, auto.error) == (series.value, series.error)
        if refusal:
            with pytest.raises(PrecisionError, match=refusal):
                fn(lat, z, tol, route="shell")
            return
        shell, plan = _reported(fn, lat, z, tol, route="shell")
        assert max(plan["c_max"], plan["d_max"]) <= cap and plan["points"] <= POINT_BUDGET
        if summed == "shell":
            assert abs(shell.value - series.value) <= shell.error + series.error

    def test_tuple_accepted_as_lattice(self):
        a = wp_lattice((1j, 1.0), 0.5, 1e-8)
        b = wp_lattice(Lattice(1j, 1.0), 0.5, 1e-8)
        assert a.value == b.value

    def test_bad_route_rejected(self):
        with pytest.raises(DomainError):
            wp_lattice(Lattice(1j, 1.0), 0.5, 1e-8, route="warp")

    def test_forced_shell_budget_guard(self):
        # feasible under the cap but over the runtime point budget (over 10^7
        # points): the shell route on a basis far from reduced (Im tau = 0.003,
        # about 1100 lines, and lines closed only after thousands of points
        # since h2 = 0.003 |omega2|) at a share just above the least tail plus
        # rounding.  The evaluators sum on reduced bases, where
        # Im tau >= sqrt(3)/2 keeps the lines few and short
        lat = Lattice(1 + 0.003j, 1.0)
        z = 0.5 * lat.geometry.delta
        floor = min(_far_bound(lat, "wp", z, c) for c in range(3000)) + bulk_rounding_bound(lat, z, "wp")
        with pytest.raises(PrecisionError, match="over the budget"):
            shell_route(lat, z, 1.01 * floor, "wp")

    def test_describe_route_shell(self):
        # the route report of a shell evaluation
        lat = Lattice(20j, 1.0)
        _, info = _reported(wp_lattice, lat, 0.5, 1e-8, route="shell")
        assert info["route"] == "shell"
        # the tail and the bulk's a priori rounding share the tolerance
        rounding = bulk_rounding_bound(lat, 0.5, "wp")
        assert info["tail_bound"] + rounding <= 1e-8
        assert info["points"] == (2 * info["c_max"] + 1) * (2 * info["d_max"] + 1) - 1

    def test_describe_route_infeasible_shell(self):
        # a refused shell evaluation reports nothing: it raises
        with pytest.raises(PrecisionError, match="margin"):
            _reported(wp_lattice, Lattice(20j, 1.0), 10j, 1e-8, route="shell")

    def test_describe_route_series(self):
        _, info = _reported(wp_lattice, Lattice(1j, 1.0), 0.5, 1e-10, route="series")
        assert info["route"] == "series"
        assert info["reduced_tau_im"] >= math.sqrt(3.0) / 2.0 - 1e-9


class TestTinyLattices:
    # each lattice is evaluated at unit scale: a result beyond the float range
    # raises PrecisionError naming the scale, and one within it is sound
    @pytest.mark.parametrize(
        "fn,args",
        [
            (wp, (1e-300j, 0.1)),
            (wzeta, (1e-170j, 0.1)),
            (wp, (5e-324j, 0.1)),
            (eta12, (1e-300j,)),
            (wzeta, (1e-170j, 1e-171 + 1e-172j)),
        ],
    )
    def test_out_of_float_range(self, fn, args):
        import mpmath as mp

        if args[0] == 5e-324j:
            # the inverse ratio, 2**1074, is not a float
            with pytest.raises(DomainError, match="generator ratio .* leaves the float range"):
                fn(*args)
        elif args[1:] == (1e-171 + 1e-172j,):
            # about 9.9e170
            cv = fn(*args)
            with mp.workdps(30):
                assert abs(mp.mpc(cv.value) - mp_wzeta_mpc(*args, rows=12, dps=30)) <= cv.error
        else:
            with pytest.raises(PrecisionError, match=r"scaled by 2\*\*\d+ .* leaves the float range"):
                fn(*args)


class TestHugeLattices:
    # generators beyond ~1e154 (|w|**2 overflows) or the planner's powers
    # h**3, h**4 of the line distances beyond the float range
    def test_geometry_of_a_long_basis(self):
        g = Lattice(1e155j, 1.0).geometry
        assert (g.e1, g.e2, g.h1, g.h2, g.delta) == (1e155, 1.0, 1e155, 1.0, 1.0)
        # |omega1|^2 underflows to 0
        g = Lattice(1e-170j, 1.0).geometry
        assert (g.e1, g.e2, g.h1, g.h2, g.delta) == (1e-170, 1.0, 1e-170, 1.0, 1e-170)

    def test_series_route_values(self):
        for route in ("auto", "series"):
            # the limit Im tau -> oo: pi^2 / sin^2(pi z) - pi^2 / 3
            cv = wp(1e155j, 0.1, 1e-8, route=route)
            limit = (math.pi / math.sin(0.1 * math.pi)) ** 2 - math.pi**2 / 3.0
            assert abs(cv.value - limit) <= cv.error + 1e-12

    @pytest.mark.parametrize("tau", [1e155j, 1e80j, 1e200j])
    def test_shell_route_refused(self, tau):
        with pytest.raises(PrecisionError, match="float range"):
            wp(tau, 0.1, 1e-8, route="shell")
        with pytest.raises(PrecisionError, match="float range"):
            wzeta_lattice(Lattice(tau, 1.0), 0.1, 1e-8, route="shell")
        with pytest.raises(PrecisionError, match="float range"):
            _reported(wp_lattice, Lattice(tau, 1.0), 0.1, route="shell")

    # wzeta(z) = (C + W*eta2 - 2 pi i m) / J with W = z/J = z0 + m*tau + n: where
    # W is beyond the float range, as an int m (about 2.6e432) or as m*tau
    # (m = 1e308), or W*eta2 and 2 pi m are, both routes raise PrecisionError
    @pytest.mark.parametrize("route", ["series", "shell"])
    @pytest.mark.parametrize(
        "fn,lat,z",
        [
            (wzeta_lattice, Lattice(-0.05341139298370955 + 4.0615688972836885j, 3.6470552046674196e-276j), -9.357278102587967e156 - 2.471976133161178e62j),
            (wzeta_lattice, Lattice(4e-300j, 1e-300), 4e8j),
            (wzeta, 0.3 + 1.1j, 0.37 + 4e307j),
        ],
    )
    def test_wzeta_beyond_the_float_range(self, fn, lat, z, route):
        with pytest.raises(PrecisionError, match="float range"):
            fn(lat, z, 312198171496.7086, route=route)

    def test_pole_guard_on_a_long_basis(self):
        with pytest.raises(PoleError):
            wp(1e155j, 1e-12, 1e-8)

    # a square basis of scale 1e60: the wp kernel's denominator
    # (z^2 - w^2)^2 w^2 ~ |w|^6 would leave the float range, but the shell
    # route sums the unit-scale basis
    def test_shell_kernel_out_of_float_range(self):
        lat = Lattice(1e60j, 1e60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shell, plan = _reported(wp_lattice, lat, 3e59, 1e-124, route="shell")
        assert plan["shell_constant"] == 1e60
        series = wp_lattice(lat, 3e59, 1e-124, route="series")
        assert abs(shell.value - series.value) <= shell.error + series.error
        # wp(lambda L, lambda z) = lambda^-2 wp(L, z)
        unit = wp_lattice(Lattice(1j, 1.0), 0.3, 1e-12, route="series")
        for cv in (shell, series):
            assert abs(cv.value * 1e120 - unit.value) <= cv.error * 1e120 + unit.error + 1e-12

    @pytest.mark.parametrize(
        "fn,route,value_hex,error_hex",
        [
            # the shell box is (0, 1), the points +-omega2, and its line closed
            # beyond them: the far lines' bound is small
            (wp_lattice, "shell", "0x1.4a80b2c3d67c4p-329", "0x1.6d3aee93ce313p-333"),
            (wp_lattice, "series", "0x1.4a11d5281e9abp-329", "0x1.09ae650d7e271p-334"),
            (wzeta_lattice, "shell", "0x1.874e379644d28p-165", "0x1.8b9bf3dfe9945p-170"),
            # the series errors count the rounding of the cot rows, of W*eta2 and of 1/J
            (wzeta_lattice, "series", "0x1.8770b0ff90c51p-165", "0x1.04ab4d985c54bp-170"),
        ],
    )
    def test_scale_1e50_unchanged(self, fn, route, value_hex, error_hex):
        # within the kernel's range both routes return these values, bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cv = fn(Lattice(1e50j, 1e50), 3e49, 1e-4, route=route)
        assert cv.value == complex(float.fromhex(value_hex), 0.0)
        assert cv.error == float.fromhex(error_hex)

    def test_generator_modulus_beyond_float_range(self):
        # finite components, |w| above the largest float: abs() overflows
        w = complex(1.5e308, 1.5e308)
        for make in (lambda: Lattice(w, 1.0), lambda: Lattice(1.0, w), lambda: wp_lattice((w, 1.0), 0.1)):
            with pytest.raises(DomainError, match="generator ratio .* leaves the float range"):
                make()
        assert Lattice(complex(1.2e308, 1.2e308), 1.0).omega1 == complex(1.2e308, 1.2e308)


def _scaled_requests(seed: int, count: int = 16):
    """(kind, fn, route, basis, z, tol) on unit-size lattices: random ratios
    in random unimodular bases, rotated, with |z| within the shell margin."""
    rng = random.Random(seed)
    for i in range(count):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
        w2 = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi))
        a, b, c, d = rng.choice(((1, 0, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, -3, 1, -2)))
        basis = (a * tau * w2 + b * w2, c * tau * w2 + d * w2)
        delta = abs(w2) * Lattice(tau, 1.0).geometry.delta
        z = rng.uniform(0.2, 0.9) * delta * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        kind, fn = (("wp", wp_lattice), ("wzeta", wzeta_lattice))[i % 2]
        yield kind, fn, ("series", "shell")[i // 2 % 2], basis, z, 10.0 ** rng.uniform(-12.0, -5.0)


class TestScale:
    """wp(lambda L, lambda z) = lambda^-2 wp(L, z) and wzeta(lambda L, lambda z)
    = lambda^-1 wzeta(L, z); every lattice is evaluated at unit scale."""

    @pytest.mark.parametrize("k", [-1000, -500, -100, 100, 500, 1000])
    def test_power_of_two_scale(self, k):
        # at lambda = 2**k the result is the unit one times lambda^-w, bit for
        # bit, wherever that and the tolerance stay normal; otherwise it is
        # sound, or PrecisionError names the scale
        import mpmath as mp

        for kind, fn, route, basis, z, tol in _scaled_requests(k):
            w = 2 if kind == "wp" else 1
            with mp.workdps(30):
                scaled_tol = min(max(float(mp.ldexp(tol, -w * k)), math.ulp(0.0)), sys.float_info.max)
            big = Lattice(*(complex(math.ldexp(x.real, k), math.ldexp(x.imag, k)) for x in basis))
            zk = complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
            try:
                unit = fn(Lattice(*basis), z, tol, route=route)
            except PrecisionError:
                with pytest.raises(PrecisionError):
                    fn(big, zk, scaled_tol, route=route)
                continue
            with mp.workdps(30):
                # the unit result times lambda^-w, exactly
                parts = [mp.ldexp(x, -w * k) for x in (unit.value.real, unit.value.imag, unit.error)]
            exact_tol = math.ldexp(scaled_tol, w * k) == tol
            normal = exact_tol and all(y == 0 or sys.float_info.min <= abs(y) <= sys.float_info.max for y in parts)
            try:
                cv = fn(big, zk, scaled_tol, route=route)
            except PrecisionError as exc:
                # the result leaves the float range, or the shell route cannot
                # reach a tolerance that itself left it
                overflow = "scaled by 2**" in str(exc) and max(map(abs, parts)) > sys.float_info.max
                assert overflow or (route == "shell" and not exact_tol), (kind, route, k, str(exc))
                continue
            if normal:
                assert (cv.value, cv.error) == (complex(*map(float, parts[:2])), float(parts[2])), (kind, route, k, basis, z)
            else:
                oracle = mp_wp_mpc if kind == "wp" else mp_wzeta_mpc
                with mp.workdps(30):
                    truth = mp_lattice(oracle, big.omega1, big.omega2, zk, rows=12, dps=30)
                    assert abs(mp.mpc(cv.value) - truth) <= cv.error, (kind, route, k, basis, z)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_decimal_scale_is_sound(self, scale):
        import mpmath as mp

        for kind, fn, route, basis, z, tol in _scaled_requests(int(math.log10(scale)) + 7, 8):
            w = 2 if kind == "wp" else 1
            big = Lattice(*(x * scale for x in basis))
            with mp.workdps(30):
                scaled_tol = min(max(float(mp.mpf(tol) / mp.mpf(scale) ** w), math.ulp(0.0)), sys.float_info.max)
            try:
                cv = fn(big, z * scale, scaled_tol, route=route)
            except PrecisionError as exc:
                assert "scaled by 2**" in str(exc) or route == "shell", (kind, route, scale)
                continue
            oracle = mp_wp_mpc if kind == "wp" else mp_wzeta_mpc
            with mp.workdps(30):
                truth = mp_lattice(oracle, big.omega1, big.omega2, z * scale, rows=12, dps=30)
                assert abs(mp.mpc(cv.value) - truth) <= cv.error, (kind, route, scale, basis, z)


class TestStripPreconditions:
    def test_flat_ratio_rejected(self):
        with pytest.raises(DomainError):
            wp_strip(0.2 + 0.3j, 0.1, 1e-8)

    def test_wide_point_rejected(self):
        with pytest.raises(DomainError):
            z_strip(1j, 0.1 + 0.9j, 1e-8)


class TestShellSumEdges:
    def test_zero_shells(self):
        total, rounding = shell_sum(Lattice(1j, 1.0), 0.3, (0, 0))
        assert total == 0 and rounding == 0.0

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            shell_sum(Lattice(1j, 1.0), 0.3, (5, 5), "sigma")

    def test_negative_count(self):
        with pytest.raises(DomainError):
            shell_sum(Lattice(1j, 1.0), 0.3, (-1, 2))

    @pytest.mark.parametrize("box", [(2.5, 3), ("2", 3), (True, 3), (2, 3.0)])
    def test_half_widths_must_be_integers(self, box):
        # as ModularMatrix and as_rational: no float, string or bool is read as an int
        with pytest.raises(DomainError, match="integers"):
            shell_sum(Lattice(1j, 1.0), 0.3, box)

    def test_point_outside_margin(self):
        # the rounding bound needs |z| <= delta, as the planner does
        with pytest.raises(DomainError):
            shell_sum(Lattice(1j, 1.0), 1.2, (5, 5))

    def test_box_outside_kernel_range(self):
        # the planner refuses this box; a direct call refuses it the same way,
        # before the kernel overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="float range"):
                shell_sum(Lattice(1e60j, 1e60), 3e59, (1, 1), "wp")


class TestMiscValidation:
    def test_row_sum_domain(self):
        with pytest.raises(DomainError):
            lattice_row_sum_enclosure(2, 1j)
        with pytest.raises(DomainError):
            lattice_row_sum_enclosure(3, 1.0 - 1j)

    def test_group_sampler_budget(self):
        import random

        with pytest.raises(DomainError):
            random_in_group(random.Random(0), lambda m: False, max_tries=25)

    def test_slash_requires_upper_half_plane(self):
        from weierforms import IDENTITY

        with pytest.raises(DomainError):
            slash(lambda w, t: None, 2, IDENTITY, 1.0 - 2j)

    def test_run_suite_tolerance_floor(self):
        # no tolerance floor: every certificate of the suite holds at 1e-15
        from weierforms import run_suite

        assert run_suite("cusp-f", tol=1e-15).ok

    def test_fraction_label_level(self):
        from weierforms import RationalPair

        assert RationalPair.of(Fraction(1, 6), Fraction(3, 4)).level() == 12
        assert RationalPair.of(0, Fraction(1, 2)).level() == 2
