"""Certificate honesty: the certified disc must contain the true value.

Ground truth comes from a 40-digit implementation of the row-summed series
(tests/oracles.py), whose formula is itself validated against independent
block sums in binary64.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from weierforms import (
    Lattice,
    PrecisionError,
    RationalPair,
    eta12,
    eval_f,
    eval_g,
    eval_h,
    eval_hU,
    wp,
    wp_lattice,
    wzeta,
    wzeta_lattice,
)
from weierforms import trig
from weierforms.lattice import reduce_lattice
from weierforms.shells import plan_shell, shell_route

from oracles import mp_eta12, mp_lattice, mp_torsion_point, mp_wp, mp_wp_mpc, mp_wzeta, mp_wzeta_mpc

POINTS = [
    (1j, 0.5),
    (1j, 0.5 + 0.5j),
    (0.3 + 1.4j, 0.21 + 0.2j),
    (2j, -0.45 + 0.83j),
    (20j, 0.5),
    (20j, 10j),            # far from the lattice in a long cell
    (0.25 + 4e-4j, 0.1 + 1e-4j),  # nearly degenerate ratio
    (-0.5 + 0.866j, 0.31 - 0.12j),
    (50j, 25.0j + 0.5),           # half-period of a very tall cell
]


class TestSeriesCertificates:
    @pytest.mark.parametrize("tau,z", POINTS)
    def test_wp_disc_contains_truth(self, tau, z):
        cv = wp(tau, z, 1e-9)
        truth = mp_wp(tau, z)
        assert abs(cv.value - truth) <= cv.error

    @pytest.mark.parametrize("tau,z", POINTS)
    def test_wzeta_disc_contains_truth(self, tau, z):
        cv = wzeta(tau, z, 1e-9)
        truth = mp_wzeta(tau, z)
        assert abs(cv.value - truth) <= cv.error

    def test_unreduced_points_with_corrections(self):
        tau = 0.4 + 1.1j
        for shift in (3 * tau - 2, -2 * tau + 5, 7.0):
            z = 0.23 + 0.31j + shift
            cv = wzeta(tau, z, 1e-9)
            truth = mp_wzeta(tau, z)
            assert abs(cv.value - truth) <= cv.error


class TestShellCertificates:
    @pytest.mark.parametrize(
        "tau,z",
        [(1j, 0.5), (1j, 0.31 + 0.24j), (2j, 0.45 - 0.3j), (0.5 + 1j, 0.4 + 0.2j)],
    )
    def test_wp_shell_disc_contains_truth(self, tau, z):
        cv = wp_lattice(Lattice(tau, 1.0), z, 1e-5, route="shell")
        truth = mp_wp(tau, z)
        assert abs(cv.value - truth) <= cv.error

    @pytest.mark.parametrize("tau,z", [(1j, 0.5), (2j, 0.45 - 0.3j)])
    def test_wzeta_shell_disc_contains_truth(self, tau, z):
        cv = wzeta_lattice(Lattice(tau, 1.0), z, 1e-5, route="shell")
        truth = mp_wzeta(tau, z)
        assert abs(cv.value - truth) <= cv.error


class TestNearFirstShell:
    """Forced shell route next to a first-shell point w with |w| = delta.

    There z^2 - w^2 cancels, so the first shell must be summed in the form
    (z - w)(z + w); the bulk form there gives certificates that exclude the
    truth on this grid.
    """

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-5])
    @pytest.mark.parametrize("tau", [1j, 2j])
    def test_certificates_contain_oracle(self, tau, eps):
        lat = Lattice(tau, 1.0)
        delta = reduce_lattice(lat).basis.geometry.delta
        shell = [c * tau + d for c in (-1, 0, 1) for d in (-1, 0, 1) if c or d]
        nearest = [w for w in shell if abs(abs(w) - delta) <= 1e-12 * delta]
        assert len(nearest) == (4 if tau == 1j else 2)
        for w in nearest:
            z = w * (1.0 - eps) + 0.3j * eps * w
            for fn, oracle in ((wp_lattice, mp_wp), (wzeta_lattice, mp_wzeta)):
                truth = oracle(tau, z, rows=12, dps=30)
                try:
                    cv = fn(lat, z, 1e-4, route="shell")
                except PrecisionError:
                    # the rounding of a summand of size ~1/eps^2 may exceed tol
                    assert eps < 1e-3, (tau, z, fn.__name__)
                    continue
                assert abs(cv.value - truth) <= cv.error, (tau, z, fn.__name__)


class TestRandomizedCertificates:
    def test_series_certificates_randomized(self):
        rng = random.Random(424242)
        for _ in range(60):
            tau = complex(rng.uniform(-2.5, 2.5), rng.uniform(0.05, 6.0))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            lat = Lattice(tau, 1.0)
            red = reduce_lattice(lat, z)
            if abs(red.point) < 0.02 * red.basis.geometry.delta:
                continue  # too close to the pole for a meaningful check
            cv = wp(tau, z, 1e-8)
            truth = mp_wp(tau, z)
            assert abs(cv.value - truth) <= cv.error, (tau, z)
            cz = wzeta(tau, z, 1e-8)
            truthz = mp_wzeta(tau, z)
            assert abs(cz.value - truthz) <= cz.error, (tau, z)


class TestShellSoundnessGrid:
    """Forced shell route against the 30-digit oracle over cell shapes and offsets.

    Tall cells sum one line (c_max = 0), square ones a few; the offsets reach
    the margin |z| = delta, the largest |z| the route accepts.
    """

    OFFSETS = [(rho, 0.3 + k * math.pi / 4) for k, rho in enumerate((0.2, 0.45, 0.7, 1.0) * 2)]
    TOLS = (1e-3, 1e-4, 1e-5, 1e-6)

    @pytest.mark.parametrize("re_tau", [0.0, 0.5, -0.5])
    @pytest.mark.parametrize("im_tau", [0.87, 2.0, 5.0, 20.0, 50.0])
    def test_shell_certificates_contain_oracle(self, im_tau, re_tau):
        tau = complex(re_tau, im_tau)
        lat = Lattice(tau, 1.0)
        # the shell constant of the reduced basis, at the caller's scale
        red = reduce_lattice(lat)
        delta = math.ldexp(red.basis.geometry.delta, red.k)
        for k, (rho, theta) in enumerate(self.OFFSETS):
            z = rho * delta * cmath.exp(1j * theta)
            for j, (kind, fn, oracle) in enumerate(
                (("wp", wp_lattice, mp_wp), ("wzeta", wzeta_lattice, mp_wzeta))
            ):
                tol = self.TOLS[(j - k) % 4]
                cv = fn(lat, z, tol, route="shell")
                # Im of the reduced ratio is >= sqrt(3)/2: 12 rows reach 1e-30
                truth = oracle(tau, z, rows=12, dps=30)
                assert abs(cv.value - truth) <= cv.error, (tau, z, kind, tol)
                assert cv.error <= tol


class TestShellOracleGrid:
    """Seeded random cases of the forced shell route against the 50-digit oracle.

    Reduced bases and the non-reduced (1 + 1.5i, 1), which ``shell_route``
    takes as given (``plan_truncation`` is public); |z| up to 0.999 delta and
    tol from 1e-5 to 1e-12.  A slack certificate would not show here; an
    unsound one would.
    """

    BASES = [
        (1j, 1.0),
        (0.5 + 0.5j * math.sqrt(3.0), 1.0),
        (0.3 + 1.1j, 1.0),
        (20j, 1.0),
        (-0.2 + 2.5j, 1.0),
        (1 + 1.5j, 1.0),
    ]

    def test_certificates_contain_oracle(self):
        import mpmath as mp

        rng = random.Random(2501)
        for i in range(60):
            lat = Lattice(*self.BASES[i % len(self.BASES)])
            kind, oracle = (("wp", mp_wp_mpc), ("wzeta", mp_wzeta_mpc))[i // len(self.BASES) % 2]
            frac = rng.choice((0.999, rng.uniform(0.2, 0.999)))
            z = frac * lat.geometry.delta * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            tol = 10.0 ** rng.uniform(-12.0, -5.0)
            cv = shell_route(lat, z, tol, kind)
            with mp.workdps(50):
                miss = abs(mp.mpc(cv.value) - mp_lattice(oracle, lat.omega1, lat.omega2, z, dps=50))
            assert miss <= cv.error <= tol, (lat, z, kind, tol)

    def test_plans_at_the_floor_are_small(self):
        # the partial lines closed by Euler-Maclaurin keep every box at tol 1e-12
        # within 2,000 points, on the reduced bases of this grid and the soundness grid
        grid = [(complex(re, im), 1.0) for re in (0.0, 0.5, -0.5) for im in (0.87, 2.0, 5.0, 20.0, 50.0)]
        for basis in self.BASES + grid:
            lat = reduce_lattice(Lattice(*basis)).basis
            for frac in (0.2, 0.45, 0.7, 0.999):
                for k in range(8):
                    z = frac * lat.geometry.delta * cmath.exp(1j * (0.3 + k * math.pi / 4))
                    for kind in ("wp", "wzeta"):
                        assert plan_shell(lat, z, 1e-12, kind).point_count <= 2000, (basis, frac, k, kind)


class TestSmallImTauGrid:
    """The four evaluators and eta12 at tol 1e-8 with Im tau in [1e-3, 1e-2], against the oracle.

    There the reduction matrices have entries in the hundreds, so the ratio,
    the scale and the point must come from one exact reduction: rounding
    c*tau + d, tau_r, z/jj and the period-cell steps one by one in binary64
    leaves 45 of these 128 certificates excluding the truth, by up to 1.3e3
    times their radius.
    """

    def test_certificates_contain_oracle(self):
        rng = random.Random(11)

        def coord() -> float:
            # a lattice coordinate in [-2, 2] at least 0.05 from the integers
            return rng.randint(-2, 1) + rng.uniform(0.05, 0.95)

        cases = 32
        for k in range(cases):
            tau = complex(rng.uniform(-1.5, 1.5), 10.0 ** (-3.0 + (k + rng.random()) / cases))
            z = coord() * tau + coord()
            # the same lattice rotated, scaled and given in a unimodular basis
            w2 = cmath.rect(2.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            a, b, c, d = rng.choice(((1, 0, 0, 1), (0, -1, 1, 0), (2, 1, 1, 1), (1, -3, 1, -2)))
            lat = Lattice(a * tau * w2 + b * w2, c * tau * w2 + d * w2)
            zl = (coord() * tau + coord()) * w2
            eta1, eta2 = eta12(tau, 1e-8)
            truth1, truth2 = mp_eta12(tau, rows=8, dps=30)
            checks = {
                "eta1": (eta1, truth1),
                "eta2": (eta2, truth2),
                "wp": (wp(tau, z, 1e-8), mp_wp(tau, z, rows=8, dps=30)),
                "wzeta": (wzeta(tau, z, 1e-8), mp_wzeta(tau, z, rows=8, dps=30)),
                "wp_lattice": (
                    wp_lattice(lat, zl, 1e-8),
                    mp_lattice(mp_wp, lat.omega1, lat.omega2, zl, rows=8, dps=30),
                ),
                "wzeta_lattice": (
                    wzeta_lattice(lat, zl, 1e-8),
                    mp_lattice(mp_wzeta, lat.omega1, lat.omega2, zl, rows=8, dps=30),
                ),
            }
            for name, (cv, truth) in checks.items():
                assert abs(cv.value - truth) <= cv.error, (name, tau, z, lat, zl)


def _torsion_g(p, tau):
    """g_p(tau) = wzeta(tau, s*tau + t) at the exact torsion point, 30 digits."""
    return mp_wzeta_mpc(tau, mp_torsion_point(p.s, p.t, tau, 30), rows=8, dps=30)


def _assert_contains(cv, truth, *context):
    """cv's certified disc contains the 30-digit mpmath value truth."""
    import mpmath as mp

    with mp.workdps(30):
        err = abs(mp.mpc(cv.value) - truth)
    assert err <= cv.error, (context, float(err), cv.error)


# every half-period label and some shifted ones
HALF_PERIODS = [
    RationalPair.of(Fraction(s, 2), Fraction(t, 2)) for s, t in ((1, 0), (0, 1), (1, 1), (-1, 3))
]


def _label(rng: random.Random, level: int, span: int = 2) -> RationalPair:
    """A nonintegral label of level dividing ``level`` with s, t in [-span, span)."""
    while True:
        p = RationalPair.of(
            Fraction(rng.randrange(-span * level, span * level), level),
            Fraction(rng.randrange(-span * level, span * level), level),
        )
        if not p.is_integral():
            return p


def _im_taus(rng: random.Random, lo: float, hi: float, count: int):
    """count log-stratified values of Im tau in [lo, hi]."""
    return [lo * (hi / lo) ** ((k + rng.random()) / count) for k in range(count)]


class TestExactTorsionPoint:
    """The forms against mpmath at the exact torsion point s*tau + t.

    The labels enter the reduction exactly, so the certificates hold against
    the exact point, where the float point s*tau + t would be off by up to
    about |c| ulps after the reduction at small Im tau.
    """

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_f_and_g_small_im_tau(self, tol):
        rng = random.Random(int(-math.log10(tol)))
        for im in _im_taus(rng, 1e-3, 1e-2, 16):
            tau = complex(rng.uniform(-1.5, 1.5), im)
            p = _label(rng, rng.randint(2, 12))
            truth_f = mp_wp_mpc(tau, mp_torsion_point(p.s, p.t, tau, 30), rows=8, dps=30)
            _assert_contains(eval_f(p, tau, tol), truth_f, "f", tau, p)
            _assert_contains(eval_g(p, tau, tol), _torsion_g(p, tau), "g", tau, p)

    @pytest.mark.parametrize("lo,hi", [(1e-3, 1e-2), (1.0, 20.0)])
    def test_h_and_hU(self, lo, hi):
        import mpmath as mp

        rng = random.Random(int(hi))
        for k, im in enumerate(_im_taus(rng, lo, hi, 16)):
            tau = complex(rng.uniform(-1.5, 1.5), im)
            tol = (1e-8, 1e-10, 1e-12)[k % 3]
            half = HALF_PERIODS[k % 4]
            # r*p a half period, p a half period, and a generic label
            r, p = [(2, _label(rng, 4, 1)), (3, half), (rng.choice((-2, 3, 4)), _label(rng, 5))][k % 3]
            if p.scaled(r).is_integral():
                p = RationalPair.of(Fraction(1, 4), Fraction(1, 4))
            with mp.workdps(30):
                truth = r * _torsion_g(p, tau) - _torsion_g(p.scaled(r), tau)
            _assert_contains(eval_h(r, p, tau, tol), truth, "h", tau, r, p)
            a = half if k % 2 else _label(rng, 6)
            b = HALF_PERIODS[(k + 1) % 4]
            labels = (a, b, RationalPair(-a.s - b.s, -a.t - b.t))
            if labels[2].is_integral():
                labels = (a, RationalPair(-a.s, -a.t))
            with mp.workdps(30):
                truth = sum(_torsion_g(u, tau) for u in labels)
            _assert_contains(eval_hU(labels, tau, tol), truth, "hU", tau, labels)


def _cancelling_root() -> float:
    """y with pi cot(pi i y) + (pi^2/3) i y = 0, i.e. coth(pi y) = (pi/3) y."""
    y = 0.95
    for _ in range(8):
        y -= (1.0 / math.tanh(math.pi * y) - math.pi / 3.0 * y) / (-math.pi / math.sinh(math.pi * y) ** 2 - math.pi / 3.0)
    return y


def _cancels(z0: complex) -> bool:
    """pi cot(pi z0) and (pi^2/3) z0 cancel to below 1e-2 of either."""
    cot = math.pi * cmath.cos(math.pi * z0) / cmath.sin(math.pi * z0)
    lin = math.pi**2 / 3.0 * z0
    return abs(cot + lin) < 1e-2 * min(abs(cot), abs(lin))


class TestCancellingRows:
    """Reduced points z0 near +-0.96i, where the two leading terms of the wzeta
    rows, pi cot(pi z0) and (pi^2/3) z0 = eta2 z0 at leading order, cancel.

    A rounding budget taken from their sum rather than from each term was too
    small there: the first case below was 1.62 times outside its certificate.
    """

    Y = _cancelling_root()
    # reduced ratios with Im tau >= 2 y*, so that z0 lies in the strip
    TAUS = [-0.21585226329754892 + 2.7626061717375263j, 0.5 + 1.95j, -0.31 + 2.2j, 4.5j]
    OFFSETS = [0.0, 0.004 + 0.002j, -0.005 - 0.003j]
    SHIFTS = [(0, 0), (2, -1), (-1, 3)]
    # (s, t, tau) with s*tau + t = i y* up to rounding, s the reduced A-coordinate
    LABELS = [
        (Fraction(2, 5), Fraction(1, 10), complex(-0.25, Y / 0.4)),
        (Fraction(1, 3), Fraction(-1, 10), complex(0.3, 3.0 * Y)),
        (Fraction(-3, 7), Fraction(3, 20), complex(0.35, 7.0 * Y / 3.0)),
    ]

    def _points(self):
        for tau in self.TAUS:
            for sign in (1, -1):
                for off in self.OFFSETS:
                    z0 = sign * (complex(0.0, self.Y) + off)
                    assert _cancels(z0), z0
                    yield tau, z0

    def test_reported_point(self):
        tau, z = -0.21585226329754892 + 2.7626061717375263j, 0.013376411467637548 + 0.9569235330933471j
        cv = wzeta(tau, z, 1e-12)
        assert abs(cv.value - mp_wzeta(tau, z, rows=12, dps=30)) <= cv.error

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_wzeta(self, tol):
        for tau, z0 in self._points():
            for m, n in self.SHIFTS:
                z = z0 + m * tau + n
                cv = wzeta(tau, z, tol)
                assert abs(cv.value - mp_wzeta(tau, z, rows=8, dps=30)) <= cv.error, (tau, z)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_wzeta_lattice(self, tol):
        scale = cmath.rect(0.8, 0.3)
        for tau, z0 in self._points():
            # the basis (tau, 1) and a unimodular image of it, both scaled
            for w1, w2 in ((tau, 1.0), (2.0 * tau + 1.0, tau + 1.0)):
                lat = Lattice(scale * w1, scale * w2)
                z = scale * (z0 - tau + 2.0)
                cv = wzeta_lattice(lat, z, tol)
                truth = mp_lattice(mp_wzeta, lat.omega1, lat.omega2, z, rows=8, dps=30)
                assert abs(cv.value - truth) <= cv.error, (tau, z0, w1, w2)

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_eval_g(self, tol):
        for s, t, tau in self.LABELS:
            assert _cancels(float(s) * tau + float(t)), (s, t, tau)
            for m, n in self.SHIFTS:
                p = RationalPair.of(s + m, t + n)
                _assert_contains(eval_g(p, tau, tol), _torsion_g(p, tau), "g", tau, p)


class TestRowCount:
    """The closed-form row count equals the first hit of a scan from 0 rows."""

    @staticmethod
    def _scan(tail_fn, target):
        for rows in range(trig._MAX_ROWS + 1):
            if tail_fn(rows) <= target:
                return rows
        return None

    @pytest.mark.parametrize("im_tau", [0.87, 1.0, 1.7, 3.3, 7.9, 16.0, 40.0])
    def test_rows_match_the_scan(self, im_tau):
        for frac in (-0.5, -0.31, 0.0, 0.12, 0.5):
            y = frac * im_tau
            tails = {
                "wp": lambda c: trig._wp_tail(im_tau, y, c),
                "eta2": lambda c: 0.5 * trig._wp_tail(im_tau, 0.0, c),
                "z": lambda c: trig._z_tail(im_tau, y, c),
            }
            for exp in range(3, 15):
                for mant in (1.0, 2.5, 7.3):
                    target = 0.5 * mant * 10.0**-exp
                    for kind, tail_fn in tails.items():
                        rows = self._scan(tail_fn, target)
                        got = trig._rows_needed(tail_fn, target, im_tau)
                        assert got == (rows, tail_fn(rows)), (kind, im_tau, y, target)

    @pytest.mark.parametrize("im_tau", [0.87, 1.7, 7.9, 40.0])
    def test_rows_at_the_tails_match_the_scan(self, im_tau):
        # a target at a tail value or next to one puts the closed-form guess
        # next to an integer, and the small tails reach below _NORMAL_TAIL and
        # down to 0: the count is stepped to, and still the first hit of the scan
        for frac in (-0.5, 0.0, 0.31):
            y = frac * im_tau
            for tail_fn in (
                lambda c: trig._wp_tail(im_tau, y, c),
                lambda c: 0.5 * trig._wp_tail(im_tau, 0.0, c),
                lambda c: trig._z_tail(im_tau, y, c),
            ):
                tails = [tail_fn(0)]
                while tails[-1] > 0.0:
                    tails.append(tail_fn(len(tails)))
                for tail in tails:
                    for target in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, math.inf)):
                        rows = next(r for r, t in enumerate(tails) if t <= target)
                        assert trig._rows_needed(tail_fn, target, im_tau) == (rows, tails[rows]), (im_tau, y, target)

    def test_row_cap(self):
        with pytest.raises(PrecisionError, match="does not reach"):
            trig._rows_needed(lambda c: 1.0, 0.5, 1.0)

    def test_out_of_range_guess(self):
        # a guess beyond the cap is clamped to it, where the tail misses the target
        with pytest.raises(PrecisionError, match="does not reach"):
            trig._rows_needed(lambda c: math.exp(-1e-3 * c), 1e-300, 1e-3 / (2.0 * math.pi))
        # a tail that overflows at 0 rows has no guess: the count steps down from the cap
        def tail_fn(c):
            return math.inf if c == 0 else 0.5**c

        rows = self._scan(tail_fn, 1e-3)
        assert trig._rows_needed(tail_fn, 1e-3, 1.0) == (rows, tail_fn(rows)) == (10, 0.5**10)


class TestEtaCertificates:
    """eta12 against differences of mp_wzeta values.

    At tol 1e-8 the tail of the closed eta2 series dominates these
    certificates, and near Re tau = 0 its rows all have one sign, so the
    geometric tail bound is nearly tight (the error is 0.996 of the
    certificate at tau = i).  At 1e-12 the rounding term dominates.
    """

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("tau", [1j, 2j, 5j, 20j, 0.3 + 1.2j, -0.45 + 0.05j])
    def test_eta12_contains_oracle(self, tau, tol):
        for cv, truth in zip(eta12(tau, tol), mp_eta12(tau, rows=12, dps=30)):
            assert abs(cv.value - truth) <= cv.error, (tau, tol, cv, truth)


class TestToleranceFloor:
    """Tolerances at and below 1e-12, requested or handed to the parts as shares."""

    @pytest.mark.parametrize("tol", [1.9e-10, 1.5e-12])
    def test_far_point(self, tol):
        # z = point - 12 A - 15 J: the base value gets tol/2, the quasi-periods tol/108
        tau, z = 1.6 + 0.021j, -2.44 + 1.05j
        cv = wzeta(tau, z, tol, route="series")
        assert abs(cv.value - mp_wzeta(tau, z, rows=12, dps=30)) <= cv.error

    def test_eval_h_parts_below_floor(self):
        tau = 0.3 + 1.2j
        p = RationalPair.of(0, Fraction(1, 3))
        cv = eval_h(2, p, tau, 1e-12)
        g, g2 = (mp_wzeta(tau, float(q.s) * tau + float(q.t), rows=12, dps=30) for q in (p, p.scaled(2)))
        assert abs(cv.value - (2 * g - g2)) <= cv.error

    def test_eval_hU_parts_below_floor(self):
        # the first two points lie outside the reduced period cell
        tau = -0.45 + 0.05j
        labels = [
            RationalPair.of(Fraction(4, 3), Fraction(-5, 4)),
            RationalPair.of(Fraction(-1, 3), Fraction(7, 4)),
            RationalPair.of(-1, Fraction(-1, 2)),
        ]
        cv = eval_hU(labels, tau, 1e-12)
        truth = sum(mp_wzeta(tau, float(u.s) * tau + float(u.t), rows=12, dps=30) for u in labels)
        assert abs(cv.value - truth) <= cv.error

    def test_requested_tol_below_floor(self):
        tau, z = 1.6 + 0.021j, -2.44 + 1.05j
        cv = wzeta(tau, z, 5e-13)
        assert abs(cv.value - mp_wzeta(tau, z, rows=12, dps=30)) <= cv.error

    @pytest.mark.parametrize("tol", [1e-15, 1e-100, 5e-324])
    def test_tolerances_below_reach(self, tol):
        # the series route returns its honestly larger certificate; the forced
        # shell route refuses the tolerance at once, as one it cannot reach
        import mpmath as mp

        tau, z = 0.3 + 0.01j, 0.21 + 0.0043j
        p = RationalPair.of(Fraction(1, 3), Fraction(1, 5))
        with mp.workdps(30):
            h_truth = 2 * _torsion_g(p, tau) - _torsion_g(p.scaled(2), tau)
        calls = {
            "wp": (lambda route: wp(tau, z, tol, route=route), mp_wp_mpc(tau, z, rows=12, dps=30)),
            "wzeta": (lambda route: wzeta(tau, z, tol, route=route), mp_wzeta_mpc(tau, z, rows=12, dps=30)),
            "f": (
                lambda route: eval_f(p, tau, tol, route=route),
                mp_wp_mpc(tau, mp_torsion_point(p.s, p.t, tau, 30), rows=12, dps=30),
            ),
            "h": (lambda route: eval_h(2, p, tau, tol, route=route), h_truth),
        }
        for k, eta in enumerate(mp_eta12(tau, rows=12, dps=30)):
            calls[f"eta{k + 1}"] = (lambda route, k=k: eta12(tau, tol, route=route)[k], eta)
        for name, (call, truth) in calls.items():
            _assert_contains(call("series"), truth, name, tol)
            start = time.perf_counter()
            with pytest.raises(PrecisionError):
                call("shell")
            assert time.perf_counter() - start < 1.0, (name, tol)
