"""Independent brute-force references for the lattice functions.

These sum the plain two-term/three-term groupings (1/(z-w)^2 - 1/w^2 and
1/(z-w) + 1/w + z/w^2) over a full square block in row-major order, which is
a different algebraic arrangement and a different summation order from both
production routes.  Slow; meant for small cross-check grids.

GOLDEN holds values frozen from runs of these oracles at block radius 10^4
(recorded before the evaluators were built).  Their truncation error is
below 5e-8 on every entry.
"""

from __future__ import annotations

import numpy as np

BRUTE_RADIUS = 10_000
GOLDEN_BAND = 5e-8

GOLDEN = {
    # lattice Z + iZ (generators i, 1)
    "wp_square_half": 6.875185815520622,  # wp(Z+iZ, 1/2), real
    "wp_square_half_period_mod": 5.1e-9,  # |wp(Z+iZ, (1+i)/2)|; exact value is 0
    "wzeta_square_half": 1.570796327211522,  # wzeta(Z+iZ, 1/2); analytic pi/2
    "wzeta_square_third": 2.881319985196993,  # wzeta(Z+iZ, 1/3)
    "wzeta_square_two_thirds": 0.26027266950380024,  # wzeta(Z+iZ, 2/3)
    # 2*wzeta(i,1/3) - wzeta(i,2/3), from the two rows above
    "h2_third_at_i": 5.5023673008901858,
}


def brute_wp(w1: complex, w2: complex, z: complex, radius: int = 700, chunk: int = 64) -> complex:
    z, w1, w2 = complex(z), complex(w1), complex(w2)
    total = 0.0 + 0.0j
    d = np.arange(-radius, radius + 1)
    for c0 in range(-radius, radius + 1, chunk):
        cs = np.arange(c0, min(c0 + chunk, radius + 1))
        grid_c, grid_d = np.meshgrid(cs, d, indexing="ij")
        w = grid_c * w1 + grid_d * w2
        w = w[(grid_c != 0) | (grid_d != 0)]
        total += np.sum(1.0 / (z - w) ** 2 - 1.0 / w**2)
    return 1.0 / z**2 + total


def mp_wp(tau, z, rows: int = 60, dps: int = 40, period=1):
    """40-digit evaluation of wp on tau*Z + Z via the row-summed series.

    Precision oracle only: the series shape itself is validated against the
    block sums above (different algebra, binary64).  Reduces tau/z first with
    exact integer bookkeeping so any input in the upper half plane works.
    With ``period`` the lattice is period*(tau*Z + Z) (see :func:`mp_lattice`).
    """
    return complex(mp_wp_mpc(tau, z, rows, dps, period))


def mp_wp_mpc(tau, z, rows: int = 60, dps: int = 40, period=1):
    """:func:`mp_wp` as an mpmath number of dps digits, not rounded to binary64."""
    import mpmath as mp

    with mp.workdps(dps):
        tau = mp.mpc(tau)
        z = mp.mpc(z)
        tau_r, j1 = _mp_reduce_tau(tau, mp)
        j1 *= mp.mpc(period)
        z = z / j1
        m = int(mp.nint(mp.im(z) / mp.im(tau_r)))
        z = z - m * tau_r
        n = int(mp.nint(mp.re(z)))
        z = z - n
        pi = mp.pi
        acc = 1 / mp.sin(pi * z) ** 2 - mp.mpf(1) / 3
        for c in range(1, rows + 1):
            acc += (
                _mp_inv_sin2(pi * (z - c * tau_r), mp)
                + _mp_inv_sin2(pi * (z + c * tau_r), mp)
                - 2 * _mp_inv_sin2(pi * (c * tau_r), mp)
            )
        return pi**2 * acc / j1**2


def mp_wzeta(tau, z, rows: int = 60, dps: int = 40, period=1):
    """40-digit wzeta companion of :func:`mp_wp` (same caveats)."""
    return complex(mp_wzeta_mpc(tau, z, rows, dps, period))


def mp_wzeta_mpc(tau, z, rows: int = 60, dps: int = 40, period=1):
    """:func:`mp_wzeta` as an mpmath number of dps digits, not rounded to binary64."""
    import mpmath as mp

    with mp.workdps(dps):
        tau = mp.mpc(tau)
        z = mp.mpc(z)
        tau_r, j1 = _mp_reduce_tau(tau, mp)
        j1 *= mp.mpc(period)
        zz = z / j1
        m = int(mp.nint(mp.im(zz) / mp.im(tau_r)))
        z0 = zz - m * tau_r
        n = int(mp.nint(mp.re(z0)))
        z0 = z0 - n

        def zeta_strip(w):
            pi = mp.pi
            acc = pi * _mp_cot(pi * w, mp) + pi**2 / 3 * w
            for c in range(1, rows + 1):
                acc += pi * (
                    _mp_cot(pi * (w - c * tau_r), mp) + _mp_cot(pi * (w + c * tau_r), mp)
                ) + 2 * pi**2 * w * _mp_inv_sin2(pi * (c * tau_r), mp)
            return acc

        base = zeta_strip(z0)
        if m or n:
            p1 = mp.mpf(1) / 4 - tau_r / 2
            eta1 = zeta_strip(p1 + tau_r) - zeta_strip(p1)
            p2 = mp.mpf("0.21") + mp.mpf("0.13") * mp.mpc(0, 1)
            eta2 = zeta_strip(p2 + 1) - zeta_strip(p2)
            base = base + m * eta1 + n * eta2
        return base / j1


def mp_torsion_point(s, t, tau, dps: int = 40):
    """The torsion point s*tau + t of exact rationals s, t, formed in dps digits."""
    import mpmath as mp

    with mp.workdps(dps):
        return mp.mpf(s.numerator) / s.denominator * mp.mpc(tau) + mp.mpf(t.numerator) / t.denominator


def mp_lattice(oracle, omega1, omega2, z, rows: int = 60, dps: int = 40):
    """``oracle`` (mp_wp or mp_wzeta) on omega1*Z + omega2*Z, by homogeneity.

    The ratio omega1/omega2 and z/omega2 are formed in dps digits, so the
    only binary64 rounding is that of the returned value.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return oracle(mp.mpc(omega1) / mp.mpc(omega2), z, rows, dps, period=omega2)


def mp_eta12(tau, rows: int = 60, dps: int = 40, z=0.125 + 0.0625j):
    """(eta1, eta2) of tau*Z + Z as differences of :func:`mp_wzeta` values.

    z + tau and z + 1 are formed in dps digits, so the only binary64
    rounding is that of the three wzeta values and of the two differences.
    """
    import mpmath as mp

    with mp.workdps(dps):
        w = mp.mpc(z)
        base = mp_wzeta(tau, w, rows, dps)
        return (
            mp_wzeta(tau, w + mp.mpc(tau), rows, dps) - base,
            mp_wzeta(tau, w + 1, rows, dps) - base,
        )


def _mp_reduce_tau(tau, mp):
    a, b, c, d = 1, 0, 0, 1
    t = tau
    for _ in range(10_000):
        n = int(mp.nint(mp.re(t)))
        if n != 0:
            t = t - n
            a, b, c, d = a - n * c, b - n * d, c, d
        if mp.fabs(t) < 1:
            t = -1 / t
            a, b, c, d = -c, -d, a, b
        else:
            break
    j1 = c * tau + d
    return (a * tau + b) / j1, j1


def _mp_inv_sin2(w, mp):
    if abs(mp.im(w)) < 1:
        return 1 / mp.sin(w) ** 2
    u = mp.exp(2j * (w if mp.im(w) > 0 else -w))
    return -4 * u / (1 - u) ** 2


def _mp_cot(w, mp):
    if abs(mp.im(w)) < 1:
        # not mp.cot: in mpmath 1.3.0 it is off by up to 5e-10 within about
        # 10**-dps of its zeros w = pi/2 + k pi, where half-period points land
        return mp.cos(w) / mp.sin(w)
    if mp.im(w) > 0:
        u = mp.exp(2j * w)
        return -1j * (1 + u) / (1 - u)
    u = mp.exp(-2j * w)
    return 1j * (1 + u) / (1 - u)


def brute_wzeta(w1: complex, w2: complex, z: complex, radius: int = 700, chunk: int = 64) -> complex:
    z, w1, w2 = complex(z), complex(w1), complex(w2)
    total = 0.0 + 0.0j
    d = np.arange(-radius, radius + 1)
    for c0 in range(-radius, radius + 1, chunk):
        cs = np.arange(c0, min(c0 + chunk, radius + 1))
        grid_c, grid_d = np.meshgrid(cs, d, indexing="ij")
        w = grid_c * w1 + grid_d * w2
        w = w[(grid_c != 0) | (grid_d != 0)]
        total += np.sum(1.0 / (z - w) + 1.0 / w + z / w**2)
    return 1.0 / z + total
