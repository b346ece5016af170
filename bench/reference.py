"""Independent mpmath references for the certified evaluators.

The construction is the row-summed series used by the test oracles: reduce
tau to the fundamental domain with exact integer bookkeeping, reduce the
point into the period cell, and sum the closed trigonometric row forms.  It
runs at REF_DPS digits with REF_ROWS rows.  After reduction Im tau_r >=
sqrt(3)/2, so row c of the series is below exp(-2 pi Im tau_r (c - 1/2))
and the truncation error at 25 rows is far below 1e-50 relative.

Every value is memoized on its exact inputs, so an operation list that is
checked after each pass pays for its references once.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

REF_DPS = 30
REF_ROWS = 25


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def _frac(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def _cot(w):
    """cot(w), direct near the real axis and through u = exp(+-2iw) further out."""
    if abs(w.imag) < 1:
        return mp.cot(w)
    if w.imag > 0:
        u = mp.exp(2j * w)
        return -1j * (1 + u) / (1 - u)
    u = mp.exp(-2j * w)
    return 1j * (1 + u) / (1 - u)


class _TauRef:
    """wp / wzeta on tau*Z + Z for one tau, through the reduced ratio.

    For a reduced point w (|Im w| <= Im(tau_r)/2) and row k >= 1 the row
    terms use u = e(w + k tau_r) = E q^k and v = e(-(w - k tau_r)) = q^k / E
    with E = e(w), q = e(tau_r); both have modulus <= exp(-pi Im tau_r), so
    1/sin^2(pi x) = -4u/(1-u)^2 and cot(pi x) = -+i(1+u)/(1-u) carry no
    cancellation.  That is the oracle's exponential branch, with the
    exponentials formed by multiplication.

    The constant parts use the Lambert series S = sum_k q^k/(1-q^k)^2 =
    sum_n sigma(n) q^n: the rows' 1/sin^2(pi k tau_r) terms sum to -4S, and
    the quasi-periods come from a different formula than the program's wzeta
    differences: eta2 = (pi^2/3)(1 - 24 S) = (pi^2/3) E2(tau_r), and
    Legendre's relation eta1 = tau_r eta2 - 2 pi i.
    """

    def __init__(self, tau):
        a, b, c, d = 1, 0, 0, 1
        t = tau
        for _ in range(100_000):
            n = int(mp.nint(t.real))
            if n:
                t -= n
                a, b, c, d = a - n * c, b - n * d, c, d
            if abs(t) < 1:
                t = -1 / t
                a, b, c, d = -c, -d, a, b
            else:
                break
        else:
            raise ArithmeticError(f"reference tau reduction did not converge for {tau}")
        self.matrix = (a, b, c, d)
        self.j1 = c * tau + d
        self.tau_r = (a * tau + b) / self.j1
        q = mp.expjpi(2 * self.tau_r)
        self._qk = [q]
        for _ in range(REF_ROWS - 1):
            self._qk.append(self._qk[-1] * q)
        lambert = mp.fsum(_SIGMA1[k] * qk for k, qk in enumerate(self._qk, 1))
        self._sin2_sum = -4 * lambert
        eta2 = mp.pi**2 / 3 * (1 - 24 * lambert)
        self.eta_r = (self.tau_r * eta2 - 2j * mp.pi, eta2)

    def eta12(self):
        """(eta1, eta2) of tau*Z + Z: the basis (tau, 1) is j1 (d tau_r - b,
        -c tau_r + a), and quasi-periods are additive in the period."""
        a, b, c, d = self.matrix
        e1, e2 = self.eta_r
        return (d * e1 - b * e2) / self.j1, (-c * e1 + a * e2) / self.j1

    def _reduce(self, z):
        zz = z / self.j1
        m = int(mp.nint(zz.imag / self.tau_r.imag))
        z0 = zz - m * self.tau_r
        n = int(mp.nint(z0.real))
        return z0 - n, m, n

    def wp(self, z):
        z0, _, _ = self._reduce(z)
        e = mp.expjpi(2 * z0)
        e_inv = 1 / e
        rows = 0
        for qk in self._qk:
            u = e * qk
            v = e_inv * qk
            rows += u / (1 - u) ** 2 + v / (1 - v) ** 2
        acc = 1 / mp.sin(mp.pi * z0) ** 2 - mp.mpf(1) / 3 - 4 * rows - 2 * self._sin2_sum
        return mp.pi**2 * acc / self.j1**2

    def wzeta(self, z):
        z0, m, n = self._reduce(z)
        pi = mp.pi
        e = mp.expjpi(2 * z0)
        e_inv = 1 / e
        rows = 0
        for qk in self._qk:
            # cot(pi(z0 - k tau_r)) + cot(pi(z0 + k tau_r)) = -2i (1/(1-u) - 1/(1-v))
            u = e * qk
            v = e_inv * qk
            rows += 1 / (1 - u) - 1 / (1 - v)
        val = pi * _cot(pi * z0) + pi**2 / 3 * z0 - 2j * pi * rows + 2 * pi**2 * z0 * self._sin2_sum
        if m or n:
            val += m * self.eta_r[0] + n * self.eta_r[1]
        return val / self.j1


_SIGMA1 = [0] + [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, REF_ROWS + 1)]


class Reference:
    """Memoized reference values; every public method takes the operation's
    own inputs (floats as the program receives them, labels as exact
    fractions) and returns an mpc, or a tuple of them for eta12."""

    def __init__(self):
        self._taus: dict = {}
        self._values: dict = {}

    def _tau(self, tau: complex) -> _TauRef:
        ref = self._taus.get(tau)
        if ref is None:
            with mp.workdps(REF_DPS):
                ref = self._taus[tau] = _TauRef(_mpc(tau))
        return ref

    def _memo(self, key, compute):
        val = self._values.get(key)
        if val is None:
            with mp.workdps(REF_DPS):
                val = self._values[key] = compute()
        return val

    def wp(self, tau: complex, z: complex):
        return self._memo(("wp", tau, z), lambda: self._tau(tau).wp(_mpc(z)))

    def wzeta(self, tau: complex, z: complex):
        return self._memo(("wzeta", tau, z), lambda: self._tau(tau).wzeta(_mpc(z)))

    def _basis(self, omega1: complex, omega2: complex):
        # orientation as the Lattice constructor applies it: Im(omega1/omega2) > 0
        w1, w2 = _mpc(omega1), _mpc(omega2)
        if (w1 / w2).imag < 0:
            w1, w2 = w2, w1
        return w1, w2

    def wp_lattice(self, omega1: complex, omega2: complex, z: complex):
        def compute():
            w1, w2 = self._basis(omega1, omega2)
            return _TauRef(w1 / w2).wp(_mpc(z) / w2) / w2**2

        return self._memo(("wp_lattice", omega1, omega2, z), compute)

    def wzeta_lattice(self, omega1: complex, omega2: complex, z: complex):
        def compute():
            w1, w2 = self._basis(omega1, omega2)
            return _TauRef(w1 / w2).wzeta(_mpc(z) / w2) / w2

        return self._memo(("wzeta_lattice", omega1, omega2, z), compute)

    def eta12(self, tau: complex):
        return self._memo(("eta12", tau), lambda: self._tau(tau).eta12())

    def g(self, s: Fraction, t: Fraction, tau: complex):
        """wzeta(tau, s*tau + t) at the exact torsion point."""

        def compute():
            return self._tau(tau).wzeta(_frac(s) * _mpc(tau) + _frac(t))

        return self._memo(("g", s, t, tau), compute)

    def f(self, s: Fraction, t: Fraction, tau: complex):
        """wp(tau, s*tau + t) at the exact torsion point."""

        def compute():
            return self._tau(tau).wp(_frac(s) * _mpc(tau) + _frac(t))

        return self._memo(("f", s, t, tau), compute)


def excess(value: complex, error: float, ref) -> float:
    """|value - ref| - error, evaluated at reference precision.

    Positive exactly when the certificate excludes the reference.
    """
    with mp.workdps(REF_DPS):
        return float(abs(_mpc(value) - ref) - mp.mpf(error))
