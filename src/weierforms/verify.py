"""Named verification suites: each one checks a family of identities by
rigorous truncated computation and reports per-instance rows.

Suite names are part of the CLI contract:

  lemma-fsta    weight-2 slash covariance under all of SL(2,Z)
  lemma-gsta    weight-1 slash covariance
  defect-gstt   quasi-period defect of g under its stabilizer
  theorem-hrst  slash invariance of the weight-1 combination h
  theorem-hU    slash invariance of zero-sum label sums
  cusp-f        closed cusp values of the weight-2 family
  cusp-h        closed cusp value, phase resolution and boundedness of h
  zeta2         recovery of zeta_R(2) from the s != 0 cusp limit
  eies-bound    the full double sums' enclosures stay below the closed row bound
  identities    zeta-series identity and the Bernoulli bridge

The five agreement suites (lemma-fsta through theorem-hU) compare two
certified values per row: a row passes when the residual |shown - other| is
within the summed certificates plus the suite's slack (1e-9 for the
covariance lemmas, 0 otherwise).  The three cusp suites (cusp-f, cusp-h,
zeta2) read :func:`weierforms.cusp.cusp_report` and make their rows with
:func:`cusp_row`, as the ``table`` command does: a row passes when the value
at tau = iY is within its certificate, the closed value's rounding and the
finite-height gap of the closed cusp value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import CertifiedValue, bernoulli, zeta_even, zeta_even_coefficient, zeta_r_enclosure
from .cusp import (
    CuspValueReport,
    cusp_report,
    cusp_value,
    cusp_value_f_series,
    lattice_row_sum_enclosure,
    lemma_eies_bound,
)
from .errors import DomainError
from .evaluate import DEFAULT_TOL, _check_args, eta12
from .forms import (
    IDENTITY,
    S_MATRIX,
    T_MATRIX,
    FormSpec,
    RationalPair,
    defect_coefficients,
    eval_f,
    eval_g,
    eval_h,
    eval_hU,
    gamma_st_contains,
    pair_act,
    principal_congruence_contains,
    random_in_group,
    random_sl2,
    slash,
)

__all__ = ["VerifyRow", "SuiteReport", "SUITES", "run_suite", "cusp_row"]

_SQRT3_PI = math.sqrt(3.0) * math.pi
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class VerifyRow:
    id: str
    inputs: dict
    value: complex | None
    error: float | None
    bound: float | None
    residual: float | None
    status: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    rows: tuple[VerifyRow, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def failed(self) -> int:
        return len(self.rows) - self.passed

    @property
    def ok(self) -> bool:
        return self.failed == 0


def format_complex(z: complex) -> str:
    """Round-trip text form re+imi with shortest repr digits."""
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _random_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 5.0))


_DENOMS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def _random_label(rng: random.Random) -> RationalPair:
    while True:
        qs = rng.choice(_DENOMS)
        qt = rng.choice(_DENOMS)
        p = RationalPair(Fraction(rng.randrange(qs), qs), Fraction(rng.randrange(qt), qt))
        if not p.is_integral():
            return p


# ---------------------------------------------------------------------------
# agreement suites


def _agreement(
    id: str, inputs: dict, shown: CertifiedValue, other: CertifiedValue, slack: float = 0.0
) -> VerifyRow:
    """Row stating that two certified values agree: the residual |shown - other|
    is within the summed certificates plus ``slack``."""
    error = shown.error + other.error
    bound = error + slack
    residual = abs(shown.value - other.value)
    return VerifyRow(
        id=id,
        inputs=inputs,
        value=shown.value,
        error=error,
        bound=bound,
        residual=residual,
        status="pass" if residual <= bound else "fail",
    )


def _covariance_suite(name: str, weight: int, seed: int, tol: float) -> SuiteReport:
    rng = random.Random(seed)
    tol = min(tol, 1e-9)
    evaluator = eval_f if weight == 2 else eval_g
    rows = []
    for idx in range(200):
        p, mat, tau = _random_label(rng), random_sl2(rng), _random_tau(rng)
        lhs = slash(lambda w, tt: evaluator(p, w, tt), weight, mat, tau, tol)
        rhs = evaluator(pair_act(p, mat), tau, tol)
        inputs = {"p": str(p), "A": str(mat), "tau": format_complex(tau)}
        rows.append(_agreement(f"{name}-{idx:03d}", inputs, lhs, rhs, slack=1e-9))
    return SuiteReport(name, seed, tuple(rows))


def suite_lemma_fsta(seed: int, tol: float) -> SuiteReport:
    return _covariance_suite("lemma-fsta", 2, seed, tol)


def suite_lemma_gsta(seed: int, tol: float) -> SuiteReport:
    return _covariance_suite("lemma-gsta", 1, seed, tol)


def suite_defect_gstt(seed: int, tol: float) -> SuiteReport:
    """g is not invariant under its stabilizer: the defect is u*eta1 + v*eta2
    with exact integers u, v read off the matrix."""
    rng = random.Random(seed)
    tol = min(tol, 1e-9)
    labels = [
        RationalPair.of(0, Fraction(1, 2)),
        RationalPair.of(0, Fraction(1, 3)),
        RationalPair.of(Fraction(1, 2), Fraction(1, 2)),
    ]
    rows = []
    for idx in range(50):
        p = labels[idx % len(labels)]
        mat = random_in_group(rng, lambda m: gamma_st_contains(p, m))
        tau = _random_tau(rng)
        # integral for every element of the stabilizer (gamma_st_contains)
        u, v = defect_coefficients(p, mat)
        lhs = slash(lambda w, tt: eval_g(p, w, tt), 1, mat, tau, tol)
        base = eval_g(p, tau, tol)
        eta1, eta2 = eta12(tau, tol)
        predicted = base + eta1 * int(u) + eta2 * int(v)
        inputs = {"p": str(p), "A": str(mat), "tau": format_complex(tau), "u": int(u), "v": int(v)}
        rows.append(_agreement(f"defect-{idx:03d}", inputs, lhs, predicted))
    return SuiteReport("defect-gstt", seed, tuple(rows))


def suite_theorem_hrst(seed: int, tol: float) -> SuiteReport:
    rng = random.Random(seed)
    tol = min(tol, 1e-9)
    pairs = [
        (2, RationalPair.of(0, Fraction(1, 3))),
        (3, RationalPair.of(0, Fraction(1, 5))),
        (3, RationalPair.of(Fraction(1, 2), 0)),
    ]
    taus = [_random_tau(rng) for _ in range(10)]
    rows = []
    for r, p in pairs:
        # the unslashed side depends on tau only
        rhs_at = [eval_h(r, p, tau, tol) for tau in taus]
        for _ in range(20):
            mat = random_in_group(rng, lambda m: gamma_st_contains(p, m))
            for tau, rhs in zip(taus, rhs_at):
                lhs = slash(lambda w, tt: eval_h(r, p, w, tt), 1, mat, tau, tol)
                inputs = {"r": r, "p": str(p), "A": str(mat), "tau": format_complex(tau)}
                rows.append(_agreement(f"hrst-{len(rows):04d}", inputs, rhs, lhs))
    return SuiteReport("theorem-hrst", seed, tuple(rows))


_HU_LABELS = (
    RationalPair.of(0, Fraction(1, 3)),
    RationalPair.of(0, Fraction(1, 3)),
    RationalPair.of(0, Fraction(-2, 3)),
)


def suite_theorem_hU(seed: int, tol: float) -> SuiteReport:
    rng = random.Random(seed)
    tol = min(tol, 1e-9)
    taus = [_random_tau(rng) for _ in range(10)]
    mats = [
        random_in_group(rng, lambda m: principal_congruence_contains(3, m)) for _ in range(20)
    ]
    labels = ",".join(str(u) for u in _HU_LABELS)
    rhs_at = [eval_hU(_HU_LABELS, tau, tol) for tau in taus]
    rows = []
    for mat in mats:
        for tau, rhs in zip(taus, rhs_at):
            lhs = slash(lambda w, tt: eval_hU(_HU_LABELS, w, tt), 1, mat, tau, tol)
            inputs = {"U": labels, "A": str(mat), "tau": format_complex(tau)}
            rows.append(_agreement(f"hU-{len(rows):04d}", inputs, rhs, lhs))
    return SuiteReport("theorem-hU", seed, tuple(rows))


# ---------------------------------------------------------------------------
# cusp suites
#
# A closed cusp value agrees with the value at iY within the numeric
# certificate, the rounding of the closed value and the finite-height gap
# (``CuspValueReport.bound``).


def cusp_row(id: str, inputs: dict, rep: CuspValueReport, detail: str = "") -> VerifyRow:
    """Row comparing a numeric value at the cusp height with its closed value."""
    return VerifyRow(
        id=id,
        inputs=inputs,
        value=rep.numeric.value,
        error=rep.numeric.error,
        bound=rep.bound,
        residual=rep.residual,
        status="pass" if rep.valid else "fail",
        detail=detail,
    )


def _closed_inputs(rep: CuspValueReport) -> dict:
    return {"form": rep.label, "Y": rep.Y, "closed": format_complex(rep.closed_form)}


_CUSP_F_GRID = (
    (0, Fraction(1, 2)),
    (0, Fraction(1, 3)),
    (0, Fraction(1, 4)),
    (Fraction(1, 2), 0),
    (Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1, 2)),
)


def suite_cusp_f(seed: int, tol: float) -> SuiteReport:
    tol = min(tol, 1e-8)
    reports = [cusp_report(FormSpec.wp_form(s, t), 20.0, tol) for s, t in _CUSP_F_GRID]
    rows = [cusp_row(f"cusp-f-{i}", _closed_inputs(rep), rep) for i, rep in enumerate(reports)]
    return SuiteReport("cusp-f", seed, tuple(rows))


def suite_cusp_h(seed: int, tol: float) -> SuiteReport:
    tol = min(tol, 1e-8)
    rows = []
    notes = []

    # phase resolution: the closed form gives sqrt(3) pi; the alternative
    # candidate -sqrt(3) pi i has the same modulus but is pure imaginary
    rep = cusp_report(FormSpec.h_form(2, 0, Fraction(1, 3)), 20.0, tol)
    numeric = rep.numeric
    d_real = abs(numeric.value - complex(_SQRT3_PI))
    d_imag = abs(numeric.value - complex(0.0, -_SQRT3_PI))
    supported = "sqrt(3)*pi" if d_real < d_imag else "-sqrt(3)*pi*i"
    notes.append(
        f"lattice-sum evaluation supports {supported} for the h[r=2](0,1/3) cusp value; "
        f"|numeric - sqrt3*pi| = {d_real:.3e}, |numeric + sqrt3*pi*i| = {d_imag:.3e}"
    )
    rows.append(cusp_row("cusp-h-phase", _closed_inputs(rep), rep, f"oracle-supported phase: {supported}"))
    rows.append(_modulus_row(rep))

    # closed values across a few s = 0 labels
    for i, (r, t) in enumerate(((3, Fraction(1, 5)), (-1, Fraction(1, 4)), (2, Fraction(2, 7)))):
        rep = cusp_report(FormSpec.h_form(r, 0, t), 20.0, tol)
        rows.append(cusp_row(f"cusp-h-{i}", _closed_inputs(rep), rep))

    # boundedness along the imaginary axis, at the infinite cusp and at the
    # cusps reached by transporting with coset representatives
    reps = (IDENTITY, S_MATRIX, S_MATRIX @ T_MATRIX, S_MATRIX @ T_MATRIX @ T_MATRIX)
    for j, (r, s, t) in enumerate(((2, 0, Fraction(1, 3)), (3, Fraction(1, 2), 0), (3, 0, Fraction(1, 5)))):
        p = RationalPair.of(s, t)
        for k, mat in enumerate(reps):
            values = [
                abs(slash(lambda w, tt: eval_h(r, p, w, tt), 1, mat, complex(0.0, y), tol).value)
                for y in (5.0, 8.0, 12.5, 20.0, 31.0, 50.0)
            ]
            peak = max(values)
            rows.append(
                VerifyRow(
                    id=f"cusp-h-bounded-{j}-{k}",
                    inputs={"r": r, "p": str(p), "rep": str(mat), "Y": "5..50"},
                    value=complex(peak),
                    error=None,
                    bound=50.0,
                    residual=None,
                    status="pass" if peak < 50.0 else "fail",
                    detail="max |(h|rep)(iY)| over the sampled heights",
                )
            )
    return SuiteReport("cusp-h", seed, tuple(rows), tuple(notes))


def _modulus_row(rep: CuspValueReport) -> VerifyRow:
    """| |h(iY)| - sqrt(3) pi | <= |h(iY) - sqrt(3) pi|, so the phase row's
    certificate and gap carry over.  Rounding, u = 2^-53: abs() one ulp of
    |value| (<= 2u), the constant fl(sqrt 3) fl(pi) 3u of it, the subtraction
    u of the residual; taken as 2u |value| + 4u sqrt(3) pi."""
    value = rep.numeric.value
    resid = abs(abs(value) - _SQRT3_PI)
    bound = rep.numeric.error + rep.gap + _EPS * (abs(value) + 2.0 * _SQRT3_PI)
    return VerifyRow(
        id="cusp-h-modulus",
        inputs={"target": "sqrt(3)*pi"},
        value=value,
        error=rep.numeric.error,
        bound=bound,
        residual=resid,
        status="pass" if resid <= bound else "fail",
    )


def suite_zeta2(seed: int, tol: float) -> SuiteReport:
    """f(1/2, 0) up the imaginary axis: its cusp limit -pi^2/3 forces
    zeta_R(2) = pi^2/6, recovered as -Re f(iY)/2.  Each height is a cusp row,
    and the last row holds the value implied at the largest height to 1e-8."""
    tol = min(tol, 1e-8)
    form = FormSpec.wp_form(Fraction(1, 2), 0)
    rows = []
    for y in (5.0, 10.0, 20.0):
        rep = cusp_report(form, y, tol)
        implied = -rep.numeric.value.real / 2.0
        rows.append(cusp_row(f"zeta2-Y{int(y)}", {"Y": rep.Y, "implied_zeta2": implied}, rep))
    residual = abs(implied - math.pi**2 / 6.0)
    rows.append(
        VerifyRow(
            id="zeta2-implied",
            inputs={"Y": rep.Y, "implied_zeta2": implied},
            value=complex(implied),
            error=0.5 * rep.numeric.error,
            bound=1e-8,
            residual=residual,
            status="pass" if residual <= 1e-8 else "fail",
            detail="implied zeta_R(2) at the largest height against its tolerance",
        )
    )
    return SuiteReport("zeta2", seed, tuple(rows))


def suite_eies_bound(seed: int, tol: float) -> SuiteReport:
    rows = []
    for k in (3, 4, 5):
        for y in (1.0, 2.0, 5.0, 10.0):
            bound = lemma_eies_bound(k, y)
            total = lattice_row_sum_enclosure(k, complex(0.0, y))
            upper = total.value.real + total.error
            rows.append(
                VerifyRow(
                    id=f"eies-k{k}-Y{y:g}",
                    inputs={"k": k, "Im_tau": y},
                    value=total.value,
                    error=total.error,
                    bound=bound,
                    residual=bound - upper,
                    status="pass" if upper < bound else "fail",
                )
            )
    return SuiteReport("eies-bound", seed, tuple(rows))


_IDENTITY_TS = (
    Fraction(1, 6),
    Fraction(1, 5),
    Fraction(1, 4),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
)


def suite_identities(seed: int, tol: float) -> SuiteReport:
    rows = []
    for t in _IDENTITY_TS:
        series = cusp_value_f_series(t, 80)
        closed = cusp_value(FormSpec.wp_form(0, t))
        residual = abs(series.value - closed.value)
        honored = residual <= series.error + closed.error
        rows.append(
            VerifyRow(
                id=f"series-t={t}",
                inputs={"t": str(t), "terms": 80},
                value=series.value,
                error=series.error,
                bound=1e-10,
                residual=residual,
                status="pass" if residual < 1e-10 and honored else "fail",
                detail="tail bound honored" if honored else "residual exceeds certificate",
            )
        )
    # Bernoulli bridge: the closed even-zeta values agree with Euler-Maclaurin
    # enclosures, and their exact rational pi-power coefficients match the
    # Bernoulli form
    for n in range(0, 11):
        m = 2 * n + 2
        closed = zeta_even(m)
        summed = zeta_r_enclosure(float(m))
        agree = closed.agrees_with(summed)
        coeff = zeta_even_coefficient(m)
        expected = (
            Fraction((-1) ** n)
            * bernoulli(m)
            * Fraction(2**m, 2 * math.factorial(m))
        )
        exact_ok = coeff == expected
        rows.append(
            VerifyRow(
                id=f"bridge-zeta({m})",
                inputs={"n": m, "coefficient": str(coeff)},
                value=closed.value,
                error=closed.error,
                bound=summed.error,
                residual=abs(closed.value - summed.value),
                status="pass" if agree and exact_ok else "fail",
            )
        )
    return SuiteReport("identities", seed, tuple(rows))


SUITES = {
    "lemma-fsta": suite_lemma_fsta,
    "lemma-gsta": suite_lemma_gsta,
    "defect-gstt": suite_defect_gstt,
    "theorem-hrst": suite_theorem_hrst,
    "theorem-hU": suite_theorem_hU,
    "cusp-f": suite_cusp_f,
    "cusp-h": suite_cusp_h,
    "zeta2": suite_zeta2,
    "eies-bound": suite_eies_bound,
    "identities": suite_identities,
}


def run_suite(name: str, seed: int = 0, tol: float = DEFAULT_TOL) -> SuiteReport:
    """Run the named suite; ``seed`` drives its random instances and ``tol``
    (positive and finite) caps the tolerance of every evaluation."""
    _check_args(tol, "auto")
    try:
        fn = SUITES[name]
    except KeyError:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return fn(seed, tol)
