from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weierforms import (
    IDENTITY,
    S_MATRIX,
    T_MATRIX,
    CertifiedValue,
    DomainError,
    FormSpec,
    ModularMatrix,
    PrecisionError,
    RationalPair,
    defect_coefficients,
    eta12,
    eval_f,
    eval_g,
    eval_h,
    eval_hU,
    gamma1_contains,
    gamma_st_contains,
    hecke_contains,
    pair_act,
    principal_congruence_contains,
    random_in_group,
    random_sl2,
    slash,
)
from weierforms import shells
from weierforms.evaluate import _label_values

from oracles import GOLDEN, GOLDEN_BAND


def pair(s, t) -> RationalPair:
    return RationalPair.of(s, t)


class TestPairAct:
    def test_half_label_under_inversion(self):
        assert pair_act(pair(0, Fraction(1, 2)), S_MATRIX) == pair(Fraction(1, 2), 0)

    def test_identity(self):
        p = pair(Fraction(2, 7), Fraction(3, 5))
        assert pair_act(p, IDENTITY) == p

    def test_shear(self):
        assert pair_act(pair(Fraction(1, 3), 0), T_MATRIX) == pair(
            Fraction(1, 3), Fraction(1, 3)
        )

    def test_result_not_canonicalized(self):
        moved = pair_act(pair(0, Fraction(1, 2)), ModularMatrix(1, 0, 2, 1))
        assert moved == pair(1, Fraction(1, 2))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(-5, 5), st.integers(-5, 5), st.data())
    def test_action_is_multiplicative(self, n1, n2, data):
        s = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=12))
        t = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=12))
        p = RationalPair(s, t)
        a = (T_MATRIX if n1 >= 0 else T_MATRIX.inverse()) @ S_MATRIX
        b = S_MATRIX @ (T_MATRIX if n2 >= 0 else T_MATRIX.inverse())
        assert pair_act(pair_act(p, a), b) == pair_act(p, a @ b)


class TestMatrices:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            ModularMatrix(1, 2, 2, 1)  # det -3

    def test_inverse(self):
        m = ModularMatrix(2, 1, 1, 1)
        assert m @ m.inverse() == IDENTITY

    def test_entries_must_be_ints(self):
        with pytest.raises(DomainError):
            ModularMatrix(1.0, 0, 0, 1)  # type: ignore[arg-type]

    def test_mobius_and_cocycle_rounded_once(self):
        # here the binary64 quotient (a*tau + b)/(c*tau + d) is off by 3e-14
        # relative in Im, which a slash of a weight-1 form at Im ~ 1e-3 amplifies
        mat = ModularMatrix(-5, 8, -12, 19)
        tau = complex(-1.3835473107561502, 2.0098222569430817)
        x, y = Fraction(tau.real), Fraction(tau.imag)
        nr, ni, dr, di = mat.a * x + mat.b, mat.a * y, mat.c * x + mat.d, mat.c * y
        norm = dr * dr + di * di
        image = complex(float((nr * dr + ni * di) / norm), float((ni * dr - nr * di) / norm))
        assert mat.mobius(tau) == image
        assert mat.cocycle(tau) == complex(float(dr), float(di))
        assert abs(((mat.a * tau + mat.b) / (mat.c * tau + mat.d)).imag / image.imag - 1.0) > 1e-14


class TestGroups:
    def test_gamma_st_examples(self):
        assert gamma_st_contains(pair(0, Fraction(1, 2)), ModularMatrix(1, 0, 2, 1))
        assert not gamma_st_contains(pair(0, Fraction(1, 2)), S_MATRIX)
        assert gamma_st_contains(pair(Fraction(1, 7), Fraction(2, 7)), IDENTITY)

    def test_integer_membership_matches_fraction_definition(self):
        # (s,t)*A - (s,t) in Z^2, computed in Fractions, against the two
        # congruences on the numerators over the level
        rng = random.Random(4)
        seen = set()
        for _ in range(600):
            qs, qt = rng.choice((1, 2, 3, 4, 6, 12)), rng.choice((1, 2, 5, 6, 7))
            p = pair(Fraction(rng.randrange(-3 * qs, 3 * qs), qs), Fraction(rng.randrange(-3 * qt, 3 * qt), qt))
            if rng.random() < 0.5:
                level = p.level()
                mat = random_in_group(rng, lambda m: principal_congruence_contains(level, m))
                mat = mat @ (S_MATRIX if rng.random() < 0.3 else IDENTITY)
            else:
                mat = random_sl2(rng, max_entry=40)
            moved = pair_act(p, mat)
            expected = (moved.s - p.s).denominator == 1 and (moved.t - p.t).denominator == 1
            assert gamma_st_contains(p, mat) == expected, (p, mat)
            seen.add(expected)
        assert seen == {True, False}

    def test_principal_examples(self):
        assert principal_congruence_contains(2, ModularMatrix(3, 2, 4, 3))
        assert not principal_congruence_contains(2, T_MATRIX)
        assert principal_congruence_contains(1, S_MATRIX)

    def test_principal_inside_stabilizer(self):
        rng = random.Random(5)
        for p in (pair(0, Fraction(1, 2)), pair(Fraction(1, 3), Fraction(1, 3)), pair(Fraction(1, 4), Fraction(3, 4))):
            level = p.level()
            for _ in range(100):
                mat = random_in_group(rng, lambda m: principal_congruence_contains(level, m))
                assert gamma_st_contains(p, mat)

    def test_stabilizer_inside_scaled_stabilizer(self):
        rng = random.Random(6)
        for r, p in ((2, pair(0, Fraction(1, 3))), (3, pair(Fraction(1, 5), Fraction(2, 5)))):
            rp = p.scaled(r)
            for _ in range(60):
                mat = random_in_group(rng, lambda m: gamma_st_contains(p, m))
                assert gamma_st_contains(rp, mat)

    def test_half_label_stabilizer_is_hecke_c(self):
        # the (0, 1/2) stabilizer works out to the level-2 Hecke group
        rng = random.Random(7)
        for _ in range(200):
            mat = random_sl2(rng)
            assert gamma_st_contains(pair(0, Fraction(1, 2)), mat) == hecke_contains(2, mat)

    def test_third_label_stabilizer_is_gamma1_c(self):
        rng = random.Random(8)
        for _ in range(200):
            mat = random_sl2(rng)
            assert gamma_st_contains(pair(0, Fraction(1, 3)), mat) == gamma1_contains(3, mat)

    def test_groups_read_c(self):
        # the congruence is on c, the lower-left entry, not on b
        assert hecke_contains(2, T_MATRIX)
        assert not hecke_contains(2, ModularMatrix(1, 0, 1, 1))
        assert gamma1_contains(3, ModularMatrix(1, 1, 3, 4))

    def test_sampler_reaches_nontrivial_c(self):
        rng = random.Random(9)
        mats = [
            random_in_group(rng, lambda m: gamma_st_contains(pair(0, Fraction(1, 2)), m))
            for _ in range(40)
        ]
        assert any(m.c != 0 for m in mats)


def _random_sl2_words(rng, max_entry=20, max_len=24):
    """The sampler as a product of ModularMatrix words, the reference for the int-tuple walk."""
    while True:
        length = rng.randint(0, max_len)
        mat = IDENTITY
        ok = True
        for _ in range(length):
            nxt = mat @ rng.choice((S_MATRIX, T_MATRIX, T_MATRIX.inverse()))
            if nxt.max_entry() > max_entry:
                ok = False
                break
            mat = nxt
        if ok:
            return mat


def _random_in_group_words(rng, contains, max_entry=20):
    while True:
        mat = _random_sl2_words(rng, max_entry=max_entry)
        if contains(mat):
            return mat


class TestSamplerMatchesWordProducts:
    @pytest.mark.parametrize("max_entry", [20, 6])
    def test_random_sl2(self, max_entry):
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert random_sl2(rng, max_entry=max_entry) == _random_sl2_words(ref, max_entry=max_entry)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("max_entry", [20, 6])
    @pytest.mark.parametrize(
        "contains",
        [
            lambda m: gamma_st_contains(pair(Fraction(1, 3), Fraction(1, 3)), m),
            lambda m: gamma_st_contains(pair(0, Fraction(1, 2)), m),
            lambda m: principal_congruence_contains(3, m),
        ],
        ids=["gamma_st(1/3,1/3)", "gamma_st(0,1/2)", "Gamma(3)"],
    )
    def test_random_in_group(self, max_entry, contains):
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                got = random_in_group(rng, contains, max_entry=max_entry)
                assert got == _random_in_group_words(ref, contains, max_entry=max_entry)
            assert rng.getstate() == ref.getstate()


class TestSlash:
    def test_identity_leaves_value(self):
        p = pair(0, Fraction(1, 3))
        tau = 0.2 + 1.1j
        direct = eval_f(p, tau, 1e-10)
        slashed = slash(lambda w, tt: eval_f(p, w, tt), 2, IDENTITY, tau, 1e-10)
        assert slashed.value == direct.value

    def test_weight2_invariance_under_stabilizer(self):
        rng = random.Random(31)
        p = pair(0, Fraction(1, 3))
        mats = [
            random_in_group(rng, lambda m: gamma_st_contains(p, m)) for _ in range(5)
        ]
        for k in range(25):
            tau = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.6, 4.0))
            mat = mats[k % len(mats)]
            lhs = slash(lambda w, tt: eval_f(p, w, tt), 2, mat, tau, 1e-9)
            rhs = eval_f(p, tau, 1e-9)
            assert abs(lhs.value - rhs.value) <= lhs.error + rhs.error

    @pytest.mark.parametrize("weight", [2, 1])
    def test_covariance_sample(self, weight):
        rng = random.Random(20 + weight)
        evaluator = eval_f if weight == 2 else eval_g
        for _ in range(25):
            p = pair(
                Fraction(rng.randrange(12), 12), Fraction(rng.randrange(1, 12), 12)
            )
            mat = random_sl2(rng)
            tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 5.0))
            lhs = slash(lambda w, tt: evaluator(p, w, tt), weight, mat, tau, 1e-9)
            rhs = evaluator(pair_act(p, mat), tau, 1e-9)
            assert abs(lhs.value - rhs.value) <= lhs.error + rhs.error + 1e-9


class TestEvaluators:
    def test_label_periodicity_is_exact(self):
        p = pair(Fraction(1, 3), Fraction(1, 4))
        tau = 0.3 + 1.3j
        a = eval_f(p, tau, 1e-9)
        b = eval_f(p.shifted(2, -3), tau, 1e-9)
        assert a.value == b.value and a.error == b.error

    def test_g_antisymmetry(self):
        tau = 0.1 + 1.9j
        for t in (Fraction(1, 3), Fraction(2, 5)):
            a = eval_g(pair(0, t), tau, 1e-10)
            b = eval_g(pair(0, -t), tau, 1e-10)
            assert abs(a.value + b.value) <= a.error + b.error + 1e-12

    def test_g_shift_defect_is_eta(self):
        tau = 0.4 + 1.2j
        p = pair(Fraction(1, 5), Fraction(1, 3))
        tol = 1e-10
        base = eval_g(p, tau, tol)
        shifted = eval_g(p.shifted(1, 0), tau, tol)
        eta1, _ = eta12(tau, tol)
        assert abs(shifted.value - base.value - eta1.value) <= (
            shifted.error + base.error + eta1.error + 1e-12
        )

    def test_integral_labels_rejected(self):
        with pytest.raises(DomainError):
            eval_f(pair(1, 0), 1j)
        with pytest.raises(DomainError):
            eval_g(pair(2, -1), 1j)

    def test_h_golden_value(self):
        cv = eval_h(2, pair(0, Fraction(1, 3)), 1j, 1e-9)
        assert abs(cv.value - GOLDEN["h2_third_at_i"]) <= GOLDEN_BAND + cv.error

    def test_h_r_one_vanishes(self):
        cv = eval_h(1, pair(0, Fraction(1, 3)), 0.2 + 1.4j, 1e-9)
        assert cv.value == 0.0

    def test_h_rejections(self):
        with pytest.raises(DomainError):
            eval_h(0, pair(0, Fraction(1, 3)), 1j)
        with pytest.raises(DomainError):
            eval_h(2, pair(0, Fraction(1, 2)), 1j)  # (rs, rt) lands in Z^2

    def test_hU_cancelling_pair_vanishes(self):
        p = pair(Fraction(1, 5), Fraction(1, 3))
        cv = eval_hU([p, -p], 0.3 + 1.1j, 1e-10)
        assert abs(cv.value) <= cv.error + 1e-12

    def test_hU_requires_zero_sum(self):
        with pytest.raises(DomainError):
            eval_hU([pair(0, Fraction(1, 3)), pair(0, Fraction(1, 3))], 1j)

    @pytest.mark.parametrize("tau", [1j, 2j])
    def test_hU_equals_h_combination(self, tau):
        labels = [pair(0, Fraction(1, 3)), pair(0, Fraction(1, 3)), pair(0, Fraction(-2, 3))]
        hu = eval_hU(labels, tau, 1e-10)
        h2 = eval_h(2, pair(0, Fraction(1, 3)), tau, 1e-10)
        assert abs(hu.value - h2.value) <= hu.error + h2.error + 1e-12

    def test_h_and_hU_routes_agree(self):
        # the shell route sums wzeta at the reduced point and subtracts its
        # quasi-period share; the series route sums the Klein-form cot rows
        rng = random.Random(9)
        for _ in range(2):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))
            p = pair(Fraction(rng.randrange(-5, 6), 6), Fraction(rng.randrange(1, 5), 5))
            r = rng.choice((-2, 2, 3))
            q = pair(Fraction(rng.randrange(-3, 4), 4), Fraction(rng.randrange(1, 3), 3))
            labels = (p, q, pair(-p.s - q.s, -p.t - q.t))
            for fn in (lambda route: eval_h(r, p, tau, 1e-4, route=route), lambda route: eval_hU(labels, tau, 1e-4, route=route)):
                shell, series = fn("shell"), fn("series")
                assert shell.error <= 1e-4
                assert abs(shell.value - series.value) <= shell.error + series.error, (tau, p, r, labels)

    def test_shell_route_sums_eta2_once(self, monkeypatch):
        # the three parts share one reduced ratio: one shell sum at each reduced
        # point and one of eta2 = 2 wzeta(1/2), not one per part
        calls = []
        shell_sum = shells.shell_sum

        def counted(*args, **kwargs):
            calls.append(args)
            return shell_sum(*args, **kwargs)

        monkeypatch.setattr(shells, "shell_sum", counted)
        tau = 0.2 + 1.3j
        labels = (pair(Fraction(1, 3), Fraction(1, 4)), pair(Fraction(-1, 6), Fraction(1, 2)), pair(Fraction(-1, 6), Fraction(-3, 4)))
        shell = eval_hU(labels, tau, 1e-4, route="shell")
        assert len(calls) == 4
        assert shell.error <= 1e-4
        assert shell.agrees_with(eval_hU(labels, tau, 1e-10))

    # (route, tol, cases): the shell route at a coarse tol (each call sums
    # several boxes), the series route down to the smallest tol whose parts
    # still meet the public floor
    @pytest.mark.parametrize(
        "route,tol,cases", [("shell", 1e-4, 2), ("series", 1e-8, 12), ("series", 5e-12, 12)]
    )
    def test_shared_reduction_is_bit_identical(self, route, tol, cases):
        # eval_h and eval_hU reduce the lattice once for all their labels; the
        # result equals the same combination of one-label Klein-form values
        def outcome(fn):
            try:
                cv = fn()
            except PrecisionError as exc:  # the shell route refuses a wide point
                return str(exc)
            return repr(cv.value), repr(cv.error)

        def z(u, part):
            (cv,) = _label_values(tau, [(u.s, u.t)], part, route, "klein")
            return cv

        def z_sum(labels, part):
            acc = CertifiedValue.exact(0.0)
            for u in labels:
                acc = acc + z(u, part)
            return acc

        rng = random.Random(9)
        for _ in range(cases):
            tau = complex(rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.5, 0.5))
            p = pair(Fraction(rng.randrange(-5, 6), 6), Fraction(rng.randrange(1, 5), 5))
            r = rng.choice((-2, 2, 3))
            part = tol / (abs(r) + 1)
            got = outcome(lambda: eval_h(r, p, tau, tol, route=route))
            assert got == outcome(lambda: z(p, part) * r - z(p.scaled(r), part)), (tau, p, r)
            q = pair(Fraction(rng.randrange(-3, 4), 4), Fraction(rng.randrange(1, 3), 3))
            labels = (p, q, pair(-p.s - q.s, -p.t - q.t))
            got = outcome(lambda: eval_hU(labels, tau, tol, route=route))
            assert got == outcome(lambda: z_sum(labels, tol / 3)), (tau, labels)

    def test_defect_coefficients_integrality(self):
        p = pair(0, Fraction(1, 2))
        mat = ModularMatrix(1, 0, 2, 1)
        u, v = defect_coefficients(p, mat)
        assert u == 1 and v == 0  # (0,1/2)(1,0;2,1) - (0,1/2) = (1, 0)


class TestFormSpec:
    def test_weights(self):
        assert FormSpec.wp_form(0, Fraction(1, 2)).weight == 2
        assert FormSpec.h_form(2, 0, Fraction(1, 3)).weight == 1

    def test_wp_label_canonicalized(self):
        form = FormSpec.wp_form(Fraction(7, 3), Fraction(-1, 4))
        assert form.p == pair(Fraction(1, 3), Fraction(3, 4))

    def test_zeta_label_raw(self):
        form = FormSpec.zeta_form(Fraction(7, 3), Fraction(-1, 4))
        assert form.p == pair(Fraction(7, 3), Fraction(-1, 4))

    def test_validation(self):
        with pytest.raises(DomainError):
            FormSpec.wp_form(1, 2)
        with pytest.raises(DomainError):
            FormSpec.h_form(3, 0, Fraction(1, 3))  # r*t integral
        with pytest.raises(DomainError):
            FormSpec.hU_form([pair(0, Fraction(1, 3))])
        with pytest.raises(DomainError):
            FormSpec.h_form(True, 0, "1/3")  # a bool is not an integer multiplier
        with pytest.raises(DomainError):
            FormSpec.hU_form([])

    def test_evaluate_dispatch(self):
        tau = 10j
        f = FormSpec.wp_form(0, Fraction(1, 2)).evaluate(tau, 1e-8)
        assert abs(f.value - 2.0 * math.pi**2 / 3.0) < 1e-6
