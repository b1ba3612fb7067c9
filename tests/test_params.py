import math

import numpy as np
import pytest

from fgig import (
    DomainError,
    NaturalParams,
    NumericError,
    SpreadForm,
    SupportForm,
    from_support,
    invert_params,
    reparameterize,
    solve_support,
    spectral_roots,
)
from fgig.params import solve_spread, support_residuals

from conftest import quartic_under_root


def random_valid_support(rng):
    while True:
        a = rng.uniform(0.05, 3.0)
        b = a + rng.uniform(0.05, 6.0)
        lam = rng.uniform(-6.0, 6.0)
        if abs(lam) * ((math.sqrt(a) - math.sqrt(b))
                       / (math.sqrt(a) + math.sqrt(b))) ** 2 < 1.0:
            return SupportForm(a, b, lam)


class TestFromSupport:
    def test_worked_fixture(self):
        # a=1, b=4, lam=0: gap (sqrt a - sqrt b)^2 = 1 so alpha = 2, beta = 2ab = 8
        p = from_support(SupportForm(1.0, 4.0, 0.0))
        assert p.alpha == pytest.approx(2.0, abs=1e-14)
        assert p.beta == pytest.approx(8.0, abs=1e-14)

    def test_degenerate_gap_blows_up(self):
        # 2/(sqrt(b) - sqrt(a))**2 at 50 digits, b the float 1 + 1e-10;
        # the cancelling difference of roots read 5.0e-11 off
        p = from_support(SupportForm(1.0, 1.0 + 1e-10, 0.0))
        assert p.alpha == pytest.approx(7.9999986765542282847e20, rel=1e-14)

    def test_round_trip_through_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_valid_support(rng)
            p = from_support(s)
            back = solve_support(p)
            assert back.a == pytest.approx(s.a, rel=1e-10)
            assert back.b == pytest.approx(s.b, rel=1e-10)

    def test_invalid_rejected(self):
        with pytest.raises(DomainError):
            from_support(SupportForm(4.0, 1.0, 0.0))

    def test_edge_of_box_is_numeric(self):
        # a valid support whose 1 + lam*(A/B) rounds to 0 or below: the
        # input is not to blame
        s = SupportForm(1.907708314082801e-08, 3.599517040787345e-08,
                        -40.36129524304455)
        with pytest.raises(NumericError):
            from_support(s)

    def test_gap_underflow_is_numeric(self):
        # (sqrt(b) - sqrt(a))**2 ~ 2.5e-331 underflows: alpha ~ 8e330
        with pytest.raises(NumericError):
            from_support(SupportForm(1e-300, 1e-300 * (1 + 1e-15), 0.0))

    def test_rates_out_of_range_are_numeric(self):
        # beta ~ 2ab/(sqrt(b) - sqrt(a))**2 overflows
        with pytest.raises(NumericError):
            from_support(SupportForm(1.7e308, 1.79e308, 0.0))

    @pytest.mark.parametrize("a, b, lam, alpha, beta", [
        # ab underflows to 0 (beta read 0, a DomainError), then to a
        # subnormal (beta read 1.1e-5 off)
        (1e-170, 1e-170 * (1 + 1e-12), 0.0,
         7.999567710035774836e+194, 7.9995677100437743534e-146),
        (1e-160, 1e-160 * (1 + 1e-12), 0.0,
         7.9991365431055208399e+184, 7.9991365431135202263e-136),
        # ab overflows (beta read inf)
        (1e10, 1e300, 0.3, 2.5999999999999998413e-300,
         14000000000.000000222),
    ])
    def test_rates_where_ab_under_or_overflows(self, a, b, lam, alpha, beta):
        # references at 50 digits
        p = from_support(SupportForm(a, b, lam))
        assert p.alpha == pytest.approx(alpha, rel=1e-15, abs=0.0)
        assert p.beta == pytest.approx(beta, rel=1e-15, abs=0.0)


class TestSolveSupport:
    def test_worked_fixture(self):
        s = solve_support(NaturalParams(2.0, 8.0, 0.0))
        assert s.a == pytest.approx(1.0, rel=1e-12)
        assert s.b == pytest.approx(4.0, rel=1e-12)

    def test_signed_zero_lambda(self):
        s_plus = solve_support(NaturalParams(2.0, 8.0, 0.0))
        s_minus = solve_support(NaturalParams(2.0, 8.0, -0.0))
        assert s_plus.a == s_minus.a and s_plus.b == s_minus.b

    def test_lambda_flip_symmetry(self):
        # a(alpha,beta,-lam) = beta / (alpha * b(alpha,beta,lam)) and vice versa
        p = NaturalParams(1.7, 0.9, 2.3)
        s = solve_support(p)
        sm = solve_support(NaturalParams(1.7, 0.9, -2.3))
        assert sm.a == pytest.approx(p.beta / (p.alpha * s.b), rel=1e-12)
        assert sm.b == pytest.approx(p.beta / (p.alpha * s.a), rel=1e-12)

    def test_residuals_small(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            al = 10 ** rng.uniform(-2, 2)
            be = 10 ** rng.uniform(-2, 2)
            lam = rng.uniform(-8, 8)
            p = NaturalParams(al, be, lam)
            s = solve_support(p)
            r1, r2 = support_residuals(p, s)
            scale = max(1.0, abs(p.lam), p.alpha * s.b, p.beta / s.a)
            assert max(abs(r1), abs(r2)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha, beta", [(1e-200, 1e-200),
                                             (1e200, 1e200), (1e45, 1e45)])
    def test_rate_product_out_of_range_raises(self, alpha, beta):
        # alpha*beta underflows to 0 or overflows to inf; at 1e45 it does
        # not, but b/a - 1 ~ 4 sqrt(A/B) ~ 1e-22 and a, b round together
        with pytest.raises(NumericError):
            solve_support(NaturalParams(alpha, beta, 0.5))

    @pytest.mark.parametrize("solve", [solve_spread, solve_support,
                                       spectral_roots])
    def test_subnormal_alpha_raises(self, solve):
        # A = 2/alpha overflows: solve_spread raised DomainError for this
        # valid triple, and spectral_roots returned eta = 0.0 < alpha
        with pytest.raises(NumericError, match="A, B overflow"):
            solve(NaturalParams(1e-310, 1e10, 0.0))

    def test_spread_where_ratio_rounds_to_one(self):
        # A/B = 1 - 2.3e-20 rounds to 1: B is the next float above A, and
        # the spread form no longer resolves a.  Its exact image (50
        # digits) has a = 8.9e-13, not 1e-20; reparameterize returns that
        # image, as sqrt(B) - sqrt(A) is not formed as a difference.
        p = NaturalParams(1e-20, 1e-20, 0.5)
        sf = solve_spread(p)
        assert sf.B == math.nextafter(sf.A, math.inf)
        s = solve_support(p)
        assert s.a == pytest.approx(1e-20, rel=1e-12)
        assert s.b == pytest.approx(3e20, rel=1e-12)
        back = reparameterize(sf)
        assert back.a == pytest.approx(8.947848533333332356e-13, rel=1e-15,
                                       abs=0.0)

    def test_extreme_rates_with_a_normal_product(self, support40):
        # a*b underflows here; the residuals never form it.  c*X has the
        # law mu(alpha/c, beta*c, lam) when X ~ mu(alpha, beta, lam), so
        # the support is 1e-300 times that of mu(1, 1, -3).
        p = NaturalParams(1e300, 1e-300, -3.0)
        s = solve_support(p)
        a, b = (1e-300 * v for v in support40(NaturalParams(1.0, 1.0, -3.0)))
        assert abs(s.a / a - 1) <= 1e-12
        assert abs(s.b / b - 1) <= 1e-12
        r1, r2 = support_residuals(p, s)
        assert max(abs(r1), abs(r2)) <= 1e-12 * abs(p.lam)


class TestReparameterize:
    def test_support_to_spread_fixture(self):
        sf = reparameterize(SupportForm(1.0, 4.0, 0.0))
        assert sf.A == pytest.approx(1.0, abs=1e-14)
        assert sf.B == pytest.approx(9.0, abs=1e-14)

    def test_spread_to_support_fixture(self):
        s = reparameterize(SpreadForm(1.0, 9.0, 0.0))
        assert s.a == pytest.approx(1.0, abs=1e-14)
        assert s.b == pytest.approx(4.0, abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_valid_support(rng)
            back = reparameterize(reparameterize(s))
            assert back.a == pytest.approx(s.a, rel=1e-14)
            assert back.b == pytest.approx(s.b, rel=1e-14)

    def test_zero_gap_rejected(self):
        with pytest.raises(DomainError):
            reparameterize(SpreadForm(0.0, 4.0, 0.0))

    def test_overflowing_spread_is_numeric(self):
        # B = (sqrt(a) + sqrt(b))**2 ~ 4.9e308 overflows; it raised
        # OverflowError
        with pytest.raises(NumericError):
            reparameterize(SupportForm(1e308, 1.5e308, 0.0))

    def test_narrow_forms_do_not_cancel(self):
        # references at 50 digits; a difference of square roots read A
        # 3.1e-9 and a 2.0e-10 relative off
        sf = reparameterize(SupportForm(2.0, 2.0 + 3e-8, 0.0))
        assert sf.A == pytest.approx(1.1249999778881905899e-16, rel=1e-15,
                                     abs=0.0)
        s = reparameterize(SpreadForm(1.0, 1.0 + 3e-8, 0.5))
        assert s.a == pytest.approx(5.6249999305201796808e-17, rel=1e-15,
                                    abs=0.0)


class TestSpectralRoots:
    def test_worked_fixture(self):
        r = spectral_roots(NaturalParams(2.0, 8.0, 0.0))
        assert r.gamma == pytest.approx(-0.53125, rel=1e-12)
        assert r.delta == pytest.approx(-0.25, rel=1e-12)
        assert r.eta == pytest.approx(2.0, rel=1e-12)

    def test_lambda_zero_degeneracies(self):
        p = NaturalParams(0.7, 1.9, 0.0)
        r = spectral_roots(p)
        assert r.eta == p.alpha
        assert r.delta == pytest.approx(-math.sqrt(p.alpha / (4 * p.beta)), rel=1e-12)

    def test_invariants_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = NaturalParams(10 ** rng.uniform(-1.5, 1.5),
                              10 ** rng.uniform(-1.5, 1.5),
                              rng.uniform(-6, 6))
            r = spectral_roots(p)
            assert r.gamma < 0
            assert r.delta < 0
            assert r.eta >= p.alpha * (1 - 1e-12)
            assert 4 * p.beta * r.eta * r.delta ** 2 == pytest.approx(
                p.alpha ** 2, rel=1e-12)
            if p.lam != 0:
                assert r.eta > p.alpha


class TestQuartic:
    def test_endpoint_values(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                              rng.uniform(-4, 4))
            f0 = quartic_under_root(p, 0.0)
            fa = quartic_under_root(p, p.alpha)
            assert f0 == pytest.approx(p.alpha ** 2, rel=1e-12)
            assert fa == pytest.approx((p.lam * p.alpha) ** 2,
                                       rel=1e-10, abs=1e-12 * p.alpha ** 2)

    def test_lambda_sign_symmetry(self):
        # the quartic is even in the sign of lam although (a, b) are not
        rng = np.random.default_rng(13)
        zs = np.linspace(-3.0, 3.0, 41)
        for _ in range(10):
            al = 10 ** rng.uniform(-1, 1)
            be = 10 ** rng.uniform(-1, 1)
            lam = rng.uniform(0.1, 5.0)
            f_plus = quartic_under_root(NaturalParams(al, be, lam), zs)
            f_minus = quartic_under_root(NaturalParams(al, be, -lam), zs)
            scale = np.max(np.abs(f_plus)) + 1.0
            assert np.max(np.abs(f_plus - f_minus)) <= 1e-10 * scale

    def test_factorized_form_matches(self):
        p = NaturalParams(1.3, 2.1, -1.7)
        r = spectral_roots(p)
        zs = np.linspace(-2.0, 2.0, 21)
        lhs = quartic_under_root(p, zs)
        rhs = 4 * p.beta * (zs - r.delta) ** 2 * (r.eta - zs)
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_gamma_support_coordinate_form(self):
        # gamma also has a closed form in the support endpoints:
        # (alpha^2 ab + beta^2/(ab) - 2 alpha beta ((a+b)/sqrt(ab) - 1)
        #  - (lam-1)^2) / (4 beta)
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = NaturalParams(10 ** rng.uniform(-1, 1),
                              10 ** rng.uniform(-1, 1), rng.uniform(-4, 4))
            s = solve_support(p)
            ab = s.a * s.b
            gamma_ab = (p.alpha ** 2 * ab + p.beta ** 2 / ab
                        - 2 * p.alpha * p.beta
                        * ((s.a + s.b) / math.sqrt(ab) - 1.0)
                        - (p.lam - 1.0) ** 2) / (4.0 * p.beta)
            assert spectral_roots(p).gamma == pytest.approx(gamma_ab,
                                                            rel=1e-9)


class TestInvertParams:
    def test_rule(self):
        q = invert_params(NaturalParams(2.0, 8.0, 0.0))
        assert (q.alpha, q.beta, q.lam) == (8.0, 2.0, 0.0)

    def test_involution(self):
        p = NaturalParams(1.2, 3.4, -0.8)
        q = invert_params(invert_params(p))
        assert (q.alpha, q.beta, q.lam) == (p.alpha, p.beta, p.lam)

    def test_support_maps_to_reciprocal(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                              rng.uniform(-4, 4))
            s = solve_support(p)
            si = solve_support(invert_params(p))
            assert si.a == pytest.approx(1.0 / s.b, rel=1e-10)
            assert si.b == pytest.approx(1.0 / s.a, rel=1e-10)

    def test_equal_rates_fixed_point(self):
        # mu(alpha, alpha, 0) is invariant under inversion: a*b = 1
        s = solve_support(NaturalParams(1.5, 1.5, 0.0))
        assert s.a * s.b == pytest.approx(1.0, rel=1e-12)


ADMISSIBLE = "|lam|*((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))**2 < 1"


class TestValidate:
    """Each form checks its inequalities when it is built and names the
    first one that fails."""

    def test_valid_spread(self):
        sf = SpreadForm(1.0, 9.0, 0.0)
        assert (sf.A, sf.B, sf.lam) == (1.0, 9.0, 0.0)

    def test_spread_order_violation(self):
        with pytest.raises(DomainError) as exc:
            SpreadForm(3.0, 2.0, 0.0)
        assert str(exc.value) == ("invalid spread parameters: "
                                  "max(1,|lam|)*A < B violated")
        with pytest.raises(DomainError) as exc:
            SpreadForm(-1.0, 2.0, 0.0)
        assert str(exc.value) == "invalid spread parameters: A > 0 violated"

    def test_spread_infinite_b(self):
        # it passed validation, as max(1,|lam|)*A < inf
        with pytest.raises(DomainError) as exc:
            SpreadForm(1.0, math.inf, 0.0)
        assert str(exc.value) == "invalid spread parameters: B < inf violated"

    def test_spread_lambda_violation(self):
        for lam in (3.0, math.nan):
            with pytest.raises(DomainError) as exc:
                SpreadForm(1.0, 2.0, lam)
            assert str(exc.value) == ("invalid spread parameters: "
                                      "max(1,|lam|)*A < B violated")

    @pytest.mark.parametrize("lam", [1.0, -1.0, 0.5])
    def test_lopsided_support_admissible(self, lam):
        # (sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)) rounds to -1 here; the check
        # forms no difference of the endpoints, so the pair still passes
        assert SupportForm(1e-40, 1.0, lam).a == 1e-40

    @pytest.mark.parametrize("args, inequality", [
        ((0.0, 1.0, 0.0), "alpha > 0"),
        ((-1.0, -1.0, 0.0), "alpha > 0"),
        ((math.nan, 1.0, 0.0), "alpha > 0"),
        ((1.0, -1.0, 0.0), "beta > 0"),
        ((1.0, 1.0, math.nan), "lam finite"),
        ((1.0, 1.0, -math.inf), "lam finite"),
    ])
    def test_natural_violations(self, args, inequality):
        with pytest.raises(DomainError) as exc:
            NaturalParams(*args)
        assert str(exc.value) == (f"invalid natural parameters: {inequality} "
                                  "violated")

    @pytest.mark.parametrize("args, inequality", [
        ((0.0, 4.0, 0.0), "a > 0"),
        ((math.nan, 4.0, 0.0), "a > 0"),
        ((4.0, 1.0, 0.0), "a < b"),
        ((1.0, 1.0, 0.0), "a < b"),
        ((1.0, 4.0, 10.0), ADMISSIBLE),
        ((1.0, 4.0, math.nan), ADMISSIBLE),
        ((1.0, math.inf, 0.0), ADMISSIBLE),
    ])
    def test_support_violations(self, args, inequality):
        with pytest.raises(DomainError) as exc:
            SupportForm(*args)
        assert str(exc.value) == (f"invalid support parameters: {inequality} "
                                  "violated")
