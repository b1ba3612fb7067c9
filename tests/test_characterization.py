import numpy as np
import pytest

import fgig.characterization as characterization
from fgig import DomainError, NaturalParams, NumericError
from fgig.characterization import (
    _compose,
    _initial_k,
    _k_residual,
    _mul,
    _reciprocal,
    compare_series,
    initial_coefficients,
    n_prime,
    oracle_coefficients,
    quartic_residual,
    series_coefficients,
    solve_c,
    verify_fixed_point,
    verify_iterated,
)
from fgig.measures import build_fgig, pushforward_reciprocal
from fgig.params import _bisect
from fgig.transforms import cauchy


def _quotient_rule(alpha, lam, c, k0, k1):
    """``N'(c)`` for ``N = g/(z g - lam)``, ``g = alpha - K``, by the
    quotient rule: ``(lam k1 - g^2)/(c g - lam)^2``."""
    g = alpha - k0
    return (lam * k1 - g * g) / (c * g - lam) ** 2


def _center50(mp, alpha, lam):
    """The root in (-1, 0) of the center quartic at mpmath's precision,
    bisected independently of the package's solver."""
    a, m = mp.mpf(alpha), mp.mpf(lam)
    return mp.findroot(lambda x: a * x ** 4 - (1 + m) * x ** 3
                       + (1 - m) * x - a, (-1, 0), solver="bisect")


class TestCoefficientHelpers:
    def test_reciprocal_is_inverse(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=9)
        c[0] = 2.0
        expect = np.zeros(9)
        expect[0] = 1.0
        assert np.allclose(_mul(c, _reciprocal(c)), expect, atol=1e-12)

    def test_reciprocal_matches_geometric(self):
        # 1/(1-z) = sum z^k
        b = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert np.allclose(_reciprocal(b), np.ones(7))

    def test_compose_against_polynomial_oracle(self):
        # outer(inner(z)) for small polynomials, checked by numpy
        # polynomial algebra; a constant term of inner is dropped
        outer = np.array([1.0, -2.0, 0.5, 1.0, 0.0, 0.0])
        inner = np.array([0.0, 1.0, 2.0, -1.0, 0.0, 0.0])
        expect = np.polynomial.Polynomial(outer)(
            np.polynomial.Polynomial(inner)).coef[:6]
        assert np.allclose(_compose(outer, inner), expect, atol=1e-12)
        inner[0] = 0.7
        assert np.allclose(_compose(outer, inner), expect, atol=1e-12)


class TestSolveC:
    def test_worked_root(self):
        c = solve_c(1.0, 1.0)
        assert c == pytest.approx(-0.7167, abs=2e-4)
        assert abs(quartic_residual(1.0, 1.0, c)) <= 1e-12

    def test_unique_bracket_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            alpha = 10 ** rng.uniform(-1, 1)
            lam = 10 ** rng.uniform(-1, 1)
            c = solve_c(alpha, lam)
            assert -1.0 < c < 0.0
            assert abs(quartic_residual(alpha, lam, c)) <= 1e-12 * max(
                1.0, alpha)

    def test_against_50_digits(self):
        # bisected to adjacent floats: within two ulps of the 50-digit root
        # over the wide box
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(5)
        for _ in range(100):
            alpha, lam = 10 ** rng.uniform(-3, 3), rng.uniform(1e-3, 50)
            c = solve_c(alpha, lam)
            with mp.workdps(50):
                want = _center50(mp, alpha, lam)
                assert abs(c - want) <= 2 * np.finfo(float).eps * abs(want)

    def test_requires_positive_parameters(self):
        with pytest.raises(DomainError):
            solve_c(1.0, -1.0)


class TestInitialCoefficients:
    def test_zeroth_value(self):
        c = solve_c(1.0, 1.0)
        a0, _ = initial_coefficients(1.0, 1.0)
        assert a0 == pytest.approx(c / (1 + c * c), rel=1e-14)
        assert a0 == pytest.approx(-0.4734, abs=2e-4)

    def test_first_coefficient_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            _, a1 = initial_coefficients(alpha, lam)
            u = 1.0 + c * c
            assert 1.0 / u ** 2 <= a1 <= 1.0 / u

    def test_beta1_bounds_and_routes(self):
        # N'(c) in [-1, -c^2], and the quotient rule agrees
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            b1 = n_prime(alpha, lam)
            assert -1.0 <= b1 <= -c * c
            assert b1 == pytest.approx(
                _quotient_rule(alpha, lam, c, *_initial_k(alpha, c)),
                rel=1e-12)


class TestSeriesCoefficients:
    def test_matches_oracle_worked_pair(self):
        series = series_coefficients(1.0, 1.0, 8)
        oracle = oracle_coefficients(1.0, 1.0, 8)
        assert compare_series(series, oracle) <= 1e-6

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            series = series_coefficients(alpha, lam, 8)
            oracle = oracle_coefficients(alpha, lam, 8)
            assert compare_series(series, oracle) <= 1e-6

    def test_regressions_where_the_m_form_cancelled(self):
        # the M-form recursion was 2.3e-6 off at the first triple and
        # raised "order-7 residual is not affine" at the second
        for alpha, lam in ((0.349, 3.444), (0.1, 5.0)):
            series = series_coefficients(alpha, lam, 8)
            oracle = oracle_coefficients(alpha, lam, 8)
            assert compare_series(series, oracle) <= 1e-12, (alpha, lam)

    def test_one_residual_per_order(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1].size - 1)
            return _k_residual(*args)

        monkeypatch.setattr(characterization, "_k_residual", counted)
        series_coefficients(1.0, 1.0, 8)
        assert calls == list(range(2, 9))

    def test_low_order_residuals_vanish(self):
        # with k0, k1 in place the order-0/1 residuals of the functional
        # equation in K vanish to the rounding of k0 and k1
        for alpha, lam in ((1.3, 0.8), (0.00173, 26.4), (8.0, 0.1),
                           (1e-3, 50.0)):
            c = solve_c(alpha, lam)
            k0, k1 = _initial_k(alpha, c)
            r0 = _k_residual(alpha, lam, c, np.array([k0]))
            r1 = _k_residual(alpha, lam, c, np.array([k0, k1]))
            assert abs(r0) <= 1e-15 * abs(k0)
            assert abs(r1) <= 1e-15 * abs(k1)

    def test_first_coefficient_against_50_digits(self):
        # k1 is the smaller root of the order-1 relation written with lam,
        # q c^2 k1^2 + (1 - q u - c^4) k1 + c^2 u = 0 with
        # q = (1-c^2)^2/lam and u = (1-c^2)/(1+c^2), on a 50-digit c; in
        # floats that form cancels as c -> 0 and as c -> -1
        mp = pytest.importorskip("mpmath")
        for alpha, lam in ((1.0, 1.0), (0.00173, 26.4), (8.0, 0.1),
                           (1e3, 1e-3), (1e-3, 50.0)):
            _, k1 = _initial_k(alpha, solve_c(alpha, lam))
            with mp.workdps(50):
                c = _center50(mp, alpha, lam)
                q, u = (1 - c * c) ** 2 / lam, (1 - c * c) / (1 + c * c)
                b = 1 - q * u - c ** 4
                want = -2 * c * c * u / (b + mp.sqrt(b * b - 4 * q * c ** 4 * u))
            assert k1 == pytest.approx(float(want), rel=1e-14), (alpha, lam)

    def test_slope_identity_and_bound(self):
        # each order's residual is affine in k_n; the slope measured from two
        # evaluations is s_n = 1 + c^2 beta1^n - q a1, above the bound
        for alpha, lam in ((1.0, 1.0), (2.0, 0.7), (0.349, 3.444)):
            c = solve_c(alpha, lam)
            k0, k1 = _initial_k(alpha, c)
            _, a1 = initial_coefficients(alpha, lam)
            q = (1 - c * c) ** 2 / lam
            b1 = n_prime(alpha, lam)
            bound = alpha * (1 - c ** 4) / (alpha - c + alpha * c * c)
            k = [k0, k1]
            for n in range(2, 9):
                r0, r1, r2 = (_k_residual(alpha, lam, c, np.array(k + [t]))
                              for t in (0.0, 1.0, 2.0))
                assert abs(r2 - 2 * r1 + r0) <= 1e-13 * max(abs(r1), 1.0)
                predicted = 1 + c * c * b1 ** n - q * a1
                assert r1 - r0 == pytest.approx(predicted, rel=1e-13)
                assert predicted >= bound
                k.append(r0 / (r0 - r1))
            # M = z - z^2 K from the two-evaluation solve
            m = -np.convolve([c * c, 2 * c, 1.0], k)[2:9]
            assert series_coefficients(alpha, lam, 8)[2:] == (
                pytest.approx(m, rel=1e-13))

    def test_q_forms_agree(self):
        # dN/dK at c: (1 - c^2)^2/lam, and lam/(c g - lam)^2 with
        # g = alpha - k0 by the quotient rule; n_prime is q k1 - c^2
        rng = np.random.default_rng(4)
        for _ in range(10):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            k0, k1 = _initial_k(alpha, c)
            q = (1 - c * c) ** 2 / lam
            assert q == pytest.approx(lam / (c * (alpha - k0) - lam) ** 2,
                                      rel=1e-13)
            assert n_prime(alpha, lam) == q * k1 - c * c

    def test_raises_where_order_8_drifted(self):
        # c = -0.9945: the slope bound passed its old 1e-2 floor and order 8
        # came out 1.2e-10 and 1.1e-10 off the oracle
        for alpha, lam in ((460.27024397911424, 5.055493117328391),
                           (254.43419569178354, 2.6288839352125115)):
            with pytest.raises(NumericError):
                series_coefficients(alpha, lam, 8)

    def test_order_guard_against_the_oracle(self):
        # orders above 8 hold 1e-10 or raise; (0.5, 3) holds up to 32
        for alpha, lam in ((8.0, 0.1), (2.0, 1.0), (0.5, 3.0)):
            oracle = oracle_coefficients(alpha, lam, 32)
            for n in (12, 16, 20, 24, 32):
                try:
                    series = series_coefficients(alpha, lam, n)
                except NumericError:
                    assert (alpha, lam) != (0.5, 3.0)
                    continue
                assert compare_series(series, oracle) <= 1e-10, (alpha, n)

    def test_raises_where_the_slopes_vanish(self):
        # c = -1 + 5e-7: the odd orders' slopes are 4e-6
        with pytest.raises(NumericError):
            series_coefficients(1e3, 1e-3, 8)
        assert series_coefficients(1e3, 1e-3, 1).size == 2

    def test_order_cap(self):
        with pytest.raises(DomainError):
            series_coefficients(1.0, 1.0, 33)


class TestOracle:
    def test_zeroth_matches_cauchy(self):
        from fgig.transforms import cauchy
        alpha, lam = 1.0, 1.0
        c = solve_c(alpha, lam)
        m = build_fgig(NaturalParams(alpha, alpha, -lam), 1024)
        oracle = oracle_coefficients(alpha, lam, 1)
        assert oracle[0] == pytest.approx(
            complex(cauchy(m, 1.0 / c + 0j)).real, abs=1e-10)

    def test_zeroth_matches_center_relation(self):
        alpha, lam = 2.0, 0.7
        c = solve_c(alpha, lam)
        oracle = oracle_coefficients(alpha, lam, 0)
        assert oracle[0] == pytest.approx(c / (1 + c * c), abs=1e-9)

    def test_first_in_schwarz_bracket(self):
        alpha, lam = 0.8, 1.6
        c = solve_c(alpha, lam)
        oracle = oracle_coefficients(alpha, lam, 1)
        u = 1.0 + c * c
        assert 1.0 / u ** 2 <= oracle[1] <= 1.0 / u

    @pytest.mark.parametrize("order", [-1, -2, 33])
    def test_order_checked(self, order):
        # -1 raised IndexError, -2 ValueError, 33 ran
        with pytest.raises(DomainError):
            oracle_coefficients(1.0, 1.0, order)

    def test_right_where_a_quadrature_law_loses_mass(self):
        # a 2048-node law misses 1.7e-7 of its mass here, where a quadrature
        # oracle's a0 read 2.3e-7 off the closed form c/(1 + c^2); G's
        # closed form reads a0 to rounding and orders 1..4 with the series
        alpha, lam = 1e-3, 0.5
        c = solve_c(alpha, lam)
        oracle = oracle_coefficients(alpha, lam, 4)
        assert oracle[0] == pytest.approx(c / (1 + c * c), rel=1e-15)
        assert compare_series(oracle, series_coefficients(alpha, lam, 4)) \
            <= 1e-12


class TestFixedPoint:
    def test_report(self):
        rep = verify_fixed_point(2.0, 1.0)
        assert -1.0 < rep.c < 0.0
        assert rep.max_rel_dev <= 1e-6
        assert rep.fixed_point_distance <= 1e-3
        assert rep.stage_distance <= 1e-3
        assert rep.key_eq_residual <= 1e-9

    def test_iterated_chain(self):
        rep = verify_iterated(2.0, 8.0, 1.0)
        labels = [label for label, _ in rep]
        assert labels == ["X + Y2", "(X + Y2)^-1", "Y1 + (X + Y2)^-1",
                          "full chain"]
        for _, dist in rep:
            assert dist <= 2e-3
        assert rep[-1][1] <= 2e-3

    def test_fixed_point_is_the_chain_at_beta_alpha(self):
        # the same chain: bit for bit the first two iterated stages
        for alpha, lam in ((2.0, 1.0), (0.7, 2.5)):
            rep = verify_fixed_point(alpha, lam)
            (_, d1), (_, d2) = verify_iterated(alpha, alpha, lam)[:2]
            assert (rep.stage_distance, rep.fixed_point_distance) == (d1, d2)

    def test_one_center_solve_per_report(self, monkeypatch):
        # the report, the series (three times) and the oracle each bisected
        # c: five solves of one root
        calls = []

        def counted(f, lo, hi, *args):
            calls.append((lo, hi))
            return _bisect(f, lo, hi, *args)

        monkeypatch.setattr(characterization, "_bisect", counted)
        solve_c.cache_clear()
        for alpha, lam in ((2.0, 1.0), (0.7, 2.5)):
            calls.clear()
            verify_fixed_point(alpha, lam)
            assert calls == [(-1.0, 0.0)]

    def test_key_equation_over_the_grid(self):
        # 1/X for X ~ mu(alpha, alpha, -lam) is mu(alpha, alpha, lam): its
        # transform at c against that closed form, and the key equation
        # 1/c - lam/(G(c) - alpha) = c it enters.  (1 - G_X(1/c)/c)/c
        # cancelled where |c| is small: 4.1e-9 relative off at (1e-3, 5),
        # whose residual read 3.3e-6, and 30 of these 225 failed 1e-9
        for alpha in 10.0 ** np.linspace(-3.0, 3.0, 25):
            for lam in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
                c = solve_c(alpha, lam)
                g = cauchy(pushforward_reciprocal(build_fgig(
                    NaturalParams(alpha, alpha, -lam))), complex(c))
                want = cauchy(build_fgig(NaturalParams(alpha, alpha, lam)),
                              complex(c))
                assert abs(g - want) <= 1e-12 * abs(want), (alpha, lam)
                assert abs(1.0 / c - lam / (g.real - alpha) - c) <= 1e-9

    def test_runs_only_the_stages_it_reports(self, monkeypatch):
        calls = []
        monkeypatch.setattr(characterization, "free_convolve",
                            lambda mu, nu: calls.append(1) or mu)
        for stages in (1, 2, 4):
            calls.clear()
            characterization._reciprocal_chain(2.0, 8.0, 1.0, stages)
            assert len(calls) == (stages + 1) // 2

    def test_iterated_chain_stages_to_1e_7(self):
        # both convolutions read the density on the real axis; the second
        # takes the Cauchy transform of a reciprocal convolution output,
        # which at (1, 1, 0.01) subordination queries next to the axis
        for triple in ((2.0, 8.0, 1.0), (1.0, 1.0, 0.01)):
            rep = verify_iterated(*triple)
            assert max(dist for _, dist in rep) <= 1e-7, triple
