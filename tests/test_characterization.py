import numpy as np
import pytest

from fgig import DomainError, NaturalParams
from fgig.characterization import (
    beta1_direct,
    beta1_from_alpha1,
    compare_series,
    initial_coefficients,
    oracle_coefficients,
    quartic_residual,
    reciprocal_cauchy_residual,
    series_coefficients,
    slope_p,
    solve_c,
    verify_fixed_point,
    verify_iterated,
)
from fgig.measures import build_fgig, pushforward_reciprocal


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

    def test_requires_positive_parameters(self):
        with pytest.raises(DomainError):
            solve_c(1.0, -1.0)


class TestInitialCoefficients:
    def test_zeroth_value(self):
        c = solve_c(1.0, 1.0)
        a0, _ = initial_coefficients(1.0, 1.0, c)
        assert a0 == pytest.approx(c / (1 + c * c), rel=1e-14)
        assert a0 == pytest.approx(-0.4734, abs=2e-4)

    def test_first_coefficient_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            _, a1 = initial_coefficients(alpha, lam, c)
            u = 1.0 + c * c
            assert 1.0 / u ** 2 <= a1 <= 1.0 / u

    def test_beta1_bounds_and_routes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            a0, a1 = initial_coefficients(alpha, lam, c)
            b1 = beta1_from_alpha1(c, a1)
            assert -1.0 - 1e-12 <= b1 <= -c * c + 1e-12
            assert b1 == pytest.approx(beta1_direct(alpha, lam, c, a0, a1),
                                       abs=1e-10)


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

    def test_low_order_residuals_vanish(self):
        # with a0, a1 in place the order-0/1 residuals of the functional
        # equation already vanish: orders beyond reproduce them unchanged
        from fgig.characterization import _fe_residual
        alpha, lam = 1.3, 0.8
        c = solve_c(alpha, lam)
        a0, a1 = initial_coefficients(alpha, lam, c)
        r0, _ = _fe_residual(alpha, lam, c, np.array([a0]), 0)
        r1, _ = _fe_residual(alpha, lam, c, np.array([a0, a1]), 1)
        assert abs(r0) <= 1e-12
        assert abs(r1) <= 1e-12

    def test_slope_identity_and_bound(self):
        alpha, lam = 1.0, 1.0
        c = solve_c(alpha, lam)
        series, detail = series_coefficients(alpha, lam, 8, detail=True)
        a1 = detail["a1"]
        p = detail["p"]
        b1 = detail["n_coeffs"][1]
        bound = alpha * (1 - c ** 4) / (alpha - c + alpha * c * c)
        for n, slope in enumerate(detail["slopes"], start=2):
            predicted = 1.0 + c * c * b1 ** n + c * c * p * a1
            assert abs(slope) == pytest.approx(predicted, rel=1e-8)
            assert predicted >= bound - 1e-9

    def test_slope_p_forms_agree(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            alpha = rng.uniform(0.5, 3.0)
            lam = rng.uniform(0.5, 3.0)
            c = solve_c(alpha, lam)
            a0, _ = initial_coefficients(alpha, lam, c)
            direct = -lam / (a0 - (1.0 + lam) * c + alpha * c * c) ** 2
            assert slope_p(alpha, lam, c) == pytest.approx(direct, rel=1e-10)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            series_coefficients(1.0, 1.0, 33)


class TestOracle:
    def test_zeroth_matches_cauchy(self):
        from fgig.transforms import cauchy
        alpha, lam = 1.0, 1.0
        c = solve_c(alpha, lam)
        m = build_fgig(NaturalParams(alpha, alpha, -lam), 1024)
        oracle = oracle_coefficients(alpha, lam, 1, c=c)
        assert oracle.coeffs[0] == pytest.approx(
            complex(cauchy(m, 1.0 / c + 0j)).real, abs=1e-10)

    def test_zeroth_matches_center_relation(self):
        alpha, lam = 2.0, 0.7
        c = solve_c(alpha, lam)
        oracle = oracle_coefficients(alpha, lam, 0, c=c)
        assert oracle.coeffs[0] == pytest.approx(c / (1 + c * c), abs=1e-9)

    def test_first_in_schwarz_bracket(self):
        alpha, lam = 0.8, 1.6
        c = solve_c(alpha, lam)
        oracle = oracle_coefficients(alpha, lam, 1, c=c)
        u = 1.0 + c * c
        assert 1.0 / u ** 2 <= oracle.coeffs[1] <= 1.0 / u


class TestFixedPoint:
    def test_report(self):
        rep = verify_fixed_point(2.0, 1.0)
        assert -1.0 < rep.c < 0.0
        assert rep.max_rel_dev <= 1e-6
        assert rep.fixed_point_distance <= 1e-3
        assert rep.stage_distance <= 1e-3
        assert rep.key_eq_residual <= 1e-9

    def test_reciprocal_cauchy_relation(self):
        m = build_fgig(NaturalParams(2.0, 2.0, -1.0), 1024)
        mi = pushforward_reciprocal(m)
        for z in (1.5 + 0.5j, -0.7 + 0.2j, 3.0 + 1.0j):
            assert reciprocal_cauchy_residual(m, mi, z) <= 1e-9

    def test_iterated_chain(self):
        rep = verify_iterated(2.0, 8.0, 1.0)
        labels = [label for label, _ in rep.stages]
        assert labels == ["X + Y2", "(X + Y2)^-1", "Y1 + (X + Y2)^-1",
                          "full chain"]
        for _, dist in rep.stages:
            assert dist <= 2e-3
        assert rep.final_distance <= 2e-3

    def test_iterated_chain_stages_to_1e_7(self):
        # both convolutions read the density on the real axis; the second
        # takes the Cauchy transform of a reciprocal convolution output,
        # which at (1, 1, 0.01) subordination queries next to the axis
        for triple in ((2.0, 8.0, 1.0), (1.0, 1.0, 0.01)):
            rep = verify_iterated(*triple)
            assert max(dist for _, dist in rep.stages) <= 1e-7, triple
