import math

import numpy as np
import pytest

from fgig import NaturalParams, spectral_roots
from fgig import measures
from fgig.asymptotics import (
    REGIME_ABS_LT_1,
    REGIME_LAM_GE_1,
    REGIME_LAM_LE_M1,
    convergence_curve,
    limit_measure,
    limit_regime,
    root_limits,
    scaling_exponents,
)
from fgig.measures import build_fgig, levy_distance, moment
from fgig.params import reparameterize, solve_spread

from conftest import quartic_under_root


class TestLimitMeasure:
    def test_upper_regime(self):
        limit = limit_measure(1.0, 2.0)
        assert limit_regime(2.0) == REGIME_LAM_GE_1
        assert limit.atoms == ()
        # Marchenko-Pastur with jump 1 and rate 2: mean = 2
        assert moment(limit, 1) == pytest.approx(2.0, rel=1e-9)

    def test_middle_regime(self):
        limit = limit_measure(1.0, 0.0)
        assert limit_regime(0.0) == REGIME_ABS_LT_1
        assert limit.atoms == ((0.0, 0.5),)
        assert limit.mass() == pytest.approx(1.0, abs=1e-10)
        # a.c. part: (1/2) nu(1/2, 1) supported on (0, 2)
        assert limit.support[1] == pytest.approx(2.0, rel=1e-12)

    def test_middle_regime_carries_its_cauchy_transform(self):
        # half a Marchenko-Pastur law plus an atom: half its transform
        # plus the atom's term, equal to the node sum off the axis
        m = limit_measure(1.0, 0.3)
        zs = np.linspace(-0.5, 2.0, 50) + 0.1j
        (loc, w), = m.atoms
        oracle = w / (zs - loc) + np.sum(m.weights / (zs[:, None] - m.nodes),
                                         axis=1)
        assert np.max(np.abs(m.cauchy_fn(zs) / oracle - 1.0)) <= 1e-13

    @pytest.mark.parametrize("alpha, lam", [(1.0, 0.3), (0.7, 0.0),
                                            (2.5, -0.6), (0.2, 0.9),
                                            (5.0, -0.95)])
    def test_middle_regime_cdf(self, alpha, lam):
        # the atom (1-lam)/2 at 0 plus (1+lam)/2 times nu(gamma, 1),
        # gamma = (1+lam)/(2 alpha), whose cdf at x = gamma u is the closed
        # form F(u) = (sqrt(u (4-u)) + 4 asin(sqrt(u)/2))/(2 pi) on [0, 4]
        m = limit_measure(alpha, lam)
        gamma = (1.0 + lam) / (2.0 * alpha)
        x = 4.0 * gamma * np.linspace(0.0, 1.0, 401)[1:]
        u = x / gamma
        f = (np.sqrt(u * (4.0 - u)) + 4.0 * np.arcsin(np.sqrt(u) / 2.0)) / (
            2.0 * math.pi)
        want = (1.0 - lam) / 2.0 + (1.0 + lam) / 2.0 * f
        assert np.max(np.abs(m.cdf(x) - want)) <= 1e-14
        assert np.all(m.cdf(np.array([-1.0, -1e-300])) == 0.0)

    def test_lower_regime(self):
        assert limit_regime(-3.0) == REGIME_LAM_LE_M1
        assert limit_measure(1.0, -3.0).atoms == ((0.0, 1.0),)

    def test_boundaries_assigned_exactly(self):
        assert limit_regime(1.0) == REGIME_LAM_GE_1
        assert limit_regime(-1.0) == REGIME_LAM_LE_M1


class TestConvergenceCurve:
    BETAS = [1e-1, 1e-2, 1e-3, 1e-4]

    @pytest.mark.parametrize("lam", [2.0, 0.0, -3.0])
    def test_reaches_tolerance_and_decreases(self, lam):
        curve = convergence_curve(1.0, lam, self.BETAS)
        assert curve[-1] <= 0.05
        assert all(d2 < d1 for d1, d2 in zip(curve, curve[1:]))

    @pytest.mark.parametrize("lam", [2.0, 0.3, -3.0])
    def test_one_limit_graph_per_curve(self, monkeypatch, lam):
        # k betas take k fGIG graphs and one limit graph, and give the
        # Levy distances to the limit bit for bit
        calls = []
        graph = measures._completed_graph

        def counted(m):
            calls.append(m)
            return graph(m)

        monkeypatch.setattr(measures, "_completed_graph", counted)
        curve = convergence_curve(0.7, lam, self.BETAS)
        assert len(calls) == len(self.BETAS) + 1
        limit = limit_measure(0.7, lam)
        assert curve == [levy_distance(
            build_fgig(NaturalParams(0.7, b, lam), 2048), limit)
            for b in self.BETAS]

    def test_lower_regime_support_shrinks(self):
        sf = solve_spread(NaturalParams(1.0, 1e-4, -3.0))
        s = reparameterize(sf)
        assert s.b <= 0.05


class TestScalingExponents:
    BETAS = np.geomspace(1e-3, 1e-6, 7)

    @pytest.mark.parametrize("lam,expect", [
        (0.0, (1.0, 0.0)),
        (1.0, (2.0 / 3.0, 0.0)),
        (-1.0, (1.0, 1.0 / 3.0)),
        (2.0, (0.0, 0.0)),
        (-3.0, (1.0, 1.0)),
    ])
    def test_regime_table(self, lam, expect):
        p_a, p_b = scaling_exponents(1.0, lam, self.BETAS)
        assert p_a == pytest.approx(expect[0], abs=0.05)
        assert p_b == pytest.approx(expect[1], abs=0.05)


class TestRootLimits:
    def test_above_one(self):
        d, e = root_limits(1.0, 2.0)
        assert d == pytest.approx(-1.0)
        assert math.isinf(e) and e > 0

    def test_inside_band(self):
        d, e = root_limits(1.0, 0.5)
        assert math.isinf(d) and d < 0
        assert e == pytest.approx(1.0 / 0.75)

    def test_boundary(self):
        d, e = root_limits(1.0, 1.0)
        assert math.isinf(d) and math.isinf(e)

    @pytest.mark.parametrize("lam", [2.0, 0.5, -0.5, -2.0])
    def test_numeric_agreement_at_tiny_beta(self, lam):
        d_lim, e_lim = root_limits(1.0, lam)
        roots = spectral_roots(NaturalParams(1.0, 1e-6, lam))
        if math.isfinite(d_lim):
            assert roots.delta == pytest.approx(d_lim, rel=0.01)
        else:
            assert abs(roots.delta) > 100.0
        if math.isfinite(e_lim):
            assert roots.eta == pytest.approx(e_lim, rel=0.01)
        else:
            assert roots.eta > 100.0


class TestReducedSystems:
    def test_below_band_rescaled_endpoints(self):
        # for lam < -1 both endpoints scale like beta and the rescaled
        # pair solves 1 - lam - (a'+b')/(2a'b') = 0, 1 + lam + 1/sqrt(a'b') = 0
        alpha, lam, beta = 1.0, -3.0, 1e-8
        s = reparameterize(solve_spread(NaturalParams(alpha, beta, lam)))
        ap, bp = s.a / beta, s.b / beta
        assert 1 - lam - (ap + bp) / (2 * ap * bp) == pytest.approx(
            0.0, abs=1e-3)
        assert 1 + lam + 1.0 / math.sqrt(ap * bp) == pytest.approx(
            0.0, abs=1e-3)

    def test_middle_band_limits(self):
        # for |lam| < 1: a/beta -> 1/(2(1-lam)) and b -> 2(1+lam)/alpha
        alpha, lam, beta = 1.0, 0.3, 1e-8
        s = reparameterize(solve_spread(NaturalParams(alpha, beta, lam)))
        assert s.a / beta == pytest.approx(1.0 / (2 * (1 - lam)), rel=1e-3)
        assert s.b == pytest.approx(2 * (1 + lam) / alpha, rel=1e-3)

    def test_above_band_endpoint_system(self):
        # for lam > 1 the endpoints have positive limits solving
        # 1 - lam + alpha sqrt(ab) = 0, 1 + lam - alpha (a+b)/2 = 0
        alpha, lam, beta = 1.0, 2.0, 1e-8
        s = reparameterize(solve_spread(NaturalParams(alpha, beta, lam)))
        assert 1 - lam + alpha * math.sqrt(s.a * s.b) == pytest.approx(
            0.0, abs=1e-3)
        assert 1 + lam - alpha * (s.a + s.b) / 2 == pytest.approx(
            0.0, abs=1e-3)


class TestQuarticLimit:
    @pytest.mark.parametrize("lam", [2.0, 1.0, 1.5])
    def test_upper_regime_polynomial(self, lam):
        p = NaturalParams(1.0, 1e-8, lam)
        zs = np.linspace(-2.0, 2.0, 33)
        f = quartic_under_root(p, zs)
        expect = (1.0 + (lam - 1.0) * zs) ** 2
        rel = np.abs(f - expect) / np.maximum(np.abs(expect), 1e-6)
        assert np.max(rel) <= 1e-3
