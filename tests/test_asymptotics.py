import math
from dataclasses import replace

import numpy as np
import pytest

from fgig import NaturalParams, spectral_roots
from fgig import measures
from fgig.asymptotics import (
    REGIME_ABS_LT_1,
    REGIME_LAM_GE_1,
    REGIME_LAM_LE_M1,
    convergence_curve,
    endpoint_asymptotics,
    limit_measure,
    limit_regime,
)
from fgig.measures import build_fgig, levy_distance, moment
from fgig.params import reparameterize, solve_spread

from conftest import endpoint_deviation, quartic_under_root


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
            build_fgig(NaturalParams(0.7, b, lam)), limit)
            for b in self.BETAS]

    # where the law crowds the origin its first knot interval, [a, 1.23a]
    # at (0.3, 1e-7, -0.5), carries 2.7% of the mass, so the graph's edge
    # slope there is the interval's secant; the density's 0 would read
    # 2.8438e-3 and 6.2049e-4.  The values are the sup of the gap between
    # both laws' exact cdfs, x + F(x) = s solved at every knot and refined
    # where the densities meet
    @pytest.mark.parametrize("alpha, lam, exact", [
        (0.3, -0.5, 1.1603879617e-3), (1.0, 0.0, 4.982345285e-4)])
    def test_crowding_law_reads_its_exact_distance(self, alpha, lam, exact):
        m = build_fgig(NaturalParams(alpha, 1e-7, lam))
        assert levy_distance(m, limit_measure(alpha, lam)) == pytest.approx(
            exact, rel=1e-6)

    def test_lower_regime_support_shrinks(self):
        sf = solve_spread(NaturalParams(1.0, 1e-4, -3.0))
        s = reparameterize(sf)
        assert s.b <= 0.05


class TestScalingExponents:
    @pytest.mark.parametrize("lam,expect", [
        (0.0, (1.0, 0.0, 0.5)),
        (1.0, (2.0 / 3.0, 0.0, 2.0 / 3.0)),
        (-1.0, (1.0, 1.0 / 3.0, 2.0 / 3.0)),
        (2.0, (0.0, 0.0, 1.0)),
        (-3.0, (1.0, 1.0, 1.0)),
    ])
    def test_regime_table(self, lam, expect):
        # the powers of a and b, and the rate q of their corrections
        asym = endpoint_asymptotics(1.0, lam)
        assert (asym.p_a, asym.p_b, asym.q) == expect


class TestRootLimits:
    def test_above_one(self):
        asym = endpoint_asymptotics(1.0, 2.0)
        assert asym.delta_limit == pytest.approx(-1.0)
        assert math.isinf(asym.eta_limit) and asym.eta_limit > 0

    def test_inside_band(self):
        asym = endpoint_asymptotics(1.0, 0.5)
        assert math.isinf(asym.delta_limit) and asym.delta_limit < 0
        assert asym.eta_limit == pytest.approx(1.0 / 0.75)

    def test_boundary(self):
        asym = endpoint_asymptotics(1.0, 1.0)
        assert math.isinf(asym.delta_limit) and math.isinf(asym.eta_limit)

    @pytest.mark.parametrize("lam", [2.0, 0.5, -0.5, -2.0])
    def test_numeric_agreement_at_tiny_beta(self, lam):
        asym = endpoint_asymptotics(1.0, lam)
        roots = spectral_roots(NaturalParams(1.0, 1e-6, lam))
        if math.isfinite(asym.delta_limit):
            assert roots.delta == pytest.approx(asym.delta_limit, rel=0.01)
        else:
            assert abs(roots.delta) > 100.0
        if math.isfinite(asym.eta_limit):
            assert roots.eta == pytest.approx(asym.eta_limit, rel=0.01)
        else:
            assert roots.eta > 100.0


class TestWrongTableFailsC09:
    """C09's Richardson check reads a wrong table more than 1e-8 off, at
    the ``alpha beta`` pair where it reads the true table within 1e-8."""

    SQ3 = math.sqrt(3.0)
    C09 = (1e-12, 1e-14)  # the pair C09 reads
    # at lam = +-1 and C09's pair the ratios are 1e-8 off already, too
    # close to 1 for a wrong q to show; here they are 1e-6 off or more
    COARSE = (1e-6, 1e-8)

    @pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("lam, wrong, pair", [
        # an earlier table's row beta (sqrt(-lam) -+ 1)**2, off by the
        # factor (1 + lam)**2
        (-3.0, dict(c_a=(SQ3 - 1.0) ** 2, c_b=(SQ3 + 1.0) ** 2), C09),
        (0.5, dict(c_a=1.0 / (2.0 * 1.5)), C09),  # beta/(2(1+lam))
        (0.5, dict(q=1.0), C09),
        (0.0, dict(q=1.0), C09),
        (1.0, dict(q=0.5), COARSE),
        (-1.0, dict(q=0.5), COARSE),
    ], ids=["old-row-below-minus-1", "a-with-1+lam", "q-one-at-0.5",
            "q-one-at-0", "q-half-at-1", "q-half-at-minus-1"])
    def test_fails(self, alpha, lam, wrong, pair):
        asym = endpoint_asymptotics(alpha, lam)
        betas = tuple(x / alpha for x in pair)
        assert endpoint_deviation(asym, alpha, lam, betas) <= 1e-8
        assert endpoint_deviation(replace(asym, **wrong), alpha, lam,
                                  betas) > 1e-8


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
