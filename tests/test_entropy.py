import math
import time

import numpy as np
import pytest

from fgig import DomainError, NaturalParams, NumericError
from fgig.entropy import (
    Potential,
    classical_entropy,
    classical_gig_density,
    free_entropy,
    gibbs_bound,
    gibbs_gap,
    gig_entropy,
    gig_mode,
    halfline_integral,
    log_bessel_k,
    log_energy,
    maximality_scan,
)
from fgig.measures import (build_fgig, build_semicircle, dilate,
                           pushforward_reciprocal)
from fgig.params import solve_support

from conftest import bessel_k_half_integer


def log_energy_harmonic_oracle(p, n_theta=2 ** 15, n_modes=6000):
    """Independent log-energy: dense trapezoid cosine coefficients, in
    blocks of at most 250 modes so no block holds more than 250 rows."""
    from fgig.measures import fgig_density
    s = solve_support(p)
    mid, rad = 0.5 * (s.a + s.b), 0.5 * (s.b - s.a)
    theta = np.linspace(0.0, math.pi, n_theta + 1)
    x = mid + rad * np.cos(theta)
    f = fgig_density(p, x) * rad * np.sin(theta)
    ks = np.arange(1, n_modes)
    a = 2.0 / math.pi * np.concatenate([
        np.trapezoid(f[None, :] * np.cos(rows[:, None] * theta[None, :]),
                     theta, axis=1)
        for rows in np.array_split(ks, -(-ks.size // 250))])
    mass = np.trapezoid(f, theta)
    return math.log(rad / 2.0) * mass ** 2 - 0.5 * math.pi ** 2 * np.sum(
        a * a / ks)


class TestLogEnergy:
    def test_semicircle_closed_form(self):
        # radius-2 semicircle: the log-energy equals -1/4
        m = build_semicircle(3.0, 2.0, 256)
        assert log_energy(m) == pytest.approx(-0.25, abs=1e-12)

    def test_scaling_rule(self):
        # dilation by c shifts the log-energy by log(c) * mass^2
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        assert log_energy(dilate(m, 3.0)) == pytest.approx(
            log_energy(m) + math.log(3.0), rel=1e-12)

    def test_against_dense_oracle(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        assert log_energy(build_fgig(p, 512)) == pytest.approx(
            log_energy_harmonic_oracle(p), abs=1e-10)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_matches_dense_cosine_sum(self, n):
        # the same quadrature with the cosine coefficients summed densely
        m = build_fgig(NaturalParams(1.0, 1.0, 0.5), n)
        w = m.weights
        ks = np.arange(1, w.size + 1)
        theta = ks * math.pi / (w.size + 1)
        a = 2.0 / math.pi * (np.cos(np.outer(ks, theta)) @ w)
        rad = 0.5 * (m.support[1] - m.support[0])
        dense = (math.log(rad / 2.0) * np.sum(w) ** 2
                 - 0.5 * math.pi ** 2 * np.sum(a * a / ks))
        assert log_energy(m) == pytest.approx(dense, abs=1e-14)

    def test_rejects_atoms(self):
        from fgig.measures import atom_measure
        with pytest.raises(DomainError):
            log_energy(atom_measure([(1.0, 1.0)]))

    def test_rejects_non_cosine_measures(self):
        # the reciprocal image keeps the mass but not the cosine angles
        m = pushforward_reciprocal(
            build_fgig(NaturalParams(2.0, 8.0, 1.0), 256))
        with pytest.raises(DomainError):
            log_energy(m)


class TestFreeEntropy:
    def test_symmetry_of_double_integral(self):
        # the functional only sees |x - y|: recomputing with reversed
        # node order must give the same value
        p = NaturalParams(2.0, 8.0, 1.0)
        V = Potential.of(p)
        m = build_fgig(p, 256)
        assert free_entropy(m, V) == pytest.approx(free_entropy(m, V),
                                                   rel=1e-15)

    def test_maximizer_beats_perturbed_parameters(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        V = Potential.of(p)
        base = free_entropy(build_fgig(p, 512), V)
        worse = free_entropy(build_fgig(NaturalParams(2.2, 8.0, 1.0), 512), V)
        assert base > worse

    def test_node_refinement_stability(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        V = Potential.of(p)
        i_256 = free_entropy(build_fgig(p, 256), V)
        i_512 = free_entropy(build_fgig(p, 512), V)
        assert abs(i_256 - i_512) <= 1e-5

    def test_requires_positive_support(self):
        V = Potential(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            free_entropy(build_semicircle(0.0, 1.0, 64), V)


class TestMaximalityScan:
    def test_margins_positive(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        scan = maximality_scan(p, [
            1.1, 0.9,
            NaturalParams(2.0, 8.0, 1.2),
            NaturalParams(2.0, 8.0, 0.8),
            NaturalParams(2.2, 8.0, 1.0),
        ])
        assert all(margin > 0 for _, _, margin in scan.entries)

    def test_zero_perturbation_zero_margin(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        scan = maximality_scan(p, [1.0])
        assert scan.entries[0][2] == pytest.approx(0.0, abs=1e-14)


class TestBesselK:
    def test_half_integer_oracle(self):
        for w in np.geomspace(0.1, 20.0, 12):
            for order in (0.5, 1.5):
                exact = bessel_k_half_integer(order, w)
                assert math.exp(log_bessel_k(order, w)) == pytest.approx(
                    exact, rel=1e-10)

    def test_even_in_order(self):
        assert math.exp(log_bessel_k(-2.3, 1.7)) == pytest.approx(
            math.exp(log_bessel_k(2.3, 1.7)), rel=1e-14)

    def test_positive_argument_required(self):
        with pytest.raises(DomainError):
            log_bessel_k(1.0, 0.0)

    def test_log_past_underflow(self):
        # log K_{1/2}(w) = log(pi/(2w))/2 - w, where K itself underflows
        for w in (1e3, 2e6):
            exact = 0.5 * math.log(math.pi / (2.0 * w)) - w
            assert log_bessel_k(0.5, w) == pytest.approx(exact, rel=1e-15)
        assert math.exp(log_bessel_k(0.5, 1e3)) == 0.0


class TestClassicalGig:
    def test_normalization(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            al = 10 ** rng.uniform(-0.5, 0.5)
            be = 10 ** rng.uniform(-0.5, 0.5)
            lam = rng.uniform(-2.0, 2.0)
            total = halfline_integral(
                lambda x: classical_gig_density(al, be, lam, x),
                gig_mode(al, be, lam))
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_half_integer_normalizer_closed_form(self):
        al, be = 1.3, 0.7
        w = 2.0 * math.sqrt(al * be)
        expect = ((al / be) ** 0.25
                  / (2.0 * bessel_k_half_integer(0.5, w)))
        assert math.exp(-gibbs_bound(al, be, 0.5)) == pytest.approx(
            expect, rel=1e-10)

    def test_proportional_to_exp_minus_potential(self):
        al, be, lam = 2.0, 8.0, 1.0
        V = Potential(al, be, lam)
        xs = np.linspace(0.3, 6.0, 9)
        ratio = classical_gig_density(al, be, lam, xs) * np.exp(V(xs))
        assert np.max(ratio) - np.min(ratio) <= 1e-10 * np.max(ratio)

    def test_mode_without_cancellation(self):
        # lam - 1 < 0 with alpha beta tiny: the naive root rounds to 0
        assert gig_mode(1e-6, 1e-6, -50.0) == pytest.approx(2e-6 / 102.0,
                                                            rel=1e-14)

    def test_zero_for_nonpositive_arguments(self):
        assert classical_gig_density(1.0, 1.0, 0.5, -1.0) == 0.0
        assert classical_gig_density(1.0, 1.0, 0.5, 0.0) == 0.0


class TestClassicalEntropy:
    def test_gig_attains_gibbs_bound(self):
        for al, be, lam in [(2.0, 8.0, 1.0), (1.0, 1.0, -0.5), (0.7, 2.0, 2.0)]:
            assert abs(gig_entropy(al, be, lam)
                       - gibbs_bound(al, be, lam)) <= 1e-6

    def test_large_rates_keep_the_gibbs_gap(self):
        # -log C ~ -2e6: the density's e^-w must cancel exactly
        for al, be, lam in [(1e6, 1e6, 3.0), (1e5, 1e-5, -40.0),
                            (1e3, 1e3, 0.3)]:
            assert abs(gig_entropy(al, be, lam)
                       - gibbs_bound(al, be, lam)) <= 1e-6

    def test_scaled_density_falls_below_bound(self):
        al, be, lam = 2.0, 8.0, 1.0
        V = Potential(al, be, lam)
        h_scaled = classical_entropy(
            lambda x: 1.3 * classical_gig_density(al, be, lam, 1.3 * x), V,
            split=gig_mode(al, be, lam) / 1.3)
        assert h_scaled < gibbs_bound(al, be, lam) - 1e-4

    def test_gig_entropy_computes_the_normalizer_once(self, monkeypatch):
        # the Bessel sum S = e^w K, which the density needs unrounded by w
        from fgig import entropy
        calls = []
        log_bessel_sum = entropy._log_bessel_sum

        def counted(order, w):
            calls.append((order, w))
            return log_bessel_sum(order, w)

        monkeypatch.setattr(entropy, "_log_bessel_sum", counted)
        gig_entropy(1.3, 2.1, 0.7)
        assert len(calls) == 1

    def test_gig_entropy_matches_the_direct_route(self):
        # the general route in log x, against the sum in s that takes the
        # constant w out of the integrand
        al, be, lam = 1.3, 2.1, 0.7
        direct = classical_entropy(
            lambda x: classical_gig_density(al, be, lam, x),
            Potential(al, be, lam), split=gig_mode(al, be, lam))
        assert gig_entropy(al, be, lam) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("triple", [(1e-100, 1e300, -50.0),
                                        (1e100, 1e100, -50.0)])
    def test_gig_entropy_returns_at_extreme_rates(self, triple):
        # w = 2e100 puts the step of the grid in log x, 2.8e-51, below the
        # ulp of its center, 460 at the first triple; in s it is not
        start = time.perf_counter()
        try:
            assert math.isfinite(gig_entropy(*triple))
        except NumericError:
            pass
        assert time.perf_counter() - start <= 5.0

    def test_gibbs_gap_without_w(self):
        # both sides are -2e8 + O(1); their difference read on the O(1)
        # parts, where the sum in log x read 2.8e-6
        assert abs(gibbs_gap(1e8, 1e8, 0.0)) <= 1e-13
        assert gibbs_gap(1.3, 2.1, 0.7) == pytest.approx(
            gig_entropy(1.3, 2.1, 0.7) - gibbs_bound(1.3, 2.1, 0.7),
            abs=1e-15)

    def test_gibbs_bound_shares_the_bessel_sum(self, monkeypatch):
        # gig_entropy and gibbs_bound at one triple take one trapezoid sum
        from fgig import entropy
        entropy._log_bessel_sum.cache_clear()
        calls = []
        trapezoid = entropy._trapezoid

        def counted(*args):
            calls.append(args)
            return trapezoid(*args)

        monkeypatch.setattr(entropy, "_trapezoid", counted)
        gig_entropy(1.3, 2.1, 0.7)
        gibbs_bound(1.3, 2.1, 0.7)
        assert len(calls) == 2  # the Bessel sum and the entropy's

    def test_gibbs_inequality_cross_pairs(self):
        # -int p log p <= -int p log q for densities p, q from the family
        rng = np.random.default_rng(1)
        for _ in range(5):
            pa = (10 ** rng.uniform(-0.3, 0.3), 10 ** rng.uniform(-0.3, 0.3),
                  rng.uniform(-1.0, 1.0))
            qa = (10 ** rng.uniform(-0.3, 0.3), 10 ** rng.uniform(-0.3, 0.3),
                  rng.uniform(-1.0, 1.0))

            def p_eval(x):
                return classical_gig_density(*pa, x)

            def q_eval(x):
                return classical_gig_density(*qa, x)

            split = gig_mode(*pa)
            neg_self = -halfline_integral(
                lambda x: _xlogy(p_eval(x), p_eval(x)), split)
            neg_cross = -halfline_integral(
                lambda x: _xlogy(p_eval(x), q_eval(x)), split)
            assert neg_self <= neg_cross + 1e-9

    def test_halfline_integral_needs_decay(self):
        with pytest.raises(NumericError):
            halfline_integral(lambda x: 1.0 / (1.0 + x), 1.0)

    def test_trapezoid_raises_on_a_flat_integrand(self):
        # at curvature 1e12 the step is 4e-7, so |u| <= 700 alone would
        # take 1.75e9 nodes; and at u0 = 460, curvature 1e102, the step
        # cannot move the grid
        from fgig.entropy import _trapezoid
        start = time.perf_counter()
        for u0, kappa in ((0.0, 1e12), (460.0, 1e102)):
            with pytest.raises(NumericError):
                _trapezoid(np.ones_like, u0, kappa)
        assert time.perf_counter() - start <= 2.0


def _xlogy(p, q):
    logq = np.log(np.where(q > 0.0, q, 1.0))
    return np.where(p > 0.0, np.where(q > 0.0, p * logq, -np.inf), 0.0)
