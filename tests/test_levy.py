import math

import numpy as np
import pytest

from fgig import (NaturalParams, PoleError, SpreadForm, from_support,
                  reparameterize, spectral_roots)
from fgig.levy import (
    fsd_discriminant,
    fsd_report,
    fsd_threshold,
    levy_density,
    levy_triplet,
    min1x_integral,
    reconstruct_cumulant,
)
from fgig.entropy import gibbs_bound
from fgig.params import solve_spread
from fgig.transforms import r_fgig

from conftest import fsd_discriminant_spread


def _natural(A, B, lam):
    return from_support(reparameterize(SpreadForm(A, B, lam)))


def random_params(rng, lam_range=(-4.0, 4.0)):
    return NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                         rng.uniform(*lam_range))


class TestLevyDensity:
    def test_worked_value(self):
        # (1 - delta x) sqrt(beta(1 - eta x)) / (pi x^{3/2} (1 - alpha x))
        # at (2, 8, 0), x = 1/4: (1.0625 * 2)/(pi * 0.125 * 0.5)
        val = levy_density(NaturalParams(2.0, 8.0, 0.0), 0.25)
        assert val == pytest.approx(1.0625 * 2.0 / (math.pi * 0.125 * 0.5),
                                    rel=1e-12)

    def test_zero_outside_interval(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        assert levy_density(p, 0.5) == 0.0  # 1/eta = 0.5 exactly
        assert levy_density(p, 0.75) == 0.0
        assert levy_density(p, -0.1) == 0.0

    def test_nonnegative_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_params(rng)
            hi = 1.0 / spectral_roots(p).eta
            xs = np.linspace(1e-9, hi * (1 - 1e-9), 300)
            assert np.all(levy_density(p, xs) >= 0.0)

    def test_lam_zero_cancelled_form_is_finite(self):
        # at lam = 0 the 1 - alpha x zero cancels; values stay finite up to
        # the integrable edge divergence
        p = NaturalParams(2.0, 8.0, 0.0)
        xs = np.linspace(0.4, 0.4999, 50)
        vals = levy_density(p, xs)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0)


def _bounds_hold(p, t):
    # both certified bounds at 1e-12 of the first free cumulant r(0)
    tol = 1e-12 * max(1.0, abs(r_fgig(p, 0.0)))
    return t.drift <= tol and t.semicircular <= tol


class TestLevyTriplet:
    def test_zero_drift_and_semicircular(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        assert _bounds_hold(p, levy_triplet(p))

    def test_atom_rule(self):
        t = levy_triplet(NaturalParams(4.0, 1.0, 5.0))
        assert t.atom == (4.0, 5.0)  # at 1/alpha, with weight lam
        t0 = levy_triplet(NaturalParams(1.0, 1.0, -5.0))
        assert t0.atom[1] == 0.0

    def test_limits_where_the_fixed_ladder_was_not_asymptotic(self):
        # u = -10**k was not yet in the tail here: an extrapolated drift
        # read -5.9e-5
        p = NaturalParams(697.24, 437.65, 0.1535)
        assert _bounds_hold(p, levy_triplet(p))

    def test_bound_sees_a_drift(self, monkeypatch):
        # r + 1e-9 is the R-transform of a law shifted by 1e-9: its residual
        # 1e-9 u is a drift, which a certificate reading 0 would miss
        monkeypatch.setattr("fgig.levy.r_fgig",
                            lambda p, z: r_fgig(p, z) + 1e-9)
        t = levy_triplet(NaturalParams(2.0, 8.0, 0.0))
        assert t.drift >= 5e-10
        assert t.semicircular <= 1e-11

    def test_support_upper_end(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        t = levy_triplet(p)
        assert t.support[1] == pytest.approx(1.0 / spectral_roots(p).eta)

    def test_min1x_finite_and_stable(self):
        # integral of min(1, x) against the Levy measure: finite, and the
        # first moment of tau equals the first free cumulant when 1/eta <= 1
        p = NaturalParams(2.0, 8.0, 0.0)
        t = levy_triplet(p)
        val = min1x_integral(t)
        assert val == pytest.approx(2.125, rel=1e-8)

    @pytest.mark.parametrize("triple, want", [
        ((1e-20, 1.0, 0.5), 1.523239544716785),
        ((1e-100, 1.0, 0.5), 1.5232395447351628),
        ((1e-300, 1.0, 0.5), 1.5232395447351628),
        ((1e-200, 1e-6, 0.0), 0.5012732395447352),
        ((1e-300, 1e6, -50.0), 1248.866925564678),
    ])
    def test_min1x_on_the_longest_supports(self, triple, want):
        # L = 1/eta up to 1e300, against a 40-digit quadrature of tau: the
        # 1/x term's mass below 1 was its total less the mass above, and the
        # pole term's a difference of terms eps L of it, which read 2.3e32
        # at alpha = 1e-100; at alpha = 1e-300 the pole term's total
        # overflowed, or log(0) was taken
        t = levy_triplet(NaturalParams(*triple))
        assert min1x_integral(t) == pytest.approx(want, rel=1e-12)

    def test_min1x_with_kink(self):
        # support reaching past 1 exercises the masses read at x = 1
        p = NaturalParams(0.3, 0.2, -1.0)
        assert 1.0 / spectral_roots(p).eta > 1.0
        t = levy_triplet(p)
        val = min1x_integral(t)
        assert np.isfinite(val) and val > 0


class TestReconstruction:
    def test_sigma_part_where_the_quadrature_did_not_settle(self):
        # desk triple whose pole 1/z sat inside the support of tau: the
        # Cauchy transform of x tau(dx) at 1/z is z r(z) less the atom term
        p = NaturalParams(0.017022254342310077, 116.49235882409742,
                          1.058055283689157)
        t = levy_triplet(p)
        z = 2.5 - 0.15j
        want = z * r_fgig(p, z) - p.lam * z / (p.alpha - z)
        assert abs(t.sigma.cauchy(1.0 / z) - want) <= 1e-12 * abs(want)

    def test_pole_at_alpha_for_lam_zero(self):
        t = levy_triplet(NaturalParams(2.0, 8.0, 0.0))
        with pytest.raises(PoleError):
            reconstruct_cumulant(t, 2.0)

    @pytest.mark.parametrize("alpha", [1.0, 3.0, 0.7, 49.0])
    def test_pole_at_alpha_for_positive_lam(self, alpha):
        # the atom term 1/(1 - z/alpha) - 1 divided by zero at 1, 3 and 0.7
        # and read 9.0e15 at 49 when the atom was kept at 1/alpha
        t = levy_triplet(NaturalParams(alpha, 1.0, 1.0))
        with pytest.raises(PoleError):
            reconstruct_cumulant(t, alpha)

    def test_worked_point(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        t = levy_triplet(p)
        z = -1.0 - 1.0j
        assert abs(z * r_fgig(p, z) - reconstruct_cumulant(t, z)) <= 1e-6

    def test_vanishes_at_origin(self):
        t = levy_triplet(NaturalParams(1.0, 2.0, 1.0))
        assert abs(reconstruct_cumulant(t, 0.0)) <= 1e-12

    def test_atom_term_included(self):
        p = NaturalParams(1.0, 1.0, 5.0)
        t = levy_triplet(p)
        for z in (-1.0 - 1.0j, 0.5 - 0.3j):
            assert abs(z * r_fgig(p, z) - reconstruct_cumulant(t, z)) <= 1e-6

    def test_random_triples_on_lower_half_plane(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = random_params(rng)
            t = levy_triplet(p)
            zs = rng.uniform(-3, 3, 50) + 1j * rng.uniform(-3, -0.1, 50)
            for z in zs[:5]:
                z = complex(z)
                assert abs(z * r_fgig(p, z)
                           - reconstruct_cumulant(t, z)) <= 1e-6


class TestReferenceValues:
    # min1x from a 40-digit mpmath quadrature of tau, recon = z r(z) at
    # 0.3 - 0.7i on the 40-digit support.  gibbs from scipy's
    # roots_legendre rules.
    @pytest.mark.parametrize("triple, min1x, recon, gibbs", [
        ((1.3, 2.1, 0.7), 1.2158354277139622,
         0.037886396435891034 - 1.3788034625041283j, -2.7834392830129455),
        ((0.01, 50.0, -3.0), 8.011788243925269,
         -2.404453899705495 - 5.114739847789887j, -11.27287556718097),
        ((300.0, 0.2, 2.5), 0.022800679338543982,
         0.009315906975218915 - 0.02181922254407735j, -24.897247288013357),
        ((5.0, 5.0, 0.0), 1.05,
         0.2653493658755156 - 0.7766936389588301j, -10.244285642478388),
        ((2.0, 8.0, 1.0), 1.8888509669321953,
         0.34293749956120106 - 1.8739719381085755j, -7.383411900772579),
    ])
    def test_reference_values(self, triple, min1x, recon, gibbs):
        t = levy_triplet(NaturalParams(*triple))
        z = 0.3 - 0.7j
        assert min1x_integral(t) == pytest.approx(min1x, rel=1e-12)
        assert reconstruct_cumulant(t, z) == pytest.approx(recon, rel=1e-12)
        assert gibbs_bound(*triple) == pytest.approx(gibbs, rel=1e-12)


class TestFsd:
    def test_threshold_worked_value(self):
        # B = 4A/3 maximizes the boundary: threshold -4 sqrt(3)/9
        assert fsd_threshold(3.0, 4.0) == pytest.approx(-4 * math.sqrt(3) / 9,
                                                        abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_threshold_at_extreme_scales(self, scale):
        # B**1.5 overflowed, or A sqrt(9 B - 8 A) underflowed to 0
        assert fsd_threshold(3.0 * scale, 4.0 * scale) == pytest.approx(
            -4 * math.sqrt(3) / 9, rel=1e-15)

    def test_discriminant_forms_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(rng)
            sf = solve_spread(p)
            d1 = fsd_discriminant(p)
            d2 = fsd_discriminant_spread(sf)
            assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)

    def test_positive_lam_never_fsd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_params(rng, lam_range=(0.1, 4.0))
            rep = fsd_report(p)
            assert not rep.is_fsd
            assert rep.agrees

    def test_lam_minus_one_boundary(self):
        ratio = (-1.0 + math.sqrt(33.0)) / 2.0
        fsd = fsd_report(_natural(1.0, 0.95 * ratio, -1.0))
        not_fsd = fsd_report(_natural(1.0, 1.05 * ratio, -1.0))
        assert fsd.is_fsd and fsd.k_monotone and fsd.agrees
        assert not not_fsd.is_fsd and not not_fsd.k_monotone and not_fsd.agrees

    def test_grid_check_agrees_random(self):
        rng = np.random.default_rng(4)
        count = 0
        for _ in range(20):
            A = 10 ** rng.uniform(-1, 1)
            B = A * rng.uniform(1.05, 5.0)
            lam = rng.uniform(-4.0, 0.0)
            if max(1.0, abs(lam)) * A >= B:
                continue
            rep = fsd_report(_natural(A, B, lam))
            assert rep.agrees
            count += 1
        assert count >= 10

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_routes_agree_next_to_threshold(self, eps):
        # lam*(1 + eps) is FSD and lam*(1 - eps) is not; the slope of log k
        # reads about +-0.4 eps there.  A 10,000-point grid of k called
        # lam*(1 - 1e-6) monotone: k rises by 5e-8 over 6e-4 of (0, 1/eta)
        rng = np.random.default_rng(15)
        for _ in range(24):
            A = 10 ** rng.uniform(-3, 1)
            B = A * 10 ** rng.uniform(0.02, 2)
            lam_star = fsd_threshold(A, B)
            for sign in (1, -1):
                rep = fsd_report(_natural(A, B, lam_star * (1 + sign * eps)))
                assert rep.is_fsd == rep.k_monotone == (sign > 0)
                assert (rep.max_slope <= 0) == (sign > 0) and rep.agrees

    def test_discriminant_vanishes_at_threshold(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = 10 ** rng.uniform(-0.5, 0.5)
            B = A * rng.uniform(1.5, 4.0)
            lam_star = fsd_threshold(A, B)
            if max(1.0, abs(lam_star)) * A >= B:
                continue
            sf = SpreadForm(A, B, lam_star)
            assert abs(fsd_discriminant_spread(sf)) <= 1e-9

    def test_threshold_localized_by_bisection(self):
        A, B = 1.0, 3.0
        lam_star = fsd_threshold(A, B)
        lo, hi = lam_star - 0.5, lam_star + 0.3
        assert fsd_discriminant_spread(SpreadForm(A, B, lo)) < 0
        assert fsd_discriminant_spread(SpreadForm(A, B, hi)) > 0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fsd_discriminant_spread(SpreadForm(A, B, mid)) < 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(lam_star, abs=1e-9)

    def test_quadratic_coefficient_positive(self):
        # 2*alpha*eta - 2*eta*delta + alpha*delta > 0 across the family
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_params(rng, lam_range=(-6.0, 6.0))
            r = spectral_roots(p)
            assert (2 * p.alpha * r.eta - 2 * r.eta * r.delta
                    + p.alpha * r.delta) > 0

    def test_k_derivative_closed_form(self):
        # k'(x) = -sqrt(beta) [1 + (delta-3alpha)x + (2 alpha eta
        #          - 2 eta delta + alpha delta) x^2]
        #         / (2 pi x^{3/2} (1-alpha x)^2 sqrt(1-eta x)),
        # checked against central differences of x * levy_density(x)
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_params(rng, lam_range=(-3.0, 3.0))
            r = spectral_roots(p)
            hi = 1.0 / r.eta
            for frac in (0.2, 0.5, 0.8):
                x = frac * hi
                h = 1e-6 * hi
                fd = ((x + h) * levy_density(p, x + h)
                      - (x - h) * levy_density(p, x - h)) / (2 * h)
                g = (1.0 + (r.delta - 3 * p.alpha) * x
                     + (2 * p.alpha * r.eta - 2 * r.eta * r.delta
                        + p.alpha * r.delta) * x * x)
                closed = (-math.sqrt(p.beta) * g
                          / (2 * math.pi * x ** 1.5
                             * (1 - p.alpha * x) ** 2
                             * math.sqrt(1 - r.eta * x)))
                assert fd == pytest.approx(closed, rel=5e-5)
