import math

import numpy as np
import pytest

from fgig import DomainError, NaturalParams, PoleError, spectral_roots
from fgig.measures import (FreePoissonParams, atom_measure, build_fgig,
                           build_free_poisson, fgig_density,
                           free_poisson_density, moment)
from fgig.transforms import (
    BranchedSqrtEvaluator,
    cauchy,
    cauchy_from_r,
    fid_certificate,
    free_cumulants,
    free_poisson_cumulants,
    r_fgig,
    r_free_poisson,
    stieltjes_density,
)


def random_params(rng, lam_range=(-4.0, 4.0)):
    return NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                         rng.uniform(*lam_range))


class TestBranchedSqrt:
    def test_positive_left_of_branch_point(self):
        sq = BranchedSqrtEvaluator(8.0, 2.0)
        assert sq(0.0) == pytest.approx(4.0)
        assert sq(-2.0).imag == 0.0

    def test_value_at_origin_matches_rate(self):
        # 2*(0 - delta)*sqrt(beta*eta) must equal alpha
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_params(rng)
            r = spectral_roots(p)
            sq = BranchedSqrtEvaluator(p.beta, r.eta)
            assert 2.0 * (-r.delta) * sq(0.0).real == pytest.approx(
                p.alpha, rel=1e-10)

    def test_branch_from_below_right_of_branch_point(self):
        sq = BranchedSqrtEvaluator(8.0, 2.0)
        val = sq(3.0)
        assert val.real == pytest.approx(0.0, abs=1e-14)
        assert val.imag == pytest.approx(math.sqrt(8.0), rel=1e-14)

    def test_continuity_along_real_axis(self):
        sq = BranchedSqrtEvaluator(2.0, 1.0)
        xs = np.linspace(-2.0, 3.0, 2001)
        vals = sq(xs.astype(complex))
        steps = np.abs(np.diff(vals))
        assert np.max(steps) < 0.2  # no branch jump (which would be O(1))

    def test_matches_lower_half_plane_limit(self):
        sq = BranchedSqrtEvaluator(2.0, 1.0)
        x = 2.5
        from_below = sq(complex(x, -1e-12))
        assert abs(sq(x) - from_below) < 1e-6


class TestRTransform:
    def test_value_at_origin_is_mean(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        assert r_fgig(p, 0.0) == pytest.approx(2.125)

    def test_lam_zero_closed_form(self):
        # for lam = 0: r = -1/(2z) + sqrt(beta)(z - delta)/(z sqrt(alpha - z))
        p = NaturalParams(2.0, 8.0, 0.0)
        roots = spectral_roots(p)
        zs = np.array([1.3 - 0.4j, -2.0 - 1.0j, 0.5 - 0.1j])
        expect = (-1.0 / (2 * zs)
                  + math.sqrt(p.beta) * (zs - roots.delta)
                  / (zs * np.sqrt(p.alpha - zs)))
        assert np.allclose(r_fgig(p, zs), expect, rtol=1e-12)

    def test_im_nonpositive_on_lower_half_plane(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = random_params(rng)
            zs = (rng.uniform(-5, 5, 200)
                  + 1j * rng.uniform(-5, -1e-3, 200))
            assert np.max(r_fgig(p, zs).imag) <= 1e-12

    def test_boundary_values(self):
        p = NaturalParams(2.0, 8.0, 1.0)
        roots = spectral_roots(p)
        # real axis left of the singular point and up to eta: real values
        between = p.alpha + 0.5 * (roots.eta - p.alpha)
        for x in (-3.0, 0.5, 1.9, between, roots.eta):
            assert abs(r_fgig(p, x).imag) <= 1e-14
        # beyond eta the branch turns negative imaginary
        for x in (roots.eta + 0.1, roots.eta + 2.0):
            val = r_fgig(p, x)
            expect = ((x - roots.delta) * math.sqrt(p.beta * (x - roots.eta))
                      / (x * (p.alpha - x)))
            assert val.imag == pytest.approx(expect, rel=1e-12)
            assert val.imag < 0

    def test_pole_error_for_positive_lam(self):
        with pytest.raises(PoleError) as info:
            r_fgig(NaturalParams(1.0, 1.0, 5.0), 1.0)
        assert info.value.residue == pytest.approx(-5.0)

    def test_guard_matches_closed_form_at_guard_boundary(self):
        # series and closed form agree where they hand over; the pair of
        # points straddles the guard so tightly that the function's own
        # variation between them is negligible
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_params(rng)
            g = 1e-5 * max(1.0, p.alpha)
            z_in = g * (1.0 - 1e-9)
            z_out = g * (1.0 + 1e-9)
            assert r_fgig(p, z_in) == pytest.approx(r_fgig(p, z_out),
                                                    rel=1e-9)

    def test_schwarz_reflection(self):
        p = NaturalParams(1.5, 2.5, -1.0)
        zs = np.array([0.7 + 0.3j, -1.0 + 2.0j, 3.0 + 0.05j])
        assert np.allclose(r_fgig(p, np.conj(zs)), np.conj(r_fgig(p, zs)),
                           rtol=1e-13)

    def test_removable_point_for_negative_lam(self):
        p = NaturalParams(1.0, 1.0, -2.0)
        val = r_fgig(p, p.alpha)
        roots = spectral_roots(p)
        kappa = (math.sqrt(p.beta) * (2 * roots.eta - 3 * p.alpha + roots.delta)
                 / math.sqrt(roots.eta - p.alpha))
        expect = -(1.0 + p.lam + kappa) / (2.0 * p.alpha)
        assert val.real == pytest.approx(expect, rel=1e-9)
        assert abs(val.imag) <= 1e-12


class TestFreePoissonTransform:
    def test_value_at_origin(self):
        fp = FreePoissonParams(0.5, 2.0)
        assert r_free_poisson(fp, 0.0) == pytest.approx(1.0)

    def test_worked_value(self):
        assert r_free_poisson(FreePoissonParams(1.0, 1.0), -1.0) == (
            pytest.approx(0.5))

    def test_conjugate_symmetry(self):
        fp = FreePoissonParams(1.0, 1.5)
        z = 0.3 - 0.8j
        assert np.conj(r_free_poisson(fp, np.conj(z))) == pytest.approx(
            r_free_poisson(fp, z))

    def test_pole(self):
        with pytest.raises(PoleError) as info:
            r_free_poisson(FreePoissonParams(0.5, 3.0), 2.0)
        assert info.value.residue == pytest.approx(-3.0)


class TestCauchy:
    def test_point_mass(self):
        d = atom_measure([(2.0, 1.0)])
        z = 3.0 + 1.0j
        assert cauchy(d, z) == pytest.approx(1.0 / (z - 2.0))

    def test_tail_normalization(self):
        # z G(z) -> mass with a first-order term mean/|z|
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        mean = moment(m, 1)
        for y in (1e3, 1e5):
            val = cauchy(m, 1j * y) * 1j * y
            assert abs(val - 1.0) <= 1.01 * mean / y

    def test_herglotz_sign(self):
        m = build_fgig(NaturalParams(1.0, 1.0, 2.0), 256)
        zs = np.linspace(-1, 6, 40) + 0.3j
        assert np.all(cauchy(m, zs).imag < 0)

    def test_on_support_rejected(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        with pytest.raises(DomainError):
            cauchy(m, 2.0 + 0.0j)

    def test_near_axis_quadrature_fallback(self):
        # just below the node-sum resolution a built measure answers from
        # its closed form; grid measures take the quad path here
        # (test_cauchy_closed_form covers that fallback)
        p = NaturalParams(2.0, 8.0, 0.0)
        m = build_fgig(p, 64)
        z = 2.0 + 1e-4j
        val = cauchy(m, z)
        assert -val.imag / math.pi == pytest.approx(fgig_density(p, 2.0),
                                                    rel=1e-3)


class TestCauchyFromR:
    def test_two_routes_agree_on_grid(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        m = build_fgig(p, 512)
        zs = np.linspace(-1.0, 6.0, 25) + 0.5j
        direct = cauchy(m, zs)
        inverted = np.array([cauchy_from_r(lambda w: r_fgig(p, w), z)
                             for z in zs])
        assert np.max(np.abs(direct - inverted)) <= 1e-8

    def test_free_poisson_routes(self):
        fp = FreePoissonParams(0.5, 2.0)
        m = build_free_poisson(fp, 512)
        zs = np.linspace(-0.5, 4.0, 15) + 0.6j
        direct = cauchy(m, zs)
        inverted = np.array([cauchy_from_r(lambda w: r_free_poisson(fp, w), z)
                             for z in zs])
        assert np.max(np.abs(direct - inverted)) <= 1e-8

    def test_zero_transform_gives_reciprocal(self):
        z = 1.2 + 0.9j
        assert cauchy_from_r(lambda w: 0.0 * w, z) == pytest.approx(1.0 / z)

    def test_residual_contract(self):
        p = NaturalParams(1.0, 2.0, 1.5)
        z = 0.8 + 0.4j
        w = cauchy_from_r(lambda u: r_fgig(p, u), z)
        assert abs(r_fgig(p, w) + 1.0 / w - z) <= 1e-11


class TestStieltjesDensity:
    def test_recovers_fgig_density(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        m = build_fgig(p, 256)
        val = stieltjes_density(lambda z: cauchy(m, z), 2.0)
        assert val == pytest.approx(fgig_density(p, 2.0), abs=1e-4)

    def test_outside_support_is_tiny(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        assert stieltjes_density(lambda z: cauchy(m, z), 0.5) <= 1e-6
        assert stieltjes_density(lambda z: cauchy(m, z), 4.5) <= 1e-6

    def test_recovers_free_poisson_center(self):
        fp = FreePoissonParams(1.0, 2.0)
        m = build_free_poisson(fp, 256)
        center = fp.jump * (1.0 + fp.rate)
        val = stieltjes_density(lambda z: cauchy(m, z), center)
        assert val == pytest.approx(free_poisson_density(fp, center), abs=1e-4)

    def test_non_settling_ladder_raises(self):
        from fgig import NumericError

        def wobbly(z):
            z = np.asarray(z, dtype=complex)
            return -1j * np.sin(1.0 / z.imag) * np.ones_like(z)

        with pytest.raises(NumericError):
            stieltjes_density(wobbly, 0.0)


class TestFreeCumulants:
    def test_first_cumulant_is_mean(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        m = build_fgig(p, 256)
        assert free_cumulants(p, 1)[0] == pytest.approx(moment(m, 1), rel=1e-10)

    def test_free_poisson_cumulants_geometric(self):
        fp = FreePoissonParams(0.5, 2.0)
        k = free_poisson_cumulants(fp, 6)
        assert np.allclose(k, 2.0 * 0.5 ** np.arange(1, 7))

    def test_additivity_under_poisson_convolution(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            al = 10 ** rng.uniform(-0.5, 0.5)
            be = 10 ** rng.uniform(-0.5, 0.5)
            lam = rng.uniform(0.2, 3.0)
            k_minus = free_cumulants(NaturalParams(al, be, -lam), 12)
            k_plus = free_cumulants(NaturalParams(al, be, lam), 12)
            k_nu = free_poisson_cumulants(FreePoissonParams(1.0 / al, lam), 12)
            scale = np.maximum(np.abs(k_plus), 1.0)
            assert np.max(np.abs(k_minus + k_nu - k_plus) / scale) <= 1e-12

    def test_cumulants_match_moments_low_order(self):
        # kappa_2 = m_2 - m_1^2 for any compactly supported law
        p = NaturalParams(1.0, 2.0, -1.0)
        m = build_fgig(p, 512)
        k = free_cumulants(p, 2)
        assert k[1] == pytest.approx(moment(m, 2) - moment(m, 1) ** 2,
                                     rel=1e-9)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            free_cumulants(NaturalParams(1.0, 1.0, 0.0), 65)


class TestRAdditivity:
    def test_transform_identity_on_grid(self):
        rng = np.random.default_rng(4)
        al, be, lam = 2.0, 8.0, 1.0
        zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, -0.05, 100)
        total = (r_fgig(NaturalParams(al, be, -lam), zs)
                 + r_free_poisson(FreePoissonParams(1.0 / al, lam), zs))
        assert np.max(np.abs(total - r_fgig(NaturalParams(al, be, lam), zs))
                      ) <= 1e-10


class TestFidCertificate:
    @pytest.mark.parametrize("triple", [(2.0, 8.0, 0.0), (1.0, 1.0, 5.0),
                                        (0.5, 2.0, -3.0)])
    def test_passes(self, triple):
        report = fid_certificate(NaturalParams(*triple), n_grid=120)
        assert report.passed
        assert report.max_imag <= 1e-9

    def test_report_fields(self):
        report = fid_certificate(NaturalParams(1.0, 1.0, 0.5), n_grid=60)
        assert report.n_points > 3600
        assert report.tol == 1e-9
