import math

import numpy as np
import pytest

from fgig import (DomainError, NaturalParams, NumericError, PoleError,
                  SpectralRoots, levy, spectral_roots, transforms)
from fgig.measures import (FreePoissonParams, atom_measure, build_fgig,
                           build_free_poisson, fgig_density, moment)
from fgig.transforms import (
    cauchy,
    fid_certificate,
    free_cumulants,
    r_fgig,
    r_free_poisson,
)

from conftest import cauchy_from_r


def _bits(values):
    """The raw bits of complex values, so signed zeros count."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def random_params(rng, lam_range=(-4.0, 4.0)):
    return NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                         rng.uniform(*lam_range))


class TestBranchedSqrt:
    """The root ``sqrt(beta (eta - z))`` that ``r_fgig`` takes: positive
    left of ``eta``, ``+i sqrt(beta (x - eta))`` on the cut right of it
    (the limit from below), read against the quotient with that root."""

    P = NaturalParams(2.0, 8.0, -0.5)  # alpha = 2 removable, eta > alpha

    @staticmethod
    def quotient(p, z, root):
        r = spectral_roots(p)
        return ((-p.alpha + (p.lam + 1.0) * z + 2.0 * (z - r.delta) * root)
                / (2.0 * z * (p.alpha - z)))

    def test_positive_left_of_branch_point(self):
        p = self.P
        eta = spectral_roots(p).eta
        for x in (-2.0, 0.5, 0.5 * (p.alpha + eta), eta * (1.0 - 1e-3)):
            want = self.quotient(p, x, math.sqrt(p.beta * (eta - x)))
            got = r_fgig(p, complex(x))
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-12)

    def test_value_at_origin_matches_rate(self):
        # 2*(0 - delta)*sqrt(beta*eta) must equal alpha
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_params(rng)
            r = spectral_roots(p)
            assert 2.0 * (-r.delta) * math.sqrt(p.beta * r.eta) == (
                pytest.approx(p.alpha, rel=1e-10))

    def test_branch_from_below_right_of_branch_point(self):
        p = self.P
        eta = spectral_roots(p).eta
        for x in (eta * (1.0 + 1e-3), 2.0 * eta, 40.0):
            want = self.quotient(p, x, 1j * math.sqrt(p.beta * (x - eta)))
            got = r_fgig(p, complex(x))
            assert got.imag < 0.0
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_continuity_along_real_axis(self):
        # eta well right of alpha, so r is not steep between them
        p = NaturalParams(0.5, 2.0, -3.0)
        xs = np.linspace(-2.0, 3.0 * spectral_roots(p).eta, 2001)
        vals = r_fgig(p, xs.astype(complex))
        steps = np.abs(np.diff(vals))
        # no branch jump: the other sheet past 2 eta would step by 0.95
        assert np.max(steps) < 0.1 * np.max(np.abs(vals))

    def test_matches_lower_half_plane_limit(self):
        p = self.P
        x = 2.0 * spectral_roots(p).eta
        from_below = r_fgig(p, complex(x, -1e-12))
        assert abs(r_fgig(p, complex(x)) - from_below) < 1e-6

    def test_branch_from_below_on_an_array(self):
        # x - 0j right of eta: the limit from below on the whole array,
        # as at each point alone
        p = self.P
        eta = spectral_roots(p).eta
        xs = np.array([eta * (1.0 + 1e-12), 1.5 * eta, 2.0 * eta, 40.0])
        z = xs.astype(complex)
        z.imag = -0.0
        vals = r_fgig(p, z)
        assert np.all(vals.imag < 0.0)
        want = [self.quotient(p, x, 1j * math.sqrt(p.beta * (x - eta)))
                for x in xs]
        assert np.allclose(vals, want, rtol=1e-12, atol=0.0)
        assert _bits(vals) == _bits([r_fgig(p, complex(w)) for w in z])


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

    def test_mean_at_origin_with_a_tiny_rate(self):
        # the value moment(build_fgig(p, 1024), 1) gives; the closed form
        # cancels here to inf + nan j
        p = NaturalParams(1.4033009307223134e-06, 5379.688130033956,
                          -6.582040051910646)
        val = r_fgig(p, 0.0)
        assert np.isfinite(val)
        assert abs(val / 963.4743188617 - 1.0) <= 1e-12

    def test_out_of_range_raises(self):
        # at lam = -5e-324 the removable value at alpha overflows
        with pytest.raises(NumericError):
            r_fgig(NaturalParams(1.0, 1.0, -5e-324), 1.0)

    def test_schwarz_reflection(self):
        # r(conj z) = conj r(z) to the bit, alone or in one array with z
        rng = np.random.default_rng(5)
        params = [NaturalParams(1.5, 2.5, -1.0)]
        params += [random_params(rng) for _ in range(4)]
        for p in params:
            zs = (rng.uniform(-5, 5, 100)
                  - 1j * 10.0 ** rng.uniform(-9, 1, 100))
            lower = r_fgig(p, zs)
            assert _bits(r_fgig(p, np.conj(zs))) == _bits(np.conj(lower))
            both = r_fgig(p, np.concatenate((zs, np.conj(zs))))
            assert _bits(both) == _bits(np.concatenate((lower,
                                                        np.conj(lower))))

    @pytest.mark.parametrize("triple", [(2.0, 8.0, 1.0), (1.5, 2.5, -1.0),
                                        (2.0, 8.0, 0.5), (0.01, 300.0, -3.0)])
    def test_real_axis_array_matches_scalars(self, triple):
        # points on the real axis with +0.0 and -0.0 imaginary parts, on
        # both sides of eta, alone and next to upper half-plane points
        # that make the array reflect: the same bits as one by one
        p = NaturalParams(*triple)
        eta = spectral_roots(p).eta
        xs = np.array([-3.0, 0.0, 0.4 * p.alpha, 0.5 * (p.alpha + eta), eta,
                       1.01 * eta, 3.0 * eta])
        plus = xs.astype(complex)
        minus = xs.astype(complex)
        minus.imag = -0.0
        axis = np.concatenate((plus, minus))
        one_by_one = _bits([r_fgig(p, complex(z)) for z in axis])
        assert _bits(r_fgig(p, axis)) == one_by_one
        mixed = r_fgig(p, np.concatenate((axis, [0.3 + 1.0j, 2.0 + 1e-9j])))
        assert _bits(mixed[:axis.size]) == one_by_one
        # the axis is the limit from below whatever the sign of zero
        assert _bits(r_fgig(p, plus)) == _bits(r_fgig(p, minus))

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

    def test_near_axis_closed_form(self):
        # below the resolution of 64 nodes a built measure answers from its
        # closed form, and -Im G/pi is the density to O(Im z)
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


class TestFreeCumulants:
    def test_first_cumulant_is_mean(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        m = build_fgig(p, 256)
        assert free_cumulants(p, 1)[0] == pytest.approx(moment(m, 1), rel=1e-10)

    def test_additivity_under_poisson_convolution(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            al = 10 ** rng.uniform(-0.5, 0.5)
            be = 10 ** rng.uniform(-0.5, 0.5)
            lam = rng.uniform(0.2, 3.0)
            k_minus = free_cumulants(NaturalParams(al, be, -lam), 12)
            k_plus = free_cumulants(NaturalParams(al, be, lam), 12)
            # nu(1/al, lam) has the cumulants lam * (1/al)**k
            k_nu = lam * (1.0 / al) ** np.arange(1, 13)
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

    def test_where_the_closed_form_cancelled(self, levy_moments40):
        # the series of the closed form read kappa_3 = -2.80e-7 here, where
        # the Levy-measure moment is +6.25e-11
        p = NaturalParams(1e-3, 1e-3, -3.0)
        want = [float(m) for m in levy_moments40(p, 8)]
        assert free_cumulants(p, 8) == pytest.approx(want, rel=1e-12, abs=0)

    def test_right_or_raise_at_every_order(self, levy_moments40):
        # kappa_52 ~ 4e304/alpha overflows; order 52 raised OverflowError
        # from (-1/eta)**k, and order 51 warned from the geometric series
        p = NaturalParams(1e-6, 1.0, 0.0)
        want = [float(m) for m in levy_moments40(p, 51)]
        for n in range(1, 65):
            if n <= 51:
                assert free_cumulants(p, n) == pytest.approx(
                    want[:n], rel=1e-12, abs=0)
            else:
                with pytest.raises(NumericError):
                    free_cumulants(p, n)


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
    TRIPLES = [(2.0, 8.0, 0.0), (1.0, 1.0, 5.0), (0.5, 2.0, -3.0),
               # the closed form cancels here
               (697.24, 437.65, 0.1535), (0.0180, 15.32, -0.0369),
               (1e3, 1e3, 3.0)]

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_passes(self, triple):
        report = fid_certificate(NaturalParams(*triple))
        assert report.passed
        assert report.sign_pattern
        assert report.max_imag <= 1e-9
        assert report.cut_residual <= 2e-9

    def test_report_fields(self):
        report = fid_certificate(NaturalParams(1.0, 1.0, 0.5))
        assert report.n_points == 800
        assert report.tol == 1e-9

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_imaginary_offset_fails_off_the_cut(self, monkeypatch, triple):
        # 1e-9 passes the stated max Im r <= 1e-9 and the cut gate; only
        # the off-cut gate, |Im r| <= 1e-15 max |r|, catches it
        monkeypatch.setattr(transforms, "r_fgig",
                            lambda p, z: r_fgig(p, z) + 1e-9j)
        report = fid_certificate(NaturalParams(*triple))
        assert report.max_imag <= report.tol
        assert report.cut_residual <= 2e-9
        assert report.sign_pattern
        assert not report.passed

    @pytest.mark.parametrize("flip", [
        # the other sheet: -sqrt turns (u + v)/d into 2u/d - r
        lambda r: lambda p, z: ((p.lam * z + (z - p.alpha))
                                / (z * (p.alpha - z)) - r(p, z)),
        # the branch continuous from above: -i sqrt(beta (x - eta)) on the cut
        lambda r: lambda p, z: np.conj(r(p, np.conj(z))),
    ])
    @pytest.mark.parametrize("triple", TRIPLES)
    def test_flipped_branch_fails(self, monkeypatch, triple, flip):
        monkeypatch.setattr(transforms, "r_fgig", flip(r_fgig))
        report = fid_certificate(NaturalParams(*triple))
        assert report.max_imag > report.tol
        assert not report.passed

    @staticmethod
    def delta_above_zero(p):
        r = spectral_roots(p)
        return SpectralRoots(r.gamma, -r.delta, r.eta)

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_levy_density_with_delta_above_zero_fails(self, monkeypatch,
                                                      triple):
        # tau with 1 + |delta| x for 1 - delta x: the boundary identity
        # breaks, as nothing else the certificate reads moved
        monkeypatch.setattr(levy, "spectral_roots", self.delta_above_zero)
        report = fid_certificate(NaturalParams(*triple))
        assert report.sign_pattern
        assert report.cut_residual > 2e-9
        assert not report.passed

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_roots_with_delta_above_zero_fail(self, monkeypatch, triple):
        # delta moved for r and tau alike: the theorem's route fails on
        # the roots alone
        monkeypatch.setattr(levy, "spectral_roots", self.delta_above_zero)
        monkeypatch.setattr(transforms, "spectral_roots",
                            self.delta_above_zero)
        report = fid_certificate(NaturalParams(*triple))
        assert not report.sign_pattern
        assert not report.passed
