import math

import numpy as np
import pytest

from fgig import DomainError, NaturalParams
from fgig.measures import (
    FreePoissonParams,
    SpectralMeasure,
    atom_measure,
    build_fgig,
    build_free_poisson,
    build_semicircle,
    density_sup_distance,
    dilate,
    fgig_density,
    free_poisson_density,
    kolmogorov_distance,
    mode,
    mode_quadratic,
    moment,
    pushforward_reciprocal,
    shift,
    trim_support,
)
from fgig.params import solve_support
from fgig.transforms import cauchy, r_fgig


def random_params(rng, lam_range=(-4.0, 4.0)):
    return NaturalParams(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1),
                         rng.uniform(*lam_range))


class TestFgigDensity:
    def test_worked_value(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        assert fgig_density(p, 2.0) == pytest.approx(math.sqrt(2) / math.pi,
                                                     rel=1e-13)

    def test_vanishes_at_endpoints_and_outside(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        assert fgig_density(p, 1.0) == 0.0
        assert fgig_density(p, 4.0) == 0.0
        assert fgig_density(p, 0.5) == 0.0
        assert fgig_density(p, 5.0) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_params(rng)
            xs = np.linspace(0.0, 10.0, 500)
            assert np.all(fgig_density(p, xs) >= 0.0)


class TestBuildFgig:
    def test_mass_and_mean(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        assert m.mass() == pytest.approx(1.0, abs=1e-12)
        assert moment(m, 1) == pytest.approx(2.125, rel=1e-12)
        assert m.support == pytest.approx((1.0, 4.0), rel=1e-10)
        assert not m.atoms

    def test_mass_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = build_fgig(random_params(rng), 256)
            assert m.mass() == pytest.approx(1.0, abs=1e-10)

    def test_mean_equals_transform_at_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_params(rng)
            m = build_fgig(p, 256)
            assert moment(m, 1) == pytest.approx(r_fgig(p, 0.0).real, rel=1e-9)

    def test_node_floor(self):
        with pytest.raises(DomainError):
            build_fgig(NaturalParams(2.0, 8.0, 0.0), 8)


class TestFreePoisson:
    def test_no_atom_at_unit_rate(self):
        m = build_free_poisson(FreePoissonParams(1.0, 1.0), 256)
        assert m.atoms == ()
        assert m.mass() == pytest.approx(1.0, abs=1e-12)

    def test_atom_weight_below_unit_rate(self):
        m = build_free_poisson(FreePoissonParams(1.0, 0.25), 256)
        assert m.atoms == ((0.0, 0.75),)
        assert m.mass() == pytest.approx(1.0, abs=1e-10)

    def test_mean_is_jump_times_rate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fp = FreePoissonParams(10 ** rng.uniform(-1, 1),
                                   10 ** rng.uniform(-0.5, 0.7))
            m = build_free_poisson(fp, 256)
            assert moment(m, 1) == pytest.approx(fp.jump * fp.rate, rel=1e-9)

    def test_density_support(self):
        fp = FreePoissonParams(1.0, 2.0)
        lo = (1 - math.sqrt(2)) ** 2
        hi = (1 + math.sqrt(2)) ** 2
        assert free_poisson_density(fp, lo - 1e-9) == 0.0
        assert free_poisson_density(fp, 0.5 * (lo + hi)) > 0.0
        assert free_poisson_density(fp, hi + 1e-9) == 0.0


class TestMoment:
    def test_normalization(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        assert moment(m, 0) == pytest.approx(1.0, abs=1e-12)

    def test_atom_measure_powers(self):
        d = atom_measure([(2.0, 1.0)])
        for k in range(-2, 4):
            assert moment(d, k) == pytest.approx(2.0 ** k)

    def test_negative_moment_guards(self):
        with pytest.raises(DomainError):
            moment(atom_measure([(0.0, 1.0)]), -1)
        with pytest.raises(DomainError):
            moment(build_fgig(NaturalParams(2.0, 8.0, 0.0), 64), -3)

    def test_inverse_moment_matches_reciprocal_mean(self):
        # E[1/X] for mu(2,8,0) equals E[Y] for the inverted parameters
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        mi = build_fgig(NaturalParams(8.0, 2.0, 0.0), 256)
        assert moment(m, -1) == pytest.approx(moment(mi, 1), rel=1e-10)


class TestMode:
    def test_worked_fixture(self):
        value = mode(NaturalParams(2.0, 8.0, 0.0))
        assert value == pytest.approx(-11.0 + math.sqrt(153.0), abs=1e-10)

    def test_quadratic_residual(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_params(rng)
            x = mode(p)
            c2, c1, c0 = mode_quadratic(p)
            scale = max(abs(c2) * x * x, abs(c1) * x, abs(c0))
            assert abs(c2 * x * x + c1 * x + c0) <= 1e-10 * scale

    def test_derivative_sign_change(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_params(rng)
            x = mode(p)
            h = 1e-6 * x
            up = fgig_density(p, x + h)
            down = fgig_density(p, x - h)
            center = fgig_density(p, x)
            assert center >= up and center >= down

    def test_density_derivative_vanishes(self):
        p = NaturalParams(2.0, 8.0, 0.0)
        x = mode(p)
        h = 1e-5
        deriv = (fgig_density(p, x + h) - fgig_density(p, x - h)) / (2 * h)
        assert abs(deriv) <= 1e-8

    def test_unimodal_shape_on_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            p = random_params(rng)
            m = build_fgig(p, 256)
            lo, hi = m.support
            xs = np.linspace(lo, hi, 10_000)
            ys = fgig_density(p, xs)
            x_mode = mode(p)
            before = ys[xs <= x_mode]
            after = ys[xs >= x_mode]
            assert np.all(np.diff(before) >= -1e-9 * np.max(ys))
            assert np.all(np.diff(after) <= 1e-9 * np.max(ys))


class TestReciprocalPushforward:
    def test_matches_inverted_parameters(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        mi = pushforward_reciprocal(build_fgig(NaturalParams(8.0, 2.0, 0.0), 256))
        assert density_sup_distance(m, mi) <= 1e-8
        assert kolmogorov_distance(m, mi) <= 1e-8

    def test_atom_maps(self):
        d = pushforward_reciprocal(atom_measure([(2.0, 0.25), (4.0, 0.75)]))
        assert d.atoms == ((0.5, 0.25), (0.25, 0.75))

    def test_involution(self):
        m = build_fgig(NaturalParams(1.3, 0.8, 1.5), 256)
        back = pushforward_reciprocal(pushforward_reciprocal(m))
        assert kolmogorov_distance(m, back) <= 1e-9

    def test_mass_preserved(self):
        m = build_fgig(NaturalParams(0.7, 2.2, -1.0), 256)
        assert pushforward_reciprocal(m).mass() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_mass_at_zero(self):
        with pytest.raises(DomainError):
            pushforward_reciprocal(atom_measure([(0.0, 1.0)]))

    def test_support_is_the_reciprocal_interval(self):
        p = NaturalParams(2.0, 8.0, -1.0)
        s = solve_support(p)
        r = pushforward_reciprocal(build_fgig(p, 1024))
        assert r.support[0] == pytest.approx(1.0 / s.b, rel=1e-14)
        assert r.support[1] == pytest.approx(1.0 / s.a, rel=1e-14)
        with pytest.raises(DomainError):
            cauchy(r, r.support[0] + 0.0j)


class TestTrimSupport:
    def test_built_measure_is_returned_unchanged(self):
        m = build_fgig(NaturalParams(2.0, 8.0, -1.0), 1024)
        assert trim_support(m) is m


class TestKolmogorovDistance:
    def test_identity(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 128)
        assert kolmogorov_distance(m, m) == 0.0

    def test_point_masses(self):
        d0 = atom_measure([(0.0, 1.0)])
        d1 = atom_measure([(1.0, 1.0)])
        assert kolmogorov_distance(d0, d1) == pytest.approx(1.0)

    def test_partial_atoms(self):
        d = atom_measure([(0.0, 0.5), (1.0, 0.5)])
        d0 = atom_measure([(0.0, 1.0)])
        assert kolmogorov_distance(d, d0) == pytest.approx(0.5)

    def test_translation_sensitivity(self):
        m = build_semicircle(0.0, 1.0, 128)
        shifted = shift(m, 0.1)
        d = kolmogorov_distance(m, shifted)
        assert 0.05 < d < 0.2


class TestTransformHelpers:
    def test_shift_moments(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        s = shift(m, 3.0)
        assert moment(s, 1) == pytest.approx(moment(m, 1) + 3.0, rel=1e-12)
        assert s.mass() == pytest.approx(1.0, abs=1e-12)

    def test_dilate_moments(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        d = dilate(m, 2.0)
        assert moment(d, 1) == pytest.approx(2.0 * moment(m, 1), rel=1e-12)
        assert moment(d, 2) == pytest.approx(4.0 * moment(m, 2), rel=1e-12)

    @pytest.mark.parametrize("op", [shift, dilate])
    def test_maps_carry_closed_form_and_marker(self, op):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 256)
        out = op(m, 1.5)
        assert out.chebyshev
        z = np.array([0.3 + 2.0j, 7.0 + 0.5j])
        w = z - 1.5 if op is shift else z / 1.5
        scale = 1.0 if op is shift else 1.5
        assert np.allclose(out.cauchy_fn(z), m.cauchy_fn(w) / scale,
                           rtol=1e-14, atol=0.0)

    def test_dilate_density_scaling(self):
        m = build_semicircle(1.0, 1.0, 128)
        d = dilate(m, 3.0)
        assert d.density(3.0) == pytest.approx(m.density(1.0) / 3.0, rel=1e-12)


class TestSpectralMeasure:
    def test_positional_construction_raises(self):
        with pytest.raises(TypeError):
            SpectralMeasure((), None, None, np.array([]), np.array([]))
