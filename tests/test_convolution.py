import math

import numpy as np
import pytest

from fgig import DomainError, NaturalParams
from fgig.convolution import free_convolve, subordination_at
from fgig.measures import (
    FreePoissonParams,
    atom_measure,
    build_fgig,
    build_free_poisson,
    build_semicircle,
    kolmogorov_distance,
    moment,
    shift,
)
from fgig.transforms import cauchy


@pytest.fixture(scope="module")
def mu_fgig():
    return build_fgig(NaturalParams(2.0, 8.0, 0.0), 512)


@pytest.fixture(scope="module")
def gig_poisson_pair():
    X = build_fgig(NaturalParams(2.0, 8.0, -1.0), 1024)
    Y = build_free_poisson(FreePoissonParams(0.5, 1.0), 1024)
    return X, Y


class TestSubordinationAt:
    def test_identity_element(self, mu_fgig):
        sp = subordination_at(mu_fgig, atom_measure([(0.0, 1.0)]), 2.0 + 1.0j)
        assert sp.omega1 == pytest.approx(2.0 + 1.0j, abs=1e-11)
        assert sp.g == pytest.approx(cauchy(mu_fgig, 2.0 + 1.0j), abs=1e-10)

    def test_swap_symmetry(self, mu_fgig, gig_poisson_pair):
        _, nu = gig_poisson_pair
        z = 1.5 + 0.8j
        a = subordination_at(mu_fgig, nu, z)
        b = subordination_at(nu, mu_fgig, z)
        assert a.omega1 == pytest.approx(b.omega2, abs=1e-10)
        assert a.omega2 == pytest.approx(b.omega1, abs=1e-10)

    def test_omega_identity_and_herglotz(self, gig_poisson_pair):
        X, Y = gig_poisson_pair
        rng = np.random.default_rng(0)
        for _ in range(10):
            z = complex(rng.uniform(0, 5), rng.uniform(0.05, 2.0))
            sp = subordination_at(X, Y, z)
            assert abs(sp.omega1 + sp.omega2 - 1.0 / sp.g - z) <= 1e-10
            assert sp.omega1.imag >= z.imag - 1e-12
            assert sp.omega2.imag >= z.imag - 1e-12

    def test_matches_target_transform(self, gig_poisson_pair):
        # G_mu(omega_1) equals the Cauchy transform of mu(2, 8, 1)
        X, Y = gig_poisson_pair
        target = build_fgig(NaturalParams(2.0, 8.0, 1.0), 1024)
        for z in (1.8 + 0.6j, 3.0 + 0.2j):
            sp = subordination_at(X, Y, z)
            assert abs(sp.g - cauchy(target, z)) <= 1e-7

    def test_requires_upper_half_plane(self, mu_fgig):
        with pytest.raises(DomainError):
            subordination_at(mu_fgig, mu_fgig, 1.0 - 0.5j)

    def test_iteration_exhaustion_raises(self, mu_fgig, gig_poisson_pair):
        from fgig import NumericError
        _, nu = gig_poisson_pair
        with pytest.raises(NumericError) as info:
            subordination_at(mu_fgig, nu, 1.5 + 0.8j, max_iter=1)
        assert info.value.residual is not None


class TestFreeConvolve:
    def test_translation_by_point_mass(self, mu_fgig):
        out = free_convolve(mu_fgig, atom_measure([(1.0, 1.0)]))
        assert kolmogorov_distance(out, shift(mu_fgig, 1.0)) <= 1e-8

    def test_semicircle_stability(self):
        s = build_semicircle(0.0, 1.0, 512)
        out = free_convolve(s, s)
        target = build_semicircle(0.0, math.sqrt(2.0), 512)
        assert kolmogorov_distance(out, target) <= 1e-5

    def test_gig_poisson_identity(self, gig_poisson_pair):
        X, Y = gig_poisson_pair
        out = free_convolve(X, Y)
        target = build_fgig(NaturalParams(2.0, 8.0, 1.0), 1024)
        assert abs(out.mass() - 1.0) <= 1e-6
        assert kolmogorov_distance(out, target) <= 1e-4

    @pytest.mark.parametrize("alpha, beta, lam", [(0.5, 0.5, 3.0),
                                                   (1.0, 1.0, 0.01)])
    def test_free_poisson_identity_near_axis(self, alpha, beta, lam):
        # the subordination points of these draws come within 1e-3 of the
        # axis, where a node-sum Cauchy transform is off by O(1)
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        out = free_convolve(X, Y)
        target = build_fgig(NaturalParams(alpha, beta, lam), 1024)
        assert kolmogorov_distance(out, target) <= 1e-4

    def test_mean_additivity(self, gig_poisson_pair):
        X, Y = gig_poisson_pair
        out = free_convolve(X, Y)
        assert moment(out, 1) == pytest.approx(moment(X, 1) + moment(Y, 1),
                                               abs=1e-6)
