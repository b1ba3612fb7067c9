import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fgig import DomainError, NaturalParams, NumericError, solve_support
from fgig import convolution, measures
from fgig.convolution import (_MAX_ITER, _solve_omega, free_convolve,
                              subordination_at)
from fgig.entropy import log_energy
from fgig.measures import (
    FreePoissonParams,
    _rational_upper_mass,
    atom_measure,
    build_fgig,
    build_free_poisson,
    build_semicircle,
    kolmogorov_distance,
    moment,
    shift,
)
from fgig.transforms import cauchy, cauchy_nodes


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

    @pytest.mark.parametrize("lam, counts", [(1.0, (64, 256, 1024)),
                                              (1.02, (1024, 4096))],
                             ids=["rate_1", "bumped"])
    def test_output_resolution_is_its_own(self, lam, counts):
        # the inputs' quadrature is never read; at rate 1.02 the free
        # Poisson law's nodes are bumped past 1024, to 2827 at 1024
        xs = np.linspace(0.0, 8.0, 801)
        outs = []
        for n in counts:
            Y = build_free_poisson(FreePoissonParams(0.5, lam), n)
            assert Y.nodes.size == (2827 if lam == 1.02 and n == 1024 else n)
            outs.append(free_convolve(
                build_fgig(NaturalParams(2.0, 8.0, -lam), n), Y))
        first = outs[0]
        assert first.nodes.size == convolution._OUT_NODES
        for out in outs[1:]:
            for name in ("nodes", "cdf_x"):
                np.testing.assert_array_equal(getattr(out, name),
                                              getattr(first, name))
            np.testing.assert_array_equal(out.cdf(out.cdf_x),
                                          first.cdf(first.cdf_x))
            np.testing.assert_array_equal(out.density(xs), first.density(xs))

    @pytest.mark.parametrize("alpha, beta, lam", [
        (0.2536256999333209, 1.0059424650888968, 0.25146110115217557),
        (0.2553491537223743, 1.0169285461346727, 0.3133665529339661)])
    def test_full_coefficient_budget_stays_right(self, alpha, beta, lam,
                                                 monkeypatch):
        # with edges estimated from probes the chop found no plateau at
        # these draws and kept all 1024 coefficients, 7.3e-14 and 4.7e-14
        # off mu(alpha, beta, lam) in Kolmogorov distance; with exact
        # edges it keeps about a hundred
        kept, real = [], measures._chebyshev_coefficients

        def counted(g):
            c = real(g)
            kept.append(c.size)
            return c

        monkeypatch.setattr(measures, "_chebyshev_coefficients", counted)
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        target = build_fgig(NaturalParams(alpha, beta, lam), 1024)
        assert kolmogorov_distance(free_convolve(X, Y), target) <= 1e-13
        assert kept and max(kept) < convolution._OUT_NODES

    @pytest.mark.parametrize("alpha, beta, lam", [
        (0.028345344044002258, 1.3352911159351498e-05, 5.322871058112715),
        (7.357748116078803e-05, 0.013335595877694052, 44.17987705838271),
        (6.2347749411398575e-06, 0.0012841857612744087, 6.205507184970864)])
    def test_exterior_stall_no_longer_raises(self, alpha, beta, lam):
        # these raised "density vanishes inside its support": the grid
        # solve stalled outside the support, where omega_1 is real, and ran
        # to _MAX_ITER on points next to it
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        target = build_fgig(NaturalParams(alpha, beta, lam), 1024)
        assert kolmogorov_distance(free_convolve(X, Y), target) <= 1e-11

    @pytest.mark.parametrize("alpha, beta, lam", [
        (0.9172362808717155, 0.0009336391710107685, 0.599583336869868),
        (99.03209403747292, 1.669848959951711e-06, 0.12625354926084337),
        (0.00016213617966814406, 8.63700106879389, 0.1178673311923793)])
    def test_lost_mass_raises(self, alpha, beta, lam):
        # these outputs were 7.5e-5, 2.4e-6 and 8.4e-9 in Kolmogorov distance
        # from mu(alpha, beta, lam), with the mass 6.1e-5, 1.7e-6 and 7.1e-9
        # off; with exact edges the chop finds no plateau in 1024
        # coefficients, and the residual is the tail ratio.  The second came
        # back 5.8e-7 off with its mass within 8.4e-11, where the mass gate
        # alone cannot see it
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        with pytest.raises(NumericError) as info:
            free_convolve(X, Y)
        assert 0.0 < info.value.residual < math.inf

    @pytest.mark.parametrize("alpha, beta, lam", [
        (0.0193, 2e-05, 26.5), (1.22e-06, 1.04e-03, 22.5),
        (0.00159, 0.0169, 47.3)])
    def test_failed_solves_inside_the_support(self, alpha, beta, lam):
        """Right to 1e-11 or ``NumericError``: each raises "subordination
        failed inside the support", where a solve at one of the output's
        nodes did not converge."""
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        try:
            out = free_convolve(X, Y)
        except NumericError:
            return
        target = build_fgig(NaturalParams(alpha, beta, lam), 1024)
        assert kolmogorov_distance(out, target) <= 1e-11

    def test_no_extremum_raises(self):
        # a semicircle declared on (-3, 3): out to G at the declared edge
        # the inverse of G_{mu (+) nu} keeps falling, so the edge search
        # finds no extremum
        s = build_semicircle(0.0, 1.0, 256)
        with pytest.raises(NumericError, match="no extremum") as info:
            free_convolve(replace(s, support=(-3.0, 3.0)), s)
        assert info.value.residual > 0.5

    def test_support_edges_are_exact(self):
        for alpha, beta, lam in [
                (2.0, 8.0, 1.0), (0.7, 2.5, 2.0), (1.0, 0.3, 0.5),
                (3.0, 0.5, 3.5), (0.3, 5.0, 0.2),
                # atoms at 0, left edges next to 0, and a law whose chop
                # later finds no plateau
                (1.0, 0.00990766519323947, 0.01), (1.0, 10.0 ** -2.03125, 0.5),
                (0.917, 9.34e-4, 0.6),
                # X 5e-12, 1.5e-5 and 3.6e-8 times as wide as Y; at the
                # last, G' from the step before Newton's last read phi
                # 1.8e-8 below 0 at g_end, which raised
                (6.733830176814926e-06, 2.6841322262870424e-05,
                 7.153207437543185),
                (0.0062664609307840876, 0.006142389189905828,
                 2.582976646791718),
                (0.006492733848929107, 0.011260577362505965,
                 46.304919261053726),
                # an inverse solve stopped at sqrt(eps) of the edge's
                # magnitude, not of the distance to it, left this 1.2e-8
                # widths off
                (3.3876664639159566, 6.963593663880275, 33.83061898863367)]:
            X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
            Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
            s = solve_support(NaturalParams(alpha, beta, lam))
            a, b = convolution._support_edges(X, Y)
            assert max(abs(a - s.a), abs(b - s.b)) <= 4e-15 * (s.b - s.a), (
                alpha, beta, lam)
        # both laws end in an atom at 0, so G is unbounded at both left
        # ends: nu(1, r1) (+) nu(1, r2) = nu(1, r1 + r2), r1 + r2 > 1
        for r1, r2 in [(0.3, 0.8), (0.6, 0.6)]:
            a, b = convolution._support_edges(
                build_free_poisson(FreePoissonParams(1.0, r1), 64),
                build_free_poisson(FreePoissonParams(1.0, r2), 64))
            lo, hi = build_free_poisson(FreePoissonParams(1, r1 + r2)).support
            assert max(abs(a - lo), abs(b - hi)) <= 4e-15 * (hi - lo)

    def test_atoms_only_raises(self):
        with pytest.raises(DomainError):
            free_convolve(atom_measure([(0.0, 0.5), (1.0, 0.5)]),
                          atom_measure([(0.0, 0.3), (2.0, 0.7)]))

    @pytest.mark.parametrize("atoms", [[(-3.0, 0.4), (3.0, 0.6)],
                                       [(0.0, 0.3), (4.0, 0.7)]])
    def test_interior_gap_raises(self, atoms):
        # two well separated atoms smeared by a narrow semicircle: the sum
        # lives on two intervals
        with pytest.raises(NumericError):
            free_convolve(atom_measure(atoms), build_semicircle(0.0, 1.0, 256))


class TestWarmStarts:
    """Subordination solves on the real axis, each from ``x + 1j``: where
    they converge, and how many calls ``free_convolve`` makes."""

    def test_cold_solve_converges(self, gig_poisson_pair):
        X, Y = gig_poisson_pair
        s = solve_support(NaturalParams(2.0, 8.0, 1.0))
        width = s.b - s.a
        inside = s.a + width * np.array([0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
        # 5% and 0.1% of the width outside each edge, where omega_1 is real
        outside = np.array([s.a - 0.05 * width, s.a - 1e-3 * width,
                            s.b + 1e-3 * width, s.b + 0.05 * width])
        for xs in (inside, outside):
            w, res, evals = _solve_omega(X, Y, xs.astype(complex), _MAX_ITER)
            assert np.all(res <= 1e-12 * np.abs(w))
            if xs is outside:
                # an overshooting Aitken step is projected onto Im w = 0;
                # discarding it took 63 evaluations to reach Im ~1e-20
                assert evals <= 20 and np.all(w.imag == 0.0)

    @pytest.mark.parametrize("alpha, beta, lam", [
        (0.688752840374858, 2.5795246324040257, 0.8922273258155636),
        (1.5665844517697218, 0.9403140931611328, 1.5760962234008873)])
    def test_grid_solve_does_not_stall_outside(self, alpha, beta, lam):
        # a 2001-point grid over the sum of the supports with a 5% margin;
        # its exterior points, where omega_1 is real, took the solve to 129
        # and 91 evaluations while an Aitken step below Im w = Im z was
        # discarded instead of projected
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        (lo1, hi1), (lo2, hi2) = convolution._bounds(X), convolution._bounds(Y)
        lo, hi = lo1 + lo2, hi1 + hi2
        pad = 0.05 * (hi - lo)
        xs = np.linspace(lo - pad, hi + pad, 2001)
        w, res, evals = _solve_omega(X, Y, xs.astype(complex), _MAX_ITER)
        assert np.all(res <= 1e-12 * np.maximum(1.0, np.abs(w)))
        assert evals <= 40

    def test_call_counts(self, gig_poisson_pair, monkeypatch):
        # a grid round, edge probes and a warm-started node round made 147
        # cauchy_nodes calls; the edge search makes 35 and the node round,
        # from x + 1j, 27 map evaluations of two calls each: 90 in all
        X, Y = gig_poisson_pair
        calls, sizes = [0], []

        def counted_cauchy(m, w):
            calls[0] += 1
            return cauchy_nodes(m, w)

        def counted_solve(mu, nu, z, *args):
            sizes.append(np.size(z))
            return _solve_omega(mu, nu, z, *args)

        monkeypatch.setattr(convolution, "cauchy_nodes", counted_cauchy)
        monkeypatch.setattr(convolution, "_solve_omega", counted_solve)
        free_convolve(X, Y)
        assert calls[0] <= 100
        # the nodes are the only points solved by subordination
        assert sizes == [convolution._OUT_NODES]


class TestRealAxisRecovery:
    """The density read at Im z = 0 and built on Chebyshev nodes."""

    # fractions of the support, 0.1% to 99.9% across
    INTERIOR = np.array([1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999])

    @pytest.mark.parametrize("triple", [
        (2.0, 8.0, 1.0), (0.5, 0.5, 3.0), (1.0, 1.0, 0.01),
        # the square-root regime at the left edge is narrower than a cell
        # of the coarse grid
        (0.2663073019193684, 0.41632017456437564, 0.5519318029917581),
        # the first grid sample inside the support lies within two probe
        # steps of the left edge
        (math.exp(-1.1), math.exp(-0.7320863169411742), 0.3543356310329365)])
    def test_identity_outputs(self, triple):
        alpha, beta, lam = triple
        X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
        Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
        out = free_convolve(X, Y)
        p = NaturalParams(alpha, beta, lam)
        s = solve_support(p)
        assert out.chebyshev and out.cauchy_fn is not None
        assert abs(out.support[0] - s.a) <= 1e-9 * (s.b - s.a)
        assert abs(out.support[1] - s.b) <= 1e-9 * (s.b - s.a)
        assert abs(out.mass() - 1.0) <= 1e-10
        built = build_fgig(p, 1024)
        assert kolmogorov_distance(out, built) <= 1e-11
        # the sine series puts the target's closed-form mass on the knots
        # and between them
        mid, rad = 0.5 * (s.a + s.b), 0.5 * (s.b - s.a)
        upper = partial(_rational_upper_mass, s.a, s.b, alpha,
                        beta / math.sqrt(s.a * s.b))
        theta = np.arccos(np.clip((out.cdf_x - mid) / rad, -1.0, 1.0))
        above = upper(theta, np.sin(0.5 * theta), np.cos(0.5 * theta))
        total = built.cdf(s.b)
        assert np.max(np.abs(out.cdf(out.cdf_x) - (total - above))) <= 1e-12
        xs = s.a + (s.b - s.a) * self.INTERIOR
        theta = np.arccos((xs - mid) / rad)
        above = upper(theta, np.sin(0.5 * theta), np.cos(0.5 * theta))
        assert np.max(np.abs(out.cdf(xs) - (total - above))) <= 1e-13
        # the Chebyshev series stays exact next to the support
        zs = s.a + (s.b - s.a) * self.INTERIOR + 1e-12j
        want = built.cauchy_fn(zs)
        assert np.max(np.abs(cauchy(out, zs) / want - 1.0)) <= 1e-10
        # the output carries the cosine rule that log_energy needs
        assert log_energy(out) == pytest.approx(log_energy(built), abs=1e-8)
