import math

import numpy as np
import pytest

from fgig import DomainError, NaturalParams
from fgig import measures
from fgig.asymptotics import convergence_curve, limit_measure
from fgig.measures import (
    FreePoissonParams,
    SpectralMeasure,
    _completed_graph,
    _edge_matched_rule,
    _knot_angles,
    _standard_chop,
    atom_measure,
    build_fgig,
    build_free_poisson,
    build_semicircle,
    dilate,
    fgig_density,
    kolmogorov_distance,
    levy_distance,
    mode,
    mode_quadratic,
    moment,
    pushforward_reciprocal,
    shift,
)
from fgig.params import solve_support
from fgig.transforms import cauchy, r_fgig

from conftest import free_poisson_density


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


class TestCdfKnots:
    """The knot abscissas ``cdf_x`` sit at the angles ``k pi/N`` of
    ``x = mid + rad*cos(theta)``, where ``cdf`` gives the exact mass below."""

    @pytest.mark.parametrize("triple", [
        (2.0, 8.0, 1.0), (1.0, 1.0, -3.0), (1e3, 1e-3, 2.0), (0.01, 50.0, -3.0),
        (300.0, 0.2, 2.5), (1e3, 1e3, 0.3), (1e-3, 1e-3, 0.0)])
    def test_fgig_against_quadrature(self, mass_below40, triple):
        p = NaturalParams(*triple)
        s = solve_support(p)
        m = build_fgig(p)
        n = m.cdf_x.size - 1
        y = m.cdf(m.cdf_x)
        for k in (1, 2, n // 8, n // 2, 7 * n // 8, n - 2, n - 1):
            want = mass_below40(p, s.a, s.b, k * math.pi / n)
            assert abs(y[n - k] - want) <= 1e-13
        # and between the knots
        for f in (1e-9, 1e-4, 0.3, 0.77, 1.0 - 1e-6):
            x = s.a + f * (s.b - s.a)
            assert abs(m.cdf(x) - mass_below40(p, s.a, s.b, x=x)) <= 1e-13

    def test_knot_abscissas_carry_their_mass(self, mass_below40):
        # each float abscissa, hi cos(theta/2)**2 + lo sin(theta/2)**2,
        # keeps its relative accuracy next to lo << hi, so the pair
        # (cdf_x, cdf(cdf_x)) is exact as it stands
        p = NaturalParams(1e-3, 1e-3, 0.0)
        s = solve_support(p)
        m = build_fgig(p)
        n = m.cdf_x.size - 1
        for j in (1, 2, 3, 10, n // 2, n - 1):
            x = m.cdf_x[j]
            assert abs(m.cdf(x) - mass_below40(p, s.a, s.b, x=x)) <= 1e-13

    @pytest.mark.parametrize("fp", [FreePoissonParams(0.5, 0.3),
                                    FreePoissonParams(2.0, 1.0),
                                    FreePoissonParams(0.7, 40.0)],
                             ids=["rate<1", "rate=1", "rate>1"])
    def test_free_poisson_against_quadrature(self, fp):
        mp = pytest.importorskip("mpmath")
        m = build_free_poisson(fp)
        n = m.cdf_x.size - 1
        y = m.cdf(m.cdf_x)
        with mp.workdps(30):
            jump, rate = mp.mpf(fp.jump), mp.mpf(fp.rate)
            lo = jump * (1 - mp.sqrt(rate)) ** 2
            hi = jump * (1 + mp.sqrt(rate)) ** 2

            def rho(x):
                return (mp.sqrt((x - lo) * (hi - x))
                        / (2 * mp.pi * jump * x))

            for k in (1, n // 3, n - 1):
                x = (lo + hi) / 2 + (hi - lo) / 2 * mp.cos(k * math.pi / n)
                want = float(mp.quad(rho, [x, hi]))
                assert abs(y[-1] - y[n - k] - want) <= 1e-14

    def test_crowding_law_has_twice_the_default_knots(self):
        # a/(b - a) = 1.6e-3 and 2.1e-3: below 1e-2 the builder's default
        # has the knots of the 2048-node build, where it had 4096 intervals
        p = NaturalParams(0.7, 1e-2, 0.3)
        assert np.array_equal(build_fgig(p).cdf_x, build_fgig(p, 2048).cdf_x)
        m = build_free_poisson(FreePoissonParams(1.0, 1.2))
        assert m.cdf_x.size == 8193

    def test_semicircle_closed_form(self):
        m = build_semicircle(0.0, 2.0, 64)
        theta = np.arange(4097) * math.pi / 4096
        x = 2.0 * np.cos(0.5 * theta) ** 2 - 2.0 * np.sin(0.5 * theta) ** 2
        want = 1.0 - (theta - np.sin(theta) * np.cos(theta)) / math.pi
        assert np.array_equal(m.cdf_x, x[::-1])
        assert np.max(np.abs(m.cdf(m.cdf_x) - want[::-1])) <= 1e-15

    def test_last_angle_past_pi(self):
        # with N = 21180 knot intervals the last angle N pi/N rounds one
        # ulp above pi, where sin(theta) < 0 and tan(theta/2) jumps
        alpha, lam = 0.09753681234408854, -0.8178028099658832
        m = build_fgig(NaturalParams(alpha, 1e-4, lam), 2048)
        n = m.cdf_x.size - 1
        assert n == 21180 and n * math.pi / n > math.pi
        sh, ch = _knot_angles(n)
        assert sh[-1] == 1.0 and ch[-1] == 0.0
        y = m.cdf(m.cdf_x)
        assert y[0] == 0.0
        assert np.all(np.diff(y) >= 0.0)
        assert y[-1] == pytest.approx(1.0, abs=1e-12)
        curve = convergence_curve(alpha, lam, [1e-2, 1e-3, 1e-4])
        assert curve[-1] == pytest.approx(0.027568604098018, abs=1e-10)

    @pytest.mark.parametrize("exps", [(0.5, 0.5), (-0.5, 0.5)])
    def test_quadrature_rule_is_shared_and_read_only(self, exps):
        """The cached nodes and weights are shared by every measure
        built at one node count, so they reject writes."""
        rule = _edge_matched_rule(64, *exps)
        assert _edge_matched_rule(64, *exps) is rule
        for a in rule:
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_reciprocal_knots_reach_the_knot_total(self):
        # the weights lose 1.2e-6 of mass here; the knots do not
        m = build_fgig(NaturalParams(1e-3, 1e-3, 0.0))
        r = pushforward_reciprocal(m)
        assert abs(m.mass() - 1.0) > 1e-7
        y = r.cdf(r.cdf_x)
        assert y[0] == 0.0
        assert y[-1] == m.cdf(m.cdf_x)[-1]
        assert np.all(np.diff(y) >= 0.0)


class TestStandardChop:
    """The chop rule on synthetic coefficient vectors."""

    K = np.arange(200)

    @pytest.mark.parametrize("seed", range(3))
    def test_noise_plateau_cuts_near_the_crossing(self, seed):
        # 2**-k meets a 1e-14 noise floor at k = log2(1e14) = 46.5
        noise = np.random.default_rng(seed).standard_normal(self.K.size)
        cut = _standard_chop(0.5 ** self.K + 1e-14 * noise)
        assert 40 <= cut <= 50

    def test_unfinished_decay_keeps_every_term(self):
        c = 10.0 ** (-self.K[:101] / 10.0)  # down to 1e-10, no plateau
        assert _standard_chop(c) == c.size

    def test_zero_tail_cuts_at_its_start(self):
        c = np.where(self.K < 20, 0.5 ** self.K, 0.0)
        assert _standard_chop(c) == 20


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
            # the quadratic is in units of sqrt(a) sqrt(b)
            s = solve_support(p)
            y = mode(p) / (math.sqrt(s.a) * math.sqrt(s.b))
            c2, c1, c0 = mode_quadratic(p)
            scale = max(abs(c2) * y * y, abs(c1) * y, abs(c0))
            assert abs(c2 * y * y + c1 * y + c0) <= 1e-10 * scale

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
        lo, hi = m.support
        xs = np.linspace(min(lo, mi.support[0]), max(hi, mi.support[1]), 2001)
        assert np.max(np.abs(m.density(xs) - mi.density(xs))) <= 1e-8
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


def _two_search_levy(m1, m2):
    """Levy distance read as before the merge: the heights at the merged
    knots and midpoints, each graph searched once per point."""
    g1, g2 = _completed_graph(m1), _completed_graph(m2)
    knots = np.unique(np.concatenate((g1[0], g2[0])))
    s = np.concatenate((knots, 0.5 * (knots[:-1] + knots[1:])))

    def height(graph):
        gs, gy, h, a, b, c = graph
        j = np.maximum(np.searchsorted(gs, s, side="right") - 1, 0)
        t = np.maximum(s - gs[j], 0.0) / h[j]
        return gy[j] + t * (a[j] + t * (b[j] + t * c[j]))

    return float(np.max(np.abs(height(g1) - height(g2))))


class TestLevyDistance:
    @pytest.mark.parametrize("lam", [2.0, 0.0, -3.0])
    def test_merge_reads_as_two_searches(self, lam):
        m = build_fgig(NaturalParams(1.0, 1e-4, lam), 2048)
        limit = limit_measure(1.0, lam)
        assert levy_distance(m, limit) == _two_search_levy(m, limit)
        assert levy_distance(limit, m) == _two_search_levy(limit, m)

    @pytest.mark.parametrize("m1, m2", [
        (atom_measure([(0.0, 1.0)]), atom_measure([(0.3, 1.0)])),
        (atom_measure([(0.0, 1.0)]), atom_measure([(2.0, 1.0)])),
        (atom_measure([(0.0, 0.5), (1.0, 0.5)]), atom_measure([(0.0, 1.0)])),
    ], ids=["near", "far", "partial"])
    def test_merge_reads_as_two_searches_on_atoms(self, m1, m2):
        assert levy_distance(m1, m2) == _two_search_levy(m1, m2)

    @pytest.mark.parametrize("c, expected", [(0.3, 0.3), (2.0, 1.0)])
    def test_point_masses(self, c, expected):
        d = levy_distance(atom_measure([(0.0, 1.0)]),
                          atom_measure([(c, 1.0)]))
        assert d == pytest.approx(expected, abs=1e-15)

    def test_partial_atoms(self):
        d = levy_distance(atom_measure([(0.0, 0.5), (1.0, 0.5)]),
                          atom_measure([(0.0, 1.0)]))
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_one_graph_per_law(self, monkeypatch):
        # two distances to one limit build three completed graphs, and a
        # shifted copy of the limit builds its own
        calls = []
        graph = measures._completed_graph

        def counted(m):
            calls.append(m)
            return graph(m)

        monkeypatch.setattr(measures, "_completed_graph", counted)
        limit = limit_measure(1.0, 0.0)
        for beta in (1e-2, 1e-3):
            levy_distance(build_fgig(NaturalParams(1.0, beta, 0.0)), limit)
        assert len(calls) == 3
        assert levy_distance(shift(limit, 0.5), limit) > 0.0
        assert len(calls) == 4

    def test_identity_and_symmetry(self):
        m = build_fgig(NaturalParams(2.0, 8.0, 0.0), 128)
        mp = build_free_poisson(FreePoissonParams(0.5, 0.7))
        assert levy_distance(m, m) == 0.0
        assert levy_distance(mp, mp) == 0.0
        assert levy_distance(m, mp) == pytest.approx(levy_distance(mp, m),
                                                     abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_by_kolmogorov(self, seed):
        rng = np.random.default_rng(seed)
        m = build_fgig(random_params(rng), 256)
        mp = build_free_poisson(FreePoissonParams(rng.uniform(0.5, 2.0),
                                                  rng.uniform(0.3, 2.0)))
        assert levy_distance(m, mp) <= kolmogorov_distance(m, mp) + 1e-12

    @pytest.mark.parametrize("op", [lambda m: shift(m, 0.01),
                                    lambda m: dilate(m, 1.01)],
                             ids=["shift", "dilate"])
    def test_definition(self, op):
        """``F(x - eps) - eps <= G(x) <= F(x + eps) + eps`` holds at the
        returned ``eps`` and fails just below it."""
        f = build_semicircle(0.0, 2.0, 256)
        g = op(f)
        dist = levy_distance(f, g)
        x = np.linspace(-2.1, 2.1, 20001)
        gx = g.cdf(x)

        def holds(eps):
            return bool(np.all(f.cdf(x - eps) - eps <= gx)
                        and np.all(gx <= f.cdf(x + eps) + eps))

        assert holds(dist + 1e-8)
        assert not holds(dist - 1e-6)

    @pytest.mark.parametrize("triple, reference, tol", [
        ((1.0, 1e-4, 2.0), 3.103270814e-05, 2e-10),
        ((1.0, 1e-4, 0.0), 1.095940327607e-02, 2e-10),
        ((1.0, 1e-4, -3.0), 1.848501591066e-04, 2e-10),
        ((0.005038451866901079, 1e-2, 0.5004807270348692),
         9.223309338212e-02, 1e-6),
        # an atom at the -1/2 edge of its limit: a slope rule that bends
        # the atom's segment reads 0.0526 here
        ((0.0037396202946215202, 1e-4, -0.9823509331567948),
         3.376816373e-02, 1e-8),
    ])
    def test_fine_reference(self, triple, reference, tol):
        """Against the bisection on 2**19 angular panels and 8192 nodes."""
        alpha, beta, lam = triple
        m = build_fgig(NaturalParams(alpha, beta, lam), 2048)
        d = levy_distance(m, limit_measure(alpha, lam))
        assert d == pytest.approx(reference, abs=tol)


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
