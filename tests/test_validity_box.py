"""Properties over whole parameter boxes.

The support solve over the validity box: alpha and beta log-uniform in
[1e-6, 1e6], lam in [-50, 50], checked against a 40-digit support that
does not use the package's solver, and every form computed from it builds,
also within rounding of the box's edge.  The R-transform at its removable
points, its pole, its branch point and off the axis over the same box,
against a 40-digit closed form on that support; the divisibility
certificate over the same box, passed or NumericError; and the
Levy--Khintchine closed forms against it and a 40-digit quadrature; the free
cumulants against the 40-digit moments of the Levy measure.  The cdf knots
of the built laws over the same box, against a 40-digit quadrature.  The
classical side over it: ``log K`` against 40-digit mpmath and the Gibbs
gap.  The free Poisson identity over the convolve box: alpha and beta
log-uniform in [0.25, 8], lam in [0.1, 4]; and over the validity box with
lam in [0.01, 50], right to 1e-10 or NumericError.  Over the convolve box
with a factor c log-uniform in [1e-6, 1e6], the convolution dilated by c
against the convolution of the dilated inputs.  The fixed-point series
against its contour oracle with alpha log-uniform in [1e-3, 1e3], lam
in [1e-3, 50], at order 8 and at orders 2 to 32; ``N'(c)`` over the same
box with lam in (0, 50] against a 50-digit quotient rule.  The small-beta
endpoint constants and root limits with alpha log-uniform in [1e-3, 1e3]
and lam in [-50, 50] outside the crossover ``0.9 < |lam| < 1.1``.  The
convergence curve's laws over the desk box, alpha log-uniform in
[1e-3, 1e3] and lam in [-4, 4] at the curve's betas, against 2048-node
builds; over the same box with beta log-uniform in [1e-7, 1e3], each
law's cdf knots the same at every node count; at lam in [-20, -1] and
beta in [1e-7, 1e-1], the Levy distance to the point mass at 0 against
the root of ``F(eps) + eps = 1``.  The extreme-rate scan, alpha and beta in {1e-300, 1e-100, 1e-6,
1, 1e6, 1e100, 1e300} and lam in {-50, -1, 0, 0.5, 1, 50}: every light
functional finite or NumericError, the mode inside the support.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from fgig import (NaturalParams, NumericError, PoleError, from_support,
                  invert_params, reparameterize, solve_support,
                  spectral_roots)
from fgig.asymptotics import (convergence_curve, endpoint_asymptotics,
                              limit_measure)
from fgig.characterization import (_initial_k, compare_series, n_prime,
                                   oracle_coefficients, series_coefficients,
                                   solve_c)
from fgig.convolution import free_convolve
from fgig.entropy import (gibbs_bound, gibbs_gap, gig_entropy,
                          log_bessel_k, maximality_scan)
from fgig.levy import (fsd_report, levy_triplet, min1x_integral,
                       reconstruct_cumulant)
from fgig.measures import (FreePoissonParams, build_fgig, build_free_poisson,
                           dilate, kolmogorov_distance,
                           levy_distance, mode, moment)
from fgig.params import solve_spread
from fgig.transforms import (cauchy, fid_certificate, free_cumulants,
                             r_fgig)

from conftest import endpoint_deviation

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
# at these two, m t = 1 - O(1e-15): the endpoints as computed miss
# admissibility by rounding, by 1 and 7 ulps of a
@hypothesis.example(log_alpha=-5.8392213760324605,
                    log_beta=-5.906062392801341, lam=-48.95313996226879)
@hypothesis.example(log_alpha=-5.923331092734714,
                    log_beta=-5.946296781391015, lam=-47.41801489468241)
def test_support_solve(support40, log_alpha, log_beta, lam):
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    s = solve_support(p)
    a, b = support40(p)
    assert abs(s.a / a - 1) <= 1e-12
    assert abs(s.b / b - 1) <= 1e-12

    r = spectral_roots(p)
    assert (abs(4.0 * p.beta * r.eta * r.delta ** 2 - p.alpha ** 2)
            <= 1e-12 * p.alpha ** 2)
    assert r.delta < 0.0 < p.alpha <= r.eta  # the sign pattern, unrounded

    sf, back = solve_spread(p), reparameterize(s)
    assert back.A == pytest.approx(sf.A, rel=1e-12)
    assert back.B == pytest.approx(sf.B, rel=1e-12)

    # every computed form meets its own inequalities, so it builds; the
    # natural parameters back from the support are right or raise (at the
    # second example above, alpha once came back 2.65 times too large)
    try:
        q = from_support(s)
    except NumericError:
        pass
    else:
        assert q.lam == p.lam
        assert abs(q.alpha / p.alpha - 1) <= 1e-9
        assert abs(q.beta / p.beta - 1) <= 1e-9
    assert reparameterize(sf).lam == p.lam
    assert invert_params(p).alpha == p.beta


def _r40(roots40, p):
    """``r`` of ``p`` at a float ``z``, an mpmath number to 40 digits on the
    40-digit support:

        r = (-alpha + (lam+1) z + 2 (z - delta) sqrt(beta (eta - z)))
            / (2 z (alpha - z)),

    and at the removable points 0 and alpha its limits through the
    numerator's derivative.  Returns it with ``eta`` as a float.
    """
    mp = pytest.importorskip("mpmath")
    alpha, beta, delta, eta = roots40(p)
    lam = mp.mpf(p.lam)  # lam + 1 in floats would round

    def root(w):
        return mp.sqrt(beta * (eta - w))

    def slope(w):  # derivative of the numerator
        return lam + 1 + 2 * root(w) - beta * (w - delta) / root(w)

    def reference(z):
        with mp.workdps(40):
            if z == 0:
                return slope(0) / (2 * alpha)
            if z == alpha:
                return -slope(alpha) / (2 * alpha)
            z = mp.mpc(z.real, z.imag)
            return ((-alpha + (lam + 1) * z + 2 * (z - delta) * root(z))
                    / (2 * z * (alpha - z)))

    return reference, float(eta)


def _probe_points(alpha, eta):
    """The removable points, the pole, both sides of the branch point, the
    negative axis and the lower half-plane."""
    scale = max(alpha, eta)
    return [complex(z) for z in (
        0.0, alpha, alpha * (1 - 1e-6), alpha * (1 + 1e-6), eta * (1 - 1e-9),
        eta * (1 + 1e-9), -3.0 * alpha, -10.0 * scale, scale * (0.5 - 1e-3j),
        scale * (2.0 - 0.5j), scale * (-1.0 - 1.0j), alpha * (1.0 - 1e-6j))]


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_r_transform(roots40, log_alpha, log_beta, lam):
    # r against the 40-digit closed form: right, or NumericError; a
    # PoleError only at the pole itself
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    alpha = p.alpha
    reference, eta_f = _r40(roots40, p)
    for z in _probe_points(alpha, eta_f):
        if z == alpha and lam >= 0:
            with pytest.raises(PoleError):
                r_fgig(p, z)
            continue
        try:
            got = r_fgig(p, z)
        except NumericError:
            continue
        if z == eta_f:  # the rounding of eta decides the value
            continue
        want = complex(reference(z))
        tol = 1e-10 + 8 * np.finfo(float).eps * eta_f / abs(eta_f - z)
        assert abs(got - want) <= tol * abs(want), (z, got, want)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_fid_certificate(log_alpha, log_beta, lam):
    # the sign pattern, Im r <= 1e-9 on the axis, the cut against the Levy
    # density and Im r = 0 left of it: passed, or NumericError
    try:
        report = fid_certificate(
            NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam))
    except NumericError:
        return
    assert report.passed, report


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_levy_reconstruction(roots40, log_alpha, log_beta, lam):
    # the integral term of reconstruct_cumulant, the Cauchy transform of
    # x tau(dx) at 1/z, is z r(z) less the atom term lam z/(alpha - z) at
    # 40 digits, to 1e-12 beside the rounding of eta as in
    # test_r_transform; the certified drift and semicircular bounds are
    # 1e-12 of max(1, r(0)) (box worst 1.0e-16).  At alpha a PoleError
    # when lam >= 0, as from r_fgig
    mp = pytest.importorskip("mpmath")
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    alpha = p.alpha
    t = levy_triplet(p)
    tol = 1e-12 * max(1.0, abs(r_fgig(p, 0.0)))
    assert t.drift <= tol and t.semicircular <= tol
    assert reconstruct_cumulant(t, 0.0) == 0.0
    reference, eta_f = _r40(roots40, p)
    for z in _probe_points(alpha, eta_f)[1:]:
        if z == alpha and lam >= 0:
            with pytest.raises(PoleError):
                reconstruct_cumulant(t, z)
            continue
        if z == eta_f:
            continue
        with mp.workdps(40):
            zz = mp.mpc(z.real, z.imag)
            atom = lam * zz / (mp.mpf(alpha) - zz) if lam > 0 else 0
            want = complex(zz * reference(z) - atom)
        tol = 1e-12 + 8 * np.finfo(float).eps * eta_f / abs(eta_f - z)
        got = t.sigma.cauchy(1.0 / z)
        assert abs(got - want) <= tol * abs(want), (z, got, want)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
# the longest supports, L = 1e6 and 7.5e4, where the reflected pole term
# is read at a small angle
@hypothesis.example(log_alpha=-6.0, log_beta=-6.0, lam=0.0)
@hypothesis.example(log_alpha=-5.0, log_beta=-6.0, lam=0.5)
def test_levy_min1x(roots40, log_alpha, log_beta, lam):
    # integral min(1, x) tau(dx) against a 40-digit quadrature of tau, on
    # the 40-digit support, with breakpoints crowding L = 1/eta down to a
    # hundredth of the pole's distance kappa L beyond it; and r(0) less the
    # atom's lam/alpha when L <= 1.  Right, or NumericError
    mp = pytest.importorskip("mpmath")
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    try:
        got = min1x_integral(levy_triplet(p))
    except NumericError:
        return
    alpha, beta, delta, eta = roots40(p)
    with mp.workdps(40):
        L, kappa = 1 / eta, 1 - alpha / eta

        def tau(x, s):  # s = L - x
            return ((1 - delta * x) * mp.sqrt(beta * eta * s)
                    / (mp.pi * x ** mp.mpf(1.5) * (kappa + alpha * s)))

        split = 1 if L > 1 else L / 2
        pts, s = [], L - split
        while s > max(kappa * L / 100, L * mp.mpf(10) ** -35):
            s /= 10
            pts.append(s)
        upper = (tau if L > 1 else lambda x, s: x * tau(x, s))
        want = float(mp.quad(lambda x: x * tau(x, L - x), [0, split])
                     + mp.quad(lambda s: upper(L - s, s),
                               [0] + pts[::-1] + [L - split]))
    assert abs(got - want) <= 1e-12 * want
    if L <= 1:
        mean = r_fgig(p, 0.0).real
        assert abs(got - (mean - max(lam, 0.0) / p.alpha)) <= 1e-12 * mean


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_free_cumulants(levy_moments40, log_alpha, log_beta, lam):
    # orders 1 to 8 against the 40-digit moments of the Levy measure, and
    # kappa_1 against r(0)
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    got = free_cumulants(p, 8)
    want = [float(m) for m in levy_moments40(p, 8)]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    mean = r_fgig(p, 0.0).real
    assert abs(got[0] - mean) <= 1e-14 * mean


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0),
                  where=st.floats(0.0, 1.0))
def test_cdf_knots(mass_below40, log_alpha, log_beta, lam, where):
    # the knot at angle k pi/N carries the mass below mid + rad*cos of
    # that angle, and cdf the mass below any x: right, or NumericError
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    try:
        s, m = solve_support(p), build_fgig(p)
    except NumericError:
        return
    n = m.cdf_x.size - 1
    y = m.cdf(m.cdf_x)
    assert y[0] == 0.0 and np.all(np.diff(y) >= 0.0)
    for k in (1, 1 + round(where * (n - 2)), n - 1):
        want = mass_below40(p, s.a, s.b, k * math.pi / n)
        assert abs(y[n - k] - want) <= 1e-13
    x = s.a + where * (s.b - s.a)
    assert abs(m.cdf(x) - mass_below40(p, s.a, s.b, x=x)) <= 1e-13


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_w=st.floats(-6.0, math.log10(2e6)),
                  order=st.floats(-50.0, 50.0))
def test_log_bessel_k(log_w, order):
    mp = pytest.importorskip("mpmath")
    w = 10.0 ** log_w
    with mp.workdps(40):
        want = float(mp.log(mp.besselk(order, w)))
    assert abs(log_bessel_k(order, w) - want) <= 1e-12 * max(1.0, abs(want))


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_gibbs_gap(log_alpha, log_beta, lam):
    # the classical GIG density attains -log C: right, or NumericError
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    try:
        gap = gig_entropy(alpha, beta, lam) - gibbs_bound(alpha, beta, lam)
    except NumericError:
        return
    assert abs(gap) <= 1e-6


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_omega=st.floats(-12.0, 100.0),
                  lam=st.floats(-50.0, 50.0))
@hypothesis.example(log_omega=8.0, lam=0.0)
@hypothesis.example(log_omega=12.0, lam=50.0)
@hypothesis.example(log_omega=100.0, lam=-50.0)
def test_gibbs_gap_at_large_rates(log_omega, lam):
    # at alpha = beta = omega both sides are near -2 omega, and the gap is
    # read on their O(log omega) parts: right to 1e-9, or NumericError
    omega = 10.0 ** log_omega
    try:
        gap = gibbs_gap(omega, omega, lam)
    except NumericError:
        return
    assert abs(gap) <= 1e-9


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=25)
@hypothesis.given(log_alpha=st.floats(math.log(0.25), math.log(8.0)),
                  log_beta=st.floats(math.log(0.25), math.log(8.0)),
                  lam=st.floats(0.1, 4.0))
def test_convolution_identity(log_alpha, log_beta, lam):
    # mu(alpha, beta, -lam) (+) nu(1/alpha, lam) = mu(alpha, beta, lam),
    # built on Chebyshev nodes of the support, with a Cauchy transform
    # exact next to it
    alpha, beta = math.exp(log_alpha), math.exp(log_beta)
    out = free_convolve(
        build_fgig(NaturalParams(alpha, beta, -lam), 1024),
        build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024))
    p = NaturalParams(alpha, beta, lam)
    s = solve_support(p)
    assert out.chebyshev
    assert abs(out.support[0] - s.a) <= 1e-9 * (s.b - s.a)
    assert abs(out.support[1] - s.b) <= 1e-9 * (s.b - s.a)
    assert abs(out.mass() - 1.0) <= 1e-10
    built = build_fgig(p, 1024)
    assert kolmogorov_distance(out, built) <= 1e-11
    zs = s.a + (s.b - s.a) * np.array([1e-3, 0.1, 0.5, 0.9, 0.999]) + 1e-12j
    want = built.cauchy_fn(zs)
    assert np.max(np.abs(cauchy(out, zs) / want - 1.0)) <= 1e-10


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
@hypothesis.given(alpha=st.floats(-6.0, 6.0).map(lambda t: 10.0 ** t),
                  beta=st.floats(-6.0, 6.0).map(lambda t: 10.0 ** t),
                  lam=st.floats(0.01, 50.0))
# outputs that were returned 7.5e-5, 4.9e-6 and 8.4e-9 off, with their mass
# as far off
@hypothesis.example(alpha=0.9172362808717155, beta=0.0009336391710107685,
                    lam=0.599583336869868)
@hypothesis.example(alpha=9449.553857537661, beta=1.3986736448708705e-06,
                    lam=0.2729315648272255)
@hypothesis.example(alpha=0.00016213617966814406, beta=8.63700106879389,
                    lam=0.1178673311923793)
# draws that raised "density vanishes inside its support" while the grid
# solve stalled outside the support; now within 1.4e-15
@hypothesis.example(alpha=0.028345344044002258, beta=1.3352911159351498e-05,
                    lam=5.322871058112715)
@hypothesis.example(alpha=7.357748116078803e-05, beta=0.013335595877694052,
                    lam=44.17987705838271)
@hypothesis.example(alpha=6.2347749411398575e-06, beta=0.0012841857612744087,
                    lam=6.205507184970864)
# left edges 0.002 widths from 0, the density's double pole: 1.75e-11 and
# 2.44e-11 off with edges estimated from probes
@hypothesis.example(alpha=1.0, beta=0.00990766519323947, lam=0.01)
@hypothesis.example(alpha=1.0, beta=10.0 ** -2.03125, lam=0.5)
def test_convolution_identity_wide(alpha, beta, lam):
    # the free Poisson identity over the validity box: right to 1e-11, or
    # NumericError
    try:
        out = free_convolve(
            build_fgig(NaturalParams(alpha, beta, -lam), 1024),
            build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024))
        built = build_fgig(NaturalParams(alpha, beta, lam), 1024)
    except NumericError:
        return
    assert kolmogorov_distance(out, built) <= 1e-11


# census draws (seed 20261018, numbers 55, 4 and 46) where X is an atom at
# double precision, 1e-14 to 1e-8 as wide as Y: Im h_X rounded below 0,
# the subordination map crossed nu's cut, and the solve raised
@pytest.mark.parametrize("alpha, beta, lam", [
    (0.00872963474650608, 3.7260280264991987e-06, 48.59829989882032),
    (7.391459343469453e-05, 0.0008969332343667784, 5.900178280041292),
    (3.4448461090416287, 2.2405689931512e-06, 22.40803794334307)])
def test_convolution_identity_atom_input(alpha, beta, lam):
    # the free Poisson identity where X is all but an atom: right to 1e-11
    out = free_convolve(
        build_fgig(NaturalParams(alpha, beta, -lam), 1024),
        build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024))
    built = build_fgig(NaturalParams(alpha, beta, lam), 1024)
    assert kolmogorov_distance(out, built) <= 1e-11


def _dilation_draws(n):
    """``(alpha, beta, lam, c)``: alpha, beta log-uniform in [0.25, 8], lam
    uniform in [0.1, 4], c log-uniform in [1e-6, 1e6]."""
    rng = np.random.default_rng(20261018)
    return [(math.exp(rng.uniform(math.log(0.25), math.log(8.0))),
             math.exp(rng.uniform(math.log(0.25), math.log(8.0))),
             rng.uniform(0.1, 4.0), 10.0 ** rng.uniform(-6.0, 6.0))
            for _ in range(n)]


@pytest.mark.parametrize("alpha, beta, lam, c", _dilation_draws(40))
def test_convolution_dilation(alpha, beta, lam, c):
    # free_convolve commutes with x -> c x: dilating the output or both
    # inputs gives the same law to 1e-11, or both raise NumericError
    X = build_fgig(NaturalParams(alpha, beta, -lam), 1024)
    Y = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), 1024)
    outs = []
    for conv in (lambda: dilate(free_convolve(X, Y), c),
                 lambda: free_convolve(dilate(X, c), dilate(Y, c))):
        try:
            outs.append(conv())
        except NumericError:
            outs.append(None)
    if outs == [None, None]:
        return
    assert None not in outs
    assert kolmogorov_distance(*outs) <= 1e-11


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0), lam=st.floats(1e-3, 50.0))
def test_series_coefficients(log_alpha, lam):
    # the order-8 coefficients of M at c from the functional equation in K
    # against the contour oracle: right, or NumericError
    alpha = 10.0 ** log_alpha
    try:
        dev = compare_series(series_coefficients(alpha, lam, 8),
                             oracle_coefficients(alpha, lam, 8))
    except NumericError:
        return
    assert dev <= 1e-10


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=120)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0), lam=st.floats(1e-3, 50.0),
                  order=st.integers(2, 32))
def test_series_orders(log_alpha, lam, order):
    # every order up to 32 against the contour oracle: right, or
    # NumericError
    alpha = 10.0 ** log_alpha
    try:
        dev = compare_series(series_coefficients(alpha, lam, order),
                             oracle_coefficients(alpha, lam, order))
    except NumericError:
        return
    assert dev <= 1e-10


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0),
                  lam=st.floats(0.0, 50.0, exclude_min=True))
@hypothesis.example(log_alpha=math.log10(0.00173), lam=26.4)
@hypothesis.example(log_alpha=-3.0, lam=50.0)
def test_n_prime(log_alpha, lam):
    # N'(c) = q k1 - c^2 against (lam k1 - g^2)/(c g - lam)^2, g = alpha - k0,
    # with c and k1 (the smaller root of the order-1 relation written with
    # lam) to 50 digits past those of lam; solve_c raises where lam is lost
    # next to 1
    mp = pytest.importorskip("mpmath")
    alpha = 10.0 ** log_alpha
    try:
        c = solve_c(alpha, lam)
    except NumericError:
        return
    b1 = n_prime(alpha, lam)
    assert -1.0 <= b1 <= -c * c
    with mp.workdps(50 + max(0, -math.floor(math.log10(lam)))):
        a, m = mp.mpf(alpha), mp.mpf(lam)
        c = mp.findroot(lambda x: a * x ** 4 - (1 + m) * x ** 3
                        + (1 - m) * x - a, (-1, 0), solver="bisect",
                        verify=False)
        q, u = (1 - c * c) ** 2 / m, (1 - c * c) / (1 + c * c)
        b = 1 - q * u - c ** 4
        k1 = -2 * c * c * u / (b + mp.sqrt(b * b - 4 * q * c ** 4 * u))
        g = a - c / (1 + c * c)
        want = (m * k1 - g * g) / (c * g - m) ** 2
    assert abs(b1 - want) <= 1e-14 * abs(want)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0),
                  lam=st.one_of(st.floats(-0.9, 0.9), st.floats(1.1, 50.0),
                                st.floats(-50.0, -1.1),
                                st.sampled_from([1.0, -1.0])))
def test_endpoint_asymptotics(log_alpha, lam):
    # a/(c_a beta**p_a), b/(c_b beta**p_b) and the finite root over its
    # limit, by one Richardson step in beta**q from alpha beta = 1e-12 and
    # 1e-14: within 1e-8 of 1, or the solve raises.  Toward |lam| = 1 the
    # correction grows (at lam = 0.99, alpha beta = 1e-12, a's ratio is
    # still 1.4e-3 off), so the crossover is not drawn
    alpha = 10.0 ** log_alpha
    try:
        dev = endpoint_deviation(endpoint_asymptotics(alpha, lam), alpha, lam,
                                 (1e-12 / alpha, 1e-14 / alpha))
    except NumericError:
        return
    assert dev <= 1e-8


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0), lam=st.floats(-4.0, 4.0),
                  beta=st.sampled_from([1e-2, 1e-3, 1e-4]))
def test_curve_law_resolution(log_alpha, lam, beta):
    # every curve law is the builder's default, whose knots are the law's
    # own: it reads the 2048-node build's Levy distance to the limit bit
    # for bit, where its support crowds the origin and elsewhere
    alpha = 10.0 ** log_alpha
    p = NaturalParams(alpha, beta, lam)
    try:
        d, = convergence_curve(alpha, lam, [beta])
    except NumericError:
        return
    assert d == levy_distance(build_fgig(p, 2048), limit_measure(alpha, lam))


def _delta0_distance(m):
    """The Levy distance of a law on ``[0, inf)`` to the point mass at 0,
    the smallest ``eps`` with ``F(eps) + eps >= 1``, bisected to adjacent
    floats on its cdf: the Levy graph is not read."""
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if m.cdf(mid) + mid >= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0),
                  log_beta=st.floats(-7.0, -1.0), lam=st.floats(-20.0, -1.0))
def test_levy_distance_to_the_point_mass(log_alpha, log_beta, lam):
    # at lam <= -1 the small-beta limit is the point mass at 0, where the
    # Levy metric binds only at x = 0: the graph's reading against the
    # root of F(eps) + eps = 1, within 1e-8 relative, or within an ulp of
    # 1 where eps < 2.2e-8 and both read F at 1 - eps only to that ulp
    # (1.3e-16 off, 1.5e-8 relative, at (1, 1e-7, -19))
    alpha = 10.0 ** log_alpha
    try:
        m = build_fgig(NaturalParams(alpha, 10.0 ** log_beta, lam))
    except NumericError:
        return
    want = _delta0_distance(m)
    d = levy_distance(m, limit_measure(alpha, lam))
    assert abs(d - want) <= max(1e-8 * want, np.finfo(float).eps)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=100)
@hypothesis.given(log_alpha=st.floats(-3.0, 3.0),
                  log_beta=st.floats(-7.0, 3.0), lam=st.floats(-4.0, 4.0))
# crowding laws: their node bumps 913, 2827 and the 8192 cap give 8192,
# 11308 and 32768 knots
@hypothesis.example(log_alpha=0.0, log_beta=-3.0, lam=0.0)
@hypothesis.example(log_alpha=0.0, log_beta=-4.0, lam=0.0)
@hypothesis.example(log_alpha=math.log10(0.3), log_beta=-7.0, lam=-0.5)
def test_knots_are_the_laws_own(log_alpha, log_beta, lam):
    # the builder's node count moves no cdf knot, where the support
    # crowds the origin and elsewhere
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    try:
        knots = [build_fgig(p, n).cdf_x for n in (64, 256, 512, 1024, 2048)]
    except NumericError:
        return
    assert all(np.array_equal(k, knots[0]) for k in knots[1:])


_RATES = (1e-300, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e300)
# the functionals that need no support solve, read at every triple
_UNSOLVED = {
    "gig_entropy": lambda p: gig_entropy(p.alpha, p.beta, p.lam),
    "gibbs_bound": lambda p: gibbs_bound(p.alpha, p.beta, p.lam),
    "log_bessel_k": lambda p: log_bessel_k(
        p.lam, 2.0 * math.sqrt(p.alpha) * math.sqrt(p.beta)),
}
_SCANNED = {
    "mode": mode,
    "fid_certificate": fid_certificate,
    "r_fgig": lambda p: r_fgig(p, 0.0),
    "free_cumulants": lambda p: free_cumulants(p, 8),
    "levy_triplet": levy_triplet,
    "fsd_report": fsd_report,
    "mass": lambda p: build_fgig(p).mass(),
    "moment": lambda p: moment(build_fgig(p), 1),
    "maximality_scan": lambda p: maximality_scan(p, [1.1, 0.9]),
}


def _finite(x):
    """Every number in ``x``, a report, tuple, array or scalar, is finite;
    labels are skipped."""
    if dataclasses.is_dataclass(x):
        return all(_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return all(map(_finite, x))
    return isinstance(x, str) or bool(np.all(np.isfinite(x)))


# numpy warns of overflow or invalid operations inside fid_certificate,
# levy_triplet, free_cumulants and r_fgig at some of these triples; what
# is checked here is what they return, and the warnings are an open item
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("alpha, beta, lam", list(itertools.product(
    _RATES, _RATES, (-50.0, -1.0, 0.0, 0.5, 1.0, 50.0))))
def test_extreme_rates(alpha, beta, lam):
    # mode raised ZeroDivisionError at 17 of these triples and DomainError
    # at 26, as a*b under- or overflowed; fid_certificate returned an
    # infinite or NaN cut_residual at 22; gig_entropy did not return at
    # (1e-100, 1e300, -50) and (1e100, 1e100, -50)
    p = NaturalParams(alpha, beta, lam)
    scanned = dict(_UNSOLVED)
    try:
        s = solve_support(p)
        scanned.update(_SCANNED)
    except NumericError:
        pass  # the support solves at 168 of the 294
    for name, fn in scanned.items():
        try:
            out = fn(p)
        except NumericError:
            continue
        assert _finite(out) and (name != "mode" or s.a < out < s.b), name
