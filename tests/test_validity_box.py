"""Properties over whole parameter boxes.

The support solve over the validity box: alpha and beta log-uniform in
[1e-6, 1e6], lam in [-50, 50], checked against a 40-digit support that
does not use the package's solver.  The R-transform at its removable
points, its pole, its branch point and off the axis over the same box,
against a 40-digit closed form on that support.  The cdf knots of the
built laws over the same box, against a 40-digit quadrature.  The
classical side over it: ``log K`` against 40-digit mpmath and the Gibbs
gap.  The free Poisson identity over the convolve box: alpha and beta
log-uniform in [0.25, 8], lam in [0.1, 4].
"""

import math

import numpy as np
import pytest

from fgig import (NaturalParams, NumericError, PoleError, reparameterize,
                  solve_support, spectral_roots)
from fgig.convolution import free_convolve
from fgig.entropy import gibbs_bound, gig_entropy, log_bessel_k
from fgig.measures import (FreePoissonParams, build_fgig, build_free_poisson,
                           kolmogorov_distance)
from fgig.params import solve_spread
from fgig.transforms import cauchy, r_fgig

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_support_solve(support40, log_alpha, log_beta, lam):
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    s = solve_support(p)
    a, b = support40(p)
    assert abs(s.a / a - 1) <= 1e-12
    assert abs(s.b / b - 1) <= 1e-12

    r = spectral_roots(p)
    assert (abs(4.0 * p.beta * r.eta * r.delta ** 2 - p.alpha ** 2)
            <= 1e-12 * p.alpha ** 2)

    sf, back = solve_spread(p), reparameterize(s)
    assert back.A == pytest.approx(sf.A, rel=1e-12)
    assert back.B == pytest.approx(sf.B, rel=1e-12)


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_r_transform(support40, log_alpha, log_beta, lam):
    # r = (-alpha + (lam+1) z + 2 (z - delta) sqrt(beta (eta - z)))
    #     / (2 z (alpha - z)) with delta and eta from the 40-digit support,
    # and at the removable points 0 and alpha its limits through the
    # numerator's derivative.  Right, or NumericError; a PoleError only
    # at the pole itself.
    mp = pytest.importorskip("mpmath")
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    alpha, beta = p.alpha, p.beta
    a, b = support40(p)
    with mp.workdps(40):
        # spectral_roots' delta = -2 (1 + lam t)/(B (1 - t)) and
        # eta = 2/(A (1 - lam t)), t = A/B, with 1 + lam t = alpha A/2
        # and 1 - lam t = 8 beta A/(B - A)**2 from the spread form of
        # (alpha, beta), and B - A = 4 sqrt(ab): nothing cancels
        g = mp.sqrt(a * b)
        A = (mp.sqrt(b) - mp.sqrt(a)) ** 2
        delta = -alpha * A / (4 * g)
        eta = (2 * g / A) ** 2 / beta

        def root(w):
            return mp.sqrt(beta * (eta - w))

        def slope(w):  # derivative of the numerator
            return lam + 1 + 2 * root(w) - beta * (w - delta) / root(w)

        def reference(z):
            if z == 0:
                return slope(0) / (2 * alpha)
            if z == alpha:
                return -slope(alpha) / (2 * alpha)
            z = mp.mpc(z.real, z.imag)
            return ((-alpha + (lam + 1) * z + 2 * (z - delta) * root(z))
                    / (2 * z * (alpha - z)))

        eta_f = float(eta)
        scale = max(alpha, eta_f)
        zs = [0.0, alpha, alpha * (1 - 1e-6), alpha * (1 + 1e-6),
              eta_f * (1 - 1e-9), eta_f * (1 + 1e-9), -3.0 * alpha,
              -10.0 * scale, scale * (0.5 - 1e-3j), scale * (2.0 - 0.5j),
              scale * (-1.0 - 1.0j), alpha * (1.0 - 1e-6j)]
        for z in map(complex, zs):
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
    assert m.cdf_y[0] == 0.0 and np.all(np.diff(m.cdf_y) >= 0.0)
    for k in (1, 1 + round(where * (n - 2)), n - 1):
        want = mass_below40(p, s.a, s.b, k * math.pi / n)
        assert abs(m.cdf_y[n - k] - want) <= 1e-13
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
