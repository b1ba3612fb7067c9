import math

import numpy as np
import pytest

from fgig.errors import DomainError, NumericError
from fgig.params import NaturalParams, solve_support, spectral_roots

# Oracles: routes and closed forms that the package itself does not use.

_INVERT_TOL = 1e-12  # residual of r(w) + 1/w = z, relative to max(1, |z|)


def _newton_invert(r, z, w0, tol, max_iter=80):
    w = w0

    def f(w):
        return r(w) + 1.0 / w - z

    fw = f(w)
    for _ in range(max_iter):
        if abs(fw) <= tol:
            return w
        h = 1e-7 * (1.0 + abs(w))
        df = (f(w + h) - f(w - h)) / (2.0 * h)
        if df == 0 or not np.isfinite(df):
            return None
        step = -fw / df
        for _ in range(12):
            wn = w + step
            if wn != 0:
                fn = f(wn)
                if np.isfinite(fn) and abs(fn) < abs(fw):
                    w, fw = wn, fn
                    break
            step *= 0.5
        else:
            return None
    return w if abs(fw) <= tol else None


def cauchy_from_r(r, z):
    """Invert ``r(w) + 1/w = z`` for ``w = G(z)``.

    Newton from the seed ``1/z``; when that diverges, a homotopy lifts
    the query point high into the upper half-plane (where ``G ~ 1/z``)
    and walks back down, warm-starting each solve.
    """
    z = complex(z)
    w = _newton_invert(r, z, 1.0 / z, _INVERT_TOL * max(1.0, abs(z)))
    if w is None or (z.imag > 0 and w.imag >= 0):
        scale = max(1.0, abs(z))
        w = 1.0 / (z + 8j * scale)
        # the last solve, at lift 0, holds z itself to the tolerance
        for lift in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.0):
            zk = z + 1j * lift * scale
            w = _newton_invert(r, zk, w, _INVERT_TOL * max(1.0, abs(zk)))
            if w is None:
                raise NumericError(f"Cauchy inversion diverged at lift {lift}")
    return w


def quartic_under_root(p, z):
    """The quartic ``(alpha + (lam-1)z)**2 - 4*beta*z*(z-alpha)*(z-gamma)``.

    Vectorized in ``z``; equals ``4*beta*(z-delta)**2*(eta-z)`` and takes
    the values ``alpha**2`` at 0 and ``(lam*alpha)**2`` at ``alpha``.
    """
    roots = spectral_roots(p)
    z = np.asarray(z)
    return ((p.alpha + (p.lam - 1.0) * z) ** 2
            - 4.0 * p.beta * z * (z - p.alpha) * (z - roots.gamma))


def bessel_k_half_integer(order, w):
    """Closed forms at orders 1/2 and 3/2 (the oracle pair)."""
    base = math.sqrt(math.pi / (2.0 * w)) * math.exp(-w)
    if order == 0.5:
        return base
    if order == 1.5:
        return base * (1.0 + 1.0 / w)
    raise DomainError("closed form available only at orders 1/2 and 3/2")


def free_poisson_density(fp, x):
    """Closed-form Marchenko--Pastur density (a.c. part only)."""
    gam, rate = fp.jump, fp.rate
    sq = math.sqrt(rate)
    lo, hi = gam * (1.0 - sq) ** 2, gam * (1.0 + sq) ** 2
    x = np.asarray(x, dtype=float)
    inside = (x > lo) & (x < hi)
    xi = np.where(inside, x, gam * (1.0 + rate))
    vals = np.sqrt(np.clip(4.0 * rate * gam ** 2 - (xi - gam * (1.0 + rate)) ** 2,
                           0.0, None)) / (2.0 * math.pi * gam * xi)
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def fsd_discriminant_spread(sf):
    """The spread-coordinate form of ``fgig.levy.fsd_discriminant``."""
    A, B, lam = sf.A, sf.B, sf.lam
    return (4.0 * (B + lam * A) * (8.0 * lam ** 2 * A ** 3
                                   - 9.0 * lam ** 2 * A ** 2 * B + B ** 3)
            / (A ** 2 * B * (A - B) ** 2 * (B - lam * A)))


def endpoint_deviation(asym, alpha, lam, betas):
    """Largest ``|L - 1|`` over the Richardson limits ``L`` of
    ``a/(c_a beta**p_a)``, ``b/(c_b beta**p_b)`` and each finite root over
    its limit, read from ``asym`` (an ``EndpointAsymptotics``): one step in
    ``beta**q`` from the ratios at the two ``betas``, larger first."""
    ratios = []
    for beta in betas:
        p = NaturalParams(alpha, beta, lam)
        s, r = solve_support(p), spectral_roots(p)
        ratios.append(np.array(
            [s.a / (asym.c_a * beta ** asym.p_a),
             s.b / (asym.c_b * beta ** asym.p_b)]
            + [root / limit for root, limit in ((r.delta, asym.delta_limit),
                                                (r.eta, asym.eta_limit))
               if math.isfinite(limit)]))
    (r1, r2), rho = ratios, (betas[0] / betas[1]) ** asym.q
    return float(np.max(np.abs(r2 + (r2 - r1) / (rho - 1.0) - 1.0)))


@pytest.fixture(scope="session")
def support40():
    """Support endpoints ``(a, b)`` of ``mu(alpha, beta, lam)`` to 40 digits.

    Independent of the package's solver: the support ratio ``t = A/B`` is
    bracketed on ``(0, 1/max(1, |lam|))`` as a root of
    ``(1 - lam t)(1 + lam t)(1 - t)**2 = 4 alpha beta t**2``, and the
    endpoints it gives are polished on the two defining equations.
    Returns mpmath numbers; skips the test when mpmath is missing.
    """
    mp = pytest.importorskip("mpmath")

    def solve(p):
        with mp.workdps(40):
            al, be, la = (mp.mpf(v) for v in (p.alpha, p.beta, p.lam))

            def ratio_equation(t):
                return ((1 - la * t) * (1 + la * t) * (1 - t) ** 2
                        - 4 * al * be * t * t)

            def equations(a, b):
                g = mp.sqrt(a * b)
                return [1 - la + al * g - be * (a + b) / (2 * a * b),
                        1 + la + be / g - al * (a + b) / 2]

            t = mp.findroot(ratio_equation, (0, 1 / max(1, abs(la))),
                            solver="bisect")
            B = 2 * (1 + la * t) / (al * t)
            return mp.findroot(equations, (B * (1 - mp.sqrt(t)) ** 2 / 4,
                                           B * (1 + mp.sqrt(t)) ** 2 / 4))

    return solve


@pytest.fixture(scope="session")
def roots40(support40):
    """``(alpha, beta, delta, eta)`` of ``mu(alpha, beta, lam)`` as mpmath
    numbers, ``delta`` and ``eta`` on the 40-digit support.

    ``spectral_roots``' ``delta = -2 (1 + lam t)/(B (1 - t))`` and
    ``eta = alpha/((1 + lam t)(1 - lam t))``, ``t = A/B``, with
    ``1 + lam t = alpha A/2`` and ``1 - lam t = 8 beta A/(B - A)**2`` from
    the spread form of ``(alpha, beta)``, and ``B - A = 4 sqrt(ab)``:
    nothing cancels.
    """
    mp = pytest.importorskip("mpmath")

    def roots(p):
        a, b = support40(p)
        with mp.workdps(40):
            alpha, beta = mp.mpf(p.alpha), mp.mpf(p.beta)
            g = mp.sqrt(a * b)
            A = (mp.sqrt(b) - mp.sqrt(a)) ** 2
            return alpha, beta, -alpha * A / (4 * g), (2 * g / A) ** 2 / beta

    return roots


@pytest.fixture(scope="session")
def mass_below40():
    """Mass of ``fgig_density`` on ``(a, x)`` to 40 digits, for ``x`` the
    exact point ``mid + rad*cos(theta)`` of the support ``(a, b)``, or the
    float ``x`` itself when given.

    ``mass_below(p, a, b, theta=None, x=None)`` integrates the density
    written in mpmath with ``mp.quad``, with breakpoints crowding ``a``
    geometrically down to a hundredth of ``a``, where the ``1/x**2`` term
    varies.
    Skips the test when mpmath is missing.
    """
    mp = pytest.importorskip("mpmath")

    def mass_below(p, a, b, theta=None, x=None):
        with mp.workdps(40):
            a, b = mp.mpf(a), mp.mpf(b)
            al, be = mp.mpf(p.alpha), mp.mpf(p.beta)
            g = mp.sqrt(a * b)
            x = (mp.mpf(x) if theta is None
                 else (a + b) / 2 + (b - a) / 2 * mp.cos(mp.mpf(theta)))
            if x <= a:
                return 0.0

            def rho(t):
                return (mp.sqrt((t - a) * (b - t))
                        * (al / t + be / (g * t * t)) / (2 * mp.pi))

            pts, step = [x], x - a
            while step > a / 100:
                step /= 100
                pts.append(a + step)
            return float(mp.quad(rho, [a] + pts[::-1]))

    return mass_below


@pytest.fixture(scope="session")
def levy_moments40(roots40):
    """Free cumulants ``kappa_1..kappa_n`` of ``mu(alpha, beta, lam)`` as
    moments of its free Levy measure, to 40 digits:
    ``kappa_k = max(lam, 0) alpha**-k + integral_0^L x**k tau(x) dx`` with

        tau(x) = (1 - delta x) sqrt(beta (1 - eta x))
                 / (pi x**(3/2) (1 - alpha x)),    L = 1/eta,

    written on ``roots40``' delta and eta.  With ``x = L s`` and
    ``1 - alpha x = 1 - z s``, ``z = alpha/eta``, the integral is
    ``sqrt(beta) L**(k - 1/2)/pi (I(k - 1) - delta L I(k))`` with Euler's
    integral ``I(m) = integral_0^1 s**(m - 1/2) (1 - s)**(1/2)/(1 - z s) ds
    = B(m + 1/2, 3/2) 2F1(1, m + 1/2; m + 2; z)``.  Returns mpmath numbers;
    skips the test when mpmath is missing.
    """
    mp = pytest.importorskip("mpmath")

    def moments(p, n):
        alpha, beta, delta, eta = roots40(p)
        with mp.workdps(40):
            # z = 1 at lam = 0, where rounding may leave it just above
            L, z, half = 1 / eta, min(alpha / eta, 1), mp.mpf(1) / 2
            euler = [mp.beta(m + half, 3 * half)
                     * mp.hyp2f1(1, m + half, m + 2, z) for m in range(n + 1)]
            return [max(p.lam, 0) * alpha ** -k
                    + mp.sqrt(beta) * L ** (k - half) / mp.pi
                    * (euler[k - 1] - delta * L * euler[k])
                    for k in range(1, n + 1)]

    return moments
