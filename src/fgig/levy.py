"""Free Levy--Khintchine data of the fGIG family.

Every law in the family is freely infinitely divisible with a triplet of
reduced form: zero drift, zero semicircular part, and Levy measure

    tau(dx) = max(lam, 0) * delta_{1/alpha}(dx)
              + (1 - delta*x) sqrt(beta (1 - eta*x))
                / (pi x^{3/2} (1 - alpha*x)) * 1_{(0, 1/eta)}(x) dx,

where ``delta < 0 < alpha <= eta`` are the square-root data of the
R-transform.  The cumulant transform then reconstructs as

    z r(z) = drift*z + atom*(1/(1 - z/alpha) - 1)
             + integral (1/(1 - z x) - 1) tau(dx).

The ``x**(-3/2)`` edge at the origin and the square-root edge at
``1/eta`` are both absorbed by the substitution ``x = sin(phi)**2/eta``,
leaving a smooth integrand on ``(0, pi/2)``, integrated by numpy
Gauss--Legendre rules that are built on first use.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError
from .measures import _gauss_legendre
from .params import (SpreadForm, require_valid, solve_spread, spectral_roots,
                     spread_to_natural)
from .transforms import r_fgig


@dataclass(frozen=True)
class LevyTriplet:
    """Reduced free characteristic triplet of an fGIG law."""

    drift: float
    semicircular: float
    atom: tuple  # (location 1/alpha, weight max(lam, 0))
    levy_density: Callable
    support: tuple  # (0, 1/eta)


@dataclass(frozen=True)
class FsdReport:
    """Free self-decomposability diagnostics."""

    lam: float
    discriminant: float
    threshold: float
    is_fsd: bool
    k_monotone: bool
    atom_weight: float
    agrees: bool


def _density_factory(p):
    roots = spectral_roots(p)
    alpha, beta, lam = p.alpha, p.beta, p.lam
    delta, eta = roots.delta, roots.eta

    if lam == 0.0:
        # eta == alpha: the zero of 1 - alpha*x cancels against the square
        # root; evaluate the cancelled form directly
        def density(x, a=alpha, b=beta, d=delta):
            x = np.asarray(x, dtype=float)
            inside = (x > 0.0) & (x < 1.0 / a)
            xi = np.where(inside, x, 0.5 / a)
            vals = ((1.0 - d * xi) * math.sqrt(b)
                    / (math.pi * xi ** 1.5 * np.sqrt(1.0 - a * xi)))
            out = np.where(inside, vals, 0.0)
            return out if out.ndim else float(out)
    else:
        def density(x, a=alpha, b=beta, d=delta, e=eta):
            x = np.asarray(x, dtype=float)
            inside = (x > 0.0) & (x < 1.0 / e)
            xi = np.where(inside, x, 0.5 / e)
            vals = ((1.0 - d * xi) * np.sqrt(b * np.clip(1.0 - e * xi, 0.0, None))
                    / (math.pi * xi ** 1.5 * (1.0 - a * xi)))
            out = np.where(inside, vals, 0.0)
            return out if out.ndim else float(out)

    return density, roots


def levy_density(p, x):
    """Density of the a.c. part of the free Levy measure on ``(0, 1/eta)``."""
    require_valid(p)
    density, _ = _density_factory(p)
    return density(x)


def extrapolate_to_zero(h, y):
    """Neville polynomial extrapolation of ``y(h)`` to ``h = 0``."""
    h = np.asarray(h, dtype=float)
    t = np.asarray(y, dtype=float).copy()
    n = t.size
    for m in range(1, n):
        for i in range(n - m):
            t[i] = (h[i] * t[i + 1] - h[i + m] * t[i]) / (h[i] - h[i + m])
    return float(t[0])


def levy_triplet(p):
    """Numeric triplet: drift and semicircular part as extrapolated limits.

    The R-transform decays like ``|u|**(-1/2)`` down the negative axis, so
    both limits are Neville-extrapolated in ``|u|**(-1/2)`` along
    ``u = -10**k, k = 2..6``.  A sequence that fails to decay raises.
    """
    require_valid(p)
    u = -np.power(10.0, np.arange(2, 7))
    r_vals = np.real(r_fgig(p, u.astype(complex)))
    if not np.all(np.abs(r_vals[1:]) <= np.abs(r_vals[:-1]) * 1.5):
        raise NumericError("R-transform tail is not decaying",
                           residual=float(np.abs(r_vals[-1])))
    h = np.abs(u) ** -0.5
    drift = extrapolate_to_zero(h, r_vals)
    semicirc = extrapolate_to_zero(h, r_vals / u)
    density, roots = _density_factory(p)
    atom = (1.0 / p.alpha, max(p.lam, 0.0))
    return LevyTriplet(drift, semicirc, atom, density, (0.0, 1.0 / roots.eta))


def _levy_integral(t, f, kink=None, settle_tol=1e-7):
    """Integral of a (complex-valued, vectorized) ``f`` against the a.c. part.

    Substitutes ``x = sin(phi)**2 / eta``, which absorbs both the
    ``x**(-3/2)`` origin singularity and the square-root upper edge;
    splits at ``kink`` when ``f`` has one.  The rule is evaluated at two
    orders and must settle: a pole of ``f`` hugging the interval makes
    the quadrature meaningless and raises instead of returning noise.
    """
    hi = t.support[1]
    eta = 1.0 / hi

    def transformed(phi):
        x = np.sin(phi) ** 2 / eta
        jac = 2.0 * np.sin(phi) * np.cos(phi) / eta
        return f(x) * t.levy_density(x) * jac

    def with_rule(rule):
        nodes, weights = rule
        pieces = [(0.0, 0.5 * math.pi)]
        if kink is not None and 0.0 < kink < hi:
            phi_star = math.asin(math.sqrt(eta * kink))
            pieces = [(0.0, phi_star), (phi_star, 0.5 * math.pi)]
        total = 0.0
        for a, b in pieces:
            mid, rad = 0.5 * (a + b), 0.5 * (b - a)
            total = total + rad * np.sum(weights * transformed(mid + rad * nodes),
                                         axis=-1)
        return total

    coarse = with_rule(_gauss_legendre(512))
    fine = with_rule(_gauss_legendre(1024))
    if abs(fine - coarse) > settle_tol * max(1.0, abs(fine)):
        raise NumericError("Levy-measure quadrature did not settle",
                           residual=float(abs(fine - coarse)))
    return fine


def min1x_integral(t):
    """``integral min(1, x) tau(dx)`` over the a.c. part (finiteness check)."""
    return float(np.real(_levy_integral(t, lambda x: np.minimum(1.0, x),
                                        kink=1.0)))


def reconstruct_cumulant(t, z):
    """Rebuild ``z r(z)`` from the triplet at a point of the lower half-plane."""
    z = complex(z)
    atom_loc, atom_w = t.atom
    total = t.drift * z + t.semicircular * z * z
    if atom_w:
        total += atom_w * (1.0 / (1.0 - z * atom_loc) - 1.0)

    def f(x):
        return z * x / (1.0 - z * x)

    total += _levy_integral(t, f)
    return total


# ---------------------------------------------------------------------------
# free self-decomposability
# ---------------------------------------------------------------------------

def fsd_threshold(A, B):
    """Largest shape ``lam`` (most negative boundary) giving an FSD law."""
    return -B ** 1.5 / (A * math.sqrt(9.0 * B - 8.0 * A))


def fsd_discriminant(p):
    """Discriminant of the monotonicity quadratic; FSD iff <= 0 (lam <= 0).

    Computed from the square-root data; the spread-coordinate closed form

        D = 4 (B + lam A)(8 lam^2 A^3 - 9 lam^2 A^2 B + B^3)
            / (A^2 B (A - B)^2 (B - lam A))

    is algebraically identical and used as a cross-check in the tests.
    """
    roots = spectral_roots(p)
    alpha, delta, eta = p.alpha, roots.delta, roots.eta
    return (delta - 3.0 * alpha) ** 2 - 4.0 * (2.0 * alpha * eta
                                               - 2.0 * eta * delta
                                               + alpha * delta)


def fsd_discriminant_spread(sf):
    A, B, lam = sf.A, sf.B, sf.lam
    return (4.0 * (B + lam * A) * (8.0 * lam ** 2 * A ** 3
                                   - 9.0 * lam ** 2 * A ** 2 * B + B ** 3)
            / (A ** 2 * B * (A - B) ** 2 * (B - lam * A)))


def fsd_report(p, grid_points=10_000, increment_tol=1e-9):
    """Free self-decomposability verdict with a direct monotonicity check.

    Accepts natural or spread coordinates.  Laws with ``lam > 0`` carry a
    Levy atom and are never FSD; for ``lam <= 0`` the verdict is the sign
    of the discriminant.  Independently, ``k(x) = x * levy_density(x)``
    is sampled on a grid over ``(0, 1/eta)`` and checked for monotone
    decrease; ``agrees`` records whether the two routes coincide.
    """
    if isinstance(p, SpreadForm):
        require_valid(p)
        sf = p
        p = spread_to_natural(sf)
    else:
        require_valid(p)
        sf = solve_spread(p)

    disc = fsd_discriminant(p)
    threshold = fsd_threshold(sf.A, sf.B)
    roots = spectral_roots(p)
    # the boundary case D == 0 is self-decomposable; tolerate roundoff at
    # the scale of the cancelled terms
    disc_scale = ((roots.delta - 3.0 * p.alpha) ** 2
                  + 4.0 * abs(2.0 * p.alpha * roots.eta
                              - 2.0 * roots.eta * roots.delta
                              + p.alpha * roots.delta))
    is_fsd = (p.lam <= 0.0) and (disc <= 1e-12 * disc_scale)

    density, roots = _density_factory(p)
    hi = 1.0 / roots.eta
    xs = hi * np.arange(1, grid_points + 1) / (grid_points + 1)
    k = xs * density(xs)
    inc = np.diff(k)
    scale = np.maximum(1.0, np.maximum(np.abs(k[:-1]), np.abs(k[1:])))
    k_monotone = bool(np.all(inc <= increment_tol * scale))
    atom_weight = max(p.lam, 0.0)
    agrees = is_fsd == (k_monotone and atom_weight == 0.0)
    return FsdReport(p.lam, disc, threshold, is_fsd, k_monotone,
                     atom_weight, agrees)
