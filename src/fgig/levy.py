"""Free Levy--Khintchine data of the fGIG family.

Every law in the family is freely infinitely divisible with a triplet of
reduced form: zero drift, zero semicircular part, and Levy measure

    tau(dx) = max(lam, 0) * delta_{1/alpha}(dx)
              + (1 - delta*x) sqrt(beta (1 - eta*x))
                / (pi x^{3/2} (1 - alpha*x)) * 1_{(0, 1/eta)}(x) dx,

where ``delta < 0 < alpha <= eta`` are the square-root data of the
R-transform.  The cumulant transform then reconstructs as

    z r(z) = atom*(1/(1 - z/alpha) - 1) + integral (1/(1 - z x) - 1) tau(dx),

and this identity is the check of the zeros: a drift or semicircular part
would be a residual ``gamma*z + a*z**2`` down the negative axis.

The integrals against ``tau`` are closed forms.  With ``L = 1/eta`` and
``kappa = 1 - alpha/eta = (lam t)**2``, ``t = A/B``, the x-weighted part

    sigma(dx) = x tau(dx) = sqrt(beta eta)/pi * sqrt(x (L - x))
                            * (1/x + (alpha - delta)/(1 - alpha*x)) dx

is a Marchenko--Pastur-type term plus a pole term that the reflection
``y = 1/alpha - x`` makes one on ``[kappa/alpha, 1/alpha]``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PoleError
from .measures import _rational_upper_mass, _support_root
from .params import _solve_ratio, solve_spread, spectral_roots
from .transforms import r_fgig

_FSD_GRID = 10_000  # samples of k(x) = x levy_density(x) over (0, 1/eta)
_INCREMENT_TOL = 1e-9  # largest relative rise of k still counted as monotone


@dataclass(frozen=True)
class XWeightedLevy:
    """``sigma`` in closed form from ``scale = sqrt(beta eta)``, ``hi = L``
    (exactly ``1/alpha`` at ``lam = 0``), ``pole = 1/alpha``,
    ``lo = kappa/alpha``, ``gap = 1 - sqrt(kappa)`` and
    ``slope = alpha - delta``, each free of cancellation."""

    scale: float
    hi: float
    pole: float
    lo: float
    gap: float
    slope: float

    def cauchy(self, w):
        """``integral sigma(dx)/(w - x)`` is
        ``scale (L/(w + R) + c/(w + R - gap/alpha))`` with ``R = r(w; 0, L)``
        and ``c = slope (gap/alpha)**2``, since the pole term's support root
        at ``1/alpha - w`` is ``-R``.  Like ``D`` in ``_fgig_cauchy``, each
        denominator is the larger factor of a conjugate pair; the second
        vanishes only at ``w = 1/alpha = L``, where ``r`` diverges."""
        big = w + _support_root(w, 0.0, self.hi)
        den = big - self.pole * self.gap
        if den == 0:
            raise PoleError("square-root divergence at z = alpha", residue=0.0)
        c = self.slope * (self.gap * self.pole) ** 2
        return self.scale * (self.hi / big + c / den)


@dataclass(frozen=True)
class LevyTriplet:
    """Reduced free characteristic triplet ``(0, 0, tau)`` of an fGIG law.

    The drift and semicircular part are zero by the theorem; ``drift`` and
    ``semicircular`` hold certified bounds on them, ``|gamma| <= drift`` and
    ``|a| <= semicircular``, read from the residual of the reconstruction
    (see :func:`levy_triplet`).  They keep these names, not ``*_bound``,
    while perfbench's desk check still reads them under these.  The a.c.
    part's density is :func:`levy_density`; ``support`` ends at
    ``sigma.hi``, the ``1/eta`` the reconstruction integrates up to.
    """

    drift: float
    semicircular: float
    atom: tuple  # (alpha, weight max(lam, 0)): the atom sits at 1/alpha
    support: tuple  # (0, sigma.hi)
    sigma: XWeightedLevy


@dataclass(frozen=True)
class FsdReport:
    """Free self-decomposability diagnostics."""

    discriminant: float
    threshold: float
    is_fsd: bool
    k_monotone: bool
    atom_weight: float
    agrees: bool


def levy_density(p, x):
    """Density of the a.c. part of the free Levy measure on ``(0, 1/eta)``."""
    # 1 - alpha x = (1 - eta x) + kappa eta x: nonnegative terms, and
    # 1 - eta x, cancelling against the square root, at lam = 0
    roots = spectral_roots(p)
    e, k = roots.eta, (p.lam * _solve_ratio(p.alpha, p.beta, p.lam)[0]) ** 2
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (e * x < 1.0)
    xi = np.where(inside, x, 0.5 / e)
    rest = 1.0 - e * xi
    vals = ((1.0 - roots.delta * xi) * np.sqrt(p.beta * rest)
            / (math.pi * xi ** 1.5 * (rest + k * e * xi)))
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def levy_triplet(p):
    """Triplet ``(0, 0, tau)``, with the zeros certified by the identity.

    The residual ``rho(u) = u r(u) - reconstruct_cumulant(t, u)`` is read
    along ``u = -s 10**k, k = 2..6``, past the scale ``s = max(1, alpha,
    eta, -delta)`` of the R-transform's tail, where ``gamma*u + a*u**2``
    would dominate it; ``drift`` is ``max |rho|/|u|`` and ``semicircular``
    is ``max |rho|/u**2``.
    """
    roots = spectral_roots(p)
    t, _, _, _, plus, minus = _solve_ratio(p.alpha, p.beta, p.lam)
    v = 1.0 / p.alpha
    sigma = XWeightedLevy(math.sqrt(p.beta * roots.eta), v * plus * minus, v,
                          v * (p.lam * t) ** 2, min(plus, minus),
                          p.alpha - roots.delta)
    triplet = LevyTriplet(0.0, 0.0, (p.alpha, max(p.lam, 0.0)),
                          (0.0, sigma.hi), sigma)
    scale = max(1.0, p.alpha, roots.eta, -roots.delta)
    u = -scale * np.power(10.0, np.arange(2, 7))
    rho = np.abs(u * r_fgig(p, u.astype(complex))
                 - [reconstruct_cumulant(triplet, w) for w in u])
    return replace(triplet, drift=float(np.max(rho / -u)),
                   semicircular=float(np.max(rho / u ** 2)))


def min1x_integral(t):
    """``integral min(1, x) tau(dx)`` over the a.c. part (finiteness check),
    ``sigma((0, m]) + tau((m, L))`` with ``m = min(1, L)``.

    On ``[0, L]`` the ``1/x`` term of ``sigma`` is ``_rational_upper_mass``
    with ``(c1, c2) = (2 s, 0)``, ``s = sqrt(beta eta)``, and the ``1/x``,
    ``1/x**2`` terms of ``tau`` with ``(2 s (alpha - delta), 2 s)``.  The
    pole term, reflected, has ``c1 = 2 s (alpha - delta)/alpha`` in
    ``sigma`` and alpha times it in ``tau``, and is read at ``pi - theta``.
    """
    g = t.sigma
    s, hi, v = g.scale, g.hi, g.pole
    pole_total = 0.5 * s * g.slope * (g.gap * v) ** 2
    if hi <= 1.0:
        return 0.5 * s * hi + pole_total
    sh, ch = math.sqrt((hi - 1.0) / hi), math.sqrt(1.0 / hi)  # x = 1
    theta = 2.0 * math.atan2(sh, ch)
    near = _rational_upper_mass(0.0, hi, 2.0 * s, 0.0, theta, sh, ch)
    far = _rational_upper_mass(0.0, hi, 2.0 * s * g.slope, 2.0 * s,
                               theta, sh, ch)
    # the pole term of sigma on (0, 1]; tau's on (1, L) is alpha times the rest
    pole_near = _rational_upper_mass(g.lo, v, 2.0 * s * g.slope * v, 0.0,
                                     2.0 * math.atan2(ch, sh), ch, sh)
    return float(0.5 * s * hi - near + pole_near
                 + far + (pole_total - pole_near) / v)


def reconstruct_cumulant(t, z):
    """Rebuild ``z r(z)`` from the triplet at a point of the lower half-plane,
    the integral as the Cauchy transform of ``sigma`` at ``1/z``.  Raises
    :class:`PoleError` at ``z = alpha``, as ``r_fgig`` does: the atom's pole
    when ``lam > 0``, the square-root divergence when ``lam = 0``."""
    z = complex(z)
    alpha, atom_w = t.atom
    total = 0j
    if atom_w:
        if z == alpha:
            raise PoleError("pole of the atom term at z = alpha",
                            residue=-atom_w * alpha)
        total += atom_w * z / (alpha - z)
    if z:
        total += complex(t.sigma.cauchy(1.0 / z))
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


def fsd_report(p):
    """Free self-decomposability verdict with a direct monotonicity check.

    Laws with ``lam > 0`` carry a Levy atom and are never FSD; for
    ``lam <= 0`` the verdict is the sign of the discriminant.
    Independently, ``k(x) = x * levy_density(x)`` is sampled on a grid
    over ``(0, 1/eta)`` and checked for monotone decrease; ``agrees``
    records whether the two routes coincide.
    """
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

    hi = 1.0 / roots.eta
    xs = hi * np.arange(1, _FSD_GRID + 1) / (_FSD_GRID + 1)
    k = xs * levy_density(p, xs)
    inc = np.diff(k)
    scale = np.maximum(1.0, np.maximum(np.abs(k[:-1]), np.abs(k[1:])))
    k_monotone = bool(np.all(inc <= _INCREMENT_TOL * scale))
    atom_weight = max(p.lam, 0.0)
    agrees = is_fsd == (k_monotone and atom_weight == 0.0)
    return FsdReport(disc, threshold, is_fsd, k_monotone, atom_weight,
                     agrees)
