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

from .errors import NumericError, PoleError
from .measures import _rational_upper_mass, _support_root
from .params import _solve_ratio, solve_spread, spectral_roots
from .transforms import r_fgig

_ZOOM = 512  # samples per round of the search for the largest slope of log k


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
        at ``1/alpha - w`` is ``-R``.  Like ``D`` in ``_rational_cauchy``, each
        denominator is the larger factor of a conjugate pair; the second
        vanishes only at ``w = 1/alpha = L``, where ``r`` diverges."""
        big = w + _support_root(w, 0.0, self.hi)
        den = big - self.pole * self.gap
        if den == 0:
            raise PoleError("square-root divergence at z = alpha", residue=0.0)
        gp = self.gap * self.pole  # c/den, with no (gap/alpha)**2 to overflow
        return self.scale * (self.hi / big + self.slope * gp * (gp / den))


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
    max_slope: float  # largest (log k)' on (0, 1/eta), relative to its terms
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

    On ``[0, L]`` the ``1/x`` term of ``sigma``, ``s sqrt(x (L - x))/(pi x)``
    with ``s = sqrt(beta eta)``, has the mass ``s L (phi + sin(phi))/(2 pi)``
    below ``x = L sin(phi/2)**2``, a sum of positive terms however long the
    support.  The ``1/x``, ``1/x**2`` terms of ``tau`` are
    ``_rational_upper_mass`` with ``(c1, c2) = (2 s (alpha - delta), 2 s)``.
    The pole term, reflected, has ``c1 = 2 s (alpha - delta)/alpha`` in
    ``sigma`` and alpha times it in ``tau``, and is read at ``phi``.
    """
    g = t.sigma
    s, hi, v = g.scale, g.hi, g.pole
    gv = g.gap * v
    pole_total = 0.5 * (s * gv) * (g.slope * gv)  # no factor to overflow
    if hi <= 1.0:
        return 0.5 * s * hi + pole_total
    sh, ch = math.sqrt((hi - 1.0) / hi), math.sqrt(1.0 / hi)  # x = 1
    theta, phi = 2.0 * math.atan2(sh, ch), 2.0 * math.atan2(ch, sh)
    # the 1/x term of sigma on (0, 1], at phi = pi - theta, a sum of two
    # positive terms, not its total less the mass above 1
    near = 0.5 * s * hi * (phi + 2.0 * sh * ch) / math.pi
    far = _rational_upper_mass(0.0, hi, 2.0 * s * g.slope, 2.0 * s,
                               theta, sh, ch)
    # the pole term of sigma on (0, 1]; tau's on (1, L) is alpha times the
    # rest.  Read at the small angle phi, its closed form cancels to about
    # eps L of itself; as sqrt(x (L - x))/(1 - alpha x) lies between
    # sqrt(x (L - 1)) and sqrt(x L)/(1 - alpha), it is clamped into
    # (2 s slope/(3 pi)) [sqrt(L - 1), sqrt(L)/(1 - alpha)], whose width,
    # (alpha + 1/(2 L)) of itself, leaves no more than 2e-8 of it
    pole_near = _rational_upper_mass(g.lo, v, 2.0 * s * g.slope * v, 0.0,
                                     phi, ch, sh)
    unit = 2.0 * s * g.slope / (3.0 * math.pi)
    pole_near = min(max(pole_near, unit * math.sqrt(hi - 1.0)),
                    unit * math.sqrt(hi) / (1.0 - 1.0 / v))
    return float(near + pole_near + far + (pole_total - pole_near) / v)


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
    """Largest shape ``lam`` (most negative boundary) giving an FSD law,
    ``-B**1.5/(A sqrt(9 B - 8 A))``, formed in the ratio ``t = A/B`` as
    ``-1/(t sqrt(9 - 8 t))``, which neither over- nor underflows."""
    t = A / B
    return -1.0 / (t * math.sqrt(9.0 - 8.0 * t))


def _fsd_terms(alpha, roots):
    """``(q, s)`` with discriminant ``q - 4 s``: ``q = (delta - 3 alpha)**2``
    and ``s = 2 alpha eta - 2 eta delta + alpha delta``; ``NumericError``
    where the discriminant is out of floating-point range."""
    delta, eta = roots.delta, roots.eta
    d = delta - 3.0 * alpha
    q, s = d * d, 2.0 * alpha * eta - 2.0 * eta * delta + alpha * delta
    if not math.isfinite(q - 4.0 * s):
        raise NumericError("FSD discriminant is out of floating-point range")
    return q, s


def fsd_discriminant(p):
    """Discriminant of the monotonicity quadratic; FSD iff <= 0 (lam <= 0).

    Computed from the square-root data; the spread-coordinate closed form

        D = 4 (B + lam A)(8 lam^2 A^3 - 9 lam^2 A^2 B + B^3)
            / (A^2 B (A - B)^2 (B - lam A))

    is algebraically identical and used as a cross-check in the tests.
    """
    q, s = _fsd_terms(p.alpha, spectral_roots(p))
    return q - 4.0 * s


def fsd_report(p):
    """Free self-decomposability verdict with a direct monotonicity check.

    Laws with ``lam > 0`` carry a Levy atom and are never FSD; for
    ``lam <= 0`` the verdict is the sign of the discriminant.
    Independently, ``k(x) = x * levy_density(x)`` is monotone iff
    ``(log k)' <= 0`` on ``(0, 1/eta)``; ``max_slope`` is its maximum, by
    three rounds of ``_ZOOM`` samples about the last round's largest, over
    its four terms' absolute sum.  ``agrees`` says if the routes coincide.
    """
    sf = solve_spread(p)
    roots = spectral_roots(p)
    q, s = _fsd_terms(p.alpha, roots)
    disc = q - 4.0 * s
    threshold = fsd_threshold(sf.A, sf.B)
    # the boundary case D == 0 is self-decomposable; tolerate roundoff at
    # the scale of the cancelled terms
    is_fsd = (p.lam <= 0.0) and (disc <= 1e-12 * (q + 4.0 * abs(s)))

    a, d, e = p.alpha, roots.delta, roots.eta
    lo, hi = 0.0, 1.0 / e
    for _ in range(3):
        x = np.linspace(lo, hi, _ZOOM + 2)
        t = x[1:-1]
        terms = np.stack([-d / (1.0 - d * t), -0.5 * e / (1.0 - e * t),
                          -0.5 / t, a / (1.0 - a * t)])
        slope = terms.sum(axis=0)
        k = int(np.argmax(slope))
        lo, hi = x[k], x[k + 2]
    max_slope = float(slope[k] / np.abs(terms[:, k]).sum())
    k_monotone, atom_weight = max_slope <= 0.0, max(p.lam, 0.0)
    agrees = is_fsd == (k_monotone and atom_weight == 0.0)
    return FsdReport(disc, threshold, is_fsd, k_monotone, max_slope,
                     atom_weight, agrees)
