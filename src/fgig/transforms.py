"""R-transforms, Cauchy transforms and the free-divisibility certificate.

The R-transform of ``mu(alpha, beta, lam)`` is

    r(z) = (-alpha + (lam+1) z + 2 (z - delta) sqrt(beta (eta - z)))
           / (2 z (alpha - z))

with the square-root branch continuous on the closed lower half-plane and
positive left of ``eta``; this pins ``sqrt`` of the quartic to ``alpha``
at the origin.  ``z = 0`` is removable for every ``lam``; ``z = alpha``
is removable for ``lam < 0``, a simple pole of residue ``-lam`` for
``lam > 0``, and a square-root divergence for ``lam == 0``.  Values on
the upper half-plane are defined by reflection ``r(conj z) = conj r(z)``.
It is evaluated as this quotient or through the conjugate numerator,
whichever factor is larger, so one expression serves every ``z``
(see :func:`r_fgig`).

Cauchy transforms are evaluated from the one a measure carries (closed
form, Chebyshev series or atom sum; see :mod:`fgig.measures`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PoleError
from .params import solve_spread, spectral_roots
from .series import Series

_FID_TOL = 1e-9  # largest Im r the divisibility certificate passes


@dataclass(frozen=True)
class BranchedSqrtEvaluator:
    """``sqrt(beta*(eta - z))`` continuous on the closed lower half-plane.

    Positive on ``(-inf, eta)``; for real arguments right of ``eta`` the
    limit from below is ``+i sqrt(beta*(x - eta))``.
    """

    beta: float
    eta: float

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        w = self.beta * (self.eta - z)
        # insurance only: the branch from below on the real axis needs imag
        # +0.0, which beta*(eta - z) has for every real z, as numpy promotes
        # beta to complex with imag +0.0; a numpy that negated imag in
        # eta - z without promoting would need this -0.0 -> +0.0
        w += 0.0
        out = np.sqrt(w)
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class CertificateReport:
    max_imag: float
    tol: float
    passed: bool
    worst_point: complex
    n_points: int


def r_fgig(p, z):
    """R-transform of ``mu(alpha, beta, lam)``, vectorized in ``z``.

    With ``u = lam z + (z - alpha)``, exact at ``alpha``, and
    ``v = 2 (z - delta) sqrt(beta (eta - z))`` the numerator is
    ``N = u + v``.  Its conjugate ``N' = u - v`` has
    ``N N' = 4 beta z (z - alpha)(z - z3)`` with ``z3 = -alpha m/beta``, so

        r(z) = N / (2 z (alpha - z)) = -2 (beta z + alpha m) / N'.

    Each point takes the form with the larger factor: ``N'`` where
    ``Re(u conj v) <= 0``, ``N`` elsewhere.  Neither cancels, so one
    expression covers the removable points, the pole and the square-root
    divergence.  The mean ``m = r(0) = alpha A B/16 + beta A/(4 sqrt(ab))``
    is the sum of positive terms ``alpha A B/16 - beta delta/alpha``.

    Raises
    ------
    PoleError
        At ``z == alpha`` when ``lam > 0`` (carries the residue ``-lam``)
        or when ``lam == 0`` (square-root divergence, residue 0).
    NumericError
        If a value is out of floating-point range, as at ``z == alpha``
        when ``lam < 0`` is so small that ``r(alpha)`` overflows.
    """
    alpha, beta, lam = p.alpha, p.beta, p.lam
    roots = spectral_roots(p)
    sf = solve_spread(p)
    mean = alpha * sf.A * sf.B / 16.0 - beta * roots.delta / alpha
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    if np.any(z == alpha):
        if lam > 0:
            raise PoleError(f"simple pole at z = alpha = {alpha}", residue=-lam)
        if lam == 0:
            raise PoleError(f"square-root divergence at z = alpha = {alpha}",
                            residue=0.0)

    upper = z.imag > 0
    flip = bool(upper.any())  # reflect only when some point needs it
    zz = np.where(upper, np.conj(z), z) if flip else z
    u = lam * zz + (zz - alpha)
    v = 2.0 * (zz - roots.delta) * BranchedSqrtEvaluator(beta, roots.eta)(zz)
    # |u - v| >= |u + v| exactly where Re(u conj v) <= 0; both factors
    # are chosen before dividing, so no zero denominator is formed
    conj = u.real * v.real + u.imag * v.imag <= 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = u + v
        den = 2.0 * zz * (alpha - zz)
        num[conj] = -2.0 * (beta * zz[conj] + alpha * mean)
        den[conj] = u[conj] - v[conj]
        out = num / den
    if not np.all(np.isfinite(out)):
        raise NumericError("R-transform is out of floating-point range")
    if flip:
        np.conjugate(out, out=out, where=upper)
    return complex(out[0]) if scalar else out


def r_free_poisson(fp, z):
    """R-transform of the Marchenko--Pastur law: ``jump*rate/(1 - jump*z)``."""
    pole = 1.0 / fp.jump
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(z == pole):
        raise PoleError(f"simple pole at z = 1/jump = {pole}", residue=-fp.rate)
    out = fp.jump * fp.rate / (1.0 - fp.jump * z)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Cauchy transforms
# ---------------------------------------------------------------------------

def cauchy(m, z):
    """Cauchy transform ``integral d mu(x) / (z - x)`` of a measure.

    Evaluated through the transform the measure carries.  Querying a
    point of the support itself (or an atom) raises.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    for loc, _ in m.atoms:
        if np.any(z == loc):
            raise DomainError(f"Cauchy transform queried at atom {loc}")
    if m.support is not None:
        lo, hi = m.support
        if np.any((z.imag == 0.0) & (z.real >= lo) & (z.real <= hi)):
            raise DomainError("Cauchy transform queried on the support")
    out = m.cauchy_fn(z)
    return complex(out[0]) if scalar else out


def cauchy_nodes(m, z):
    """Cauchy transform without the support and atom checks.

    Vectorized workhorse for the subordination solver, where the query
    points stay in the upper half-plane: the transform the measure
    carries, ``m.cauchy_fn(z)``.
    """
    return m.cauchy_fn(np.asarray(z, dtype=complex))


# ---------------------------------------------------------------------------
# free cumulants and the divisibility certificate
# ---------------------------------------------------------------------------

def free_cumulants(p, n):
    """First ``n`` free cumulants: Taylor coefficients of the R-transform.

    Built by truncated-series algebra on the closed form; the square
    root contributes a binomial series around the origin.
    """
    n = int(n)
    if not 1 <= n <= 64:
        raise DomainError("cumulant order must be between 1 and 64")
    alpha, beta, lam = p.alpha, p.beta, p.lam
    roots = spectral_roots(p)
    delta, eta = roots.delta, roots.eta

    # sqrt(beta*(eta - z)) = sqrt(beta*eta) * (1 - z/eta)**(1/2)
    coef = np.empty(n + 1)
    coef[0] = 1.0
    b = 1.0
    for k in range(1, n + 1):
        b *= (0.5 - (k - 1)) / k
        coef[k] = b * (-1.0 / eta) ** k
    s = Series(math.sqrt(beta * eta) * coef)
    zs = Series.variable(n)
    numer = (lam + 1.0) * zs + 2.0 * ((zs - delta) * s) - alpha
    if abs(numer.c[0]) > 1e-9 * max(1.0, alpha):
        raise NumericError("numerator series lost the root identity",
                           residual=float(abs(numer.c[0])))
    numer.c[0] = 0.0  # exact removable zero at the origin
    geom = Series((0.5 / alpha) * (1.0 / alpha) ** np.arange(n + 1))
    r_series = numer.shift_down() * geom
    return r_series.c[:n].copy()


def fid_certificate(p, n_grid=200):
    """Numeric certificate that ``Im r <= 0`` on the lower half-plane.

    Sweeps an ``n_grid x n_grid`` grid of the lower half-plane with
    geometric approach to the real axis, plus real-boundary samples and
    two small arcs around the singular point ``alpha``.  Passing means
    the maximum imaginary part stays below ``_FID_TOL`` = 1e-9.
    """
    if n_grid < 2:
        raise DomainError("certificate grid needs at least 2 points per axis")
    roots = spectral_roots(p)
    scale = max(1.0, p.alpha, roots.eta, -roots.delta)
    xs = np.linspace(-3.0 * scale, 3.0 * scale, n_grid)
    ys = -np.geomspace(1e-6 * scale, 3.0 * scale, n_grid)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()

    # real boundary, avoiding the singular point itself
    bx = np.linspace(-3.0 * scale, 3.0 * scale, 4 * n_grid)
    bx = bx[np.abs(bx - p.alpha) > 1e-6 * scale]
    pieces = [zs, bx.astype(complex)]

    # arcs hugging the singular point from below
    theta = np.linspace(-math.pi + 1e-3, -1e-3, 101)
    for radius in (1e-3, 1e-5):
        pieces.append(p.alpha + radius * max(1.0, p.alpha) * np.exp(1j * theta))
    allz = np.concatenate(pieces)
    vals = r_fgig(p, allz)
    imax = int(np.argmax(vals.imag))
    max_im = float(vals.imag[imax])
    return CertificateReport(max_im, _FID_TOL, max_im <= _FID_TOL,
                             complex(allz[imax]), allz.size)
