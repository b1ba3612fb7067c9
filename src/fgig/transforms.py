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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, PoleError
from .params import solve_spread, spectral_roots

_FID_TOL = 1e-9  # C03's stated tolerance: largest Im r the certificate passes
_CUT_POINTS = 400  # Chebyshev points on the cut, and as many left of eta
# |Im r(u - i0) + pi tau(1/u)/u**2| over max |r| on the cut: about 100 times
# its worst, 2.1e-11, over 71,000 triples of the box log alpha, log beta in
# [-6, 6], lam in [-50, 50].  The worst sits at u next to a pole or branch
# point at alpha close to eta, where r at u and tau at the rounded 1/u
# differ by the rounding of 1/u times the conditioning u/(u - alpha).
_CUT_TOL = 2e-9
_OFF_CUT_TOL = 1e-15  # |Im r| left of eta, over max |r| on the cut
# Cauchy-integral circle of _circle_coefficients, at _CIRCLE times the
# radius of convergence.  Against 40-digit Levy-measure moments at order 64
# (12 draws, alpha, beta in [1e-2, 1e2]) the worst free cumulant read
# 7.5e-12 at 0.9, 2.0e-13 at 0.95 and 4.0e-14 at 0.98 with 4096 nodes; at
# 0.98, 1024 nodes read 1.0e-9 and 2048 read 4.4e-14, so 4096 leaves
# aliasing at 0.98**4096.
_CIRCLE = 0.98
_NODES = 4096


@dataclass(frozen=True)
class CertificateReport:
    max_imag: float
    tol: float
    passed: bool
    n_points: int
    cut_residual: float
    sign_pattern: bool


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
    # the root is positive left of eta and, on the cut right of it,
    # +i sqrt(beta (x - eta)), its limit from below
    v = 2.0 * (zz - roots.delta) * np.sqrt(beta * (roots.eta - zz))
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

    Vectorized workhorse for free convolution, which queries the upper
    half-plane and a support's outermost points: the transform the
    measure carries, ``m.cauchy_fn(z)``.
    """
    return m.cauchy_fn(np.asarray(z, dtype=complex))


# ---------------------------------------------------------------------------
# free cumulants and the divisibility certificate
# ---------------------------------------------------------------------------

def _circle_coefficients(f, n, radius):
    """First ``n`` Taylor coefficients at 0 of ``f``, analytic on
    ``|z| < radius`` and real on the real axis, vectorized.

    The discrete Cauchy integral on ``|z| = rho = _CIRCLE*radius``, the
    trapezoid rule on an analytic periodic integrand (Trefethen and
    Weideman, SIAM Review 56, 2014): ``f`` at the lower half of
    ``_NODES`` points, as ``f(conj z) = conj f(z)`` gives the rest, and one
    ``irfft``.  Order ``k`` aliases with ``k + _NODES``, which is smaller
    by about ``_CIRCLE**_NODES``.
    """
    rho = _CIRCLE * radius
    half = _NODES // 2
    z = rho * np.exp(-1j * math.pi * np.arange(half + 1) / half)
    scaled = np.fft.irfft(f(z), _NODES)[:n]  # a_k rho**k
    # rho**-k as mant**-k 2**(-e k): no intermediate over- or underflow
    mant, e = math.frexp(rho)
    k = np.arange(n)
    with np.errstate(over="ignore"):
        return np.ldexp(scaled / mant ** k, -e * k)


def free_cumulants(p, n):
    """First ``n`` free cumulants: Taylor coefficients of the R-transform.

    Read as the discrete Cauchy integral of :func:`r_fgig` on the circle
    ``|z| = rho = _CIRCLE*R``, ``R`` the radius of convergence: ``alpha``
    for ``lam >= 0`` (a pole or a square-root point) and ``eta`` for
    ``lam < 0`` (where ``alpha`` is removable).  The cumulants are the
    moments ``lam+ alpha**-k + integral x**k tau(dx)`` of the free Levy
    measure, all positive, so ``|r| <= r(rho) <= kappa_1/(1 - _CIRCLE)``
    on the circle, and ``kappa_k rho**(k-1)`` falls from ``kappa_1`` about
    no faster than ``_CIRCLE**k k**(-3/2)``: rounding moves no cumulant up
    to order 64 by much more than 1e-14 of itself, and aliasing by about
    ``_CIRCLE**_NODES``.

    Raises
    ------
    NumericError
        Where a cumulant is not a positive normal float, as when
        ``alpha**-n`` overflows.
    """
    n = int(n)
    if not 1 <= n <= 64:
        raise DomainError("cumulant order must be between 1 and 64")
    radius = spectral_roots(p).eta if p.lam < 0 else p.alpha
    out = _circle_coefficients(lambda z: r_fgig(p, z), n, radius)
    bad = np.flatnonzero(~((out >= sys.float_info.min) & (out < math.inf)))
    if bad.size:
        raise NumericError(f"free cumulant of order {bad[0] + 1} is not a "
                           "positive normal float")
    return out


def fid_certificate(p):
    """Certificate that ``mu(alpha, beta, lam)`` is freely infinitely
    divisible: ``Im r <= 0`` on the lower half-plane (Bercovici and
    Voiculescu, Indiana Univ. Math. J. 42, 1993), read on the real axis only.

    Theorem: the sign pattern ``delta < 0 < alpha <= eta`` makes the free
    Levy density ``tau`` of :mod:`fgig.levy` nonnegative, and ``(0, 0, tau)``
    is the free Levy--Khintchine triplet (``sign_pattern``).

    Boundary: below the axis ``r`` is analytic (``z (alpha - z)`` has no
    zero there and ``beta (eta - z)`` stays off the negative axis), so
    ``Im r`` is harmonic, and ``r = O(|z|**-1/2)`` tends to 0 at infinity.
    On the axis ``Im r(u - i0)`` is ``-pi tau(1/u)/u**2`` on the cut
    ``u > eta`` and 0 left of it, and ``r`` is continuous up to the axis
    except at ``alpha``:

    * ``lam > 0``: ``r = -lam/(z - alpha) + O(1)``, and the pole term has
      ``Im = -lam |Im z|/|z - alpha|**2 <= 0``, so ``limsup Im r <= 0``
      there (``Im r -> -inf`` along every nontangential path);
    * ``lam < 0``: ``alpha < eta`` and the point is removable;
    * ``lam == 0``: ``eta = alpha`` and ``|r| ~ |z - alpha|**-1/2``, which is
      ``o(1/|z - alpha|)``.  The Phragmen--Lindelof step: ``g = Re((i (z -
      alpha))**(-3/4))`` is harmonic below the axis, as ``i (z - alpha)``
      lies in the right half-plane, where its argument ``psi`` has
      ``|psi| <= pi/2``, so ``g >= cos(3 pi/8) |z - alpha|**(-3/4) > 0`` on
      the closure, and ``g -> 0`` at infinity.  For ``eps > 0``,
      ``Im r - eps g`` tends to ``-inf`` at ``alpha`` and has ``limsup``
      at most the boundary value of ``Im r`` everywhere else, infinity
      included; the maximum principle bounds it by their largest, and
      ``eps -> 0`` bounds ``Im r`` alike.

    So the supremum of ``Im r`` over the half-plane is its largest boundary
    value, ``max_imag``, and it is ``<= 0`` exactly when ``tau >= 0``.

    Numeric route: ``_CUT_POINTS`` Chebyshev points of ``y = eta/u`` in
    (0, 1) on the cut, where ``Im r`` is read against ``levy_density``
    (``cut_residual``, relative to ``max |r|`` there), and as many at
    ``u = eta (2 - 1/y)`` left of ``eta``, skipping ``alpha``, where ``Im r``
    must vanish.  ``passed`` needs the sign pattern, ``max_imag <=
    _FID_TOL``, ``cut_residual <= _CUT_TOL`` and ``|Im r| <= _OFF_CUT_TOL
    max |r|`` left of ``eta``.
    """
    from .levy import levy_density  # levy imports this module

    roots = spectral_roots(p)
    eta = roots.eta
    y = 0.5 + 0.5 * np.cos((np.arange(_CUT_POINTS) + 0.5)
                           * (math.pi / _CUT_POINTS))
    cut = eta / y
    left = eta * (2.0 - 1.0 / y)
    left = left[left != p.alpha]
    r_cut = r_fgig(p, cut.astype(complex))
    im_left = r_fgig(p, left.astype(complex)).imag
    scale = float(np.max(np.abs(r_cut)))
    tau = levy_density(p, 1.0 / cut)
    cut_residual = float(np.max(np.abs(r_cut.imag + math.pi * tau / cut ** 2))
                         / scale)
    max_im = float(max(np.max(r_cut.imag), np.max(im_left)))
    signs = roots.delta < 0.0 < p.alpha <= eta
    passed = (signs and max_im <= _FID_TOL and cut_residual <= _CUT_TOL
              and float(np.max(np.abs(im_left))) <= _OFF_CUT_TOL * scale)
    return CertificateReport(max_im, _FID_TOL, passed,
                             cut.size + left.size, cut_residual, signs)
