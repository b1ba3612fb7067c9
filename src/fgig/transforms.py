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

Cauchy transforms are evaluated on the upper half-plane (Herglotz side)
from the closed form a built measure carries, by quadrature against a
grid measure, or by numerically inverting ``r(w) + 1/w = z``.  Densities
come back through the boundary values ``-Im G(x + i eps)/pi`` with
Richardson extrapolation in ``eps``.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, NumericError, PoleError
from .params import require_valid, spectral_roots
from .series import Series

_DEFAULT_LADDER = tuple(1e-2 * 0.5 ** k for k in range(8))
# a grid measure's node sum gives way to quadrature within this many spacings
_NEAR_SPACINGS = 4.0


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
        # real z produces imag -0.0; the branch from below needs +0.0
        w = np.where(w.imag == 0.0, w.real + 0j, w)
        out = np.sqrt(w)
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class CertificateReport:
    max_imag: float
    tol: float
    passed: bool
    worst_point: complex
    n_points: int


def _r_closed(alpha, lam, delta, sq, z):
    # the constant term must cancel 2*(-delta)*sqrt(beta*eta) exactly at
    # z = 0; writing it through the same square-root data removes the
    # solver-precision mismatch with alpha that would otherwise dominate
    # near the origin
    alpha_num = 2.0 * (-delta) * sq(0.0).real
    return ((-alpha_num + (lam + 1.0) * z + 2.0 * (z - delta) * sq(z))
            / (2.0 * z * (alpha - z)))


def _series_coeffs(alpha, beta, lam, delta, eta, at):
    """Taylor data of the numerator at ``at`` (0 or alpha): P', P'', P'''."""
    s = math.sqrt(beta * (eta - at))
    sp = -beta / (2.0 * s)
    spp = -beta ** 2 / (4.0 * s ** 3)
    sppp = -3.0 * beta ** 3 / (8.0 * s ** 5)
    w = at - delta
    p1 = (lam + 1.0) + 2.0 * s + 2.0 * w * sp
    p2 = 4.0 * sp + 2.0 * w * spp
    p3 = 6.0 * spp + 2.0 * w * sppp
    return p1, p2, p3


def r_fgig(p, z):
    """R-transform of ``mu(alpha, beta, lam)``, vectorized in ``z``.

    Within a relative radius of ``1e-5`` of the removable points the
    closed form loses all precision to cancellation and a second-order
    local expansion is used instead.

    Raises
    ------
    PoleError
        At ``z == alpha`` when ``lam > 0`` (carries the residue ``-lam``)
        or when ``lam == 0`` (square-root divergence, residue 0).
    """
    require_valid(p)
    alpha, beta, lam = p.alpha, p.beta, p.lam
    roots = spectral_roots(p)
    delta, eta = roots.delta, roots.eta
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))

    if np.any(z == alpha):
        if lam > 0:
            raise PoleError(f"simple pole at z = alpha = {alpha}", residue=-lam)
        if lam == 0:
            raise PoleError(f"square-root divergence at z = alpha = {alpha}",
                            residue=0.0)

    upper = z.imag > 0
    zz = np.where(upper, np.conj(z), z)
    out = np.empty_like(zz)
    guard = 1e-5 * max(1.0, alpha)
    near0 = np.abs(zz) < guard
    near_a = (np.abs(zz - alpha) < guard) & (lam != 0.0)
    rest = ~(near0 | near_a)

    if np.any(rest):
        sq = BranchedSqrtEvaluator(beta, eta)
        zr = zz[rest]
        out[rest] = _r_closed(alpha, lam, delta, sq, zr)
    if np.any(near0):
        p1, p2, p3 = _series_coeffs(alpha, beta, lam, delta, eta, 0.0)
        z0 = zz[near0]
        out[near0] = (p1 + p2 * z0 / 2.0 + p3 * z0 ** 2 / 6.0) / (2.0 * (alpha - z0))
    if np.any(near_a):
        p1, p2, p3 = _series_coeffs(alpha, beta, lam, delta, eta, alpha)
        za = zz[near_a]
        dz = za - alpha
        q = p1 + p2 * dz / 2.0 + p3 * dz ** 2 / 6.0
        vals = -q / (2.0 * za)
        if lam > 0:  # the pole survives only for positive shape
            vals = vals + lam * (1.0 / za + 1.0 / (alpha - za))
        out[near_a] = vals

    out = np.where(upper, np.conj(out), out)
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

def _node_spacing(m):
    if m.nodes.size < 2:
        return 0.0
    return float(np.max(np.diff(np.sort(m.nodes))))


def cauchy(m, z):
    """Cauchy transform ``integral d mu(x) / (z - x)`` of a measure.

    A measure that carries a closed form is evaluated through it.  For a
    grid measure the node sum is used away from the support; close to it
    (within ``_NEAR_SPACINGS`` node spacings) the integral falls back to
    adaptive quadrature against the density.  Querying a point of the
    support itself (or an atom) raises.
    """
    scalar = np.isscalar(z) or isinstance(z, complex)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    for loc, _ in m.atoms:
        if np.any(z == loc):
            raise DomainError(f"Cauchy transform queried at atom {loc}")
    if m.cauchy_fn is not None:
        if m.support is not None:
            lo, hi = m.support
            if np.any((z.imag == 0.0) & (z.real >= lo) & (z.real <= hi)):
                raise DomainError("Cauchy transform queried on the support")
        out = m.cauchy_fn(z)
        return complex(out[0]) if scalar else out
    out = np.zeros_like(z)
    for loc, w in m.atoms:
        out = out + w / (z - loc)
    if m.support is not None:
        lo, hi = m.support
        x, y = z.real, z.imag
        dist = np.hypot(np.clip(lo - x, 0.0, None) + np.clip(x - hi, 0.0, None), y)
        h = _node_spacing(m)
        near = dist < _NEAR_SPACINGS * h
        far = ~near
        if np.any(far):
            zf = z[far]
            out[far] = out[far] + np.sum(
                m.weights / (zf[:, None] - m.nodes[None, :]), axis=1)
        if np.any(near):
            vals = np.array([_cauchy_quad(m, complex(zi)) for zi in z[near]])
            out[near] = out[near] + vals
    return complex(out[0]) if scalar else out


def _cauchy_quad(m, z):
    lo, hi = m.support
    x, y = z.real, z.imag
    if y == 0.0 and lo <= x <= hi:
        raise DomainError("Cauchy transform queried on the support")
    pts = [x] if lo < x < hi else None
    re = quad(lambda t: m.density(t) * (x - t) / ((x - t) ** 2 + y ** 2),
              lo, hi, points=pts, limit=200)[0]
    im = quad(lambda t: -m.density(t) * y / ((x - t) ** 2 + y ** 2),
              lo, hi, points=pts, limit=200)[0]
    return re + 1j * im


def cauchy_nodes(m, z):
    """Cauchy transform without support checks or quadrature fallback.

    Vectorized workhorse for the subordination solver, where the query
    points stay in the upper half-plane: the closed form when the measure
    carries one, otherwise the bare node sum.
    """
    z = np.asarray(z, dtype=complex)
    if m.cauchy_fn is not None:
        return m.cauchy_fn(z)
    out = np.zeros_like(z)
    for loc, w in m.atoms:
        out = out + w / (z - loc)
    if m.nodes.size:
        out = out + np.sum(m.weights / (z[..., None] - m.nodes), axis=-1)
    return out


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


def cauchy_from_r(r, z, seed=None, tol=1e-12):
    """Invert ``r(w) + 1/w = z`` for ``w = G(z)``.

    Newton from the seed ``1/z``; when that diverges, a homotopy lifts
    the query point high into the upper half-plane (where ``G ~ 1/z``)
    and walks back down, warm-starting each solve.
    """
    z = complex(z)
    tol_eff = tol * max(1.0, abs(z))
    w = _newton_invert(r, z, seed if seed is not None else 1.0 / z, tol_eff)
    if w is None or (z.imag > 0 and w.imag >= 0):
        scale = max(1.0, abs(z))
        w = None
        for lift in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.0):
            zk = z + 1j * lift * scale
            w0 = w if w is not None else 1.0 / zk
            w = _newton_invert(r, zk, w0, tol * max(1.0, abs(zk)))
            if w is None:
                raise NumericError(f"Cauchy inversion diverged at lift {lift}")
        if w is None or abs(r(w) + 1.0 / w - z) > tol_eff:
            raise NumericError("Cauchy inversion did not converge",
                               residual=None if w is None
                               else abs(r(w) + 1.0 / w - z))
    return w


def _richardson(h):
    """Two Richardson rounds over rows ``h[k]`` sampled at ``_DEFAULT_LADDER``.

    The halving ladder makes the rounds ``2 h[k+1] - h[k]`` and then
    ``(4 r[k+1] - r[k])/3``, removing the ``O(eps)`` and ``O(eps**2)``
    smoothing bias; the last row is the extrapolated value.
    """
    r1 = 2.0 * h[1:] - h[:-1]
    return (4.0 * r1[1:] - r1[:-1]) / 3.0


def stieltjes_density(G, x):
    """Recover a density from a vectorized Cauchy transform evaluator.

    Evaluates ``-Im G(x + i eps)/pi`` along a halving ladder and removes
    the smoothing bias with two rounds of Richardson extrapolation.  The
    final two extrapolants must agree, otherwise a :class:`NumericError`
    is raised.
    """
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = np.array([-np.asarray(G(x + 1j * eps), dtype=complex).imag / math.pi
                  for eps in _DEFAULT_LADDER])
    r2 = _richardson(h)
    val = r2[-1]
    wobble = np.abs(r2[-1] - r2[-2])
    bad = wobble > np.maximum(1e-5, 1e-3 * np.abs(val))
    if np.any(bad):
        i = int(np.argmax(wobble))
        raise NumericError(f"Stieltjes ladder did not settle at x = {x[i]}",
                           residual=float(wobble[i]))
    val = np.clip(val, 0.0, None)
    return float(val[0]) if scalar else val


# ---------------------------------------------------------------------------
# free cumulants and the divisibility certificate
# ---------------------------------------------------------------------------

def free_cumulants(p, n):
    """First ``n`` free cumulants: Taylor coefficients of the R-transform.

    Built by truncated-series algebra on the closed form; the square
    root contributes a binomial series around the origin.
    """
    require_valid(p)
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


def free_poisson_cumulants(fp, n):
    """Cumulants of the Marchenko--Pastur law: ``rate * jump**k``."""
    k = np.arange(1, int(n) + 1)
    return fp.rate * fp.jump ** k.astype(float)


def fid_certificate(p, n_grid=200, tol=1e-9):
    """Numeric certificate that ``Im r <= 0`` on the lower half-plane.

    Sweeps an ``n_grid x n_grid`` grid of the lower half-plane with
    geometric approach to the real axis, plus real-boundary samples and
    two small arcs around the singular point ``alpha``.  Passing means
    the maximum imaginary part stays below ``tol``.
    """
    require_valid(p)
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
    return CertificateReport(max_im, tol, max_im <= tol,
                             complex(allz[imax]), allz.size)
