"""Compactly supported spectral measures: atoms plus a density.

The absolutely continuous laws handled here all have densities of the form

    rho(x) = (x - lo)**p * (hi - x)**q * g(x),       lo < x < hi,

with ``g`` smooth and positive and edge exponents ``p, q >= -1/2`` (both
``1/2`` for semicircle-type edges).  Integration against such a measure
uses Gauss--Jacobi nodes matched to the edge exponents, which makes the
quadrature spectrally accurate: for the fGIG family ``g`` is a rational
function with poles only at the origin.

The cumulative distribution is tabulated once per measure on a fine
angular grid via the substitution ``x = mid + rad*cos(theta)``, which
absorbs the edge singularities exactly, and is then interpolated.
Measures recovered on a plain grid (convolution outputs) carry a monotone
piecewise-cubic density instead.

The builders also attach the closed-form Cauchy transform of their law,
written with ``r(z) = sqrt(z - lo) * sqrt(z - hi)`` (principal roots, so
the only cut is the support), and the affine and reciprocal maps carry it
through the change of variables.  Grid measures have none.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator

from .errors import DomainError
from .params import require_valid, solve_support

_TWO_PI = 2.0 * math.pi
_DEFAULT_CDF_PTS = 4096  # angular panels for the cdf table
_TRIM_REL_TOL = 1e-12  # density below this fraction of the peak is zero


@dataclass(frozen=True, slots=True)
class FreePoissonParams:
    """Marchenko--Pastur parameters: jump scale and rate, both positive."""

    jump: float
    rate: float

    def __post_init__(self):
        if not (self.jump > 0 and self.rate > 0):
            raise DomainError("free Poisson parameters must be positive")


@dataclass(frozen=True, kw_only=True)
class SpectralMeasure:
    """Probability measure = atoms + absolutely continuous part.

    ``nodes``/``weights`` integrate the a.c. part: ``sum(w * f(x))``
    approximates ``integral f d(mu_ac)``.  ``density`` is a vectorized
    evaluator vanishing outside ``support``.  The a.c. cumulative mass is
    tabulated in ``cdf_x``/``cdf_y``; atoms are added on evaluation.
    ``chebyshev`` marks nodes of the Gauss--Chebyshev (second kind) rule,
    ``x_j = mid + rad*cos(j pi/(n+1))`` in order, whose uniform angles
    the log-energy quadrature needs.  ``cauchy_fn``, when set, is the
    closed-form Cauchy transform of the whole measure, atoms included.
    """

    atoms: tuple
    support: Optional[tuple]
    density: Optional[Callable]
    nodes: np.ndarray
    weights: np.ndarray
    cdf_x: Optional[np.ndarray] = None
    cdf_y: Optional[np.ndarray] = None
    chebyshev: bool = field(default=False, repr=False)
    cauchy_fn: Optional[Callable] = field(default=None, repr=False)

    @cached_property
    def _cdf_interp(self):
        return PchipInterpolator(self.cdf_x, self.cdf_y)

    # -- basic functionals -------------------------------------------------

    def atom_mass(self):
        return sum(w for _, w in self.atoms)

    def ac_mass(self):
        return float(np.sum(self.weights)) if self.weights.size else 0.0

    def mass(self):
        return self.atom_mass() + self.ac_mass()

    def cdf(self, x):
        """Right-continuous distribution function, vectorized."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        if self.cdf_x is not None:
            lo, hi = self.cdf_x[0], self.cdf_x[-1]
            inside = (x >= lo) & (x <= hi)
            out = np.where(x > hi, self.cdf_y[-1], out)
            if np.any(inside):
                vals = self._cdf_interp(np.clip(x, lo, hi))
                out = np.where(inside, vals, out)
        for loc, w in self.atoms:
            out = out + w * (x >= loc)
        return out if out.ndim else float(out)

    def cdf_left(self, x):
        """Left limit of the distribution function at ``x``."""
        step = sum(w for loc, w in self.atoms if loc == x)
        return float(self.cdf(x)) - step

    def breakpoints(self):
        """Evaluation grid dense enough to locate sup-distances."""
        pieces = [np.array([loc for loc, _ in self.atoms])]
        if self.cdf_x is not None:
            pieces.append(self.cdf_x)
        return np.concatenate(pieces) if pieces else np.array([])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _angular_cdf_table(lo, hi, g, p_exp, q_exp, n_panels):
    """Tabulate the a.c. cumulative mass via ``x = mid + rad*cos(theta)``.

    The integrand in ``theta`` is smooth for any edge exponents >= -1/2:

        rho(x) |dx/dtheta| = 2*rad*(2*rad)**(p+q) * g(x)
                             * cos(theta/2)**(2p+1) * sin(theta/2)**(2q+1)
    """
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    theta = np.linspace(0.0, math.pi, n_panels + 1)
    x = mid + rad * np.cos(theta)
    half = 0.5 * theta
    integrand = (2.0 * rad * (2.0 * rad) ** (p_exp + q_exp)
                 * g(x)
                 * np.power(np.cos(half), 2.0 * p_exp + 1.0)
                 * np.power(np.sin(half), 2.0 * q_exp + 1.0))
    cum = cumulative_simpson(integrand, x=theta, initial=0.0)
    total = cum[-1]
    # cumulative mass from hi downwards -> cdf values on the ascending grid
    xs = x[::-1]
    cdf = (total - cum)[::-1]
    return xs, np.clip(cdf, 0.0, None)


def _edge_matched_rule(n, p_exp, q_exp):
    """Gauss nodes/weights on [-1, 1] for weight (1-t)**q (1+t)**p.

    Closed forms of the Chebyshev family; only the two exponent pairs
    used by this package are supported.
    """
    k = np.arange(1, n + 1)
    if p_exp == 0.5 and q_exp == 0.5:
        ang = k * math.pi / (n + 1)
        return np.cos(ang), math.pi / (n + 1) * np.sin(ang) ** 2
    if p_exp == -0.5 and q_exp == 0.5:
        ang = 2.0 * k * math.pi / (2 * n + 1)
        w = 4.0 * math.pi / (2 * n + 1) * np.sin(0.5 * ang) ** 2
        return np.cos(ang), w
    raise DomainError(f"unsupported edge exponents ({p_exp}, {q_exp})")


def _jacobi_measure(lo, hi, g, p_exp=0.5, q_exp=0.5, n=256, atoms=(),
                    cdf_panels=_DEFAULT_CDF_PTS, cauchy_fn=None):
    """Measure with density ``(x-lo)**p (hi-x)**q g(x)`` on ``(lo, hi)``."""
    if not hi > lo:
        raise DomainError("support must be a nondegenerate interval")
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    t, w = _edge_matched_rule(n, p_exp, q_exp)
    nodes = mid + rad * t
    weights = rad ** (p_exp + q_exp + 1.0) * w * g(nodes)

    def density(x, _lo=lo, _hi=hi, _g=g, _p=p_exp, _q=q_exp):
        x = np.asarray(x, dtype=float)
        inside = (x > _lo) & (x < _hi)
        out = np.zeros_like(x)
        if np.any(inside):
            xi = np.where(inside, x, mid)
            vals = (np.power(xi - _lo, _p) * np.power(_hi - xi, _q) * _g(xi))
            out = np.where(inside, vals, 0.0)
        return out if out.ndim else float(out)

    xs, cdf = _angular_cdf_table(lo, hi, g, p_exp, q_exp, cdf_panels)
    return SpectralMeasure(atoms=tuple(atoms), support=(lo, hi),
                           density=density, nodes=nodes, weights=weights,
                           cdf_x=xs, cdf_y=cdf,
                           chebyshev=(p_exp == 0.5 and q_exp == 0.5),
                           cauchy_fn=cauchy_fn)


def _pairwise_quadrature(xs, ys):
    """Quadrature weights and cumulative integral on an irregular grid.

    Interval pairs are integrated under the quadratic through their three
    points (the two sub-integrals are accumulated separately, so weights
    and cumulative values stay consistent).  A pair whose interval
    lengths differ by more than 4x falls back to trapezoid cells: the
    quadratic coefficients are ill-conditioned across abrupt spacing
    changes, such as the junction between a uniform grid and an
    edge-refinement cluster.
    """
    n = xs.size
    w = np.zeros(n)
    cum = np.zeros(n)
    i = 0
    while i + 2 < n:
        h0 = xs[i + 1] - xs[i]
        h1 = xs[i + 2] - xs[i + 1]
        if max(h0, h1) > 4.0 * min(h0, h1):
            w[i] += 0.5 * h0
            w[i + 1] += 0.5 * (h0 + h1)
            w[i + 2] += 0.5 * h1
            cum[i + 1] = cum[i] + 0.5 * h0 * (ys[i] + ys[i + 1])
            cum[i + 2] = cum[i + 1] + 0.5 * h1 * (ys[i + 1] + ys[i + 2])
        else:
            s = h0 + h1
            a0 = h0 * (2.0 * h0 + 3.0 * h1) / (6.0 * s)
            a1 = h0 * (h0 + 3.0 * h1) / (6.0 * h1)
            a2 = -h0 ** 3 / (6.0 * s * h1)
            b2 = h1 * (2.0 * h1 + 3.0 * h0) / (6.0 * s)
            b1 = h1 * (h1 + 3.0 * h0) / (6.0 * h0)
            b0 = -h1 ** 3 / (6.0 * s * h0)
            w[i] += a0 + b0
            w[i + 1] += a1 + b1
            w[i + 2] += a2 + b2
            cum[i + 1] = cum[i] + a0 * ys[i] + a1 * ys[i + 1] + a2 * ys[i + 2]
            cum[i + 2] = (cum[i + 1]
                          + b0 * ys[i] + b1 * ys[i + 1] + b2 * ys[i + 2])
        i += 2
    if i + 1 < n:  # one interval left
        h = xs[i + 1] - xs[i]
        w[i] += 0.5 * h
        w[i + 1] += 0.5 * h
        cum[i + 1] = cum[i] + 0.5 * h * (ys[i] + ys[i + 1])
    return w, cum


def from_grid(xs, ys, atoms=()):
    """Measure from density samples on an ascending grid.

    The grid may be non-uniform (convolution outputs cluster points at
    the recovered support edges); integration weights are composite
    Simpson coefficients times the samples.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.clip(np.asarray(ys, dtype=float), 0.0, None)
    interp = PchipInterpolator(xs, ys)

    def density(x, _lo=xs[0], _hi=xs[-1], _f=interp):
        x = np.asarray(x, dtype=float)
        inside = (x >= _lo) & (x <= _hi)
        out = np.where(inside, _f(np.clip(x, _lo, _hi)), 0.0)
        return np.clip(out, 0.0, None) if out.ndim else float(max(out, 0.0))

    coeffs, cdf = _pairwise_quadrature(xs, ys)
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, None))
    return SpectralMeasure(atoms=tuple(atoms),
                           support=(float(xs[0]), float(xs[-1])),
                           density=density, nodes=xs, weights=coeffs * ys,
                           cdf_x=xs, cdf_y=cdf)


def atom_measure(atoms):
    """Purely atomic measure, e.g. a point mass."""
    return SpectralMeasure(atoms=tuple(atoms), support=None, density=None,
                           nodes=np.array([]), weights=np.array([]))


# ---------------------------------------------------------------------------
# closed-form Cauchy transforms
# ---------------------------------------------------------------------------

def _support_root(z, lo, hi):
    """``sqrt(z - lo) * sqrt(z - hi)``: analytic off ``[lo, hi]``, ~ ``z``
    at infinity, and ``-sqrt(lo*hi)`` at the origin when ``lo > 0``."""
    return np.sqrt(z - lo) * np.sqrt(z - hi)


def _root_sum(u, r, prod):
    """``u + r`` given ``(u + r) * (u - r) == prod``, free of cancellation.

    Where ``u - r`` is the larger factor, the sum is taken as
    ``prod / (u - r)`` instead of being formed directly.
    """
    s, d = u + r, u - r
    alt = np.abs(d) > np.abs(s)
    return np.where(alt, prod / np.where(alt, d, 1.0), s)


def _fgig_cauchy(alpha, beta, a, b):
    """Closed-form Cauchy transform of ``mu(alpha, beta, lam)`` on ``[a, b]``.

    With ``g = sqrt(ab)``, ``A = (sqrt(b) - sqrt(a))**2`` and
    ``B = (sqrt(a) + sqrt(b))**2``, the two partial fractions of the
    density, ``sqrt((x-a)(b-x))/(2 pi)`` times ``alpha/x`` and times
    ``beta/(g x**2)``, have the transforms

        alpha * A / (2 D),      beta * A * B / (4 a b D W),
        D = z - g + r(z),       W = z + g - r(z).

    Both factors are free of cancellation: ``D`` never vanishes and
    dominates its conjugate (``(z - g)**2 - r**2 = A z``), and ``W`` is
    formed by :func:`_root_sum` against ``(z + g)**2 - r**2 = B z``.  The
    textbook form

        (alpha z**2 + (1-lam) z - beta - (alpha z + beta/g) r) / (2 z**2)

    loses relative accuracy as ``eps (a/|z|)**2`` near the origin, and its
    rationalization has a removable zero over zero on the negative axis.
    """
    sa, sb = math.sqrt(a), math.sqrt(b)
    g = sa * sb
    A = ((b - a) / (sa + sb)) ** 2
    B = (sa + sb) ** 2
    k = beta * B / (2.0 * a * b)

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        r = _support_root(z, a, b)
        w = _root_sum(z + g, -r, B * z)
        return A / (2.0 * (z - g + r)) * (alpha + k / w)

    return cauchy_fn


def _free_poisson_cauchy(jump, lo, hi, offset):
    """``G(z) = 2 / (z + offset + r(z))`` of the Marchenko--Pastur law,
    ``offset = jump*(1 - rate)``; the pole at 0 is the atom when
    ``rate < 1``.  The denominator comes from :func:`_root_sum` against
    ``(z + offset)**2 - r**2 = 4 jump z``, which keeps the atom's pole
    accurate."""

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        return 2.0 / _root_sum(z + offset, _support_root(z, lo, hi),
                               4.0 * jump * z)

    return cauchy_fn


def _semicircle_cauchy(center, radius):
    """``G(z) = 2 / (w + sqrt(w - R) sqrt(w + R))`` with ``w = z - center``."""
    lo, hi = center - radius, center + radius

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        return 2.0 / (z - center + _support_root(z, lo, hi))

    return cauchy_fn


def _fgig_smooth_factor(p):
    s = solve_support(p)
    sab = math.sqrt(s.a * s.b)

    def g(x, alpha=p.alpha, beta=p.beta, sab=sab):
        return (alpha / x + beta / (sab * x * x)) / _TWO_PI

    return g, s


def fgig_density(p, x):
    """Density of ``mu(alpha, beta, lam)``: zero outside ``[a, b]`` and

        (1/2pi) * sqrt((x-a)(b-x)) * (alpha/x + beta/(sqrt(ab) x^2))

    inside.  Vectorized in ``x``.
    """
    require_valid(p)
    g, s = _fgig_smooth_factor(p)
    x = np.asarray(x, dtype=float)
    inside = (x > s.a) & (x < s.b)
    out = np.zeros_like(x)
    if np.any(inside):
        xi = np.where(inside, x, 0.5 * (s.a + s.b))
        vals = np.sqrt(np.clip((xi - s.a) * (s.b - xi), 0.0, None)) * g(xi)
        out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def _auto_nodes(n, lo, hi, pole_dist):
    """Grow the node count when a pole of ``g`` crowds the support edge."""
    ratio = pole_dist / (hi - lo)
    if ratio >= 1e-2:
        return n
    return int(min(8192, max(n, 14.0 / math.sqrt(ratio))))


def build_fgig(p, n=256):
    """Construct ``mu(alpha, beta, lam)`` as a :class:`SpectralMeasure`.

    Spectral quadrature: the rational smooth factor has its only poles at
    the origin, so the node count is bumped automatically when the support
    degenerates towards zero.
    """
    require_valid(p)
    if n < 16:
        raise DomainError("node count must be at least 16")
    g, s = _fgig_smooth_factor(p)
    n_eff = _auto_nodes(n, s.a, s.b, s.a)
    panels = max(_DEFAULT_CDF_PTS, min(4 * n_eff, 32768))
    return _jacobi_measure(s.a, s.b, g, 0.5, 0.5, n_eff, cdf_panels=panels,
                           cauchy_fn=_fgig_cauchy(p.alpha, p.beta, s.a, s.b))


def build_free_poisson(fp, n=256):
    """Construct the Marchenko--Pastur law ``nu(jump, rate)``.

    An atom of weight ``max(0, 1 - rate)`` sits at the origin; the a.c.
    part lives on ``(jump(1-sqrt(rate))**2, jump(1+sqrt(rate))**2)``.  At
    ``rate == 1`` the left edge exponent drops to ``-1/2`` and the nodes
    switch to the matching Gauss--Jacobi rule.
    """
    if n < 16:
        raise DomainError("node count must be at least 16")
    gam, rate = fp.jump, fp.rate
    sq = math.sqrt(rate)
    lo = gam * (1.0 - sq) ** 2
    hi = gam * (1.0 + sq) ** 2
    atoms = ((0.0, 1.0 - rate),) if rate < 1.0 else ()

    if abs(rate - 1.0) <= 1e-12:
        # density = sqrt(hi - x) * x**(-1/2) / (2 pi jump)
        def g(x, c=1.0 / (_TWO_PI * gam)):
            return np.full_like(np.asarray(x, dtype=float), c)

        return _jacobi_measure(0.0, hi, g, -0.5, 0.5, n,
                               cauchy_fn=_free_poisson_cauchy(gam, 0.0, hi,
                                                              0.0))

    def g(x, c=1.0 / (_TWO_PI * gam)):
        return c / x

    n_eff = _auto_nodes(n, lo, hi, lo)
    return _jacobi_measure(
        lo, hi, g, 0.5, 0.5, n_eff, atoms=atoms,
        cauchy_fn=_free_poisson_cauchy(gam, lo, hi, gam * (1.0 - rate)))


def build_semicircle(center=0.0, radius=2.0, n=256):
    """Semicircle law of the given center and radius (variance r**2/4)."""
    if not radius > 0:
        raise DomainError("radius must be positive")

    def g(x, c=2.0 / (math.pi * radius ** 2)):
        return np.full_like(np.asarray(x, dtype=float), c)

    return _jacobi_measure(center - radius, center + radius, g, 0.5, 0.5, n,
                           cauchy_fn=_semicircle_cauchy(center, radius))


def free_poisson_density(fp, x):
    """Closed-form Marchenko--Pastur density (a.c. part only)."""
    gam, rate = fp.jump, fp.rate
    sq = math.sqrt(rate)
    lo, hi = gam * (1.0 - sq) ** 2, gam * (1.0 + sq) ** 2
    x = np.asarray(x, dtype=float)
    inside = (x > lo) & (x < hi)
    xi = np.where(inside, x, gam * (1.0 + rate))
    vals = np.sqrt(np.clip(4.0 * rate * gam ** 2 - (xi - gam * (1.0 + rate)) ** 2,
                           0.0, None)) / (_TWO_PI * gam * xi)
    out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# functionals and maps
# ---------------------------------------------------------------------------

def moment(m, k):
    """k-th moment; ``k`` may be -1 or -2 when no mass sits near zero."""
    k = int(k)
    if k < -2:
        raise DomainError("moments below order -2 are not supported")
    if k < 0:
        if any(abs(loc) <= 1e-12 for loc, _ in m.atoms):
            raise DomainError("negative moment of a measure with mass at zero")
        if m.support is not None and m.support[0] <= 1e-12:
            raise DomainError("negative moment requires support bounded away "
                              "from zero")
    total = sum(w * loc ** k for loc, w in m.atoms)
    if m.nodes.size:
        total += float(np.sum(m.weights * m.nodes ** float(k)))
    return total


def mode(p):
    """Location of the density maximum of ``mu(alpha, beta, lam)``.

    The derivative's numerator reduces to a quadratic (the cubic terms
    cancel); its unique root in ``(a, b)`` is the mode.
    """
    require_valid(p)
    s = solve_support(p)
    c2, c1, c0 = mode_quadratic(p)
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0:
        raise DomainError("mode quadratic has no real root")
    sq = math.sqrt(disc)
    roots = []
    if c2 != 0.0:
        # numerically stable pair
        qq = -0.5 * (c1 + math.copysign(sq, c1))
        roots = [qq / c2]
        if qq != 0.0:
            roots.append(c0 / qq)
    else:
        roots = [-c0 / c1]
    inside = [r for r in roots if s.a < r < s.b]
    if not inside:
        raise DomainError("no quadratic root inside the support")
    return float(inside[0])


def mode_quadratic(p):
    """Coefficients (c2, c1, c0) of the mode quadratic."""
    s = solve_support(p)
    sab = math.sqrt(s.a * s.b)
    t = p.beta / sab
    c2 = 2.0 * t - p.alpha * (s.a + s.b)
    c1 = 2.0 * s.a * s.b * p.alpha - 3.0 * (s.a + s.b) * t
    c0 = 4.0 * s.a * s.b * t
    return c2, c1, c0


def trim_support(m):
    """Restrict a grid measure to where its density is effectively positive.

    The zero sample next to each end of the positive run is kept, so the
    support still ends where the density vanishes and a built measure is
    returned unchanged.  A measure that does lose nodes loses its
    Chebyshev marker with them.
    """
    if m.cdf_x is None or m.density is None:
        return m
    ys = m.density(m.cdf_x)
    peak = float(np.max(ys)) if ys.size else 0.0
    keep = np.nonzero(ys > _TRIM_REL_TOL * peak)[0]
    if keep.size == 0:
        raise DomainError("measure has no detectable density")
    i0, i1 = max(keep[0] - 1, 0), min(keep[-1] + 1, ys.size - 1)
    if i0 == 0 and i1 == ys.size - 1:
        return m
    lo, hi = float(m.cdf_x[i0]), float(m.cdf_x[i1])
    inside = (m.nodes >= lo) & (m.nodes <= hi)
    return replace(m, support=(lo, hi), nodes=m.nodes[inside],
                   weights=m.weights[inside], cdf_x=m.cdf_x[i0:i1 + 1],
                   cdf_y=m.cdf_y[i0:i1 + 1], chebyshev=False)


def pushforward_reciprocal(m):
    """Image measure under ``x -> 1/x``; mass is preserved exactly.

    Requires the support (and every atom) to sit strictly inside
    ``(0, inf)``.
    """
    m = trim_support(m)
    if any(loc <= 1e-12 for loc, _ in m.atoms):
        raise DomainError("reciprocal pushforward needs atoms away from zero")
    atoms = tuple((1.0 / loc, w) for loc, w in m.atoms)
    if m.support is None:
        return atom_measure(atoms)
    lo, hi = m.support
    if lo <= 1e-12:
        raise DomainError("reciprocal pushforward needs support inside (0, inf)")

    parent_density = m.density

    def density(y, _lo=1.0 / hi, _hi=1.0 / lo, _f=parent_density):
        y = np.asarray(y, dtype=float)
        inside = (y > _lo) & (y < _hi)
        yi = np.where(inside, y, 1.0)
        out = np.where(inside, _f(1.0 / yi) / yi ** 2, 0.0)
        return out if out.ndim else float(out)

    nodes = 1.0 / m.nodes[::-1]
    weights = m.weights[::-1].copy()
    ac_mass = m.ac_mass()
    cdf_x = 1.0 / m.cdf_x[::-1]
    cdf_y = np.clip(ac_mass - m.cdf_y[::-1], 0.0, None)
    cauchy_fn = None
    if m.cauchy_fn is not None:
        def cauchy_fn(z, _g=m.cauchy_fn, _mean=moment(m, 1)):
            # G_{1/X}(z) = (1 - G_X(1/z)/z)/z, which tends to -E X at 0
            z = np.asarray(z, dtype=complex)
            zero = z == 0
            zi = np.where(zero, 1.0, z)
            return np.where(zero, -_mean, (1.0 - _g(1.0 / zi) / zi) / zi)
    return SpectralMeasure(atoms=atoms,
                           support=(float(cdf_x[0]), float(cdf_x[-1])),
                           density=density, nodes=nodes, weights=weights,
                           cdf_x=cdf_x, cdf_y=cdf_y, cauchy_fn=cauchy_fn)


def _affine(m, scale, offset):
    """Image under ``x -> scale*x + offset`` for ``scale > 0``.

    Multiplying by ``scale = 1`` or adding ``offset = 0`` changes no
    value, so a pure shift or dilation gives the numbers it would alone.
    """
    atoms = tuple((scale * loc + offset, w) for loc, w in m.atoms)
    if m.support is None:
        return atom_measure(atoms)
    lo, hi = m.support

    def density(x, _f=m.density):
        return _f((np.asarray(x, dtype=float) - offset) / scale) / scale

    cauchy_fn = None
    if m.cauchy_fn is not None:
        def cauchy_fn(z, _g=m.cauchy_fn):
            return _g((np.asarray(z, dtype=complex) - offset) / scale) / scale
    return replace(m, atoms=atoms,
                   support=(scale * lo + offset, scale * hi + offset),
                   density=density, nodes=scale * m.nodes + offset,
                   cdf_x=None if m.cdf_x is None else scale * m.cdf_x + offset,
                   cauchy_fn=cauchy_fn)


def shift(m, c):
    """Translate a measure by ``c``."""
    return _affine(m, 1.0, c)


def dilate(m, c):
    """Image under ``x -> c*x`` for ``c > 0``."""
    if not c > 0:
        raise DomainError("dilation factor must be positive")
    return _affine(m, c, 0.0)


def kolmogorov_distance(m1, m2):
    """Sup-distance of distribution functions over a merged grid.

    Atom locations contribute both their right values and left limits, so
    jumps are compared exactly.
    """
    pts = np.unique(np.concatenate([m1.breakpoints(), m2.breakpoints()]))
    if pts.size == 0:
        return 0.0
    d = float(np.max(np.abs(m1.cdf(pts) - m2.cdf(pts))))
    for loc, _ in tuple(m1.atoms) + tuple(m2.atoms):
        d = max(d, abs(m1.cdf_left(loc) - m2.cdf_left(loc)))
    return d


def levy_distance(m1, m2, tol=1e-9):
    """Levy metric: the weak-convergence distance between two laws.

    Smallest ``eps`` with ``F(x - eps) - eps <= G(x) <= F(x + eps) + eps``
    everywhere; unlike the sup-distance it tolerates atoms in one
    argument approximated by steep absolutely continuous ramps in the
    other.  Located by bisection over a merged evaluation grid.
    """
    pts = np.unique(np.concatenate([m1.breakpoints(), m2.breakpoints()]))
    if pts.size == 0:
        return 0.0
    f1 = m1.cdf(pts)
    f2 = m2.cdf(pts)

    def separated(eps):
        # violated iff G(x) > F(x + eps) + eps somewhere (either order)
        a1 = m1.cdf(pts + eps) + eps
        a2 = m2.cdf(pts + eps) + eps
        return np.any(f2 > a1 + 1e-15) or np.any(f1 > a2 + 1e-15)

    hi = float(np.max(np.abs(f1 - f2)))  # sup-distance bounds the Levy metric
    if hi <= tol:
        return hi
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if separated(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return hi


def density_sup_distance(m1, m2, n_pts=2001):
    """Sup-distance of densities over the union of supports."""
    los, his = [], []
    for m in (m1, m2):
        if m.support is not None:
            los.append(m.support[0])
            his.append(m.support[1])
    if not los:
        return 0.0
    xs = np.linspace(min(los), max(his), n_pts)
    d1 = m1.density(xs) if m1.density else np.zeros_like(xs)
    d2 = m2.density(xs) if m2.density else np.zeros_like(xs)
    return float(np.max(np.abs(d1 - d2)))


def integrate(m, f):
    """Integral of a vectorized function against the measure."""
    total = sum(w * f(np.asarray(loc)) for loc, w in m.atoms)
    if m.nodes.size:
        total += float(np.sum(m.weights * f(m.nodes)))
    return total
