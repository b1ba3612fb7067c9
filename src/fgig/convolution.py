"""Free additive convolution by subordination.

For probability measures ``mu`` and ``nu`` there are analytic self-maps
``omega_1, omega_2`` of the upper half-plane with

    G_{mu (+) nu}(z) = G_mu(omega_1(z)) = G_nu(omega_2(z)),
    omega_1(z) + omega_2(z) = 1/G_{mu (+) nu}(z) + z.

Writing ``h(w) = 1/G(w) - w`` for each factor, ``omega_1(z)`` is the
fixed point of ``w -> z + h_nu(z + h_mu(w))``, located here by damped
Picard iteration (globally convergent on the upper half-plane).  The
convolved density is then recovered on a real grid from the boundary
values of ``G_mu(omega_1)`` via the extrapolated Stieltjes ladder.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .measures import from_grid, shift
from .transforms import _DEFAULT_LADDER, _richardson, cauchy_nodes

_N_GRID = 2001  # uniform recovery grid over the sum of the supports
_MARGIN = 0.05  # grid padding beyond that sum, relative to its width
_TOL = 1e-12  # relative fixed-point tolerance of the recovery
_MAX_ITER = 2000  # subordination map evaluations per ladder rung


@dataclass(frozen=True)
class SubordinationPair:
    """Subordination values at a single query point."""

    z: complex
    omega1: complex
    omega2: complex
    g: complex
    residual: float
    iterations: int


def _h_transform(m, w):
    """``1/G(w) - w``, a self-map of the upper half-plane."""
    return 1.0 / cauchy_nodes(m, w) - w


def _solve_omega(mu, nu, z, w0=None, tol=1e-12, max_iter=500, damping=0.5):
    """Vectorized fixed-point solve; returns (omega1, residual, evaluations).

    Damped Picard with a vectorized Aitken update every cycle: near the
    support edges the contraction factor approaches 1 and plain iteration
    stalls, while the extrapolated sequence stays fast.  ``max_iter``
    counts evaluations of the subordination map.
    """
    z = np.asarray(z, dtype=complex)
    w = (z + 1j) if w0 is None else np.array(w0, dtype=complex, copy=True)
    res = np.full(z.shape, np.inf)
    active = np.ones(z.shape, dtype=bool)
    evals = 0

    def T(wa, za):
        return za + _h_transform(nu, za + _h_transform(mu, wa))

    while active.any() and evals < max_iter:
        za, wa = z[active], w[active]
        t0 = T(wa, za)
        res_a = np.abs(t0 - wa)
        res[active] = res_a
        done = res_a <= tol * np.maximum(1.0, np.abs(wa))
        idx = np.flatnonzero(active)
        w[idx[done]] = t0[done]
        active[idx[done]] = False
        evals += 1
        keep = ~done
        if not np.any(keep) or evals >= max_iter:
            continue
        za, u0, t0 = za[keep], wa[keep], t0[keep]
        u1 = u0 + damping * (t0 - u0)
        t1 = T(u1, za)
        u2 = u1 + damping * (t1 - u1)
        evals += 1
        d0, d1 = u1 - u0, u2 - u1
        denom = d1 - d0
        safe = np.abs(denom) > 1e-300
        acc = u2 - d1 * np.where(safe, d1 / np.where(safe, denom, 1.0), 0.0)
        good = safe & (acc.imag >= za.imag) & np.isfinite(acc)
        w[idx[keep]] = np.where(good, acc, u2)
    return w, res, evals


def subordination_at(mu, nu, z, tol=1e-12, max_iter=500):
    """Subordination pair at one point ``z`` of the open upper half-plane."""
    z = complex(z)
    if not z.imag > 0:
        raise DomainError("subordination requires Im z > 0")
    w1, res, iters = _solve_omega(mu, nu, np.array([z]), tol=tol,
                                  max_iter=max_iter)
    residual = float(res[0])
    if residual > tol * max(1.0, abs(complex(w1[0]))):
        raise NumericError("subordination iteration exhausted",
                           residual=residual)
    omega1 = complex(w1[0])
    omega2 = complex(z + _h_transform(mu, np.array([omega1]))[0])
    g = complex(cauchy_nodes(mu, np.array([omega1]))[0])
    return SubordinationPair(z, omega1, omega2, g, residual, iters)


def _bounds(m):
    pts = [loc for loc, _ in m.atoms]
    if m.support is not None:
        pts.extend(m.support)
    if not pts:
        raise DomainError("measure carries no mass")
    return min(pts), max(pts)


def _is_unit_atom(m):
    return (m.support is None and len(m.atoms) == 1
            and abs(m.atoms[0][1] - 1.0) <= 1e-12)


def _recover_density(mu, nu, xs):
    """Extrapolated boundary density of ``mu (+) nu`` at the points ``xs``."""
    h_vals = np.empty((len(_DEFAULT_LADDER), xs.size))
    w_prev = None
    for k, eps in enumerate(_DEFAULT_LADDER):
        z = xs + 1j * eps
        w, res, _ = _solve_omega(mu, nu, z, w0=w_prev, tol=_TOL,
                                 max_iter=_MAX_ITER)
        bad = res > _TOL * np.maximum(1.0, np.abs(w))
        if np.any(bad):
            raise NumericError(
                f"subordination failed on {int(bad.sum())} grid points "
                f"at eps = {eps}", residual=float(res[bad].max()))
        g = cauchy_nodes(mu, w)
        h_vals[k] = -g.imag / math.pi
        w_prev = w
    return _richardson(h_vals)[-1]


def _sqrt_edge_fit(xs, density, side):
    """Locate a square-root support edge of a recovered density.

    Near such an edge the squared density vanishes linearly with a
    curvature correction, so a parabola through three samples of
    ``density**2`` pins the edge to high order.  The samples sit two,
    four and six cells inside the thresholded edge, clear of the band
    (a few of the smallest ladder rungs wide) where the boundary-value
    extrapolation is biased.  Returns the edge abscissa or None.
    """
    peak = float(np.max(density))
    if peak <= 0.0:
        return None
    pos = np.flatnonzero(density > 1e-4 * peak)
    if pos.size < 8:
        return None
    step = 1 if side == "left" else -1
    idx = pos[0] if side == "left" else pos[-1]
    i3 = idx + 6 * step
    if not (0 <= i3 < xs.size):
        return None
    sel = [idx + 2 * step, idx + 4 * step, i3]
    x3, y3 = xs[sel], density[sel] ** 2
    # sel walks inward from the edge, so the density must rise along it
    if not np.all(np.diff(y3) > 0.0):
        return None
    h = xs[1] - xs[0]
    coeffs = np.polyfit(x3 - xs[idx], y3, 2)
    roots = np.roots(coeffs)
    roots = roots[np.abs(roots.imag) < 1e-12].real + xs[idx]
    roots = roots[np.abs(roots - xs[idx]) <= 3.0 * h]
    if roots.size == 0:
        # fall back to the pure square-root pair fit
        (x1, y1), (x2, y2) = (x3[0], y3[0]), (x3[1], y3[1])
        if y2 == y1:
            return None
        e = (x1 * y2 - x2 * y1) / (y2 - y1)
        return e if abs(e - xs[idx]) <= 3.0 * h else None
    return float(roots[np.argmin(np.abs(roots - xs[idx]))])


def _polish_edge(mu, nu, e0, sgn, d_bias):
    """Sharpen an edge estimate with ladder samples just inside it.

    The squared density through three samples a couple of bias widths
    inside the provisional edge extrapolates to its zero with error far
    below the grid-based fit, whose samples sit whole cells away.
    """
    offs = np.array([2.0, 3.0, 4.5]) * d_bias
    s = e0 + sgn * offs
    vals = np.clip(_recover_density(mu, nu, s), 0.0, None) ** 2
    if not np.all(np.diff(vals) > 0.0):
        return e0
    coeffs = np.polyfit(offs, vals, 2)
    roots = np.roots(coeffs)
    roots = roots[np.abs(roots.imag) < 1e-12].real
    roots = roots[np.abs(roots) <= 1.5 * offs[0]]
    if roots.size == 0:
        return e0
    return e0 + sgn * float(roots[np.argmin(np.abs(roots))])


def _refine_edges(mu, nu, xs, density, n_sub=48):
    """Resolve the square-root support edges of a recovered density.

    Sub-grid points are clustered quadratically over the two cells inside
    each fitted edge and filled by the ladder, except within a few of the
    smallest ladder rungs of the edge itself, where the extrapolation is
    biased and the values follow the fitted ``c*sqrt(distance)`` profile
    instead (anchored at the innermost trustworthy sample).  Spurious
    smear outside the edges is zeroed.
    """
    h = xs[1] - xs[0]
    density = np.clip(density, 0.0, None)
    d_bias = 6.0 * _DEFAULT_LADDER[-1]
    k2 = (np.arange(1, n_sub + 1) / n_sub) ** 2
    edges = []
    extra_x = []
    for side in ("left", "right"):
        e = _sqrt_edge_fit(xs, density, side)
        if e is None:
            continue
        sgn = 1.0 if side == "left" else -1.0
        e = _polish_edge(mu, nu, e, sgn, d_bias)
        edges.append((e, sgn))
        extra_x.append(e + sgn * k2 * 2.0 * h)
        extra_x.append(np.array([e]))
    if not edges:
        return xs, density

    extras = np.concatenate(extra_x)
    extra_vals = np.clip(_recover_density(mu, nu, extras), 0.0, None)
    xs = np.concatenate([xs, extras])
    density = np.concatenate([density, extra_vals])
    order = np.argsort(xs)
    xs, density = xs[order], density[order]
    xs, keep = np.unique(xs, return_index=True)
    density = density[keep]

    for e, sgn in edges:
        dist = sgn * (xs - e)
        anchor = (dist >= d_bias) & (dist <= 3.0 * d_bias)
        if not np.any(anchor):
            continue
        i = np.flatnonzero(anchor)[0 if sgn > 0 else -1]
        c = density[i] / math.sqrt(dist[i])
        sliver = (dist >= 0.0) & (dist < d_bias)
        density = np.where(sliver, c * np.sqrt(np.clip(dist, 0.0, None)),
                           density)
        spurious = (dist < 0.0) & (np.abs(xs - e) <= 6.0 * h)
        density = np.where(spurious, 0.0, density)
    return xs, density


def free_convolve(mu, nu):
    """Distribution of ``X + Y`` for free ``X ~ mu``, ``Y ~ nu``.

    A point mass acts by translation and is handled exactly.  Otherwise
    the density is recovered through the Stieltjes ladder applied to
    ``G_mu(omega_1)`` on a uniform grid spanning the arithmetic sum of
    the supports (plus a safety margin), with each rung warm-starting
    the next; a second pass refines the two support edges, where the
    square-root profile would otherwise bias the total mass.
    """
    if _is_unit_atom(nu):
        return shift(mu, nu.atoms[0][0])
    if _is_unit_atom(mu):
        return shift(nu, mu.atoms[0][0])

    lo1, hi1 = _bounds(mu)
    lo2, hi2 = _bounds(nu)
    lo, hi = lo1 + lo2, hi1 + hi2
    pad = _MARGIN * (hi - lo)
    xs = np.linspace(lo - pad, hi + pad, _N_GRID)
    density = _recover_density(mu, nu, xs)
    xs_all, density = _refine_edges(mu, nu, xs, density)
    out = from_grid(xs_all, np.clip(density, 0.0, None))
    err = abs(out.mass() - 1.0)
    if err > 1e-4:
        raise NumericError("recovered convolution density lost mass",
                           residual=err)
    return out
