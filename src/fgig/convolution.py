"""Free additive convolution by subordination.

For probability measures ``mu`` and ``nu`` there are analytic self-maps
``omega_1, omega_2`` of the upper half-plane with

    G_{mu (+) nu}(z) = G_mu(omega_1(z)) = G_nu(omega_2(z)),
    omega_1(z) + omega_2(z) = 1/G_{mu (+) nu}(z) + z.

Writing ``h(w) = 1/G(w) - w`` for each factor, ``omega_1(z)`` is the
fixed point of ``w -> z + h_nu(z + h_mu(w))``, located here by damped
Picard iteration with Aitken extrapolation.  ``omega_1(z)`` is the
Denjoy--Wolff point of that map, which the iteration reaches from any
start in the upper half-plane (Belinschi & Bercovici, J. Anal. Math.
2007), so a start taken from a nearby solution changes how many map
evaluations a solve takes, not where it ends.  The map sends the closed
half-plane ``Im w >= Im z`` into itself, so an extrapolation that leaves
it is projected back onto its boundary.  The subordination functions
extend continuously to the real line (Belinschi, PTRF 2008), so the
convolved density ``-Im G_mu(omega_1(x))/pi`` is read at real ``x``
directly, with no extrapolation towards the axis; outside the support
``omega_1(x)`` is real.

:func:`free_convolve` solves three times on the real axis, each solve
started from what the earlier ones found: a uniform grid from ``x + 1j``,
then both support edges in lockstep, each probe from ``omega_1`` at its
edge's nearest sample inside the support, then ``_OUT_NODES`` Chebyshev
nodes of the support from the grid's ``omega_1`` interpolated there.  The
output's resolution is its own: nothing reads the inputs' quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .measures import _chebyshev_measure, _edge_matched_rule, shift
from .transforms import cauchy_nodes

_N_GRID = 2001  # uniform grid over the sum of the supports, to find the edges
_MARGIN = 0.05  # grid padding beyond that sum, relative to its width
_TOL = 1e-12  # relative fixed-point tolerance of every subordination solve
_MAX_ITER = 2000  # subordination map evaluations per solve
_FLOOR = 1e-9  # density below this fraction of the peak is outside the support
_EDGE_STEP = 1e-7  # closest approach of an edge probe, relative to the width
_EDGE_PROBES = 40  # probes allowed per edge
_DAMPING = 0.5  # Picard step of the subordination solve
_MASS_TOL = 1e-10  # largest mass error of a returned law
_OUT_NODES = 1024  # Chebyshev nodes of every convolution output


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


def _solve_omega(mu, nu, z, max_iter, start=None, scale=1.0):
    """Vectorized fixed-point solve; returns (omega1, residual, evaluations).

    Damped Picard with a vectorized Aitken update every cycle: near the
    support edges the contraction factor approaches 1 and plain iteration
    stalls, while the extrapolated sequence stays fast.  The map
    ``T(w) = z + h_nu(z + h_mu(w))`` sends the closed half-plane
    ``Im w >= Im z`` into itself (``Im h >= 0``), and ``omega_1(z)`` lies
    in it, so an extrapolation that overshoots below ``Im w = Im z`` is
    projected onto that line rather than discarded.  Outside the support,
    where ``omega_1`` is real, every extrapolation lands a hair below the
    axis, and the damped step alone would only halve ``Im w`` per
    evaluation.  ``max_iter`` counts evaluations of the subordination map.
    The iteration reaches the same fixed point from any ``start`` in the
    upper half-plane (``z + 1j`` by default); a start near it only saves
    evaluations.  A solve stops once a step is within ``_TOL`` of
    ``max(scale, |w|)``.
    """
    z = np.asarray(z, dtype=complex)
    w = z + 1j if start is None else np.array(start, dtype=complex)
    res = np.full(z.shape, np.inf)
    # the points still iterating, their z and their current iterate
    idx, za, wa = np.arange(z.size), z, w.copy()
    evals = 0

    def T(wa, za):
        return za + _h_transform(nu, za + _h_transform(mu, wa))

    while idx.size and evals < max_iter:
        t0 = T(wa, za)
        res[idx] = res_a = np.abs(t0 - wa)
        done = res_a <= _TOL * np.maximum(scale, np.abs(wa))
        w[idx[done]] = t0[done]
        evals += 1
        keep = ~done
        idx, za, u0, t0 = idx[keep], za[keep], wa[keep], t0[keep]
        wa = u0
        if not idx.size or evals >= max_iter:
            break
        u1 = u0 + _DAMPING * (t0 - u0)
        t1 = T(u1, za)
        u2 = u1 + _DAMPING * (t1 - u1)
        evals += 1
        d0, d1 = u1 - u0, u2 - u1
        denom = d1 - d0
        safe = np.abs(denom) > 1e-300
        acc = u2 - d1 * np.where(safe, d1 / np.where(safe, denom, 1.0), 0.0)
        acc = acc.real + 1j * np.maximum(acc.imag, za.imag)
        wa = np.where(safe & np.isfinite(acc), acc, u2)
    w[idx] = wa
    return w, res, evals


def subordination_at(mu, nu, z, max_iter=500):
    """Subordination pair at one point ``z`` of the open upper half-plane."""
    z = complex(z)
    if not z.imag > 0:
        raise DomainError("subordination requires Im z > 0")
    w1, res, iters = _solve_omega(mu, nu, np.array([z]), max_iter)
    residual = float(res[0])
    if residual > _TOL * max(1.0, abs(complex(w1[0]))):
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


def _real_density(mu, nu, xs, start, scale):
    """Density of ``mu (+) nu`` at real ``xs``, where its solve converged,
    and ``omega1`` there.

    Inside the support and outside it a solve converges within a few
    dozen map evaluations; at an edge the contraction factor tends to 1
    and the solve may stall.
    """
    xs = np.asarray(xs, dtype=float)
    w, res, _ = _solve_omega(mu, nu, xs.astype(complex), _MAX_ITER, start,
                             scale)
    ok = res <= _TOL * np.maximum(scale, np.abs(w))
    return -cauchy_nodes(mu, w).imag / math.pi, ok, w


def _locate_edges(mu, nu, edges, floor, width, scale):
    """Both square-root support edges, moved in lockstep.

    Each of ``edges`` is ``(x_out, xs, rho, w)``: ``xs``/``rho`` are
    three density samples inside the support, the nearest to the edge
    first, ``w`` is ``omega1`` at the nearest, and ``x_out`` lies
    outside.  Near an edge ``rho**2`` vanishes linearly, so ``x`` is a
    smooth function of ``rho**2`` and inverse quadratic interpolation
    through the three nearest samples estimates the edge at
    ``rho**2 = 0``.  Each probe then lands a twentieth of the way from
    that estimate to the nearest sample, but never closer than
    ``_EDGE_STEP`` widths to the estimate: the edge is approached from
    the inside, where solves converge fast, and no closer than their
    accuracy allows.  A probe found outside tightens the bracket, and an
    estimate outside the bracket gives way to its midpoint.  An edge is
    done once its nearest sample is within two such steps of the
    estimate, after one probe at least: grid samples alone lie a grid
    cell apart, too far for the quadratic to be exact.  Each round
    solves the probes of the edges still open together, each started
    from ``omega1`` at its edge's nearest inside sample.
    """
    step = _EDGE_STEP * width
    # per edge: x_out, the three samples, their rho**2, omega1 at the nearest
    state = [[x_out, list(xs), [r * r for r in rho], w]
             for x_out, xs, rho, w in edges]
    found = [None] * len(state)
    for probes in range(_EDGE_PROBES):
        open_, at = [], []
        for k, (x_out, xs, f, _) in enumerate(state):
            if found[k] is not None:
                continue
            sgn = math.copysign(1.0, xs[0] - x_out)
            e = sum(xs[i] * math.prod(f[j] / (f[j] - f[i])
                                      for j in range(3) if j != i)
                    for i in range(3))
            if not (sgn * (e - x_out) > 0.0 and sgn * (xs[0] - e) > 0.0):
                e = 0.5 * (x_out + xs[0])
            gap = sgn * (xs[0] - e)
            if gap <= 2.0 * step and probes:
                found[k] = e
                continue
            open_.append(k)
            at.append(e + sgn * max(0.05 * gap, step))
        if not open_:
            return found
        r, ok, w = _real_density(mu, nu, at, [state[k][3] for k in open_],
                                 scale)
        for k, x, r_k, ok_k, w_k in zip(open_, at, r, ok, w):
            s = state[k]
            if ok_k and r_k > floor:
                s[1], s[2], s[3] = [x] + s[1][:2], [r_k * r_k] + s[2][:2], w_k
            else:
                s[0] = x
    raise NumericError("support edge not located", residual=max(
        abs(s[1][0] - s[0]) / width
        for s, e in zip(state, found) if e is None))


def free_convolve(mu, nu):
    """Distribution of ``X + Y`` for free ``X ~ mu``, ``Y ~ nu``.

    A point mass acts by translation and is handled exactly.  Otherwise
    the density is solved on the real axis in three rounds, each started
    from the ``omega_1`` the one before found:

    1. on a uniform grid over the arithmetic sum of the supports (plus a
       margin), from ``x + 1j``, which brackets the two square-root edges
       of the support;
    2. near both edges together to locate them (:func:`_locate_edges`),
       one solve per probe round, each probe started from ``omega_1`` at
       its edge's nearest sample inside, first a grid sample and then the
       last probe found inside;
    3. at ``_OUT_NODES`` Chebyshev nodes of the support found, started
       from the grid's ``omega_1`` linearly interpolated (real and
       imaginary parts) at the nodes.

    The result is the chopped Chebyshev vector of its smooth factor
    ``rho/sqrt((x-lo)(hi-x))`` at those nodes, whose sums give its
    density, Cauchy transform and cdf (:func:`_chebyshev_measure`), so
    the edges themselves are never solved.

    Raises
    ------
    DomainError
        If neither law has an absolutely continuous part.
    NumericError
        If a solve inside the support fails, if the density vanishes
        inside its support (only single-interval laws are built), if an
        edge cannot be located, or if the output's mass is off 1 by more
        than ``_MASS_TOL``.
    """
    if _is_unit_atom(nu):
        return shift(mu, nu.atoms[0][0])
    if _is_unit_atom(mu):
        return shift(nu, mu.atoms[0][0])
    if mu.support is None and nu.support is None:
        raise DomainError("one law needs an absolutely continuous part")

    lo1, hi1 = _bounds(mu)
    lo2, hi2 = _bounds(nu)
    lo, hi = lo1 + lo2, hi1 + hi2
    pad = _MARGIN * (hi - lo)
    # solves stop at _TOL times max(scale, |w|): scaled with the output, so
    # a dilated problem stops at the same point, and never looser than 1
    scale = min(1.0, hi - lo)
    xs = np.linspace(lo - pad, hi + pad, _N_GRID)
    rho, ok, w = _real_density(mu, nu, xs, None, scale)
    floor = _FLOOR * float(np.max(rho, where=ok, initial=0.0))
    idx = np.flatnonzero(ok & (rho > floor))
    if idx.size < 3 or idx[0] == 0 or idx[-1] == xs.size - 1:
        raise NumericError("convolution density not resolved on the grid")
    i0, i1 = idx[0], idx[-1]
    if not ok[i0:i1 + 1].all():
        raise NumericError("subordination failed inside the support")
    if idx.size != i1 - i0 + 1:
        raise NumericError("convolution density vanishes inside its support")
    width = xs[i1] - xs[i0]
    a, b = _locate_edges(
        mu, nu, [(xs[i0 - 1], xs[i0:i0 + 3], rho[i0:i0 + 3], w[i0]),
                 (xs[i1 + 1], xs[i1:i1 - 3:-1], rho[i1:i1 - 3:-1], w[i1])],
        floor, width, scale)

    t = _edge_matched_rule(_OUT_NODES, 0.5, 0.5)[0]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * t
    inside = slice(i0, i1 + 1)
    start = (np.interp(nodes, xs[inside], w[inside].real)
             + 1j * np.interp(nodes, xs[inside], w[inside].imag))
    rho, ok, _ = _real_density(mu, nu, nodes, start, scale)
    if not np.all(ok & (rho > floor)):
        raise NumericError("subordination failed inside the support")
    out = _chebyshev_measure(a, b, rho / np.sqrt((nodes - a) * (b - nodes)))
    err = abs(out.mass() - 1.0)
    if err > _MASS_TOL:
        raise NumericError("convolution density lost mass", residual=err)
    return out
