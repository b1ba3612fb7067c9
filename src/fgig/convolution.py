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
2007); every solve here starts from ``z + 1j``.  The map sends the closed
half-plane ``Im w >= Im z`` into itself, so an extrapolation that leaves
it is projected back onto its boundary.  The subordination functions
extend continuously to the real line (Belinschi, PTRF 2008), so the
convolved density ``-Im G_mu(omega_1(x))/pi`` is read at real ``x``
directly, with no extrapolation towards the axis; outside the support
``omega_1(x)`` is real.

:func:`free_convolve` finds both support edges as the extrema of the
real inverse of the output's Cauchy transform (as Olver & Nadakuditi,
arXiv:1203.1958, invert Cauchy transforms), then solves at nested levels
of Chebyshev nodes of that support until the chop finds a plateau, as
chebfun does (Aurentz & Trefethen, ACM TOMS 43, 2017).  The output's
resolution is its own: nothing reads the inputs' quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .measures import (_chebyshev_coefficients, _chebyshev_measure,
                       _edge_matched_rule, shift)
from .transforms import cauchy_nodes

_TOL = 1e-12  # relative fixed-point tolerance of every subordination solve
# Subordination map evaluations per solve, at a point or on a grid: 4 times
# the most a converged solve has taken, 65, in the convolution,
# characterization, acceptance, CLI and validity-box tests.  Censuses with
# alpha, beta log-uniform in [e**-6, e**6] and lam in [0.1, 20] took at
# most 39 (200 draws) and 55 (1000 draws), and 200 draws of alpha, beta in
# [1/4, 8], lam in [0.1, 4] at most 29.
_MAX_ITER = 260
_FLOOR = 1e-9  # density at a node below this fraction of the peak is a gap
_DAMPING = 0.5  # Picard step of the subordination solve
_MASS_TOL = 1e-10  # largest mass error of a returned law
# Chebyshev node counts of a convolution output, tried in turn; a level's
# angles j pi/(n+1) are the last's at a stride, and every other one is new.
# Below 127 a level saves less than its mostly fixed numpy overhead costs
_LEVELS = (127, 255, 511, 1023)
_TAU = np.linspace(-12.0, 36.0, 25)  # edge samples, 1/g - 1/g_end ~ e**-tau
_MAX_NEWTON = 40  # Newton steps per edge search and per inverse Cauchy solve
_ROOT_EPS = math.sqrt(np.finfo(float).eps)  # Newton's last step is quadratic
_STEP = 2.0 ** -13  # complex step for G'', relative to the support's distance


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
    """``1/G(w) - w``, a self-map of the upper half-plane: ``Im 1/G(w) >=
    Im w`` (Bercovici & Voiculescu, 1993), so a negative ``Im h`` is
    rounding, as where the law is an atom at double precision, and is set
    to 0; the subordination map then stays off the other law's cut."""
    h = 1.0 / cauchy_nodes(m, w) - w
    np.maximum(h.imag, 0.0, out=h.imag)
    return h


def _solve_omega(mu, nu, z, scale=1.0):
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
    evaluation.  Every solve starts from ``z + 1j``, and stops once a step
    is within ``_TOL`` of ``max(scale, |w|)`` or after ``_MAX_ITER``
    evaluations of the subordination map.
    """
    z = np.asarray(z, dtype=complex)
    w = z + 1j
    res = np.full(z.shape, np.inf)
    # the points still iterating, their z and their current iterate
    idx, za, wa = np.arange(z.size), z, w.copy()
    evals = 0

    def T(wa, za):
        return za + _h_transform(nu, za + _h_transform(mu, wa))

    while idx.size and evals < _MAX_ITER:
        t0 = T(wa, za)
        res[idx] = res_a = np.abs(t0 - wa)
        done = res_a <= _TOL * np.maximum(scale, np.abs(wa))
        w[idx[done]] = t0[done]
        evals += 1
        keep = ~done
        idx, za, u0, t0 = idx[keep], za[keep], wa[keep], t0[keep]
        wa = u0
        if not idx.size or evals >= _MAX_ITER:
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


def subordination_at(mu, nu, z):
    """Subordination pair at one point ``z`` of the open upper half-plane."""
    z = complex(z)
    if not z.imag > 0:
        raise DomainError("subordination requires Im z > 0")
    w1, res, iters = _solve_omega(mu, nu, np.array([z]))
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


def _inverse_cauchy(m, e, s, width, y, u=np.nan):
    """``u > 0`` with ``1/G_m(w) = y`` at ``w = e + s u**2``, past the edge
    ``e`` of ``m`` on the side ``s`` (+1 or -1), and ``G'``, ``G''`` there
    by complex steps (``cauchy_fn`` is analytic off the support).
    ``1/(w - lo) <= G <= 1/(w - hi)`` brackets ``u**2`` in ``[s y - width,
    s y]``; Newton in ``u`` is regular at a square-root edge, a step out of
    the bracket bisects it, and a solve stops one step after every ``w``
    moved by less than ``sqrt(eps)``."""
    lo, hi = np.sqrt(np.maximum(s * y - width, 0.0)), np.sqrt(s * y)
    new, done = u, False
    for _ in range(_MAX_NEWTON):
        u = np.where((new >= lo) & (new <= hi) & (new > 0.0), new,
                     0.5 * (lo + hi))
        if done:  # G' moved to the last step's end by G''
            return u, dg + ddg * s * (u * u - d), ddg
        d = u * u
        w = e + s * d
        g, g2 = cauchy_nodes(m, np.stack([w + 1e-20j * d, w + _STEP * 1j * d]))
        g, dg, ddg = (g.real, g.imag / (1e-20 * d),
                      2.0 * (g.real - g2.real) / (_STEP * d) ** 2)
        f = s / g - s * y
        lo, hi = np.where(f <= 0.0, u, lo), np.where(f >= 0.0, u, hi)
        new = u + f * g * g / (2.0 * u * dg)
        done = np.all(np.abs(new * new - d)
                      <= _ROOT_EPS * (d + _ROOT_EPS * np.abs(w)))
    return u, dg, ddg


def _support_edges(mu, nu):
    """Both support edges of ``mu (+) nu``.  Outside the supports, by
    R-transform additivity (Voiculescu 1986), ``x(g) = G_mu^-1(g) +
    G_nu^-1(g) - 1/g`` inverts its Cauchy transform; the right edge is the
    least ``x`` over ``(0, g_end)``, the left the largest over
    ``(g_end, 0)``, ``g_end`` the inputs' ``G`` at their outermost points,
    the smaller in magnitude.  ``dx/d(1/g) = -phi``, ``phi = 1 + g**2
    (1/G_mu'(w_1) + 1/G_nu'(w_2))``, is -1 far out and ``>= 0`` at a
    square-root ``g_end`` (Cauchy--Schwarz).  ``phi`` at ``1/g = 1/g_end +
    s span e**-tau``, ``tau`` in ``_TAU``, ``span = |1/g_end|`` (the widths'
    sum where both laws end in an atom), brackets its root on both sides
    at once, and Newton in ``tau`` refines it.  ``phi < 0`` at every sample
    puts the extremum within rounding of ``g_end``: the last sample is the
    edge.  ``phi >= 0`` at the first, or ``< -sqrt(eps)`` at the last,
    means no extremum: ``NumericError``."""
    (lo1, hi1), (lo2, hi2) = _bounds(mu), _bounds(nu)
    # one row per side, the right then the left
    s = np.array([[1.0], [-1.0]])
    e1, e2 = np.array([[hi1], [lo1]]), np.array([[hi2], [lo2]])
    with np.errstate(divide="ignore", invalid="ignore"):
        g_end = np.fmin(np.abs(cauchy_nodes(mu, e1.astype(complex)).real),
                        np.abs(cauchy_nodes(nu, e2.astype(complex)).real))
    y_end = s / g_end  # 0 where both laws end in an atom
    span = np.where(y_end == 0.0, hi1 - lo1 + hi2 - lo2, np.abs(y_end))

    def solve(tau, u1=np.nan, u2=np.nan):
        """``x``, ``phi = 1 - dw_1/dy - dw_2/dy``, ``d phi/d tau``, and each
        ``u`` with its ``dw/dy = -G**2/G'``, at ``y = 1/g``."""
        y = y_end + s * span * np.exp(-tau)
        u1, d1, dd1 = _inverse_cauchy(mu, e1, s, hi1 - lo1, y, u1)
        u2, d2, dd2 = _inverse_cauchy(nu, e2, s, hi2 - lo2, y, u2)
        v1, v2 = -1.0 / (y * y * d1), -1.0 / (y * y * d2)
        dphi = y * y * (dd1 * v1 ** 3 + dd2 * v2 ** 3) - 2.0 * (v1 + v2) / y
        return (e1 + s * u1 * u1 + e2 + s * u2 * u2 - y, 1.0 - v1 - v2,
                dphi * s * span * np.exp(-tau), (u1, v1), (u2, v2))

    x, phi, _, (u1, _), (u2, _) = solve(_TAU)
    rise = phi >= 0.0
    k = np.where(rise.any(axis=1), np.argmax(rise, axis=1), _TAU.size)
    bad = np.where(k == 0, phi[:, 0], -phi[:, -1])
    if np.any((k == 0) | ((k == _TAU.size) & (bad > _ROOT_EPS))):
        raise NumericError("the inverse Cauchy transform has no extremum",
                           residual=float(np.max(bad)))
    # a side is done at the last sample, or once Newton moves y by less
    # than sqrt(eps): x is flat to eps there
    done = (k == _TAU.size)[:, None]
    k, side = np.minimum(k, _TAU.size - 1), np.arange(2)
    t_lo, t_hi = _TAU[k - 1, None], _TAU[k, None]
    k = np.where(done[:, 0] | (phi[side, k] < -phi[side, k - 1]), k, k - 1)
    tau, edge = _TAU[k, None], x[side, k, None]
    u1, u2 = u1[side, k, None], u2[side, k, None]
    for _ in range(_MAX_NEWTON):
        if done.all():
            return edge[1, 0], edge[0, 0]
        edge, phi, dphi, (u1, v1), (u2, v2) = solve(tau, u1, u2)
        t_lo, t_hi = np.where(phi < 0, tau, t_lo), np.where(phi < 0, t_hi, tau)
        new = tau - phi / dphi
        new = np.where((new >= t_lo) & (new <= t_hi), new, 0.5 * (t_lo + t_hi))
        step = span * np.exp(-tau)  # |dy/d tau|
        done |= np.abs(new - tau) * step <= _ROOT_EPS * (np.abs(y_end) + step)
        new = np.where(done, tau, new)
        dy = s * span * (np.exp(-new) - np.exp(-tau))  # first-order starts
        u1 = np.sqrt(np.maximum(u1 * u1 + s * v1 * dy, 0.0))
        u2 = np.sqrt(np.maximum(u2 * u2 + s * v2 * dy, 0.0))
        tau = new
    raise NumericError("support edge not located")


def free_convolve(mu, nu):
    """Distribution of ``X + Y`` for free ``X ~ mu``, ``Y ~ nu``.

    A point mass acts by translation and is handled exactly.  Otherwise
    both support edges come first, exactly (:func:`_support_edges`), then
    the density at ``n = 127`` Chebyshev nodes of that support, each solve
    from ``x + 1j``; where the chop of its smooth factor
    ``rho/sqrt((x-lo)(hi-x))`` finds no plateau, ``n`` goes to ``2n + 1``,
    up to 1023, and only the new nodes are solved (``_LEVELS``).  The
    result is that chopped Chebyshev vector, whose sums give its density,
    Cauchy transform and cdf, on ``n + 1`` knots (:func:`_chebyshev_measure`).

    Raises
    ------
    DomainError
        If neither law has an absolutely continuous part.
    NumericError
        If an edge cannot be located, a solve at a node fails, the density
        vanishes inside its support (only single-interval laws are built),
        the chop finds no plateau at 1023 nodes, the last level (the
        density is not resolved), or the mass is off 1 by ``_MASS_TOL``.
    """
    if _is_unit_atom(nu):
        return shift(mu, nu.atoms[0][0])
    if _is_unit_atom(mu):
        return shift(nu, mu.atoms[0][0])
    if mu.support is None and nu.support is None:
        raise DomainError("one law needs an absolutely continuous part")

    a, b = _support_edges(mu, nu)
    t, _ = _edge_matched_rule(_LEVELS[-1], 0.5, 0.5)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * t
    rho = np.empty_like(nodes)
    # solves stop at _TOL times max(scale, |w|): scaled with the output, so
    # a dilated problem stops at the same point, and never looser than 1
    scale = min(1.0, b - a)
    for n in _LEVELS:
        step = (_LEVELS[-1] + 1) // (n + 1)
        new = slice(step - 1, None, step if n == _LEVELS[0] else 2 * step)
        w, res, _ = _solve_omega(mu, nu, nodes[new].astype(complex), scale)
        if not np.all(res <= _TOL * np.maximum(scale, np.abs(w))):
            raise NumericError("subordination failed inside the support")
        rho[new] = -cauchy_nodes(mu, w).imag / math.pi
        x, r = nodes[step - 1::step], rho[step - 1::step]
        if not np.all(r > _FLOOR * np.max(r)):
            raise NumericError(
                "convolution density vanishes inside its support")
        try:
            c = _chebyshev_coefficients(r / np.sqrt((x - a) * (b - x)))
            break
        except NumericError:  # not resolved at this level
            if n == _LEVELS[-1]:
                raise
    out = _chebyshev_measure(a, b, c, n)
    err = abs(out.mass() - 1.0)
    if err > _MASS_TOL:
        raise NumericError("convolution density lost mass", residual=err)
    return out
