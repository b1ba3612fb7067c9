"""Free and classical entropy with the confining potential.

The potential ``V(x) = (1 - lam) log x + alpha x + beta/x`` pairs with
two functionals: the log-energy (free) entropy

    I(mu) = integral integral log|x - y| dmu(x) dmu(y) - integral V dmu,

uniquely maximized over compactly supported laws on ``(0, inf)`` by
``mu(alpha, beta, lam)``, and its classical counterpart

    H(p) = -integral p log p - integral p V,

uniquely maximized over densities on ``(0, inf)`` by the classical GIG
density ``C x^(lam-1) exp(-alpha x - beta/x)`` whose normalizer involves
the modified Bessel function ``K_lam`` (computed here from its integral
representation; no special-function dependency).  Gibbs' inequality caps
``H`` at ``-log C`` with equality exactly at the GIG density.  ``log K``
and ``H`` are trapezoid sums on the real line (in ``t`` and in ``log x``),
where both integrands decay double-exponentially; numpy is all they need.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .measures import build_fgig, dilate, integrate
from .params import NaturalParams

_SCAN_NODES = 512  # nodes of the base law and of each parameter competitor


@dataclass(frozen=True)
class Potential:
    """``V(x) = (1 - lam) log x + alpha x + beta / x`` on ``(0, inf)``."""

    alpha: float
    beta: float
    lam: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = ((1.0 - self.lam) * np.log(x) + self.alpha * x
               + self.beta / x)
        return out if out.ndim else float(out)

    @classmethod
    def of(cls, p):
        return cls(p.alpha, p.beta, p.lam)


@dataclass(frozen=True)
class MaximalityReport:
    base_value: float
    entries: tuple  # (label, value, margin)


# ---------------------------------------------------------------------------
# free entropy
# ---------------------------------------------------------------------------

def log_energy(m):
    """Double integral of ``log|x - y|`` against the a.c. part of ``m``.

    For a cosine-parametrized measure (``x = mid + rad cos(theta)`` on
    uniform angles) the kernel splits exactly,

        log|x - y| = log(rad/2) + log|2 sin((t-s)/2)| + log|2 sin((t+s)/2)|,

    and both log-sine factors integrate against the angular cosine
    series in closed form, leaving

        log(rad/2) * mass**2 - (pi**2/2) * sum_k a_k**2 / k,

    with ``a_k`` the cosine coefficients of the angular weight; every
    piece is resolved by the measure's own nodes, so the value is exact
    to quadrature precision.  The coefficients are the real part of one
    zero-padded FFT: O(n log n) time and O(n) memory.  Measures without
    the cosine rule (reciprocal images, for one) raise.
    """
    if m.atoms:
        raise DomainError("log-energy needs an atomless measure")
    if m.support is None:
        raise DomainError("measure has no absolutely continuous part")
    if not m.chebyshev:
        raise DomainError("log-energy needs the cosine-angle quadrature of "
                          "a built measure")
    w = m.weights
    n = w.size
    lo, hi = m.support
    rad = 0.5 * (hi - lo)
    # a_k = (2/pi) sum_j w_j cos(k j pi/(n+1)), j, k = 1..n
    a = (2.0 / math.pi) * np.fft.rfft(np.concatenate(([0.0], w)),
                                      2 * (n + 1)).real[1:n + 1]
    mass = float(np.sum(w))
    return float(math.log(rad / 2.0) * mass ** 2
                 - 0.5 * math.pi ** 2 * np.sum(a * a / np.arange(1, n + 1)))


def free_entropy(m, V):
    """Log-energy minus potential: the functional the family maximizes."""
    if m.support is None or m.support[0] <= 0:
        raise DomainError("support must sit strictly inside (0, inf)")
    return log_energy(m) - integrate(m, V)


def maximality_scan(p, perturbations):
    """Margins of the base law's free entropy over perturbed competitors.

    Perturbations are either parameter triples (:class:`NaturalParams`)
    or positive scale factors applied as dilations of the base measure;
    every competitor is scored under the base potential.
    """
    V = Potential.of(p)
    base = build_fgig(p, _SCAN_NODES)
    base_value = free_entropy(base, V)
    entries = []
    for pert in perturbations:
        if isinstance(pert, NaturalParams):
            competitor = build_fgig(pert, _SCAN_NODES)
            label = (f"params({pert.alpha:.6g},{pert.beta:.6g},"
                     f"{pert.lam:.6g})")
        else:
            factor = float(pert)
            competitor = dilate(base, factor)
            label = f"dilate({factor:.6g})"
        value = free_entropy(competitor, V)
        entries.append((label, value, base_value - value))
    return MaximalityReport(base_value, tuple(entries))


# ---------------------------------------------------------------------------
# Bessel K and the classical side
# ---------------------------------------------------------------------------

_BLOCK = 64             # nodes added per side per step of the window
_TAIL = math.exp(-46.0)  # the window ends where |g| falls this far below peak
_U_MAX = 700.0          # past this, exp(u) leaves the double range


def _trapezoid(g, u0, kappa):
    """Trapezoid rule for ``integral g(u) du`` over the real line.

    ``g`` is vectorized and decays on both sides of ``u0``, where ``log|g|``
    has curvature about ``kappa``.  The grid runs through ``u0`` with step
    ``h = 0.4/sqrt(max(kappa, 16))`` and grows outward in blocks of 64 nodes
    until a block's largest ``|g|`` falls ``e^-46`` below the largest seen.
    For an integrand analytic in a strip about the real line and decaying
    double-exponentially the error falls geometrically in ``1/h``
    (Trefethen & Weideman, SIAM Review 56, 2014).  The classical integrands
    here decay only in the strip ``|Im u| < pi/2``, and ``|order|`` up to
    16 at small ``w`` costs digits at its edge; the floor of 16 keeps the
    rule at twice the step within 1e-9 of this one.  Returns
    ``h``, the node indices ``k`` (``u = u0 + k h``) and ``g`` there.
    """
    h = 0.4 / math.sqrt(max(kappa, 16.0))
    ks = [np.arange(-_BLOCK, _BLOCK + 1)]
    vals = [g(u0 + h * ks[0])]
    top = float(np.max(np.abs(vals[0])))
    for side in (1, -1):
        edge = _BLOCK
        while True:
            k = side * np.arange(edge + 1, edge + _BLOCK + 1)
            if abs(u0 + h * k[-1]) > _U_MAX:
                raise NumericError("integrand does not decay inside "
                                   f"|u| <= {_U_MAX:g}")
            v = g(u0 + h * k)
            ks.append(k)
            vals.append(v)
            block = float(np.max(np.abs(v)))
            top = max(top, block)
            edge += _BLOCK
            if block < _TAIL * top:
                break
    return h, np.concatenate(ks), np.concatenate(vals)


def _log_bessel_sum(order, w):
    """``log S`` with ``S = e^w K_order(w) = 1/2 integral exp(phi(t)) dt``.

    ``phi(t) = |order| t - 2 w sinh(t/2)**2`` is ``-w (cosh t - 1)`` written
    without cancellation; it peaks at ``asinh(|order|/w)`` with curvature
    ``sqrt(w**2 + order**2)``, and the sum is taken relative to the peak.
    """
    if not w > 0:
        raise DomainError("Bessel argument must be positive")
    lam = abs(float(order))  # K is even in its order

    def phi(t):
        return lam * t - 2.0 * w * np.sinh(0.5 * t) ** 2

    t0 = math.asinh(lam / w)
    peak = float(phi(t0))
    h, _, vals = _trapezoid(lambda t: np.exp(phi(t) - peak), t0,
                            math.hypot(w, lam))
    return peak + math.log(0.5 * h * float(np.sum(vals)))


def log_bessel_k(order, w):
    """``log K_order(w)`` from ``K = 1/2 integral exp(-w cosh t + order t) dt``.

    The factor ``e^-w`` is taken out exactly, so the value neither
    underflows nor loses digits at large ``w``; see :func:`_log_bessel_sum`.
    """
    return -w + _log_bessel_sum(order, w)


def _gig_scales(alpha, beta):
    """``w = 2 sqrt(alpha beta)`` and ``log sqrt(beta/alpha)``, formed
    without the product or quotient of the rates."""
    if not (alpha > 0 and beta > 0):
        raise DomainError("rates must be positive")
    return (2.0 * math.sqrt(alpha) * math.sqrt(beta),
            0.5 * (math.log(beta) - math.log(alpha)))


def gig_log_normalizer(alpha, beta, lam):
    """``log C`` for the density ``C x^(lam-1) exp(-alpha x - beta/x)``:
    ``lam/2 log(alpha/beta) - log 2 - log K_lam(w)``, ``w = 2 sqrt(alpha beta)``."""
    w, c = _gig_scales(alpha, beta)
    return -lam * c - math.log(2.0) - log_bessel_k(lam, w)


def classical_gig_density(alpha, beta, lam, x):
    """Classical GIG density, vectorized; zero for ``x <= 0``."""
    w, _ = _gig_scales(alpha, beta)
    return _gig_density(_log_bessel_sum(lam, w), alpha, beta, lam, x)


def _gig_density(log_s, alpha, beta, lam, x):
    """The classical GIG density given ``log S = w + log K_lam(w)``.

    With ``u = log x`` and ``s = u - log sqrt(beta/alpha)`` the density is
    ``exp(lam s - u - log 2 - log S - 2 w sinh(s/2)**2)``: no term
    overflows, and the ``e^-w`` of ``K`` cancels the potential's
    ``w cosh s`` exactly, not in floating point.
    """
    w, c = _gig_scales(alpha, beta)
    x = np.asarray(x, dtype=float)
    pos = x > 0
    u = np.log(np.where(pos, x, 1.0))
    s = u - c
    with np.errstate(over="ignore"):  # far tails: exp(-inf) = 0
        log_p = (lam * s - u - math.log(2.0) - log_s
                 - 2.0 * w * np.sinh(0.5 * s) ** 2)
    out = np.where(pos, np.exp(log_p), 0.0)
    return out if out.ndim else float(out)


def gig_mode(alpha, beta, lam):
    """Maximizer of the classical GIG density."""
    m = lam - 1.0
    root = math.sqrt(m * m + 4.0 * alpha * beta)
    # the smaller-magnitude root in its cancellation-free form for m < 0
    return (m + root) / (2.0 * alpha) if m >= 0 else 2.0 * beta / (root - m)


def halfline_integral(f, split, curvature=1.0):
    """``integral f(x) dx`` over ``(0, inf)`` as a trapezoid sum in ``u = log x``.

    ``f`` is vectorized; the grid runs through ``log(split)`` (near the
    bulk of ``f(x) x``) with a step set by ``curvature``, the curvature of
    ``log|f(x) x|`` in ``u`` there (see :func:`_trapezoid`).  The sum on
    every other node is the same rule at twice the step; the two must agree
    to ``1e-6 max(1, |value|)`` or :class:`NumericError` is raised.
    """
    def g(u):
        x = np.exp(u)
        val = np.asarray(f(x), dtype=float) * x
        # 0 * inf at the extreme tails, where the density underflows first
        return np.where(np.isfinite(val), val, 0.0)

    h, k, vals = _trapezoid(g, math.log(split), curvature)
    value = h * float(np.sum(vals))
    err = abs(value - 2.0 * h * float(np.sum(vals[k % 2 == 0])))
    if err > 1e-6 * max(1.0, abs(value)):
        raise NumericError("half-line integral did not converge",
                           residual=err)
    return value


def classical_entropy(p_eval, V, split=1.0, curvature=1.0):
    """``H(p) = -integral p log p - integral p V`` for a density on ``(0, inf)``.

    ``p_eval`` and ``V`` are vectorized; both terms are summed on one grid
    (see :func:`halfline_integral`).
    """
    def integrand(x):
        p = p_eval(x)
        pos = p > 0.0
        return np.where(pos, p * (np.log(np.where(pos, p, 1.0)) + V(x)), 0.0)

    return -halfline_integral(integrand, split, curvature)


def gig_entropy(alpha, beta, lam):
    """``H`` of the classical GIG density under its own potential.

    ``log S`` is computed once; the grid's curvature is that of the density
    of ``log x`` at its mode, ``sqrt(w**2 + lam**2)``.
    """
    w, _ = _gig_scales(alpha, beta)
    log_s = _log_bessel_sum(lam, w)
    return classical_entropy(
        lambda x: _gig_density(log_s, alpha, beta, lam, x),
        Potential(alpha, beta, lam), split=gig_mode(alpha, beta, lam),
        curvature=math.hypot(w, lam))


def gibbs_bound(alpha, beta, lam):
    """Upper bound ``-log C`` for ``H`` under the matching potential.

    Attained exactly (Gibbs equality) by the classical GIG density.
    """
    return -gig_log_normalizer(alpha, beta, lam)
