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
``H`` at ``-log C`` with equality exactly at the GIG density.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import roots_legendre

from .errors import DomainError, NumericError
from .measures import build_fgig, dilate, integrate
from .params import NaturalParams, require_valid

_GL64 = roots_legendre(64)


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

    def margins(self):
        return tuple(margin for _, _, margin in self.entries)


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
    the cosine rule (grid measures, trimmed measures) raise.
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


def maximality_scan(p, perturbations, n=512):
    """Margins of the base law's free entropy over perturbed competitors.

    Perturbations are either parameter triples (:class:`NaturalParams`)
    or positive scale factors applied as dilations of the base measure;
    every competitor is scored under the base potential.
    """
    require_valid(p)
    V = Potential.of(p)
    base = build_fgig(p, n)
    base_value = free_entropy(base, V)
    entries = []
    for pert in perturbations:
        if isinstance(pert, NaturalParams):
            competitor = build_fgig(pert, n)
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

def bessel_k(order, w):
    """``K_order(w)`` from ``integral exp(-w cosh t) cosh(order*t) dt``.

    The integrand is truncated where it falls below 1e-18 and integrated
    by 64-point panels per unit length.
    """
    if not w > 0:
        raise DomainError("Bessel argument must be positive")
    lam = abs(float(order))  # K is even in its order
    t_max = 1.0
    for _ in range(64):
        t_new = math.acosh(max((42.0 + lam * t_max) / w, 1.0) + 1.0)
        if abs(t_new - t_max) < 1e-3:
            t_max = t_new
            break
        t_max = t_new
    nodes, weights = _GL64
    panels = max(int(math.ceil(t_max)), 1)
    edges = np.linspace(0.0, t_max, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, rad = 0.5 * (a + b), 0.5 * (b - a)
        t = mid + rad * nodes
        total += rad * np.sum(weights * np.exp(-w * np.cosh(t))
                              * np.cosh(lam * t))
    return float(total)


def bessel_k_half_integer(order, w):
    """Closed forms at orders 1/2 and 3/2 (the oracle pair)."""
    base = math.sqrt(math.pi / (2.0 * w)) * math.exp(-w)
    if order == 0.5:
        return base
    if order == 1.5:
        return base * (1.0 + 1.0 / w)
    raise DomainError("closed form available only at orders 1/2 and 3/2")


def gig_normalizer(alpha, beta, lam):
    """Constant ``C`` with density ``C x^(lam-1) exp(-alpha x - beta/x)``."""
    if not (alpha > 0 and beta > 0):
        raise DomainError("rates must be positive")
    return ((alpha / beta) ** (lam / 2.0)
            / (2.0 * bessel_k(lam, 2.0 * math.sqrt(alpha * beta))))


def classical_gig_density(alpha, beta, lam, x):
    """Classical GIG density, vectorized; zero for ``x <= 0``.

    Evaluated in log space so the far tails underflow cleanly to zero
    instead of tripping ``x**(lam-1)`` overflow.
    """
    c = gig_normalizer(alpha, beta, lam)
    x = np.asarray(x, dtype=float)
    pos = x > 0
    xp = np.where(pos, x, 1.0)
    log_vals = (lam - 1.0) * np.log(xp) - alpha * xp - beta / xp
    out = np.where(pos, c * np.exp(log_vals), 0.0)
    return out if out.ndim else float(out)


def gig_mode(alpha, beta, lam):
    """Maximizer of the classical GIG density."""
    return ((lam - 1.0) + math.sqrt((lam - 1.0) ** 2
                                    + 4.0 * alpha * beta)) / (2.0 * alpha)


def halfline_integral(f, split):
    """Adaptive integral of ``f`` over ``(0, inf)``, tails mapped by x = e^u.

    ``split`` should sit near the integrand's bulk (the density mode).
    """
    def g(u):
        if u > 700.0:
            return 0.0
        xu = math.exp(u)
        if xu == 0.0:
            return 0.0
        val = f(xu) * xu
        # 0 * inf at the extreme tails, where the density underflows first
        return val if math.isfinite(val) else 0.0

    u0 = math.log(split)
    left = quad(g, -np.inf, u0, limit=200)
    right = quad(g, u0, np.inf, limit=200)
    value = left[0] + right[0]
    err = left[1] + right[1]
    if err > 1e-6 * max(1.0, abs(value)):
        raise NumericError("half-line integral did not converge",
                           residual=err)
    return value


def classical_entropy(p_eval, V, split=1.0):
    """``H(p) = -integral p log p - integral p V`` for a density on ``(0, inf)``."""
    def plogp(x):
        v = p_eval(x)
        return v * math.log(v) if v > 0.0 else 0.0

    ent = -halfline_integral(plogp, split)
    pot = halfline_integral(lambda x: p_eval(x) * V(x), split)
    return ent - pot


def gig_entropy(alpha, beta, lam):
    """``H`` of the classical GIG density under its own potential."""
    V = Potential(alpha, beta, lam)
    split = gig_mode(alpha, beta, lam)
    return classical_entropy(
        lambda x: classical_gig_density(alpha, beta, lam, x), V, split=split)


def gibbs_bound(alpha, beta, lam):
    """Upper bound ``-log C`` for ``H`` under the matching potential.

    Attained exactly (Gibbs equality) by the classical GIG density.
    """
    return -math.log(gig_normalizer(alpha, beta, lam))
