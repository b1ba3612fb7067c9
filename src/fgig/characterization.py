"""The reciprocal fixed point ``X = (X + Y)^(-1)`` in distribution.

For free ``X > 0`` and ``Y`` Marchenko--Pastur with jump ``1/alpha`` and
rate ``lam`` (both positive), it holds exactly when
``X ~ mu(alpha, alpha, -lam)``.  Subordination turns it into an equation
for ``M(z) = G_X(1/z)``; in ``K(z) = (z - M(z))/z**2``, it reads

    K(z) = N - N**2 K(N),    N(z) = g/(z g - lam),    g = alpha - K(z).

It pins down every Taylor coefficient of ``K`` at the root ``c`` in
``(-1, 0)`` of ``alpha c^4 - (1 + lam) c^3 + (1 - lam) c - alpha``, where
``N(c) = c``.  There ``g``, ``c g - lam`` and ``N'(c) = q k1 - c^2``
(:func:`n_prime`) are sums of terms of one sign, so the series algebra does
not cancel; the recursion raises where its rounding bound allows an order
more than 1e-10 of error.  The oracle reads them off ``G_X``'s closed form
instead, which comes from the density and not from the equation: the
discrete Cauchy integral of ``M`` on the circle about ``c`` that
:func:`fgig.transforms.free_cumulants` runs about 0, and ``M(c)`` itself.
Both routes return the array of ``M``'s coefficients at ``c`` of orders
``0..order``, which :func:`compare_series` reads.

One chain, ``(Y1 + (Y2 + X)^(-1))^(-1)`` with ``X ~ mu(alpha, beta, -lam)``,
checks the laws, each stage against its closed form in the family; a caller
runs only the stages it reports: ``verify_iterated`` all four, as
``(label, Kolmogorov distance)`` pairs, ``verify_fixed_point`` two at
``beta = alpha``, ``fgig convolve`` one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .convolution import free_convolve
from .errors import DomainError, NumericError
from .measures import (FreePoissonParams, _rational_cauchy, build_fgig,
                       build_free_poisson, kolmogorov_distance,
                       pushforward_reciprocal)
from .params import NaturalParams, solve_support
from .transforms import _circle_coefficients, cauchy

_SERIES_TOL = 1e-10  # relative accuracy every returned order holds
# The rounding bound covers each order's own solve, not what earlier orders
# carry into it; near c = -1 that took the error to 1.9 times the bound.
_CARRY = 4.0


@dataclass(frozen=True)
class CharacterizationReport:
    c: float
    series: np.ndarray  # Taylor coefficients of M at c, by the recursion
    oracle: np.ndarray  # and by the Cauchy integral of G's closed form
    max_rel_dev: float
    fixed_point_distance: float
    stage_distance: float
    key_eq_residual: float


def quartic_residual(alpha, lam, c):
    return alpha * c ** 4 - (1.0 + lam) * c ** 3 + (1.0 - lam) * c - alpha


def solve_c(alpha, lam):
    """Unique root in ``(-1, 0)`` of the center quartic.

    The quartic is ``2 lam > 0`` at ``-1`` and ``-alpha < 0`` at ``0``; the
    bracket is bisected to adjacent floats and the one with the smaller
    residual kept.
    """
    if not (0 < alpha < math.inf and 0 < lam < math.inf):
        raise DomainError(f"alpha = {alpha} and lam = {lam} must both be "
                          "positive and finite")
    lo, hi = -1.0, 0.0
    if not quartic_residual(alpha, lam, lo) > 0 > quartic_residual(
            alpha, lam, hi):
        raise NumericError("quartic does not change sign on (-1, 0)")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if quartic_residual(alpha, lam, mid) > 0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda c: abs(quartic_residual(alpha, lam, c)))


def _initial_k(alpha, c):
    """``(k0, k1)``, the value and slope of ``K`` at ``c``.

    ``k0 = c/(1 + c^2)``.  The order-1 relation is quadratic in ``k1``;
    with ``lam`` taken out through the quartic and ``s = -c``,
    ``P = alpha (1 + s^2)``, it reads

        s^3 (1 + s^2) k1^2 + (P (1 + s^2) + 2 s^3) k1
            + s^2 (P + s)/(1 + s^2) = 0,

    with discriminant ``P (P (1 + s^2)**2 + 4 s^3)``.  Every coefficient
    and the discriminant are sums of positive terms, so the root of
    smaller magnitude is formed without cancellation.
    """
    s, u = -c, 1.0 + c * c
    p = alpha * u
    b = p * u + 2.0 * s ** 3
    root = math.sqrt(p) * math.sqrt(p * u * u + 4.0 * s ** 3)
    return c / u, -2.0 * s * s * (p + s) / (u * (b + root))


def initial_coefficients(alpha, lam):
    """Zeroth and first coefficients ``(a0, a1)`` of ``M`` at ``c``.

    ``a0 = k0 = c/(1 + c^2)`` and ``a1 = (1 - c^2)/(1 + c^2) - c^2 k1``,
    a sum of positive terms, lands in ``(0, 1/(1 + c^2))``.
    """
    c = solve_c(alpha, lam)
    k0, k1 = _initial_k(alpha, c)
    return k0, (1.0 - c * c) / (1.0 + c * c) - c * c * k1


def n_prime(alpha, lam):
    """``N'(c) = q k1 - c^2`` with ``q = (1 - c^2)^2/lam = dN/dK`` at ``c``:
    as ``k1 < 0``, a sum of two negative terms, in ``[-1, -c^2]``."""
    c = solve_c(alpha, lam)
    _, k1 = _initial_k(alpha, c)
    return (1.0 - c * c) ** 2 / lam * k1 - c * c


def _mul(a, b):
    """Coefficients of ``a b``, truncated to the length of ``a``."""
    return np.convolve(a, b)[: a.size]


def _reciprocal(b):
    """Coefficients of ``1/b``, for ``b[0]`` nonzero."""
    r = np.zeros(b.size)
    r[0] = 1.0 / b[0]
    for k in range(1, b.size):
        r[k] = -np.dot(b[1 : k + 1], r[k - 1 :: -1]) / b[0]
    return r


def _compose(outer, inner):
    """Coefficients of ``outer(inner - inner[0])`` by Horner's rule."""
    shifted = inner.copy()
    shifted[0] = 0.0
    out = np.zeros(outer.size)
    for coef in outer[::-1]:
        out = _mul(out, shifted)
        out[0] += coef
    return out


def _n_series(alpha, lam, c, k):
    """Coefficients of ``N = g/(z g - lam)``, ``g = alpha - K``, at ``c``
    for the ``K`` with the coefficients ``k``."""
    g = -k
    g[0] += alpha
    z = np.zeros(k.size)  # the variable c + (z - c)
    z[0], z[1:2] = c, 1.0
    den = _mul(z, g)
    den[0] -= lam
    n = _mul(g, _reciprocal(den))
    if abs(n[0] - c) > 1e-8 * max(1.0, abs(c)):
        raise NumericError("composition center drifted",
                           residual=float(abs(n[0] - c)))
    return n


def _composed(k, n):
    """``N^2 K(N)`` from the coefficients of ``K`` and ``N`` at ``c``."""
    return _mul(_mul(n, n), _compose(k, n))


def _k_residual(alpha, lam, c, k):
    """Last coefficient of ``K - N + N^2 K(N)`` at ``c`` for the ``K``
    truncated to the coefficients ``k``."""
    n = _n_series(alpha, lam, c, k)
    return (k - n + _composed(k, n))[-1]


def _checked_order(order):
    order = int(order)
    if not 0 <= order <= 32:
        raise DomainError("series order must lie in [0, 32]")
    return order


def series_coefficients(alpha, lam, order):
    """Coefficients of ``M`` at ``c`` from the functional equation in ``K``.

    Order ``n >= 2`` of the residual ``K - N + N^2 K(N)`` is affine in
    ``k_n`` with slope ``s_n = 1 + c^2 beta1^n - q a1``, where
    ``q = (1 - c^2)^2/lam`` is ``dN/dK`` at ``c`` and ``beta1 = N'(c)``
    (:func:`n_prime`).  So one residual evaluation with ``k_n = 0`` solves
    each order: ``k_n = -R_n(0)/s_n``.  It rounds by at most ``eps`` times
    its terms' magnitudes, which the same algebra on absolute values gives;
    over ``s_n``, that bounds the rounding of ``k_n``.  Raises
    ``NumericError`` where ``_CARRY`` times the bound, carried into
    ``a_n``, exceeds ``_SERIES_TOL`` = 1e-10 relative at an order ``n >= 2``.
    """
    order = _checked_order(order)
    c = solve_c(alpha, lam)
    k0, k1 = _initial_k(alpha, c)
    a0, a1 = initial_coefficients(alpha, lam)
    q = (1.0 - c * c) ** 2 / lam
    slopes = 1.0 + c * c * n_prime(alpha, lam) ** np.arange(order + 1) \
        - q * a1
    slopes[: 2] = 1.0
    k = np.zeros(order + 1)
    k[: 2] = (k0, k1)[: order + 1]
    with np.errstate(all="ignore"):  # a vanishing slope fails the bound
        for n in range(2, order + 1):
            k[n] = -_k_residual(alpha, lam, c, k[: n + 1]) / slopes[n]
        # M = z - z^2 K; a0 and a1 in closed form, where c - c^2 k0 and
        # 1 - 2 c k0 would cancel
        coeffs = -np.convolve([c * c, 2.0 * c, 1.0], k)[: order + 1]
        coeffs[: 2] = (a0, a1)[: order + 1]
        n_abs, k_abs = np.abs(_n_series(alpha, lam, c, k)), np.abs(k)
        k_err = (np.finfo(float).eps / np.abs(slopes)
                 * (k_abs + n_abs + _composed(k_abs, n_abs)))
        rel = _CARRY * np.convolve([c * c, 2.0 * abs(c), 1.0], k_err)[
            2: order + 1] / np.abs(coeffs[2:])
    if not np.all(rel <= _SERIES_TOL):
        raise NumericError("series recursion may be off by more than 1e-10",
                           residual=float(np.max(rel)))
    return coeffs


def oracle_coefficients(alpha, lam, order):
    """Taylor coefficients of ``M`` at ``c`` from ``G_X``'s closed form.

    ``M(w) = G_X(1/w)`` for ``X ~ mu(alpha, alpha, -lam)`` on ``[a, b]`` is
    analytic off ``[1/b, 1/a]`` (``w = 0`` is removable), so within
    ``1/b - c`` of ``c``; its coefficients there are the discrete Cauchy
    integral that :func:`fgig.transforms.free_cumulants` runs, about ``c``
    on that radius.  ``a0 = G_X(1/c)`` is read pointwise: where ``c`` is
    tiny, the circle's mean, against the values ``M ~ w`` near the origin,
    would keep few of its digits.  No weight and no series enters.
    """
    order = _checked_order(order)
    c = solve_c(alpha, lam)
    s = solve_support(NaturalParams(alpha, alpha, -lam))
    g = _rational_cauchy(alpha, alpha, s.a, s.b, 0.0)
    coeffs = _circle_coefficients(lambda w: g(1.0 / (c + w)), order + 1,
                                  1.0 / s.b - c)
    coeffs[0] = g(1.0 / c).real
    return coeffs


def compare_series(a, b):
    """Maximum relative deviation of the coefficients ``a`` from ``b``."""
    n = min(a.size, b.size)
    scale = np.maximum(np.abs(b[:n]), 1e-30)
    return float(np.max(np.abs(a[:n] - b[:n]) / scale))


_STAGES = ("X + Y2", "(X + Y2)^-1", "Y1 + (X + Y2)^-1", "full chain")


def _reciprocal_chain(alpha, beta, lam, stages):
    """The law of ``X ~ mu(alpha, beta, -lam)`` and, for the first
    ``stages`` stages of ``(Y1 + (Y2 + X)^(-1))^(-1)`` with
    ``Y2 ~ nu(1/alpha, lam)``, ``Y1 ~ nu(1/beta, lam)``, ``(label, law,
    Kolmogorov distance to its law in the family)``.  Every law is built
    at its builder's default node count; a convolution output sets its
    own.

    Adding ``nu(1/a, lam)`` takes ``mu(a, b, -lam)`` to ``mu(a, b, lam)``,
    and the reciprocal takes that to ``mu(b, a, -lam)``.
    """
    fgig = lru_cache(maxsize=None)(
        lambda a, b, shape: build_fgig(NaturalParams(a, b, shape)))
    x_law = law = fgig(alpha, beta, -lam)
    a, b = alpha, beta
    out = []
    for label in _STAGES[:stages]:
        if len(out) % 2 == 0:
            law = free_convolve(law, build_free_poisson(
                FreePoissonParams(1.0 / a, lam)))
            target = fgig(a, b, lam)
        else:
            law = pushforward_reciprocal(law)
            a, b = b, a
            target = fgig(a, b, -lam)
        out.append((label, law, kolmogorov_distance(law, target)))
    return x_law, out


def verify_fixed_point(alpha, lam, order=8):
    """End-to-end check that ``mu(alpha, alpha, -lam)`` solves the fixed
    point: the chain's law of ``(X + Y)^(-1)`` against that of ``X``, the
    two coefficient routes, and the defining relation for ``c``."""
    c = solve_c(alpha, lam)
    series = series_coefficients(alpha, lam, order)
    oracle = oracle_coefficients(alpha, lam, order)
    x_law, ((_, _, stage), (_, _, distance)) = _reciprocal_chain(
        alpha, alpha, lam, 2)
    g_at_c = cauchy(pushforward_reciprocal(x_law), complex(c))
    key_eq = abs(1.0 / c - lam / (g_at_c.real - alpha) - c)
    return CharacterizationReport(c, series, oracle,
                                  compare_series(series, oracle), distance,
                                  stage, key_eq)


def verify_iterated(alpha, beta, lam):
    """``(label, Kolmogorov distance)`` for all four stages of the
    reciprocal chain, each against its law."""
    if not (alpha > 0 and beta > 0 and lam > 0):
        raise DomainError("all three parameters must be positive")
    _, stages = _reciprocal_chain(alpha, beta, lam, 4)
    return tuple((label, dist) for label, _, dist in stages)
