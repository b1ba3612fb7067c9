"""The reciprocal fixed point ``X = (X + Y)^(-1)`` in distribution.

For free ``X > 0`` and ``Y`` Marchenko--Pastur with jump ``1/alpha`` and
rate ``lam`` (both parameters positive), the fixed-point equation holds
exactly when ``X ~ mu(alpha, alpha, -lam)``.  Subordination turns the
fixed point into a functional equation for ``M(z) = G_X(1/z)``, which in

    K(z) = (z - M(z))/z**2 = -integral x/(1 - z x) dmu(x)

reads

    K(z) = N - N**2 K(N),    N(z) = g/(z g - lam),    g = alpha - K(z).

It pins down every Taylor coefficient of ``K`` at the distinguished point
``c`` in ``(-1, 0)`` where ``N(c) = c``; ``c`` is the unique root there of
the quartic

    alpha c^4 - (1 + lam) c^3 + (1 - lam) c - alpha = 0.

At ``c`` the factors ``g = alpha - K(c)`` and ``c g - lam`` are each a sum
of terms of one sign, so the series algebra does not cancel.  This module
solves the coefficient recursion order by order, returns ``M``'s
coefficients ``a_n = -(c^2 k_n + 2 c k_(n-1) + k_(n-2))``, checks them
against direct quadrature of the derivative kernels
``k! x^(k-1) / (1 - c x)^(k+1)``, and verifies the fixed point itself by
running the convolution/reciprocal pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .convolution import free_convolve
from .errors import DomainError, NumericError
from .measures import (FreePoissonParams, build_fgig, build_free_poisson,
                       integrate, kolmogorov_distance, pushforward_reciprocal)
from .params import NaturalParams
from .series import Series
from .transforms import cauchy

# Each order's rounding is divided by its slope s_n.  As c nears -1 the
# equation loses hold of the odd orders and the slopes' lower bound falls
# with 1 - c^4; below this floor order 8 drifts past 1e-10 of the
# quadrature oracle.
_SLOPE_FLOOR = 1e-2


@dataclass(frozen=True)
class CoefficientSeries:
    """Taylor coefficients of an analytic function at a real center."""

    center: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class CharacterizationReport:
    c: float
    series: CoefficientSeries
    oracle: CoefficientSeries
    max_rel_dev: float
    fixed_point_distance: float
    stage_distance: float = math.nan
    key_eq_residual: float = math.nan


@dataclass(frozen=True)
class IteratedReport:
    stages: tuple  # (label, kolmogorov distance) per stage
    final_distance: float


def quartic_residual(alpha, lam, c):
    return alpha * c ** 4 - (1.0 + lam) * c ** 3 + (1.0 - lam) * c - alpha


def solve_c(alpha, lam):
    """Unique root in ``(-1, 0)`` of the center quartic.

    The quartic is ``2 lam > 0`` at ``-1`` and ``-alpha < 0`` at ``0``; the
    bracket is bisected to adjacent floats and the one with the smaller
    residual kept.
    """
    if not (alpha > 0 and lam > 0):
        raise DomainError("both parameters must be positive")
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


def initial_coefficients(alpha, lam, c=None):
    """Zeroth and first coefficients ``(a0, a1)`` of ``M`` at ``c``.

    ``a0 = k0 = c/(1 + c^2)`` and ``a1 = (1 - c^2)/(1 + c^2) - c^2 k1``,
    a sum of positive terms, lands in ``(0, 1/(1 + c^2))``.
    """
    if c is None:
        c = solve_c(alpha, lam)
    k0, k1 = _initial_k(alpha, c)
    return k0, (1.0 - c * c) / (1.0 + c * c) - c * c * k1


def beta1_from_alpha1(c, a1):
    """First derivative of ``N`` at ``c`` out of the order-1 relation."""
    return (1.0 - c * c) / (a1 * c * c * (1.0 + c * c)) - 1.0 / (c * c)


def beta1_direct(alpha, lam, c, a0, a1):
    """``N'(c)`` evaluated from the quotient rule (cross-check route)."""
    num = (-lam * c ** 2 * a1
           + c ** 2 * (-1.0 - lam + 2.0 * alpha * c - alpha ** 2 * c ** 2)
           + 2.0 * c * (1.0 + lam - alpha * c) * a0 - a0 ** 2)
    den = c ** 2 * (a0 - (1.0 + lam) * c + alpha * c ** 2) ** 2
    return num / den


def _k_residual(alpha, lam, c, k):
    """Last coefficient of ``K - N + N^2 K(N)`` at ``c`` for the ``K``
    truncated to the coefficients ``k``."""
    order = k.size - 1
    k_series = Series(k)
    z = Series.variable(order, constant=c)
    g = alpha - k_series
    n_series = g / (z * g - lam)
    if abs(n_series.c[0] - c) > 1e-8 * max(1.0, abs(c)):
        raise NumericError("composition center drifted",
                           residual=float(abs(n_series.c[0] - c)))
    inner = Series(n_series.c)
    inner.c[0] = 0.0
    phi = k_series - n_series + n_series * n_series * k_series.compose(inner)
    return phi.c[order]


def series_coefficients(alpha, lam, order):
    """Coefficients of ``M`` at ``c`` from the functional equation in ``K``.

    Order ``n >= 2`` of the residual ``K - N + N^2 K(N)`` is affine in
    ``k_n`` with slope ``s_n = 1 + c^2 beta1^n - q a1``, where
    ``q = (1 - c^2)^2/lam`` is ``dN/dK`` at ``c`` and
    ``beta1 = N'(c) = q k1 - c^2``.  So one residual evaluation with
    ``k_n = 0`` solves each order: ``k_n = -R_n(0)/s_n``.

    Raises
    ------
    NumericError
        If the lower bound ``alpha (1 - c^4)/(alpha (1 + c^2) - c)`` of
        the slopes falls below ``_SLOPE_FLOOR`` = 1e-2 (``c`` near -1).
    """
    order = int(order)
    if not 0 <= order <= 32:
        raise DomainError("series order must lie in [0, 32]")
    c = solve_c(alpha, lam)
    floor = alpha * (1.0 - c ** 4) / (alpha * (1.0 + c * c) - c)
    if order >= 2 and not floor >= _SLOPE_FLOOR:
        raise NumericError("series recursion is ill-conditioned: slope "
                           "bound below the floor", residual=floor)
    k0, k1 = _initial_k(alpha, c)
    a0, a1 = initial_coefficients(alpha, lam, c)
    q = (1.0 - c * c) ** 2 / lam
    beta1 = q * k1 - c * c
    k = np.zeros(order + 1)
    k[: 2] = (k0, k1)[: order + 1]
    for n in range(2, order + 1):
        k[n] = -_k_residual(alpha, lam, c, k[: n + 1]) / (
            1.0 + c * c * beta1 ** n - q * a1)
    # M = z - z^2 K; a0 and a1 in closed form, where c - c^2 k0 and
    # 1 - 2 c k0 would cancel
    coeffs = -np.convolve([c * c, 2.0 * c, 1.0], k)[: order + 1]
    coeffs[: 2] = (a0, a1)[: order + 1]
    return CoefficientSeries(c, coeffs)


def oracle_coefficients(alpha, lam, order, c=None, n_nodes=2048):
    """Taylor coefficients of ``M`` at ``c`` by quadrature.

    ``M(z) = G_X(1/z) = integral z/(1 - z x) dmu(x)`` for
    ``X ~ mu(alpha, alpha, -lam)``; its derivatives have the closed
    kernels ``k! x^(k-1)/(1 - z x)^(k+1)``, so no numerical
    differentiation enters.
    """
    if c is None:
        c = solve_c(alpha, lam)
    x_law = build_fgig(NaturalParams(alpha, alpha, -lam), n_nodes)
    coeffs = np.empty(int(order) + 1)
    coeffs[0] = integrate(x_law, lambda x: c / (1.0 - c * x))
    for k in range(1, int(order) + 1):
        coeffs[k] = integrate(
            x_law, lambda x, k=k: x ** (k - 1) / (1.0 - c * x) ** (k + 1))
    return CoefficientSeries(c, coeffs)


def compare_series(series, oracle):
    """Maximum relative deviation between two coefficient lists."""
    a, b = series.coeffs, oracle.coeffs
    n = min(a.size, b.size)
    scale = np.maximum(np.abs(b[:n]), 1e-30)
    return float(np.max(np.abs(a[:n] - b[:n]) / scale))


def reciprocal_cauchy_residual(m, m_recip, z):
    """Residual of ``G_{1/X}(z) = (1 - G_X(1/z)/z) / z`` at one point."""
    lhs = cauchy(m_recip, z)
    rhs = (1.0 - cauchy(m, 1.0 / z) / z) / z
    return abs(lhs - rhs)


def verify_fixed_point(alpha, lam, order=8, n_nodes=1024):
    """End-to-end check that ``mu(alpha, alpha, -lam)`` solves the fixed point.

    Builds the law of ``(X + Y)^(-1)`` through the convolution and
    reciprocal-pushforward pipeline and reports its Kolmogorov distance
    to the law of ``X``, alongside the two coefficient routes and the
    residual of the defining relation for ``c``.
    """
    if not (alpha > 0 and lam > 0):
        raise DomainError("both parameters must be positive")
    c = solve_c(alpha, lam)
    series = series_coefficients(alpha, lam, order)
    oracle = oracle_coefficients(alpha, lam, order, c=c)
    max_rel_dev = compare_series(series, oracle)

    x_law = build_fgig(NaturalParams(alpha, alpha, -lam), n_nodes)
    y_law = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), n_nodes)
    s_law = free_convolve(x_law, y_law)
    stage = kolmogorov_distance(
        s_law, build_fgig(NaturalParams(alpha, alpha, lam), n_nodes))
    t_law = pushforward_reciprocal(s_law)
    distance = kolmogorov_distance(t_law, x_law)

    x_recip = pushforward_reciprocal(x_law)
    g_at_c = cauchy(x_recip, complex(c))
    key_eq = abs(1.0 / c - lam / (g_at_c.real - alpha) - c)
    return CharacterizationReport(c, series, oracle, max_rel_dev, distance,
                                  stage, key_eq)


def verify_iterated(alpha, beta, lam, n_nodes=1024):
    """Chase the two-step reciprocal chain through its closed-form laws.

    With ``X ~ mu(alpha, beta, -lam)``, ``Y2 ~ nu(1/alpha, lam)`` and
    ``Y1 ~ nu(1/beta, lam)``, each stage of
    ``(Y1 + (Y2 + X)^(-1))^(-1)`` has an explicit law in the family;
    every stage is compared against it.
    """
    if not (alpha > 0 and beta > 0 and lam > 0):
        raise DomainError("all three parameters must be positive")
    x_law = build_fgig(NaturalParams(alpha, beta, -lam), n_nodes)
    y2 = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), n_nodes)
    y1 = build_free_poisson(FreePoissonParams(1.0 / beta, lam), n_nodes)

    s1 = free_convolve(x_law, y2)
    d1 = kolmogorov_distance(
        s1, build_fgig(NaturalParams(alpha, beta, lam), n_nodes))
    s2 = pushforward_reciprocal(s1)
    d2 = kolmogorov_distance(
        s2, build_fgig(NaturalParams(beta, alpha, -lam), n_nodes))
    s3 = free_convolve(s2, y1)
    d3 = kolmogorov_distance(
        s3, build_fgig(NaturalParams(beta, alpha, lam), n_nodes))
    s4 = pushforward_reciprocal(s3)
    d4 = kolmogorov_distance(s4, x_law)
    stages = (("X + Y2", d1), ("(X + Y2)^-1", d2),
              ("Y1 + (X + Y2)^-1", d3), ("full chain", d4))
    return IteratedReport(stages, d4)
