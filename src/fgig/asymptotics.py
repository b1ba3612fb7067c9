"""Small-``beta`` limits of the family.

As ``beta`` drops to zero, ``mu(alpha, beta, lam)`` converges weakly to

    nu(1/alpha, lam)                                        lam >= 1,
    (1-lam)/2 * delta_0 + (1+lam)/2 * nu((1+lam)/(2*alpha), 1)   |lam| < 1,
    delta_0                                                 lam <= -1,

with the support endpoints scaling like ``a ~ beta`` (and ``b`` of order
one) strictly inside the middle regime, ``a, b ~ beta`` below it, and
fractional powers ``beta**(2/3)``/``beta**(1/3)`` exactly on the
boundaries ``lam = 1`` / ``lam = -1``.  The square-root data follow:
``delta -> alpha/(1-|lam|)`` and ``eta -> infinity`` for ``|lam| > 1``,
``delta -> -infinity`` and ``eta -> alpha/(1-lam**2)`` for ``|lam| < 1``,
both unbounded on the boundaries.

The first two limits are the family's laws at ``beta = 0``, with density
``sqrt((x-lo)(hi-x)) alpha/(2 pi x)``: on ``nu``'s support, and on
``(0, 2(1+lam)/alpha)`` beside the atom ``(1-lam)/2``.
"""

import math

import numpy as np

from .errors import DomainError
from .measures import (FreePoissonParams, _rational_law, atom_measure,
                       build_fgig, build_free_poisson, levy_distance)
from .params import NaturalParams, solve_support

REGIME_LAM_GE_1 = "lambda_ge_1"
REGIME_ABS_LT_1 = "abs_lambda_lt_1"
REGIME_LAM_LE_M1 = "lambda_le_minus_1"

_CURVE_NODES = 2048  # nodes of each fGIG law along a convergence curve
_TAIL = 4  # smallest betas an exponent fit reads
_FLAT_SLOPE = 0.02  # a fitted slope below this, with a relative variation
_FLAT_SPREAD = 0.05  # below this, reports exponent zero


def limit_regime(lam):
    if lam >= 1.0:
        return REGIME_LAM_GE_1
    if lam <= -1.0:
        return REGIME_LAM_LE_M1
    return REGIME_ABS_LT_1


def limit_measure(alpha, lam):
    """Weak limit of ``mu(alpha, beta, lam)`` as ``beta`` drops to zero,
    in the regime :func:`limit_regime` names."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    regime = limit_regime(lam)
    if regime == REGIME_LAM_GE_1:
        return build_free_poisson(FreePoissonParams(1.0 / alpha, lam))
    if regime == REGIME_LAM_LE_M1:
        return atom_measure([(0.0, 1.0)])
    return _rational_law(0.0, 2.0 * (1.0 + lam) / alpha, alpha, 0.0, 256,
                         (1.0 - lam) / 2.0)


def convergence_curve(alpha, lam, betas):
    """Levy distances to the limit along a decreasing ``beta`` list.

    The lower two regimes put an atom at the origin, which the family
    approximates by an ever steeper ramp: the sup-distance of the
    distribution functions then stays pinned near the atom mass, so the
    weak-convergence (Levy) metric is the honest yardstick here.  One
    limit law serves the whole curve, so its completed graph is built once.
    """
    limit = limit_measure(alpha, lam)
    return [levy_distance(
        build_fgig(NaturalParams(alpha, float(b), lam), _CURVE_NODES), limit)
            for b in betas]


def _fit_exponent(betas, values):
    logb = np.log(betas)
    logv = np.log(values)
    slope = float(np.polyfit(logb, logv, 1)[0])
    spread = float((values.max() - values.min()) / values.max())
    if abs(slope) < _FLAT_SLOPE and spread < _FLAT_SPREAD:
        return 0.0
    return slope


def scaling_exponents(alpha, lam, betas):
    """Power-law exponents ``(p_a, p_b)`` of the support endpoints.

    Least-squares slopes of ``log a`` and ``log b`` against ``log beta``
    over the four smallest supplied values; a quantity that levels off
    (slope below 0.02 and relative variation below 5 percent) reports
    exponent zero.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size < 4 or np.any(np.diff(betas) >= 0):
        raise DomainError("need at least four strictly decreasing betas")
    bs = betas[-_TAIL:]
    supports = [solve_support(NaturalParams(alpha, float(b), lam)) for b in bs]
    return (_fit_exponent(bs, np.array([s.a for s in supports])),
            _fit_exponent(bs, np.array([s.b for s in supports])))


def root_limits(alpha, lam):
    """Limits of ``(delta, eta)`` as ``beta`` drops to zero.

    Unbounded entries are reported as signed infinities.
    """
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    if abs(lam) > 1.0:
        return alpha / (1.0 - abs(lam)), math.inf
    if abs(lam) < 1.0:
        return -math.inf, alpha / (1.0 - lam * lam)
    return -math.inf, math.inf
