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
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .measures import (FreePoissonParams, SpectralMeasure, atom_measure,
                       build_fgig, build_free_poisson, levy_distance)
from .params import NaturalParams, reparameterize, solve_spread

REGIME_LAM_GE_1 = "lambda_ge_1"
REGIME_ABS_LT_1 = "abs_lambda_lt_1"
REGIME_LAM_LE_M1 = "lambda_le_minus_1"


@dataclass(frozen=True)
class LimitDescription:
    regime: str
    limit: SpectralMeasure


def _scaled_copy(m, weight, extra_atoms):
    """Measure with the a.c. part of ``m`` scaled by ``weight`` plus atoms.

    The result is a different law from ``m``, so its closed-form Cauchy
    transform is dropped rather than carried.
    """
    def density(x, _w=weight, _f=m.density):
        return _w * _f(x)

    return replace(m, atoms=tuple(extra_atoms), density=density,
                   weights=weight * m.weights, cdf_y=weight * m.cdf_y,
                   cauchy_fn=None)


def limit_regime(lam):
    if lam >= 1.0:
        return REGIME_LAM_GE_1
    if lam <= -1.0:
        return REGIME_LAM_LE_M1
    return REGIME_ABS_LT_1


def limit_measure(alpha, lam, n=512):
    """Weak limit of ``mu(alpha, beta, lam)`` as ``beta`` drops to zero."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    regime = limit_regime(lam)
    if regime == REGIME_LAM_GE_1:
        limit = build_free_poisson(FreePoissonParams(1.0 / alpha, lam), n)
    elif regime == REGIME_LAM_LE_M1:
        limit = atom_measure([(0.0, 1.0)])
    else:
        mp = build_free_poisson(
            FreePoissonParams((1.0 + lam) / (2.0 * alpha), 1.0), n)
        limit = _scaled_copy(mp, (1.0 + lam) / 2.0,
                             [(0.0, (1.0 - lam) / 2.0)])
    return LimitDescription(regime, limit)


def spread_path(alpha, lam, betas):
    """Spread coordinates of ``mu(alpha, beta, lam)`` for each ``beta``.

    Each point is one bracketed solve, so the order of ``betas`` does not
    matter and no point depends on another.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0):
        raise DomainError("beta values must be positive")
    return [solve_spread(NaturalParams(alpha, float(beta), lam))
            for beta in betas]


def convergence_curve(alpha, lam, betas, n=2048):
    """Levy distances to the limit along a decreasing ``beta`` list.

    The lower two regimes put an atom at the origin, which the family
    approximates by an ever steeper ramp: the sup-distance of the
    distribution functions then stays pinned near the atom mass, so the
    weak-convergence (Levy) metric is the honest yardstick here.
    """
    limit = limit_measure(alpha, lam).limit
    return [levy_distance(build_fgig(NaturalParams(alpha, float(b), lam), n),
                          limit)
            for b in betas]


def _fit_exponent(betas, values, slope_floor=0.02, variation_floor=0.05):
    logb = np.log(betas)
    logv = np.log(values)
    slope = float(np.polyfit(logb, logv, 1)[0])
    spread = float((values.max() - values.min()) / values.max())
    if abs(slope) < slope_floor and spread < variation_floor:
        return 0.0
    return slope


def scaling_exponents(alpha, lam, betas, tail=4):
    """Power-law exponents ``(p_a, p_b)`` of the support endpoints.

    Least-squares slopes of ``log a`` and ``log b`` against ``log beta``
    over the smallest supplied values; a quantity that levels off (slope
    below 0.02 and relative variation below 5 percent) reports exponent
    zero.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size < 4 or np.any(np.diff(betas) >= 0):
        raise DomainError("need at least four strictly decreasing betas")
    spreads = spread_path(alpha, lam, betas)
    supports = [reparameterize(sf) for sf in spreads]
    take = min(max(tail, 4), betas.size)
    bs = betas[-take:]
    a_vals = np.array([s.a for s in supports[-take:]])
    b_vals = np.array([s.b for s in supports[-take:]])
    return (_fit_exponent(bs, a_vals), _fit_exponent(bs, b_vals))


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
