"""Small-``beta`` limits of the family.

As ``beta`` drops to zero, ``mu(alpha, beta, lam)`` converges weakly to

    nu(1/alpha, lam)                                        lam >= 1,
    (1-lam)/2 * delta_0 + (1+lam)/2 * nu((1+lam)/(2*alpha), 1)   |lam| < 1,
    delta_0                                                 lam <= -1.

The first two limits are the family's laws at ``beta = 0``, with density
``sqrt((x-lo)(hi-x)) alpha/(2 pi x)``: on ``nu``'s support, and on
``(0, 2(1+lam)/alpha)`` beside the atom ``(1-lam)/2``.

The support endpoints follow ``a = c_a beta**p_a (1 + O(beta**q))``, and
``b`` likewise, in five regimes (the three open ones and ``lam = +-1``),
and one square-root datum has a finite limit, reached at the same rate;
:func:`endpoint_asymptotics` tabulates them.  The correction grows as
``|lam| -> 1``, where the regimes cross over.
"""

import math
from dataclasses import dataclass

from .errors import DomainError
from .measures import (FreePoissonParams, _rational_law, atom_measure,
                       build_fgig, build_free_poisson, levy_distance)
from .params import NaturalParams

REGIME_LAM_GE_1 = "lambda_ge_1"
REGIME_ABS_LT_1 = "abs_lambda_lt_1"
REGIME_LAM_LE_M1 = "lambda_le_minus_1"


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
    Every fGIG law is the builder's default, whose knots are
    :mod:`fgig.measures`' to choose: 4096, or 8192 or more where the
    support crowds the origin.
    """
    limit = limit_measure(alpha, lam)
    curve = []
    for b in betas:
        m = build_fgig(NaturalParams(alpha, float(b), lam))
        curve.append(levy_distance(m, limit))
    return curve


@dataclass(frozen=True, slots=True)
class EndpointAsymptotics:
    """``a = c_a beta**p_a (1 + O(beta**q))``, ``b`` likewise, and the
    limits of ``(delta, eta)``, unbounded ones as signed infinities."""

    c_a: float
    p_a: float
    c_b: float
    p_b: float
    q: float
    delta_limit: float
    eta_limit: float


def endpoint_asymptotics(alpha, lam):
    """The support endpoints and root limits as ``beta`` drops to zero;
    ``a(alpha, beta, lam) = a(1, alpha beta, lam)/alpha`` gives ``alpha``."""
    if not alpha > 0:
        raise DomainError("alpha must be positive")
    inf, s = math.inf, 1.0 + math.sqrt(abs(lam))
    if abs(lam) < 1.0:  # a ~ beta/(2(1-lam)), b ~ 2(1+lam)/alpha
        return EndpointAsymptotics(0.5 / (1.0 - lam), 1.0,
                                   2.0 * (1.0 + lam) / alpha, 0.0, 0.5,
                                   -inf, alpha / (1.0 - lam * lam))
    if lam > 1.0:  # a, b ~ (1 -+ sqrt(lam))**2/alpha
        return EndpointAsymptotics(((lam - 1.0) / s) ** 2 / alpha, 0.0,
                                   s * s / alpha, 0.0, 1.0,
                                   alpha / (1.0 - lam), inf)
    if lam < -1.0:  # a, b ~ beta/(sqrt(-lam) +- 1)**2
        return EndpointAsymptotics(1.0 / (s * s), 1.0, (s / (lam + 1.0)) ** 2,
                                   1.0, 1.0, alpha / (1.0 + lam), inf)
    if lam == 1.0:  # a ~ (16 alpha)**(-1/3) beta**(2/3), b ~ 4/alpha
        return EndpointAsymptotics((16.0 * alpha) ** (-1.0 / 3.0), 2.0 / 3.0,
                                   4.0 / alpha, 0.0, 2.0 / 3.0, -inf, inf)
    if lam == -1.0:  # a ~ beta/4, b ~ 2**(4/3) alpha**(-2/3) beta**(1/3)
        return EndpointAsymptotics(0.25, 1.0, (4.0 / alpha) ** (2.0 / 3.0),
                                   1.0 / 3.0, 2.0 / 3.0, -inf, inf)
    raise DomainError("lam must be finite")
