"""Parameterizations of the free generalized inverse Gaussian (fGIG) family.

A law ``mu(alpha, beta, lam)`` in this family is fixed by two rates
``alpha, beta > 0`` and a real shape ``lam``.  Three equivalent coordinate
systems are used throughout the package:

* natural ``(alpha, beta, lam)`` -- the rates of the confining potential;
* support ``(a, b, lam)`` -- the endpoints ``0 < a < b`` of the density;
* spread ``(A, B, lam)`` -- gap/span coordinates
  ``A = (sqrt(b) - sqrt(a))**2``, ``B = (sqrt(a) + sqrt(b))**2``.

The support endpoints are the unique admissible solution of

    1 - lam + alpha*sqrt(a*b) - beta*(a + b)/(2*a*b) = 0
    1 + lam + beta/sqrt(a*b) - alpha*(a + b)/2       = 0

and conversely an admissible ``(a, b, lam)`` determines ``(alpha, beta)``
in closed form.  Admissibility means ``|lam| * (A/B) < 1`` in spread
coordinates, and the full validity box is ``0 < max(1, |lam|) * A < B``.
Each form checks its inequalities when it is built and raises
:class:`DomainError` naming the first that fails, so every form in hand,
given or computed, is valid.

The square root in the R-transform of ``mu(alpha, beta, lam)`` sits over a
quartic that factors as ``4*beta*(z - delta)**2*(eta - z)`` times a sign
convention; the roots ``(gamma, delta, eta)`` drive most downstream
formulas and are exposed here as :class:`SpectralRoots`.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NumericError


def _require(form, inequality, holds):
    """Raise :class:`DomainError` unless ``holds``; NaN comparisons fail."""
    if not holds:
        raise DomainError(f"invalid {form} parameters: {inequality} violated")


def _admissible(a, b, lam):
    """``|lam| (sqrt b - sqrt a)**2 < (sqrt a + sqrt b)**2`` as
    ``(|lam| - 1)(a + b)/2 < (|lam| + 1) sqrt(ab)``: no difference of the
    endpoints, so any ``0 < a < b`` passes at ``|lam| <= 1``.  An infinite
    ``b`` gives ``inf/inf`` and fails, as does a NaN."""
    a, b, m = float(a), float(b), abs(float(lam))
    return ((m - 1.0) * (0.5 * a + 0.5 * b) / (math.sqrt(a) * math.sqrt(b))
            < m + 1.0)


@dataclass(frozen=True, slots=True)
class NaturalParams:
    """Natural coordinates ``(alpha, beta, lam)`` with ``alpha, beta > 0``."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        _require("natural", "alpha > 0", self.alpha > 0)
        _require("natural", "beta > 0", self.beta > 0)
        _require("natural", "lam finite", math.isfinite(self.lam))


@dataclass(frozen=True, slots=True)
class SupportForm:
    """Support coordinates ``(a, b, lam)``: endpoints ``0 < a < b``."""

    a: float
    b: float
    lam: float

    def __post_init__(self):
        _require("support", "a > 0", self.a > 0)
        _require("support", "a < b", self.a < self.b)
        _require("support",
                 "|lam|*((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))**2 < 1",
                 _admissible(self.a, self.b, self.lam))


@dataclass(frozen=True, slots=True)
class SpreadForm:
    """Spread coordinates ``(A, B, lam)`` with ``0 < max(1, |lam|)*A < B``."""

    A: float
    B: float
    lam: float

    def __post_init__(self):
        _require("spread", "A > 0", self.A > 0)
        _require("spread", "max(1,|lam|)*A < B",  # max(nan, 1) is nan: fails
                 max(abs(self.lam), 1.0) * self.A < self.B)
        _require("spread", "B < inf", self.B < math.inf)


@dataclass(frozen=True, slots=True)
class SpectralRoots:
    """Roots of the quartic under the R-transform's square root.

    ``gamma`` and ``delta`` are negative, ``delta`` is the double root,
    and ``eta >= alpha`` is the positive simple root (equality iff
    ``lam == 0``).  The identity ``4*beta*eta*delta**2 == alpha**2`` ties
    them back to the natural parameters.
    """

    gamma: float
    delta: float
    eta: float


# ---------------------------------------------------------------------------
# closed-form conversions
# ---------------------------------------------------------------------------

# Coordinates computed from a triple within rounding of the box's edge (as
# m t = 1 - O(eps) at small alpha*beta) can miss it; these two move them
# the few ulps into it, or raise NumericError if a and b coincide.

def _computed_support(a, b, lam):
    if not 0.0 < a < b:
        raise NumericError("support endpoints are not representable")
    step = math.ulp(a)
    while a < b and not _admissible(a, b, lam):
        a, step = a + step, 2.0 * step
    return SupportForm(a, b, lam)


def _computed_spread(A, B, lam):
    m = max(1.0, abs(lam))
    return SpreadForm(A, max(B, math.nextafter(m * A, math.inf)), lam)


def reparameterize(x):
    """Convert between :class:`SupportForm` and :class:`SpreadForm`.

    The map is a bijection: ``A = (sqrt(b)-sqrt(a))**2``,
    ``B = (sqrt(a)+sqrt(b))**2`` and back via
    ``a = ((sqrt(B)-sqrt(A))/2)**2``, ``b = ((sqrt(A)+sqrt(B))/2)**2``.
    Each difference of square roots is formed as ``(b - a)/(sqrt(a) +
    sqrt(b))``, which does not cancel on a narrow support.

    Raises
    ------
    NumericError
        Where ``B`` overflows, or where the endpoints ``a < b`` are not
        representable.
    """
    if isinstance(x, SupportForm):
        sa, sb = math.sqrt(x.a), math.sqrt(x.b)
        try:
            B = (sa + sb) ** 2
        except OverflowError:
            raise NumericError("(sqrt(a) + sqrt(b))**2 overflows") from None
        return _computed_spread(((x.b - x.a) / (sa + sb)) ** 2, B, x.lam)
    if isinstance(x, SpreadForm):
        sA, sB = math.sqrt(x.A), math.sqrt(x.B)
        return _computed_support(((x.B - x.A) / (sA + sB) / 2) ** 2,
                                 ((sA + sB) / 2) ** 2, x.lam)
    raise TypeError("reparameterize expects SupportForm or SpreadForm")


def from_support(s):
    """Natural parameters matching given support endpoints.

    Uses the closed forms

        alpha = 2/(sqrt(a)-sqrt(b))**2 * (1 + lam*(A/B))
        beta  = 2ab/(sqrt(a)-sqrt(b))**2 * (1 - lam*(A/B))

    with ``A/B = ((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))**2``; ``ab`` is not
    formed, as it under- or overflows where beta does not.

    Raises
    ------
    NumericError
        Where rounding may move ``lam*(A/B)`` by more than 1e-10 of the
        smaller factor ``1 -+ lam*(A/B)``, as next to the box's edge
        ``|lam|*(A/B) = 1``; where ``(sqrt(b)-sqrt(a))**2`` underflows;
        and where alpha or beta is not a positive normal float.
    """
    sa, sb = math.sqrt(s.a), math.sqrt(s.b)
    gap = (s.b - s.a) / (sa + sb)  # sqrt b - sqrt a, not cancelled
    gap2 = gap ** 2
    if not gap2 >= sys.float_info.min:
        raise NumericError("(sqrt(b) - sqrt(a))**2 underflows")
    ratio = (gap / (sa + sb)) ** 2
    plus, minus = 1.0 + s.lam * ratio, 1.0 - s.lam * ratio
    # sqrt b - sqrt a, and so A/B, is a few ulps off; the smaller factor
    # 1 -+ lam*(A/B) takes that times |lam|*(A/B) over itself into alpha or
    # beta.  That with 8 eps must stay below 1e-10; a factor <= 0 fails the
    # strict test too.
    err = 8.0 * math.ulp(1.0) * abs(s.lam) * ratio
    if not err < 1e-10 * min(plus, minus):
        raise NumericError("rounding in sqrt(b) - sqrt(a) may move alpha or "
                           "beta by more than 1e-10")
    alpha = 2.0 / gap2 * plus
    beta = 2.0 * s.a * (s.b / gap2) * minus  # b/gap2 is in [1, 16/eps**2]
    if not (sys.float_info.min <= alpha < math.inf
            and sys.float_info.min <= beta < math.inf):
        raise NumericError("alpha or beta is not a positive normal float")
    return NaturalParams(alpha, beta, s.lam)


def invert_params(p):
    """Parameters of the law of ``1/X`` when ``X ~ mu(alpha, beta, lam)``.

    The reciprocal is again in the family with parameters
    ``(beta, alpha, -lam)``; its support is the reciprocal interval.
    """
    return NaturalParams(p.beta, p.alpha, -p.lam)


# ---------------------------------------------------------------------------
# the support solver
# ---------------------------------------------------------------------------

def _ratio_factors(mt, w, lam):
    """``(t, 1 - t, 1 + |lam| t, 1 - |lam| t)`` from ``m t`` and ``1 - m t``.

    ``m = max(1, |lam|)`` and ``w = 1 - m t``.  Each factor is a sum of
    nonnegative terms in ``m t`` and ``w``, so it is as precise as they are.
    """
    s = abs(lam)
    m = max(1.0, s)
    return mt / m, ((m - 1.0) + w) / m, 1.0 + s * mt / m, ((m - s) + s * w) / m


@lru_cache(maxsize=4096)
def _solve_ratio(alpha, beta, lam):
    """The support ratio ``t = A/B`` and the factors built on it.

    With ``A = 2 (1 + lam t)/alpha`` the second spread equation becomes
    ``sqrt((1 - lam t)(1 + lam t)) (1 - t) = 2 sqrt(alpha beta) t``.  On
    ``0 < m t < 1``, ``m = max(1, |lam|)``, the left side falls and the
    right side rises, so the root is unique.  It is bisected to adjacent
    floats in ``m t`` when it lies at ``m t <= 1/2`` and in ``w = 1 - m t``
    otherwise, so both are known to full relative precision.  Returns
    ``(t, A, B, 1 - t, 1 + lam t, 1 - lam t)``.

    Raises
    ------
    NumericError
        If ``alpha*beta`` under- or overflows: ``t`` would then round to
        0 or 1 and the support would not be representable.  If ``A`` or
        ``B`` overflows, as for a subnormal ``alpha``.
    """
    c = 2.0 * math.sqrt(alpha * beta)
    if not 0.0 < c < math.inf:
        raise NumericError("alpha*beta is out of floating-point range")

    def excess(mt, w):  # left side minus right side: positive below the root
        t, u, plus, minus = _ratio_factors(mt, w, lam)
        return math.sqrt(plus * minus) * u - c * t

    upper = excess(0.5, 0.5) > 0.0

    def split(x):  # (m t, w), with x = w above m t = 1/2 and x = m t below
        return (1.0 - x, x) if upper else (x, 1.0 - x)

    lo, hi = 0.0, 0.5
    while lo < (x := 0.5 * (lo + hi)) < hi:
        if (excess(*split(x)) > 0.0) != upper:
            lo = x
        else:
            hi = x
    x = min(lo, hi, key=lambda x: abs(excess(*split(x))))
    t, u, plus, minus = _ratio_factors(*split(x), lam)
    if lam < 0:
        plus, minus = minus, plus
    A = 2.0 * plus / alpha
    B = A / t
    if not B < math.inf:  # B >= A > 0
        raise NumericError("spread coordinates A, B overflow")
    return t, A, B, u, plus, minus


def solve_spread(p):
    """Spread coordinates ``(A, B)`` for natural parameters ``p``."""
    _, A, B, _, _, _ = _solve_ratio(p.alpha, p.beta, p.lam)
    return _computed_spread(A, B, p.lam)


def solve_support(p):
    """Support endpoints ``(a, b)`` for natural parameters ``p``.

    Takes the support ratio ``t = A/B`` from one bracketed scalar root
    and forms ``a = B ((1 - t)/(1 + sqrt t))**2/4`` and
    ``b = B (1 + sqrt t)**2/4``, neither of which cancels.

    Raises
    ------
    NumericError
        If ``a`` and ``b`` are not distinct positive floats, or if the
        result misses either defining equation by more than ``1e-9``
        relative to the largest term it cancels (carries that relative
        residual).
    """
    t, _, B, u, _, _ = _solve_ratio(p.alpha, p.beta, p.lam)
    rt = 1.0 + math.sqrt(t)
    s = _computed_support(B * (u / rt) ** 2 / 4.0, B * rt ** 2 / 4.0, p.lam)
    r1, r2 = support_residuals(p, s)
    # each residual relative to the largest term it cancels (at least 1)
    sab = math.sqrt(s.a) * math.sqrt(s.b)
    res = max(abs(r1) / max(1.0, abs(p.lam), p.alpha * sab,
                            p.beta / (2.0 * s.a) + p.beta / (2.0 * s.b)),
              abs(r2) / max(1.0, abs(p.lam), p.beta / sab,
                            p.alpha * (s.a + s.b) / 2.0))
    if not res <= 1e-9:
        raise NumericError("support solve did not converge", residual=res)
    return s


def support_residuals(p, s):
    """Residuals of the two defining equations at ``(a, b, lam)``.

    ``sqrt(ab)`` and ``(a + b)/(2ab)`` are formed without the product
    ``ab``, which under- or overflows at extreme rates.
    """
    sab = math.sqrt(s.a) * math.sqrt(s.b)
    r1 = (1.0 - p.lam + p.alpha * sab
          - (p.beta / (2.0 * s.a) + p.beta / (2.0 * s.b)))
    r2 = 1.0 + p.lam + p.beta / sab - p.alpha * (s.a + s.b) / 2.0
    return r1, r2


# ---------------------------------------------------------------------------
# derived roots
# ---------------------------------------------------------------------------

def spectral_roots(p):
    """Roots ``(gamma, delta, eta)`` of the quartic under the square root.

    In spread coordinates, with ``t = A/B``:

        gamma = -2*((1 - t)*(1 + lam*t) + (1 - lam*t)) / (B*(1 - t)**2)
        delta = -2*(1 + lam*t) / (B*(1 - t))
        eta   = alpha / ((1 + lam*t)*(1 - lam*t))

    Every factor is formed without cancellation, so the identity
    ``4*beta*eta*delta**2 == alpha**2`` holds to rounding.  ``eta`` is
    formed as ``alpha + alpha (lam t)**2/((1 + lam t)(1 - lam t))``, so
    ``alpha <= eta`` holds in floating point too, with equality at
    ``lam == 0``.
    """
    t, _, B, u, plus, minus = _solve_ratio(p.alpha, p.beta, p.lam)
    gamma = -2.0 * (u * plus + minus) / (B * u * u)
    delta = -2.0 * plus / (B * u)
    eta = p.alpha + p.alpha * (p.lam * t) ** 2 / (plus * minus)
    return SpectralRoots(gamma, delta, eta)
