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

The square root in the R-transform of ``mu(alpha, beta, lam)`` sits over a
quartic that factors as ``4*beta*(z - delta)**2*(eta - z)`` times a sign
convention; the roots ``(gamma, delta, eta)`` drive most downstream
formulas and are exposed here as :class:`SpectralRoots`.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError

@dataclass(frozen=True, slots=True)
class NaturalParams:
    """Natural coordinates ``(alpha, beta, lam)`` with ``alpha, beta > 0``."""

    alpha: float
    beta: float
    lam: float


@dataclass(frozen=True, slots=True)
class SupportForm:
    """Support coordinates ``(a, b, lam)``: endpoints ``0 < a < b``."""

    a: float
    b: float
    lam: float


@dataclass(frozen=True, slots=True)
class SpreadForm:
    """Spread coordinates ``(A, B, lam)`` with ``0 < max(1, |lam|)*A < B``."""

    A: float
    B: float
    lam: float


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


@dataclass(frozen=True, slots=True)
class ValidationEntry:
    name: str
    passed: bool
    margin: float


@dataclass(frozen=True, slots=True)
class ValidationReport:
    form: str
    entries: tuple
    valid: bool


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(x):
    """Check every invariant of a parameter form, with margins.

    Returns a :class:`ValidationReport`; never raises.  The margin of each
    entry is positive when the inequality holds strictly and measures the
    distance to its boundary.
    """
    if isinstance(x, NaturalParams):
        entries = (
            ValidationEntry("alpha > 0", x.alpha > 0, x.alpha),
            ValidationEntry("beta > 0", x.beta > 0, x.beta),
            ValidationEntry("lam finite", math.isfinite(x.lam),
                            math.inf if math.isfinite(x.lam) else -math.inf),
        )
        form = "natural"
    elif isinstance(x, SupportForm):
        ratio = math.nan
        if x.a > 0 and x.b > 0:
            ratio = abs(x.lam) * ((math.sqrt(x.a) - math.sqrt(x.b))
                                  / (math.sqrt(x.a) + math.sqrt(x.b))) ** 2
        entries = (
            ValidationEntry("a > 0", x.a > 0, x.a),
            ValidationEntry("a < b", x.a < x.b, x.b - x.a),
            ValidationEntry("|lam|*((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))**2 < 1",
                            bool(ratio == ratio and ratio < 1.0), 1.0 - ratio),
        )
        form = "support"
    elif isinstance(x, SpreadForm):
        m = max(1.0, abs(x.lam))
        entries = (
            ValidationEntry("A > 0", x.A > 0, x.A),
            ValidationEntry("max(1,|lam|)*A < B", m * x.A < x.B, x.B - m * x.A),
        )
        form = "spread"
    else:
        raise TypeError(f"unsupported parameter form: {type(x).__name__}")
    return ValidationReport(form, entries, all(e.passed for e in entries))


def require_valid(x):
    """Raise :class:`DomainError` naming the first violated inequality."""
    report = validate(x)
    if not report.valid:
        bad = next(e for e in report.entries if not e.passed)
        raise DomainError(f"invalid {report.form} parameters: {bad.name} violated")
    return x


# ---------------------------------------------------------------------------
# closed-form conversions
# ---------------------------------------------------------------------------

def reparameterize(x):
    """Convert between :class:`SupportForm` and :class:`SpreadForm`.

    The map is a bijection: ``A = (sqrt(b)-sqrt(a))**2``,
    ``B = (sqrt(a)+sqrt(b))**2`` and back via
    ``a = ((sqrt(B)-sqrt(A))/2)**2``, ``b = ((sqrt(A)+sqrt(B))/2)**2``.
    """
    require_valid(x)
    if isinstance(x, SupportForm):
        sa, sb = math.sqrt(x.a), math.sqrt(x.b)
        return SpreadForm((sb - sa) ** 2, (sa + sb) ** 2, x.lam)
    if isinstance(x, SpreadForm):
        sA, sB = math.sqrt(x.A), math.sqrt(x.B)
        return SupportForm(((sB - sA) / 2) ** 2, ((sA + sB) / 2) ** 2, x.lam)
    raise TypeError("reparameterize expects SupportForm or SpreadForm")


def from_support(s):
    """Natural parameters matching given support endpoints.

    Uses the closed forms

        alpha = 2/(sqrt(a)-sqrt(b))**2 * (1 + lam*(A/B))
        beta  = 2ab/(sqrt(a)-sqrt(b))**2 * (1 - lam*(A/B))

    with ``A/B = ((sqrt(a)-sqrt(b))/(sqrt(a)+sqrt(b)))**2``.
    """
    require_valid(s)
    sa, sb = math.sqrt(s.a), math.sqrt(s.b)
    gap2 = (sa - sb) ** 2
    ratio = gap2 / (sa + sb) ** 2
    alpha = 2.0 / gap2 * (1.0 + s.lam * ratio)
    beta = 2.0 * s.a * s.b / gap2 * (1.0 - s.lam * ratio)
    return NaturalParams(alpha, beta, s.lam)


def spread_to_natural(sf):
    """Natural parameters for spread coordinates, in closed form."""
    require_valid(sf)
    A, B, lam = sf.A, sf.B, sf.lam
    alpha = 2.0 / A * (1.0 + lam * A / B)
    beta = (B - A) ** 2 / (8.0 * A) * (1.0 - lam * A / B)
    return NaturalParams(alpha, beta, lam)


def invert_params(p):
    """Parameters of the law of ``1/X`` when ``X ~ mu(alpha, beta, lam)``.

    The reciprocal is again in the family with parameters
    ``(beta, alpha, -lam)``; its support is the reciprocal interval.
    """
    require_valid(p)
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
    """
    c = 2.0 * math.sqrt(alpha * beta)

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
    return t, A, A / t, u, plus, minus


def solve_spread(p):
    """Spread coordinates ``(A, B)`` for natural parameters ``p``."""
    require_valid(p)
    _, A, B, _, _, _ = _solve_ratio(p.alpha, p.beta, p.lam)
    return SpreadForm(A, B, p.lam)


def solve_support(p):
    """Support endpoints ``(a, b)`` for natural parameters ``p``.

    Takes the support ratio ``t = A/B`` from one bracketed scalar root
    and forms ``a = B ((1 - t)/(1 + sqrt t))**2/4`` and
    ``b = B (1 + sqrt t)**2/4``, neither of which cancels.

    Raises
    ------
    NumericError
        If the result misses either defining equation by more than
        ``1e-9`` relative to the largest term it cancels (carries that
        relative residual).
    """
    require_valid(p)
    t, _, B, u, _, _ = _solve_ratio(p.alpha, p.beta, p.lam)
    rt = 1.0 + math.sqrt(t)
    s = SupportForm(B * (u / rt) ** 2 / 4.0, B * rt ** 2 / 4.0, p.lam)
    r1, r2 = support_residuals(p, s)
    # each residual relative to the largest term it cancels (at least 1)
    sab = math.sqrt(s.a * s.b)
    res = max(abs(r1) / max(1.0, abs(p.lam), p.alpha * sab,
                            p.beta * (s.a + s.b) / (2.0 * s.a * s.b)),
              abs(r2) / max(1.0, abs(p.lam), p.beta / sab,
                            p.alpha * (s.a + s.b) / 2.0))
    if res > 1e-9:
        raise NumericError("support solve did not converge", residual=res)
    return s


def support_residuals(p, s):
    """Residuals of the two defining equations at ``(a, b, lam)``."""
    sab = math.sqrt(s.a * s.b)
    r1 = 1.0 - p.lam + p.alpha * sab - p.beta * (s.a + s.b) / (2.0 * s.a * s.b)
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
        eta   = 2 / (A*(1 - lam*t))

    Every factor is formed without cancellation, so the identity
    ``4*beta*eta*delta**2 == alpha**2`` holds to rounding.
    """
    require_valid(p)
    _, A, B, u, plus, minus = _solve_ratio(p.alpha, p.beta, p.lam)
    gamma = -2.0 * (u * plus + minus) / (B * u * u)
    delta = -2.0 * plus / (B * u)
    eta = 2.0 / (A * minus)
    return SpectralRoots(gamma, delta, eta)


def quartic_under_root(p, z):
    """The quartic ``(alpha + (lam-1)z)**2 - 4*beta*z*(z-alpha)*(z-gamma)``.

    Vectorized in ``z``; equals ``4*beta*(z-delta)**2*(eta-z)`` and takes
    the values ``alpha**2`` at 0 and ``(lam*alpha)**2`` at ``alpha``.
    """
    roots = spectral_roots(p)
    z = np.asarray(z)
    return ((p.alpha + (p.lam - 1.0) * z) ** 2
            - 4.0 * p.beta * z * (z - p.alpha) * (z - roots.gamma))
