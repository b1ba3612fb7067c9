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

_SOLVE_TOL = 1e-13
_MAX_ITER = 200


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

def _spread_residuals(A, B, alpha, beta, lam):
    f1 = 2.0 / A + 2.0 * lam / B - alpha
    f2 = (B - A) ** 2 * (1.0 / A - lam / B) / 8.0 - beta
    return f1, f2


def _spread_jacobian(A, B, lam):
    d1A = -2.0 / A ** 2
    d1B = -2.0 * lam / B ** 2
    d2A = -(B - A) * (1.0 / A - lam / B) / 4.0 - (B - A) ** 2 / (8.0 * A ** 2)
    d2B = (B - A) * (1.0 / A - lam / B) / 4.0 + (B - A) ** 2 * lam / (8.0 * B ** 2)
    return d1A, d1B, d2A, d2B


def _solve_spread_newton(alpha, beta, lam, guess=None):
    """Damped Newton for (A, B) in variables (log A, log(B - m*A)).

    The log transform keeps ``0 < m*A < B`` unconditionally.  Returns
    ``(A, B)`` or None when the step is rejected 20 times in a row.
    """
    m = max(1.0, abs(lam))
    if guess is None:
        A = 2.0 / alpha
        B = 4.0 * m * A
    else:
        A, B = guess
        if not (A > 0 and B > m * A):
            A = 2.0 / alpha
            B = 4.0 * m * A
    x1, x2 = math.log(A), math.log(B - m * A)
    scale = max(alpha, beta)

    def norm(A, B):
        try:
            f1, f2 = _spread_residuals(A, B, alpha, beta, lam)
            return math.hypot(f1 / alpha, f2 / beta), f1, f2
        except OverflowError:
            return math.inf, math.inf, math.inf

    err, f1, f2 = norm(A, B)
    rejections = 0
    for _ in range(_MAX_ITER):
        if err <= _SOLVE_TOL:
            return A, B
        d1A, d1B, d2A, d2B = _spread_jacobian(A, B, lam)
        # chain rule through A = exp(x1), B = exp(x2) + m*exp(x1)
        g11 = d1A * A + d1B * m * A
        g12 = d1B * (B - m * A)
        g21 = d2A * A + d2B * m * A
        g22 = d2B * (B - m * A)
        det = g11 * g22 - g12 * g21
        if det == 0.0 or not math.isfinite(det):
            return None
        s1 = -(g22 * f1 - g12 * f2) / det
        s2 = -(-g21 * f1 + g11 * f2) / det
        step = 1.0
        accepted = False
        for _ in range(25):
            nx1, nx2 = x1 + step * s1, x2 + step * s2
            if abs(nx1) < 300 and abs(nx2) < 300:
                nA = math.exp(nx1)
                nB = math.exp(nx2) + m * nA
                nerr, nf1, nf2 = norm(nA, nB)
                if nerr < err:
                    x1, x2, A, B = nx1, nx2, nA, nB
                    err, f1, f2 = nerr, nf1, nf2
                    accepted = True
                    break
            step *= 0.5
        if accepted:
            rejections = 0
        else:
            rejections += 1
            if rejections >= 20:
                return None
    if err <= 1e-10 * max(1.0, scale):
        return A, B
    return None


def _solve_spread_bisection(alpha, beta, lam):
    """Nested bisection fallback: outer on B, inner on A.

    For fixed B the first residual is strictly decreasing in A, so the
    inner solve brackets ``A`` in ``(0, B/m)``; the outer residual then
    changes sign exactly once in ``B``.
    """
    m = max(1.0, abs(lam))

    def inner(B):
        lo, hi = 1e-300, B / m
        # f1 -> +inf as A -> 0+; require f1 < 0 at A = B/m
        f_hi = 2.0 * m / B + 2.0 * lam / B - alpha
        if f_hi >= 0.0:
            return None
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            f = 2.0 / mid + 2.0 * lam / B - alpha
            if f > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-16 * hi:
                break
        return 0.5 * (lo + hi)

    def outer(B):
        A = inner(B)
        if A is None:
            return None
        return (B - A) ** 2 * (1.0 / A - lam / B) / 8.0 - beta

    b_min = max((2.0 * m + 2.0 * lam) / alpha, 0.0)
    lo = b_min * (1.0 + 1e-12) + 1e-300
    f_lo = outer(lo)
    hi = max(2.0 * lo, 1.0 / alpha)
    f_hi = outer(hi)
    grow = 0
    while f_hi is not None and f_hi < 0.0:
        lo, f_lo = hi, f_hi
        hi *= 4.0
        f_hi = outer(hi)
        grow += 1
        if grow > 400:
            raise NumericError("support solve: failed to bracket outer root",
                               residual=f_hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = outer(mid)
        if f_mid is None or f_mid < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    B = 0.5 * (lo + hi)
    return inner(B), B


@lru_cache(maxsize=4096)
def _solve_spread_cached(alpha, beta, lam):
    sol = _solve_spread_newton(alpha, beta, lam)
    if sol is None:
        sol = _solve_spread_bisection(alpha, beta, lam)
        sol = _solve_spread_newton(alpha, beta, lam, guess=sol) or sol
    return sol


def solve_spread(p, guess=None):
    """Spread coordinates ``(A, B)`` for natural parameters ``p``.

    ``guess`` optionally warm-starts the Newton iteration (used by the
    small-``beta`` continuation sweeps).
    """
    require_valid(p)
    if guess is not None:
        sol = _solve_spread_newton(p.alpha, p.beta, p.lam, guess=guess)
        if sol is not None:
            return SpreadForm(sol[0], sol[1], p.lam)
    A, B = _solve_spread_cached(p.alpha, p.beta, p.lam)
    return SpreadForm(A, B, p.lam)


def solve_support(p, guess=None):
    """Support endpoints ``(a, b)`` for natural parameters ``p``.

    Solves the two-equation system via spread coordinates; the result
    satisfies both defining equations to near machine precision and the
    admissibility bound automatically.

    Raises
    ------
    NumericError
        If neither the Newton iteration nor the bisection fallback
        converges: a residual above ``1e-9`` relative to the largest term
        it cancels (carries that relative residual).
    """
    sf = solve_spread(p, guess=guess)
    s = reparameterize(sf)
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

    In spread coordinates:

        gamma = 2*(lam*A**2 + A*B - 2*B**2) / (B*(B - A)**2)
        delta = -2*(B + lam*A) / (B*(B - A))
        eta   = 2*B / (A*(B - lam*A))
    """
    sf = solve_spread(p)
    A, B, lam = sf.A, sf.B, sf.lam
    gamma = 2.0 * (lam * A ** 2 + A * B - 2.0 * B ** 2) / (B * (B - A) ** 2)
    delta = -2.0 * (B + lam * A) / (B * (B - A))
    eta = 2.0 * B / (A * (B - lam * A))
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
