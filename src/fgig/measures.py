"""Compactly supported spectral measures: atoms plus a density.

The absolutely continuous laws handled here all have densities of the form

    rho(x) = (x - lo)**p * (hi - x)**q * g(x),       lo < x < hi,

with ``g`` smooth and positive and edge exponents ``p, q >= -1/2`` (both
``1/2`` for semicircle-type edges).  Integration against such a measure
uses Gauss--Jacobi nodes matched to the edge exponents, which makes the
quadrature spectrally accurate: for the fGIG family ``g`` is a rational
function with poles only at the origin.

Every measure carries its own a.c. cdf, as it carries its Cauchy
transform.  In the substitution ``x = mid + rad*cos(theta)``, which absorbs
the edge singularities, each law gives the mass above ``x`` in closed form
in ``theta`` (a convolution output by a sine series), read at
``theta(x)`` by ``cdf`` for :func:`kolmogorov_distance` and
:func:`levy_distance` alike.  The Levy metric is the largest vertical gap
between the two completed cdf graphs along the lines ``x + y = s``, each
graph a cubic Hermite in ``s`` through knots with slopes
``rho/(1 + rho)`` (1 along an atom's jump, at least the secant at a
support's end), taken once on the merged knots and midpoints with no
tolerance.  A law keeps only the knots'
abscissas, at the angles ``k pi/N``; their heights come from its ``cdf``,
once per law.
Every absolutely continuous measure is built this way or is an affine or
reciprocal image of one; a convolution output is nothing but its chopped
Chebyshev coefficient vector, whose density, Cauchy transform and mass
above ``x`` are three sums over it.

Every measure carries its own Cauchy transform, written with
``r(z) = sqrt(z - lo) * sqrt(z - hi)`` (principal roots, so the only cut
is the support): the closed form of its law for the builders, a
Chebyshev series for a convolution output, the sum over atoms for an
atomic measure; the affine and reciprocal maps carry it, and the cdf,
through the change of variables.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError
from .params import solve_support

_TWO_PI = 2.0 * math.pi
_DEFAULT_KNOTS = 4096  # angular intervals between the cdf knots
_NARROW = 0.25  # rho below which _rational_upper_mass cancels by hand
_CHOP_TOL = np.finfo(float).eps  # relative noise level of a Chebyshev series


@dataclass(frozen=True, slots=True)
class FreePoissonParams:
    """Marchenko--Pastur parameters: jump scale and rate, both positive."""

    jump: float
    rate: float

    def __post_init__(self):
        if not (self.jump > 0 and self.rate > 0):
            raise DomainError("free Poisson parameters must be positive")


@dataclass(frozen=True, kw_only=True)
class SpectralMeasure:
    """Probability measure = atoms + absolutely continuous part.

    ``nodes``/``weights`` integrate the a.c. part: ``sum(w * f(x))``
    approximates ``integral f d(mu_ac)``.  ``density`` is a vectorized
    evaluator vanishing outside ``support``.  ``ac_cdf`` gives the a.c.
    mass at or below ``x`` as an array, vectorized; its total need not
    equal the weights' sum, and atoms are added by ``cdf``.  ``cdf_x``
    holds the abscissas of the knots of the Levy distance's completed
    graph, whose heights come from ``cdf``; it is empty for an atomic
    measure.
    ``chebyshev`` marks nodes of the Gauss--Chebyshev (second kind) rule,
    ``x_j = mid + rad*cos(j pi/(n+1))`` in order, whose uniform angles
    the log-energy quadrature needs.  ``cauchy_fn`` is the vectorized
    Cauchy transform of the whole measure, atoms included.
    """

    atoms: tuple
    support: Optional[tuple]
    density: Optional[Callable]
    nodes: np.ndarray
    weights: np.ndarray
    cdf_x: np.ndarray
    chebyshev: bool = field(default=False, repr=False)
    cauchy_fn: Callable = field(repr=False)
    ac_cdf: Callable = field(repr=False)

    # -- basic functionals -------------------------------------------------

    def mass(self):
        return sum(w for _, w in self.atoms) + float(np.sum(self.weights))

    def cdf(self, x):
        """Right-continuous distribution function, vectorized."""
        x = np.asarray(x, dtype=float)
        out = self.ac_cdf(x)
        for loc, w in self.atoms:
            out = out + w * (x >= loc)
        return out if out.ndim else float(out)

    def cdf_left(self, x):
        """Left limit of the distribution function at ``x``."""
        step = sum(w for loc, w in self.atoms if loc == x)
        return float(self.cdf(x)) - step

    def breakpoints(self):
        """Evaluation grid dense enough to locate sup-distances."""
        return np.concatenate(([loc for loc, _ in self.atoms], self.cdf_x))

    @cached_property
    def _graph(self):
        """The :func:`_completed_graph` of this law, built on first use;
        ``replace`` starts a new law without it."""
        return _completed_graph(self)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _knot_angles(n_knots):
    """``sin(theta/2)`` and ``cos(theta/2)`` at the knot angles
    ``theta = k pi/N``, ``k = 0..N``; shared, so read-only.

    The last angle can round off ``pi``, so its pair is set to that of
    ``pi``, ``(1, 0)``.
    """
    theta = np.arange(n_knots + 1) * math.pi / n_knots
    out = (np.sin(0.5 * theta), np.cos(0.5 * theta))
    out[0][-1], out[1][-1] = 1.0, 0.0
    for a in out:
        a.flags.writeable = False
    return out


def _rational_upper_mass(lo, hi, c1, c2, theta, sh, ch):
    """Mass above ``x = mid + rad*cos(theta)`` of the density
    ``sqrt((x-lo)(hi-x)) (c1/x + c2/x**2) / (2 pi)``, ``0 <= lo < hi``,
    given ``sh, ch = sin(theta/2), cos(theta/2)``.

    With ``s = sqrt(lo*hi)`` and ``h = theta/2`` the mass is
    ``(c1 F + c2 G)/(2 pi)``, where ``F = rad**2 I1``, ``G = rad**2 I2``
    and ``I_k`` integrates ``sin(phi)**2 / x(phi)**k`` over ``(0, theta)``:

        F = mid theta - rad sin(theta) - 2 s A,
        G = 2 (mid/s) A - theta + rad sin(theta)/x,
        A = arctan(sqrt(lo/hi) tan h),    x = hi cos(h)**2 + lo sin(h)**2,

    and ``G = 2 tan h - theta`` at ``lo = 0``.

    On a narrow support, ``rho = (hi - lo)/(sqrt(lo) + sqrt(hi))**2``
    below ``_NARROW``, both lose digits as ``1/rho**2``.  There, with
    ``S = (sqrt(lo) + sqrt(hi))**2``, ``D = arg(1 + rho e^{i theta})``
    ``= arctan(y)``, ``y = rho sin(theta)/E``, ``E = 1 + rho cos(theta)``
    and ``N = |1 + rho e^{i theta}|**2``, the terms of first order in
    ``rho`` cancel by hand:

        F = S/2 (rho**2 (theta - D) + T - rho**2 sin(theta) cos(theta)/E),
        G = 2 (rho**2 (theta - D) + Q) / (1 - rho**2),
        Q = -T - rho**2 sin(theta) ((1 + rho**2) cos(theta) + 2 rho)/(N E),

    and ``T = arctan(y) - y`` is summed as its series.  ``sin`` and
    ``cos`` of ``h`` stand in for ``tan h``, and ``x``, ``E`` and ``N``
    are sums of positive terms.
    """
    sin_t = 2.0 * sh * ch
    sq = (math.sqrt(lo) + math.sqrt(hi)) ** 2
    rho = (hi - lo) / sq
    if rho >= _NARROW:
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        s = math.sqrt(lo) * math.sqrt(hi)
        A = np.arctan2(math.sqrt(lo / hi) * sh, ch)
        F = mid * theta - rad * sin_t - 2.0 * s * A
        if c2 == 0.0:  # lo may be 0 here
            return c1 * F / _TWO_PI
        x = hi * ch * ch + lo * sh * sh
        G = (2.0 * (mid / s) * A - theta + rad * sin_t / x if lo
             else 2.0 * sh / ch - theta)
        return (c1 * F + c2 * G) / _TWO_PI
    rr = rho * rho
    ch2, sh2 = ch * ch, sh * sh
    e = (1.0 + rho) * ch2 + (1.0 - rho) * sh2  # 1 + rho cos(theta)
    cos_t = (ch - sh) * (ch + sh)
    y = rho * sin_t / e
    y2 = y * y
    # arctan(y) - y = -y**3 sum_k (-y**2)**k/(2k+3), cut where
    # (y**2)**k < 1e-17 at the largest y**2, rho**2/(1 - rho**2); one term
    # where rho**2 underflows
    acc = np.zeros_like(y)
    terms = math.ceil(math.log(1e-17) / math.log(rr / (1.0 - rr))) if rr else 0
    for k in range(terms, -1, -1):
        acc = 1.0 / (2 * k + 3) - y2 * acc
    T = -y * y2 * acc
    base = rr * (theta - np.arctan2(rho * sin_t, e))
    F = 0.5 * sq * (base + T - rr * sin_t * cos_t / e)
    if c2 == 0.0:
        return c1 * F / _TWO_PI
    nsq = (1.0 + rho) ** 2 * ch2 + (1.0 - rho) ** 2 * sh2  # |1 + rho e^it|^2
    Q = -T - rr * sin_t * (cos_t * (1.0 + rr) + 2.0 * rho) / (nsq * e)
    G = 2.0 * (base + Q) / ((1.0 - rho) * (1.0 + rho))
    return (c1 * F + c2 * G) / _TWO_PI


@lru_cache(maxsize=16)  # at most 2 MB at 8192 nodes
def _edge_matched_rule(n, p_exp, q_exp):
    """Gauss nodes/weights on [-1, 1] for weight (1-t)**q (1+t)**p;
    shared, so read-only.

    Closed forms of the Chebyshev family; only the two exponent pairs
    used by this package are supported.
    """
    k = np.arange(1, n + 1)
    if p_exp == 0.5 and q_exp == 0.5:
        ang = k * math.pi / (n + 1)
        out = (np.cos(ang), math.pi / (n + 1) * np.sin(ang) ** 2)
    elif p_exp == -0.5 and q_exp == 0.5:
        ang = 2.0 * k * math.pi / (2 * n + 1)
        w = 4.0 * math.pi / (2 * n + 1) * np.sin(0.5 * ang) ** 2
        out = (np.cos(ang), w)
    else:
        raise DomainError(f"unsupported edge exponents ({p_exp}, {q_exp})")
    for a in out:
        a.flags.writeable = False
    return out


def _jacobi_density(lo, hi, g, p_exp, q_exp, x):
    """``(x-lo)**p (hi-x)**q g(x)`` inside ``(lo, hi)``, zero outside;
    vectorized in ``x``."""
    x = np.asarray(x, dtype=float)
    inside = (x > lo) & (x < hi)
    out = np.zeros_like(x)
    if np.any(inside):
        xi = np.where(inside, x, 0.5 * (lo + hi))
        vals = np.power(xi - lo, p_exp) * np.power(hi - xi, q_exp) * g(xi)
        out = np.where(inside, vals, 0.0)
    return out if out.ndim else float(out)


def _jacobi_measure(lo, hi, g, p_exp=0.5, q_exp=0.5, n=256, atoms=(), *,
                    cauchy_fn, upper, n_knots=_DEFAULT_KNOTS):
    """Measure with density ``(x-lo)**p (hi-x)**q g(x)`` on ``(lo, hi)``.

    ``upper(theta, sin(theta/2), cos(theta/2))`` is the a.c. mass above
    ``mid + rad*cos(theta)``, vectorized; ``cdf`` reads it at the angle
    of ``x``.  The knot abscissas ``hi cos(theta/2)**2 + lo sin(theta/2)**2``
    at the cached angles ``_knot_angles(n_knots)`` keep their relative
    accuracy at both edges.
    """
    if not hi > lo:
        raise DomainError("support must be a nondegenerate interval")
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    t, w = _edge_matched_rule(n, p_exp, q_exp)
    nodes = mid + rad * t
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.float64(rad) ** (p_exp + q_exp + 1.0) * w * g(nodes)
    if not np.all(np.isfinite(weights)):  # as for a support ~1e300 wide
        raise NumericError("weights out of floating-point range")
    sh, ch = _knot_angles(n_knots)
    total = float(upper(math.pi, 1.0, 0.0))  # the a.c. mass

    def ac_cdf(x):
        # sin and cos of theta(x)/2, exactly 1 and 0 beyond the edges
        x = np.asarray(x, dtype=float)
        c = np.sqrt(np.clip((x - lo) / (hi - lo), 0.0, 1.0))
        s = np.sqrt(np.clip((hi - x) / (hi - lo), 0.0, 1.0))
        return np.clip(total - upper(2.0 * np.arctan2(s, c), s, c), 0.0, total)

    return SpectralMeasure(atoms=tuple(atoms), support=(lo, hi),
                           density=partial(_jacobi_density, lo, hi, g,
                                           p_exp, q_exp),
                           nodes=nodes, weights=weights,
                           cdf_x=(hi * ch * ch + lo * sh * sh)[::-1],
                           chebyshev=(p_exp == 0.5 and q_exp == 0.5),
                           cauchy_fn=cauchy_fn, ac_cdf=ac_cdf)


def _atoms_cauchy(atoms, z):
    """``sum w / (z - loc)`` over the atoms."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for loc, w in atoms:
        out = out + w / (z - loc)
    return out


def atom_measure(atoms):
    """Purely atomic measure, e.g. a point mass."""
    atoms = tuple(atoms)
    return SpectralMeasure(atoms=atoms, support=None, density=None,
                           nodes=np.array([]), weights=np.array([]),
                           cdf_x=np.array([]),
                           cauchy_fn=partial(_atoms_cauchy, atoms),
                           ac_cdf=np.zeros_like)


# ---------------------------------------------------------------------------
# closed-form Cauchy transforms
# ---------------------------------------------------------------------------

def _support_root(z, lo, hi):
    """``sqrt(z - lo) * sqrt(z - hi)``: analytic off ``[lo, hi]``, ~ ``z``
    at infinity, and ``-sqrt(lo*hi)`` at the origin when ``lo > 0``."""
    return np.sqrt(z - lo) * np.sqrt(z - hi)


def _root_sum(u, r, prod):
    """``u + r`` given ``(u + r) * (u - r) == prod``, free of cancellation.

    Where ``u - r`` is the larger factor, the sum is taken as
    ``prod / (u - r)`` instead of being formed directly.
    """
    s, d = u + r, u - r
    alt = np.abs(d) > np.abs(s)
    return np.where(alt, prod / np.where(alt, d, 1.0), s)


def _rational_cauchy(alpha, beta, a, b, atom):
    """Closed-form Cauchy transform of the law of :func:`_rational_law` on
    ``[a, b]``, ``a >= 0``, with ``atom`` at the origin.

    With ``g = sqrt(ab)``, ``A = (sqrt(b) - sqrt(a))**2`` and
    ``B = (sqrt(a) + sqrt(b))**2``, the two partial fractions of the
    density, ``sqrt((x-a)(b-x))/(2 pi)`` times ``alpha/x`` and times
    ``beta/(g x**2)``, have the transforms

        alpha * A / (2 D),      beta * A * B / (4 a b D W),
        D = z - g + r(z),       W = z + g - r(z),

    and the atom ``atom/z``.  Both factors are free of cancellation: ``D``
    never vanishes and dominates its conjugate (``(z - g)**2 - r**2 =
    A z``), and ``W`` is formed by :func:`_root_sum` against
    ``(z + g)**2 - r**2 = B z``.  At ``beta = 0`` the second fraction is
    absent, and ``a`` may be 0.  The textbook form of ``mu(alpha, beta,
    lam)``

        (alpha z**2 + (1-lam) z - beta - (alpha z + beta/g) r) / (2 z**2)

    loses relative accuracy as ``eps (a/|z|)**2`` near the origin, and its
    rationalization has a removable zero over zero on the negative axis.
    """
    sa, sb = math.sqrt(a), math.sqrt(b)
    g = sa * sb
    A = ((b - a) / (sa + sb)) ** 2
    B = (sa + sb) ** 2
    k = beta / (2.0 * a) * (B / b) if beta else 0.0

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        r = _support_root(z, a, b)
        out = A / (2.0 * (z - g + r))
        if beta:
            out = out * (alpha + k / _root_sum(z + g, -r, B * z))
        else:
            out = alpha * out
        return out + atom / z if atom else out

    return cauchy_fn


def _standard_chop(c):
    """Number of leading Chebyshev coefficients worth keeping.

    ``standardChop`` of Aurentz & Trefethen (Chopping a Chebyshev series,
    ACM TOMS 43, 2017) at ``tol = _CHOP_TOL``: find a plateau of the
    normalized envelope ``e_j = max |c_{j..}|``, a stretch ``j..1.25j+5``
    over which it falls by less than ``3 (1 - log(e_j)/log(tol))``, and
    cut where the envelope plus a line tilted to the left is least.  With
    no plateau, or fewer than 17 terms, all stay.  Indices are 1-based.
    """
    n, tol = c.size, _CHOP_TOL
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(c)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 3.0 - 3.0 * np.log(e1) / math.log(tol)
        plateau = (e1 == 0.0) | (e2 / e1 > r)
    if not plateau.any():
        return n
    k = int(np.argmax(plateau))
    point, j2 = j[k] - 1, j2[k]
    if env[point - 1] == 0.0:
        return point
    j3 = np.count_nonzero(env >= tol ** (7.0 / 6.0))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


def _chebyshev_coefficients(g):
    """``c_k`` with ``g = sum_k c_k U_k(t)`` from the values ``g_j`` at
    ``t_j = cos(theta_j)``, ``theta_j = j pi/(n+1)``, ``j = 1..n``:
    ``c_k = 2/(n+1) sum_j g_j sin(theta_j) sin((k+1) theta_j)``, one DST-I
    taken by a zero-padded FFT, chopped by :func:`_standard_chop`.  A chop
    with no plateau raises ``NumericError``: ``g`` is not resolved."""
    n = g.size
    theta = np.arange(1, n + 1) * math.pi / (n + 1)
    f = np.concatenate(([0.0], g * np.sin(theta)))
    c = (-2.0 / (n + 1)) * np.fft.rfft(f, 2 * (n + 1)).imag[1:n + 1]
    keep, mag = _standard_chop(c), np.abs(c)
    if keep == n:  # the residual is the upper half's largest, relative
        raise NumericError("Chebyshev series not resolved on its nodes",
                           residual=float(np.max(mag[n // 2:]) / np.max(mag)))
    return c[:keep]


def _clenshaw_u(c, t):
    """``sum_k c_k U_k(t)`` by Clenshaw's recurrence."""
    t2 = 2.0 * np.asarray(t, dtype=float)
    b1 = b2 = np.zeros_like(t2)
    for ck in c[::-1]:
        b1, b2 = ck + t2 * b1 - b2, b1
    return b1


def _chebyshev_measure(lo, hi, values):
    """Measure with density ``sqrt((x-lo)(hi-x)) g(x)``, ``g`` kept as the
    chopped :func:`_chebyshev_coefficients` of its ``values`` at the ``n``
    Chebyshev nodes, in ``t = (x - mid)/rad``; three sums over them:

    - ``g`` itself by :func:`_clenshaw_u`;
    - the Cauchy transform by Horner: each ``sqrt(1 - t**2) U_k(t)``
      transforms to ``pi w**(k+1)``, ``w = rad/(z - mid + r(z))``;
    - the mass above ``mid + rad*cos(theta)``: the density is
      ``rad sum_k c_k sin((k+1) theta)``, so the mass is
      ``rad**2/2 (c_0 theta + sum_{m>=1} e_m sin(m theta))`` with
      ``e_m = (c_m - c_{m-2})/m``, the sine sum
      ``sin(theta) sum_m e_m U_{m-1}(cos(theta))`` by :func:`_clenshaw_u`.

    The knot abscissas sit at the node angles and the two edges.
    """
    c = _chebyshev_coefficients(values)
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    horner = math.pi * rad * c[::-1]  # highest order first
    e = np.append(c, (0.0, 0.0)) - np.append((0.0, 0.0), c)  # c_m - c_{m-2}
    e = e[1:] / np.arange(1, c.size + 2)

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        w = rad / (z - mid + _support_root(z, lo, hi))
        acc = np.zeros_like(w)
        for ck in horner:
            acc = acc * w + ck
        return acc * w

    def upper(theta, sh, ch):
        return 0.5 * rad * rad * (c[0] * theta + 2.0 * sh * ch
                                  * _clenshaw_u(e, (ch - sh) * (ch + sh)))

    return _jacobi_measure(lo, hi, lambda x: _clenshaw_u(c, (x - mid) / rad),
                           0.5, 0.5, values.size, cauchy_fn=cauchy_fn,
                           upper=upper, n_knots=values.size + 1)


def _semicircle_cauchy(center, radius):
    """``G(z) = 2 / (w + sqrt(w - R) sqrt(w + R))`` with ``w = z - center``."""
    lo, hi = center - radius, center + radius

    def cauchy_fn(z):
        z = np.asarray(z, dtype=complex)
        return 2.0 / (z - center + _support_root(z, lo, hi))

    return cauchy_fn


def _rational_factor(alpha, beta, sab, x):
    """Smooth factor ``(alpha/x + beta/(sab x**2))/(2 pi)`` of the
    family's density, ``sab = sqrt(lo*hi)``."""
    return (alpha / x + beta / (sab * x * x)) / _TWO_PI


def fgig_density(p, x):
    """Density of ``mu(alpha, beta, lam)``: zero outside ``[a, b]`` and

        (1/2pi) * sqrt((x-a)(b-x)) * (alpha/x + beta/(sqrt(ab) x^2))

    inside, the density of :func:`build_fgig`.  Vectorized in ``x``;
    ``NumericError`` where a value is out of floating-point range, as where
    the support is so close to 0 that ``x**2`` underflows.
    """
    s = solve_support(p)
    g = partial(_rational_factor, p.alpha, p.beta,
                math.sqrt(s.a) * math.sqrt(s.b))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _jacobi_density(s.a, s.b, g, 0.5, 0.5, x)
    if not np.all(np.isfinite(out)):
        raise NumericError("density out of floating-point range")
    return out


def _crowds_origin(lo, hi):
    """Whether the origin, the smooth factor's pole, lies within 1e-2
    support widths below ``lo``: there :func:`_rational_law` bumps ``n`` and
    gives the law at least ``2*_DEFAULT_KNOTS`` knots, as the cdf's ramp
    toward the origin needs for the Levy graph."""
    return lo / (hi - lo) < 1e-2


def _rational_law(lo, hi, alpha, beta, n, atom=0.0):
    """The family's law on ``(lo, hi)``, ``0 <= lo < hi``: the density

        sqrt((x-lo)(hi-x)) (alpha/x + beta/(sqrt(lo hi) x**2)) / (2 pi)

    with ``alpha > 0`` and ``beta >= 0``, plus ``atom`` at the origin.
    ``mu(alpha, beta, lam)`` is this law on its support; the
    Marchenko--Pastur law ``nu(jump, rate)`` has ``alpha = 1/jump``,
    ``beta = 0`` and the atom ``max(0, 1 - rate)``; the small-beta limit
    at ``|lam| < 1`` has ``(0, 2(1+lam)/alpha)``, ``beta = 0`` and the
    atom ``(1-lam)/2``.

    Spectral quadrature: the smooth factor has its only poles at the
    origin, so where the support crowds it (:func:`_crowds_origin`) the
    node count is bumped to at least ``B = 14/sqrt(lo/(hi - lo))``, both
    capped at 8192, and the law has ``max(2*_DEFAULT_KNOTS, 4 B)`` cdf
    knots; elsewhere it has ``_DEFAULT_KNOTS``.  The knots are the law's
    own, so a caller's ``n`` moves no cdf or Levy reading.  At
    ``lo == 0`` (then ``beta == 0``) the pole meets the edge: the density
    is ``x**(-1/2) sqrt(hi - x) alpha/(2 pi)``, and the nodes switch to
    the Gauss--Jacobi rule of that ``-1/2`` edge.
    """
    if n < 16:
        raise DomainError("node count must be at least 16")
    knots = _DEFAULT_KNOTS
    if lo == 0.0:
        def g(x, c=alpha / _TWO_PI):
            return np.full_like(np.asarray(x, dtype=float), c)

        edge, c2 = -0.5, 0.0
    else:
        sab = math.sqrt(lo) * math.sqrt(hi)
        g = partial(_rational_factor, alpha, beta, sab)
        edge, c2 = 0.5, beta / sab
        if _crowds_origin(lo, hi):
            bump = int(min(8192, 14.0 / math.sqrt(lo / (hi - lo))))
            n, knots = min(8192, max(n, bump)), max(2 * knots, 4 * bump)
    return _jacobi_measure(
        lo, hi, g, edge, 0.5, n, ((0.0, atom),) if atom else (),
        cauchy_fn=_rational_cauchy(alpha, beta, lo, hi, atom),
        upper=partial(_rational_upper_mass, lo, hi, alpha, c2),
        n_knots=knots)


def build_fgig(p, n=256):
    """Construct ``mu(alpha, beta, lam)`` as a :class:`SpectralMeasure`,
    the :func:`_rational_law` on its support."""
    s = solve_support(p)
    return _rational_law(s.a, s.b, p.alpha, p.beta, n)


def build_free_poisson(fp, n=256):
    """Construct the Marchenko--Pastur law ``nu(jump, rate)``, the
    :func:`_rational_law` with ``alpha = 1/jump`` and ``beta = 0``.

    An atom of weight ``max(0, 1 - rate)`` sits at the origin; the a.c.
    part lives on ``(jump(1-sqrt(rate))**2, jump(1+sqrt(rate))**2)``,
    whose left edge is formed as ``jump((1-rate)/(1+sqrt(rate)))**2``,
    free of cancellation near ``rate = 1``.  Within 1e-12 of ``rate == 1``
    the left edge is 0 and there is no atom.
    """
    gam, rate = fp.jump, fp.rate
    sq = math.sqrt(rate)
    if abs(rate - 1.0) <= 1e-12:
        lo, atom = 0.0, 0.0
    else:
        lo, atom = gam * ((1.0 - rate) / (1.0 + sq)) ** 2, max(0.0, 1.0 - rate)
    return _rational_law(lo, gam * (1.0 + sq) ** 2, 1.0 / gam, 0.0, n, atom)


def build_semicircle(center=0.0, radius=2.0, n=256):
    """Semicircle law of the given center and radius (variance r**2/4)."""
    if not radius > 0:
        raise DomainError("radius must be positive")

    def g(x, c=2.0 / (math.pi * radius ** 2)):
        return np.full_like(np.asarray(x, dtype=float), c)

    def upper(theta, sh, ch):  # (theta - sin(theta) cos(theta))/pi
        return (theta - 2.0 * sh * ch * (ch - sh) * (ch + sh)) / math.pi

    return _jacobi_measure(center - radius, center + radius, g, 0.5, 0.5, n,
                           cauchy_fn=_semicircle_cauchy(center, radius),
                           upper=upper)


# ---------------------------------------------------------------------------
# functionals and maps
# ---------------------------------------------------------------------------

def moment(m, k):
    """k-th moment; ``k`` may be -1 or -2 when no mass sits near zero."""
    k = int(k)
    if k < -2:
        raise DomainError("moments below order -2 are not supported")
    if k < 0:
        if any(abs(loc) <= 1e-12 for loc, _ in m.atoms):
            raise DomainError("negative moment of a measure with mass at zero")
        if m.support is not None and m.support[0] <= 1e-12:
            raise DomainError("negative moment requires support bounded away "
                              "from zero")
    return float(integrate(m, lambda x: x ** float(k)))


def mode(p):
    """Location of the density maximum of ``mu(alpha, beta, lam)``.

    The derivative's numerator reduces to a quadratic (the cubic terms
    cancel), :func:`mode_quadratic`; its unique root in ``(a, b)`` is the
    mode.

    Raises
    ------
    NumericError
        If no root lands in ``(a, b)``, as where a coefficient leaves
        floating-point range: a valid triple always has a mode.
    """
    s = solve_support(p)
    c2, c1, c0 = mode_quadratic(p)
    disc = c1 * c1 - 4.0 * c2 * c0
    if not disc >= 0:
        raise NumericError("mode quadratic has no real root")
    sq = math.sqrt(disc)
    roots = []
    if c2 != 0.0:
        # numerically stable pair
        qq = -0.5 * (c1 + math.copysign(sq, c1))
        roots = [qq / c2]
        if qq != 0.0:
            roots.append(c0 / qq)
    else:
        roots = [-c0 / c1]
    sab = math.sqrt(s.a) * math.sqrt(s.b)
    inside = [x for x in (sab * y for y in roots) if s.a < x < s.b]
    if not inside:
        raise NumericError("no quadratic root inside the support")
    return float(inside[0])


def mode_quadratic(p):
    """Coefficients ``(c2, c1, c0)`` of the mode quadratic in units of
    ``s = sqrt(a) sqrt(b)``, that is in ``y = x/s``.

    With ``q = (a + b)/s = sqrt(a/b) + sqrt(b/a)``, the support equations
    take ``alpha`` out of the derivative's numerator, which leaves

        (1 + lam) y**2 + (1 - lam + q beta/s) y - 2 beta/s = 0.

    ``beta/s`` is a term of those equations, so no coefficient forms
    ``a b``, which under- or overflows at extreme rates.
    """
    s = solve_support(p)
    ra, rb = math.sqrt(s.a), math.sqrt(s.b)
    r = p.beta / (ra * rb)
    return 1.0 + p.lam, (1.0 - p.lam) + (ra / rb + rb / ra) * r, -2.0 * r


def pushforward_reciprocal(m):
    """Image measure under ``x -> 1/x``; mass is preserved exactly.

    Requires the support (and every atom) to sit strictly inside
    ``(0, inf)``.
    """
    if any(loc <= 1e-12 for loc, _ in m.atoms):
        raise DomainError("reciprocal pushforward needs atoms away from zero")
    atoms = tuple((1.0 / loc, w) for loc, w in m.atoms)
    if m.support is None:
        return atom_measure(atoms)
    lo, hi = m.support
    if lo <= 1e-12:
        raise DomainError("reciprocal pushforward needs support inside (0, inf)")

    def density(y, _lo=1.0 / hi, _hi=1.0 / lo, _f=m.density):
        y = np.asarray(y, dtype=float)
        inside = (y > _lo) & (y < _hi)
        yi = np.where(inside, y, 1.0)
        out = np.where(inside, _f(1.0 / yi) / yi ** 2, 0.0)
        return out if out.ndim else float(out)

    nodes = 1.0 / m.nodes[::-1]
    weights = m.weights[::-1].copy()
    cdf_x = 1.0 / m.cdf_x[::-1]

    def ac_cdf(y, _f=m.ac_cdf, _total=float(m.ac_cdf(hi))):
        # mass at or above 1/y
        y = np.asarray(y, dtype=float)
        pos = y > 0
        return np.where(pos, _total - _f(1.0 / np.where(pos, y, 1.0)), 0.0)

    def quotient(z, _g=m.cauchy_fn):  # G_{1/X}(z), analytic on |z| < 1/hi
        return (1.0 - _g(1.0 / z) / z) / z

    @lru_cache(maxsize=None)
    def taylor():
        # coefficients of G_{1/X}(u/hi) at 0, -m_{k+1}/hi**k, read on
        # |u| = 0.98 at the first query near 0, so a law read only through
        # its cdf never pays for them; at |u| <= 1/2 the terms fall as
        # (0.5/0.98)**k, below 2e-19 of the largest past the 64th
        from .transforms import _circle_coefficients  # loaded on first use
        return _circle_coefficients(lambda u: quotient(u / hi), 64, 1.0)

    def cauchy_fn(z):
        # the quotient cancels where |z| hi is small, and the series, whose
        # constant term is -E X, does not
        z = np.asarray(z, dtype=complex)
        near = np.abs(z) * hi <= 0.5
        out = np.empty_like(z)
        out[~near] = quotient(z[~near])
        if near.any():
            out[near] = np.polyval(taylor()[::-1], z[near] * hi)
        return out

    return SpectralMeasure(atoms=atoms,
                           support=(float(cdf_x[0]), float(cdf_x[-1])),
                           density=density, nodes=nodes, weights=weights,
                           cdf_x=cdf_x, cauchy_fn=cauchy_fn,
                           ac_cdf=ac_cdf)


def _affine(m, scale, offset):
    """Image under ``x -> scale*x + offset`` for ``scale > 0``.

    Multiplying by ``scale = 1`` or adding ``offset = 0`` changes no
    value, so a pure shift or dilation gives the numbers it would alone.
    """
    atoms = tuple((scale * loc + offset, w) for loc, w in m.atoms)
    if m.support is None:
        return atom_measure(atoms)
    lo, hi = m.support

    def density(x, _f=m.density):
        return _f((np.asarray(x, dtype=float) - offset) / scale) / scale

    def cauchy_fn(z, _g=m.cauchy_fn):
        return _g((np.asarray(z, dtype=complex) - offset) / scale) / scale

    def ac_cdf(x, _f=m.ac_cdf):
        return _f((np.asarray(x, dtype=float) - offset) / scale)

    return replace(m, atoms=atoms,
                   support=(scale * lo + offset, scale * hi + offset),
                   density=density, nodes=scale * m.nodes + offset,
                   cdf_x=scale * m.cdf_x + offset,
                   cauchy_fn=cauchy_fn, ac_cdf=ac_cdf)


def shift(m, c):
    """Translate a measure by ``c``."""
    return _affine(m, 1.0, c)


def dilate(m, c):
    """Image under ``x -> c*x`` for ``c > 0``."""
    if not c > 0:
        raise DomainError("dilation factor must be positive")
    return _affine(m, c, 0.0)


def kolmogorov_distance(m1, m2):
    """Sup-distance of distribution functions over a merged grid.

    Atom locations contribute both their right values and left limits, so
    jumps are compared exactly.
    """
    pts = np.unique(np.concatenate([m1.breakpoints(), m2.breakpoints()]))
    if pts.size == 0:
        return 0.0
    d = float(np.max(np.abs(m1.cdf(pts) - m2.cdf(pts))))
    for loc, _ in tuple(m1.atoms) + tuple(m2.atoms):
        d = max(d, abs(m1.cdf_left(loc) - m2.cdf_left(loc)))
    return d


def _completed_graph(m):
    """Height of the completed graph of ``m``'s cdf along ``x + y = s``.

    The completed graph is the graph of the cdf with every jump filled in
    by a vertical segment, so each line ``x + y = s`` meets it once, and
    ``s`` increases along it.  Knots are the abscissas ``cdf_x`` plus, per
    atom, its left and right limits at ``loc`` (an atom on a knot replaces
    that knot), at the heights ``cdf`` gives.

    Between knots the height is the cubic Hermite with slopes
    ``dy/ds = rho/(1 + rho)``, ``rho`` the density one ulp inside the
    support, so a ``-1/2`` edge gives 1 and a ``+1/2`` edge 0, and an
    atom's segment has slope 1 at both ends.  On the interval inside the
    support at each of its ends, the edge's slope is at least the
    interval's secant: a ``+1/2`` edge's zero density holds only at the
    edge, and where the law crowds the origin that first interval can
    carry percents of the mass.
    Returns the rows ``(s, y, h, A, B, C)`` of one array: knots, their
    heights and, per interval from each knot on, its width and the cubic
    ``y + t (A + t (B + t C))`` in ``t = (s - s_j)/h``; the last (open)
    interval is flat.
    """
    if m.atoms:
        x, y = _graph_knots(m)
    else:
        x, y = m.cdf_x, m.ac_cdf(m.cdf_x)  # in order already

    rows = np.zeros((6, x.size))
    s, gy, h, a, b, c = rows  # b holds the slopes until the cubic needs it
    ends = ()
    if m.density is not None:
        lo, hi = m.support
        rho = m.density(np.clip(x, np.nextafter(lo, hi), np.nextafter(hi, lo)))
        np.divide(rho, 1.0 + rho, out=b)
        ends = np.searchsorted(x, (lo, hi), side="right") - (1, 2)
    vertical = x[:-1] == x[1:]
    np.add(x, y, out=s)
    gy[:] = y
    h, rise = h[:-1], c[:-1]
    np.subtract(s[1:], s[:-1], out=h)
    np.subtract(y[1:], y[:-1], out=rise)
    d0 = np.multiply(h, np.where(vertical, 1.0, b[:-1]), out=a[:-1])
    d1 = h * np.where(vertical, 1.0, b[1:])
    for d, j in zip((d0, d1), ends):  # the secant, h dy/ds, at an edge
        d[j] = max(d[j], rise[j])
    np.subtract(3.0 * rise - 2.0 * d0, d1, out=b[:-1])
    np.subtract(d0 + d1, 2.0 * rise, out=rise)
    np.copyto(h, np.inf, where=~(h > 0))  # a zero width reads as its start
    rows[2:, -1] = np.inf, 0.0, 0.0, 0.0  # the last (open) interval is flat
    return rows


def _graph_knots(m):
    """Knots ``(x, y)`` of the completed graph of a measure with atoms,
    sorted by ``x`` and then ``y``: the abscissas ``cdf_x`` off the atoms
    at their ``cdf``, and each atom at its ``cdf_left`` and ``cdf``."""
    locs = np.unique([loc for loc, _ in m.atoms])
    tx = m.cdf_x[~np.isin(m.cdf_x, locs)]
    x = np.concatenate((tx, locs, locs))
    y = np.concatenate((m.cdf(tx), [m.cdf_left(loc) for loc in locs],
                        m.cdf(locs)))
    order = np.lexsort((y, x))
    return x[order], y[order]


def _graph_heights(rows, s):
    """Heights at ``s`` of a :func:`_completed_graph`'s ``rows`` taken at
    the last knot at or below each point (its first knot where none is,
    so ``y[0]`` below the first knot; ``y[-1]`` above the last), by
    Horner in place."""
    gs, gy, h, a, b, c = rows
    t = np.maximum(s - gs, 0.0)
    t /= h
    y = t * c
    for k in (b, a):
        y += k
        y *= t
    return np.add(y, gy, out=y)


def levy_distance(m1, m2):
    """Levy metric: the weak-convergence distance between two laws.

    Smallest ``eps`` with ``F(x - eps) - eps <= G(x) <= F(x + eps) + eps``
    everywhere; unlike the sup-distance it tolerates atoms in one
    argument approximated by steep absolutely continuous ramps in the
    other.  It equals the largest vertical gap between the completed
    graphs of ``F`` and ``G`` along the lines ``x + y = s``:

        L(F, G) = sup_s |y_F(s) - y_G(s)|,

    with each height ``y(s)`` the cubic Hermite of
    :func:`_completed_graph`'s knots and slopes.  The sup is read once on
    the merged knots and their midpoints, with no tolerance to set.  Each
    law builds its graph once, so a curve of distances to one limit
    builds the limit's graph once.
    """
    return _graph_gap(m1._graph, m2._graph)


def _graph_gap(g1, g2):
    """Largest vertical gap between two :func:`_completed_graph` results,
    the Levy distance of their laws.

    Both knot lists are sorted, so one stable merge gives the merged knots
    and, by counting, each graph's last knot at or below each of them.
    Each graph's rows are taken once per merged knot and read at the knot
    and at the midpoint after it, which lies in the same interval.
    """
    s = np.concatenate((g1[0], g2[0]))
    if s.size == 0:
        return 0.0
    order = np.argsort(s, kind="stable")
    s = s[order]
    last = np.empty(s.size, dtype=bool)  # the last of each run of ties
    np.not_equal(s[1:], s[:-1], out=last[:-1])
    last[-1] = True
    upto1 = np.cumsum(order < g1[0].size)[last]
    upto2 = np.flatnonzero(last) + 1 - upto1
    # the knots, and the midpoints after them; the last knot has no
    # midpoint after it and reads itself twice
    pts = np.empty((2, upto1.size))
    knots = np.compress(last, s, out=pts[0])
    np.multiply(knots[:-1] + knots[1:], 0.5, out=pts[1, :-1])
    pts[1, -1] = knots[-1]
    y1 = _graph_heights(np.take(g1, upto1 - 1, axis=1, mode="clip"), pts)
    y1 -= _graph_heights(np.take(g2, upto2 - 1, axis=1, mode="clip"), pts)
    return float(np.max(np.abs(y1, out=y1)))


def integrate(m, f):
    """Integral of a vectorized function against the measure."""
    total = sum(w * f(np.asarray(loc)) for loc, w in m.atoms)
    if m.nodes.size:
        total += float(np.sum(m.weights * f(m.nodes)))
    return total
