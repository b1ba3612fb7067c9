import pytest


@pytest.fixture(scope="session")
def support40():
    """Support endpoints ``(a, b)`` of ``mu(alpha, beta, lam)`` to 40 digits.

    Independent of the package's solver: the support ratio ``t = A/B`` is
    bracketed on ``(0, 1/max(1, |lam|))`` as a root of
    ``(1 - lam t)(1 + lam t)(1 - t)**2 = 4 alpha beta t**2``, and the
    endpoints it gives are polished on the two defining equations.
    Returns mpmath numbers; skips the test when mpmath is missing.
    """
    mp = pytest.importorskip("mpmath")

    def solve(p):
        with mp.workdps(40):
            al, be, la = (mp.mpf(v) for v in (p.alpha, p.beta, p.lam))

            def ratio_equation(t):
                return ((1 - la * t) * (1 + la * t) * (1 - t) ** 2
                        - 4 * al * be * t * t)

            def equations(a, b):
                g = mp.sqrt(a * b)
                return [1 - la + al * g - be * (a + b) / (2 * a * b),
                        1 + la + be / g - al * (a + b) / 2]

            t = mp.findroot(ratio_equation, (0, 1 / max(1, abs(la))),
                            solver="bisect")
            B = 2 * (1 + la * t) / (al * t)
            return mp.findroot(equations, (B * (1 - mp.sqrt(t)) ** 2 / 4,
                                           B * (1 + mp.sqrt(t)) ** 2 / 4))

    return solve


@pytest.fixture(scope="session")
def roots40(support40):
    """``(alpha, beta, delta, eta)`` of ``mu(alpha, beta, lam)`` as mpmath
    numbers, ``delta`` and ``eta`` on the 40-digit support.

    ``spectral_roots``' ``delta = -2 (1 + lam t)/(B (1 - t))`` and
    ``eta = 2/(A (1 - lam t))``, ``t = A/B``, with ``1 + lam t = alpha A/2``
    and ``1 - lam t = 8 beta A/(B - A)**2`` from the spread form of
    ``(alpha, beta)``, and ``B - A = 4 sqrt(ab)``: nothing cancels.
    """
    mp = pytest.importorskip("mpmath")

    def roots(p):
        a, b = support40(p)
        with mp.workdps(40):
            alpha, beta = mp.mpf(p.alpha), mp.mpf(p.beta)
            g = mp.sqrt(a * b)
            A = (mp.sqrt(b) - mp.sqrt(a)) ** 2
            return alpha, beta, -alpha * A / (4 * g), (2 * g / A) ** 2 / beta

    return roots


@pytest.fixture(scope="session")
def mass_below40():
    """Mass of ``fgig_density`` on ``(a, x)`` to 40 digits, for ``x`` the
    exact point ``mid + rad*cos(theta)`` of the support ``(a, b)``, or the
    float ``x`` itself when given.

    ``mass_below(p, a, b, theta=None, x=None)`` integrates the density
    written in mpmath with ``mp.quad``, with breakpoints crowding ``a``
    geometrically down to a hundredth of ``a``, where the ``1/x**2`` term
    varies.
    Skips the test when mpmath is missing.
    """
    mp = pytest.importorskip("mpmath")

    def mass_below(p, a, b, theta=None, x=None):
        with mp.workdps(40):
            a, b = mp.mpf(a), mp.mpf(b)
            al, be = mp.mpf(p.alpha), mp.mpf(p.beta)
            g = mp.sqrt(a * b)
            x = (mp.mpf(x) if theta is None
                 else (a + b) / 2 + (b - a) / 2 * mp.cos(mp.mpf(theta)))
            if x <= a:
                return 0.0

            def rho(t):
                return (mp.sqrt((t - a) * (b - t))
                        * (al / t + be / (g * t * t)) / (2 * mp.pi))

            pts, step = [x], x - a
            while step > a / 100:
                step /= 100
                pts.append(a + step)
            return float(mp.quad(rho, [a] + pts[::-1]))

    return mass_below
