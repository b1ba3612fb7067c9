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
