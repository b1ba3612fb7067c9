"""Cauchy transforms carried by every measure.

Two independent oracles: the node sum of the same measure at
``Im z >= 0.1``, where it is spectrally accurate, and a 40-digit
evaluation of the textbook closed form on a 40-digit support.
"""

import numpy as np
import pytest

from fgig import DomainError, NaturalParams, solve_support
from fgig.asymptotics import limit_measure
from fgig.convolution import free_convolve
from fgig.measures import (FreePoissonParams, atom_measure, build_fgig,
                           build_free_poisson, build_semicircle, dilate,
                           pushforward_reciprocal, shift)
from fgig.transforms import cauchy, cauchy_nodes

MU = build_fgig(NaturalParams(2.0, 8.0, -1.0), 1024)
CONVOLVED = free_convolve(MU, build_free_poisson(FreePoissonParams(0.5, 1.0),
                                                 1024))

CARRIERS = {
    "fgig": MU,
    "free_poisson_rate_0.5": build_free_poisson(FreePoissonParams(0.5, 0.5),
                                                1024),
    "free_poisson_rate_1": build_free_poisson(FreePoissonParams(0.7, 1.0),
                                              1024),
    "free_poisson_rate_3": build_free_poisson(FreePoissonParams(0.5, 3.0),
                                              1024),
    "semicircle": build_semicircle(1.0, 1.5, 1024),
    "shift": shift(MU, -0.7),
    "dilate": dilate(MU, 2.5),
    "pushforward_reciprocal": pushforward_reciprocal(MU),
    "convolution_output": CONVOLVED,
    "convolution_reciprocal": pushforward_reciprocal(CONVOLVED),
    "two_atoms": atom_measure([(-1.0, 0.3), (2.0, 0.7)]),
    "limit_middle_regime": limit_measure(1.0, 0.3),
}


def node_sum(m, z):
    out = np.zeros_like(z)
    for loc, w in m.atoms:
        out = out + w / (z - loc)
    return out + np.sum(m.weights / (z[:, None] - m.nodes), axis=1)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_matches_node_sum_off_axis(name):
    m = CARRIERS[name]
    assert m.cauchy_fn is not None
    locs = [loc for loc, _ in m.atoms] + list(m.support or ())
    lo, hi = min(locs), max(locs)
    rng = np.random.default_rng(7)
    zs = (rng.uniform(lo - 1.0, hi + 1.0, 300)
          + 1j * rng.uniform(0.1, 3.0, 300))
    exact = cauchy_nodes(m, zs)
    oracle = node_sum(m, zs)
    assert np.max(np.abs(exact - oracle) / np.abs(oracle)) <= 1e-13
    # the lower half-plane by reflection
    assert np.max(np.abs(cauchy_nodes(m, zs.conj()) - exact.conj())) <= 1e-15


def test_convolution_output_near_the_axis():
    # the Chebyshev series of a convolution output stays exact where a
    # node sum is off by O(1)
    target = build_fgig(NaturalParams(2.0, 8.0, 1.0), 1024)
    val = cauchy(CONVOLVED, 2.0 + 1e-12j)
    assert val == pytest.approx(cauchy(target, 2.0 + 1e-12j), rel=1e-10)


class TestRaises:
    def test_on_the_support(self):
        a, b = MU.support
        for m, x in ((MU, a), (MU, 0.5 * (a + b)), (MU, b),
                     (CARRIERS["shift"], a - 0.7),
                     (CARRIERS["pushforward_reciprocal"], 2.0 / (a + b))):
            with pytest.raises(DomainError):
                cauchy(m, x + 0.0j)

    def test_at_an_atom(self):
        m = CARRIERS["free_poisson_rate_0.5"]
        with pytest.raises(DomainError):
            cauchy(m, 0.0)
        with pytest.raises(DomainError):
            cauchy(shift(m, 2.0), 2.0 + 0.0j)


class TestHighPrecisionOracle:
    TRIPLES = [(1.0, 1.0, 0.5), (8.0, 8.0, -3.0), (1e3, 1e3, 0.3),
               (1e-3, 1e-3, -4.0), (1e3, 1e-3, 2.0)]

    @pytest.mark.parametrize("triple", [(1e6, 1e6, 0.0), (1e6, 1e6, 3.0)])
    def test_support_at_large_rates(self, triple, support40):
        mp = pytest.importorskip("mpmath")
        p = NaturalParams(*triple)
        s = solve_support(p)
        with mp.workdps(40):
            A, B = support40(p)
            assert abs(mp.mpf(s.a) / A - 1) <= 1e-12
            assert abs(mp.mpf(s.b) / B - 1) <= 1e-12

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_fgig(self, triple, support40):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            self.check_fgig(mp, triple, support40)

    def check_fgig(self, mp, triple, support40):
        p = NaturalParams(*triple)
        m = build_fgig(p, 64)
        a, b = m.support
        A, B = support40(p)
        al, be, la = (mp.mpf(v) for v in triple)
        c = be / mp.sqrt(A * B)

        def textbook(z):
            z = mp.mpc(z)
            r = mp.sqrt(z - A) * mp.sqrt(z - B)
            return ((al * z * z + (1 - la) * z - be - (al * z + c) * r)
                    / (2 * z * z))

        # the rationalized form (p1 z + p0) / (2 (P + Q r)), p1 = 4 alpha,
        # is 0/0 at z0 = -p0/p1 on the negative axis
        sa, sb = mp.sqrt(A), mp.sqrt(B)
        p0 = (c * (sb - sa) ** 2 / 2
              * (c * (sa + sb) ** 2 / (2 * A * B) + 2 * al))
        z0 = float(-p0 / (4 * al))

        near0 = [1e-4 * a * u for u in (1, -1, 1j, 1 + 1j, -1 + 1e-3j)]
        axis = [x + 1e-9j for x in (a, a * (1 + 1e-3), 0.5 * (a + b),
                                    b * (1 - 1e-3), b)]
        far = [1e4 * b * u for u in (1, -1, 1j, 1 - 1j)]
        outside = [a * (1 - 1e-9), b * (1 + 1e-9), -a, -b,
                   z0, z0 * (1 + 1e-9), z0 + 1e-9j * abs(z0)]
        zs = near0 + axis + far + outside
        got = m.cauchy_fn(np.array(zs, dtype=complex))
        for z, g in zip(zs, got):
            want = textbook(z)
            assert abs(mp.mpc(g) - want) / abs(want) <= 1e-8, z

    @pytest.mark.parametrize("rate", [0.5, 1.0, 3.0, 1 - 1e-6, 1 + 1e-6])
    def test_free_poisson(self, rate):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            self.check_free_poisson(mp, rate)

    def check_free_poisson(self, mp, rate):
        jump = 0.7
        m = build_free_poisson(FreePoissonParams(jump, rate), 64)
        lo, hi = m.support
        ga, ra = mp.mpf(jump), mp.mpf(rate)
        LO, HI = ga * (1 - mp.sqrt(ra)) ** 2, ga * (1 + mp.sqrt(ra)) ** 2

        def textbook(z):
            z = mp.mpc(z)
            r = mp.sqrt(z - LO) * mp.sqrt(z - HI)
            return (z + ga * (1 - ra) - r) / (2 * ga * z)

        # down to 1e-12 of the atom's pole, where 2/(z + jump(1-rate) + r)
        # formed directly has lost five digits
        zs = ([t * hi * u for t in (1e-9, 1e-12) for u in (1j, -1, 1 + 1j)]
              + [x + 1e-9j for x in (lo, 0.5 * (lo + hi), hi)]
              + [1e4 * hi * u for u in (1, -1, 1j)] + [-hi, hi * (1 + 1e-9)])
        if rate < 1:  # real points between the atom and the support
            zs += [0.5 * lo, lo * (1 - 1e-6)]
        got = m.cauchy_fn(np.array(zs, dtype=complex))
        for z, g in zip(zs, got):
            want = textbook(z)
            assert abs(mp.mpc(g) - want) / abs(want) <= 1e-8, z
