"""The support solve over the whole validity box.

alpha and beta log-uniform in [1e-6, 1e6], lam in [-50, 50], checked
against a 40-digit support that does not use the package's solver.
"""

import pytest

from fgig import NaturalParams, reparameterize, solve_support, spectral_roots
from fgig.params import solve_spread

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=300)
@hypothesis.given(log_alpha=st.floats(-6.0, 6.0),
                  log_beta=st.floats(-6.0, 6.0), lam=st.floats(-50.0, 50.0))
def test_support_solve(support40, log_alpha, log_beta, lam):
    p = NaturalParams(10.0 ** log_alpha, 10.0 ** log_beta, lam)
    s = solve_support(p)
    a, b = support40(p)
    assert abs(s.a / a - 1) <= 1e-12
    assert abs(s.b / b - 1) <= 1e-12

    r = spectral_roots(p)
    assert (abs(4.0 * p.beta * r.eta * r.delta ** 2 - p.alpha ** 2)
            <= 1e-12 * p.alpha ** 2)

    sf, back = solve_spread(p), reparameterize(s)
    assert back.A == pytest.approx(sf.A, rel=1e-12)
    assert back.B == pytest.approx(sf.B, rel=1e-12)
