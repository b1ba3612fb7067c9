import numpy as np
import pytest

from fgig.series import Series


def test_add_mul_truncation():
    a = Series([1.0, 2.0, 3.0])
    b = Series([0.5, -1.0, 0.0])
    assert np.allclose((a + b).c, [1.5, 1.0, 3.0])
    # (1+2z+3z^2)(0.5-z) truncated at order 2
    assert np.allclose((a * b).c, [0.5, 0.0, -0.5])


def test_reciprocal_is_inverse():
    rng = np.random.default_rng(0)
    c = rng.normal(size=9)
    c[0] = 2.0
    s = Series(c)
    prod = s * s.reciprocal()
    expect = np.zeros(9)
    expect[0] = 1.0
    assert np.allclose(prod.c, expect, atol=1e-12)


def test_reciprocal_matches_geometric():
    # 1/(1-z) = sum z^k
    s = Series([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(s.reciprocal().c, np.ones(7))


def test_compose_against_polynomial_oracle():
    # outer(inner(z)) for small polynomials, checked by numpy polynomial algebra
    outer = Series([1.0, -2.0, 0.5, 1.0, 0.0, 0.0])
    inner = Series([0.0, 1.0, 2.0, -1.0, 0.0, 0.0])
    comp = outer.compose(inner)
    po = np.polynomial.Polynomial(outer.c)
    pi = np.polynomial.Polynomial(inner.c)
    expect = po(pi).coef[:6]
    assert np.allclose(comp.c[: expect.size], expect, atol=1e-12)


def test_compose_requires_zero_constant():
    outer = Series([1.0, 1.0])
    inner = Series([1.0, 1.0])
    with pytest.raises(ValueError):
        outer.compose(inner)


def test_shift_down():
    s = Series([0.0, 1.0, 2.0])
    assert np.allclose(s.shift_down().c, [1.0, 2.0, 0.0])

