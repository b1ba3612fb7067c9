"""Dense truncated power series with real coefficients.

All operations keep a fixed truncation order: a series of order ``N``
stores coefficients ``c[0..N]`` and every product or composition drops
terms beyond ``z**N``.  Composition requires the inner series to have a
vanishing constant term, i.e. it represents a perturbation around the
common expansion point.
"""

import numpy as np


class Series:
    """Truncated power series ``sum(c[k] * z**k for k <= order)``."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()

    @property
    def order(self):
        return self.c.size - 1

    @classmethod
    def variable(cls, order, constant=0.0):
        """The series ``constant + z`` at the given truncation order."""
        c = np.zeros(order + 1)
        c[0] = constant
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def __add__(self, other):
        if isinstance(other, Series):
            return Series(self.c + other.c)
        out = self.c.copy()
        out[0] += other
        return Series(out)

    __radd__ = __add__

    def __neg__(self):
        return Series(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Series) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Series):
            n = self.order
            return Series(np.convolve(self.c, other.c)[: n + 1])
        return Series(self.c * other)

    __rmul__ = __mul__

    def reciprocal(self):
        """Multiplicative inverse; the constant term must be nonzero."""
        b = self.c
        if b[0] == 0.0:
            raise ZeroDivisionError("series has vanishing constant term")
        n = self.order
        r = np.zeros(n + 1)
        r[0] = 1.0 / b[0]
        for k in range(1, n + 1):
            r[k] = -np.dot(b[1 : k + 1], r[k - 1 :: -1]) / b[0]
        return Series(r)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def compose(self, inner):
        """Evaluate ``self(inner(z))``; ``inner`` must have zero constant term."""
        if abs(inner.c[0]) > 1e-12 * max(1.0, np.max(np.abs(inner.c))):
            raise ValueError("inner series must have (near-)zero constant term")
        shifted = Series(inner.c)
        shifted.c[0] = 0.0
        n = self.order
        out = Series(np.zeros(n + 1))
        for k in range(n, -1, -1):
            out = out * shifted + self.c[k]
        return out

    def shift_down(self):
        """Divide by ``z``, i.e. drop the constant term (which must vanish)."""
        return Series(np.concatenate([self.c[1:], [0.0]]))
