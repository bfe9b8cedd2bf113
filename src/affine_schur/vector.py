"""Finite linear combinations of basis labels.

Every element type of the package is a finite combination of labels with
nonzero scalar coefficients: T_w in the Hecke algebra, [p] in the flag
module and [s] in the Schur algebra, over Z[v, v^-1]; the sl_2-string oracle
and the span solver use the same dicts over Q(v).  `add_scaled` is the one
accumulate loop over such dicts, and `SparseVector` the one base class of
the element types.  Both work with `LaurentScalar` and `RationalScalar`
coefficients alike: they need only `+`, `*` and `is_zero`.  A Laurent zero
is the one shared object `laurent.ZERO`, so both test it by identity and
call `is_zero` only on other scalars.
"""

from __future__ import annotations

from .laurent import ZERO, LaurentScalar

_MINUS_ONE = LaurentScalar.const(-1)


def add_scaled(out: dict, terms, c=None) -> dict:
    """out += c * terms in place, dropping zero sums; returns out.

    terms is a dict {label: scalar} or an iterable of (label, scalar)
    pairs, and is not modified.  c = None adds terms unscaled.
    """
    for x, a in (terms.items() if isinstance(terms, dict) else terms):
        if c is not None:
            a = c * a
        s = out.get(x)
        if s is not None:
            a = s + a
        if a is ZERO or (a.__class__ is not LaurentScalar and a.is_zero()):
            out.pop(x, None)
        else:
            out[x] = a
    return out


class SparseVector:
    """A flat dict `terms` {label: nonzero scalar} together with a shape.

    A subclass adds its shape (the fields that two elements must share to
    be added), `_shape()` returning those fields in constructor order, and
    a constructor `Subclass(*shape, terms)` that ends in this one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {x: c for x, c in terms.items() if c is not ZERO}

    def _shape(self) -> tuple:
        raise NotImplementedError

    @classmethod
    def zero(cls, *shape):
        return cls(*shape, {})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, x) -> LaurentScalar:
        return self.terms.get(x, ZERO)

    def _like(self, terms: dict):
        return type(self)(*self._shape(), terms)

    def _check_shape(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ValueError("shape mismatch")

    def __add__(self, other):
        self._check_shape(other)
        return self._like(add_scaled(dict(self.terms), other.terms))

    def __sub__(self, other):
        self._check_shape(other)
        return self._like(add_scaled(dict(self.terms), other.terms, _MINUS_ONE))

    def scale(self, c):
        return self._like({x: c * a for x, a in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._shape() == self._shape()
                and other.terms == self.terms)
