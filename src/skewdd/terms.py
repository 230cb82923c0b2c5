"""
Sparse integer combinations over a window: the arithmetic that polynomials,
braided-algebra elements and their tensors share.

A value is a window ``n`` and a dict ``terms`` from keys to nonzero int
coefficients.  A subclass names its constant key (``_one_key``) and how a
key pads to a larger window (``_pad``); it supplies its own text and JSON
forms.  Values of different windows are compared and combined in the
larger one, so equal values of different windows are equal and hash equal:

>>> from skewdd.polyring import Poly
>>> Poly.parse("x1", 2) == Poly.parse("x1", 3)
True
>>> len({Poly.parse("x1", 2), Poly.parse("x1", 3)})
1
>>> print(1 - Poly.parse("x1", 2) * 2)
-2*x1 + 1
"""

from __future__ import annotations

import json

__all__ = ["Terms"]


class Terms:
    """Window plus {key: nonzero int}; integers are multiples of the one.

    The public constructors of subclasses validate input from outside the
    program; ``_of`` is the trusted constructor for keys built internally.
    """

    __slots__ = ("n", "terms")

    @staticmethod
    def _one_key(n: int):
        """The key of the constant term in window n."""
        raise NotImplementedError

    @staticmethod
    def _pad(key, n: int):
        """The key read in the larger window n; most keys do not name it."""
        return key

    @classmethod
    def _of(cls, n: int, terms: dict):
        """Wrap terms whose keys already fit window n, dropping zeros."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, n: int):
        return cls._of(n, {})

    @classmethod
    def one(cls, n: int):
        return cls._of(n, {cls._one_key(n): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get(self._one_key(self.n), 0)

    def extend(self, n: int):
        """Reinterpret in a larger window."""
        if n < self.n:
            raise ValueError(f"cannot shrink window {self.n} to {n}")
        if n == self.n:
            return self
        return self._of(n, {self._pad(k, n): c for k, c in self.terms.items()})

    def _common(self, other):
        n = max(self.n, other.n)
        return self.extend(n), other.extend(n)

    def _coerce(self, other):
        """other as a value of this class, or None for a foreign type."""
        if isinstance(other, int):
            return self._of(self.n, {self._one_key(self.n): other})
        return other if isinstance(other, type(self)) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        terms = dict(a.terms)
        for k, c in b.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._of(a.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._of(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Integer scaling; subclasses with a product extend this."""
        if not isinstance(other, int):
            return NotImplemented
        return self._of(self.n, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        return a.terms == b.terms

    def __hash__(self):
        # the coefficient multiset does not see the window; a constant c
        # hashes as the int c, which it equals
        if self.terms.keys() <= {self._one_key(self.n)}:
            return hash(self.constant_term())
        return hash(tuple(sorted(self.terms.values())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {self.terms!r})"

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_dict(json.loads(text))
