"""
Sparse integer polynomials in x1..xn with exact arithmetic.

A polynomial is a dict from exponent tuples (length n) to nonzero int
coefficients, wrapped in :class:`Poly`.  The symmetric group acts by
permuting the variables, ``act(w, P)`` sends x_i to x_{w(i)}:

>>> P = Poly.parse("x1^2*x2", 3)
>>> print(act((2, 3, 1), P))
x2^2*x3

Divided differences are computed monomial by monomial in closed form
(Macdonald, *Notes on Schubert Polynomials*, 1991, ch. II), never by
division, so every intermediate value stays an integer:

>>> print(divided_difference(1, 2, Poly.parse("x1^2*x2", 2)))
x1*x2
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import symgroup
from .symgroup import Perm, Word
from .terms import Terms

__all__ = [
    "Poly",
    "act",
    "divided_difference",
    "del_word",
    "del_perm",
    "staircase",
    "schubert",
    "skew_direct_images",
    "skew_direct_apply",
    "random_poly",
]

Exponent = tuple[int, ...]


class Poly(Terms):
    """An integer polynomial in variables x1..xn, stored sparsely.

    >>> P = Poly.parse("3*x1^2*x2 - x3", 3)
    >>> P.terms[(2, 1, 0)]
    3
    >>> print(P + Poly.parse("x3", 3))
    3*x1^2*x2
    """

    __slots__ = ()

    def __init__(self, n: int, terms: dict[Exponent, int] | None = None):
        self.n = n
        self.terms: dict[Exponent, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    if len(e) != n:
                        raise ValueError(f"exponent {e} has wrong arity for n={n}")
                    if min(e, default=0) < 0:
                        raise ValueError(f"exponent {e} has a negative entry")
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def variable(cls, i: int, n: int) -> "Poly":
        if not (1 <= i <= n):
            raise ValueError(f"variable index {i} out of range for n={n}")
        e = [0] * n
        e[i - 1] = 1
        return cls(n, {tuple(e): 1})

    @classmethod
    def monomial(cls, exponent, n: int, coeff: int = 1) -> "Poly":
        return cls(n, {tuple(exponent): coeff})

    @staticmethod
    def _one_key(n: int) -> Exponent:
        return (0,) * n

    @staticmethod
    def _pad(e: Exponent, n: int) -> Exponent:
        return e + (0,) * (n - len(e))

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponent) -> int:
        return self.terms.get(tuple(exponent), 0)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return super().__mul__(other)
        a, b = self._common(other)
        terms: dict[Exponent, int] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly._of(a.n, terms)

    def sorted_terms(self) -> list[tuple[Exponent, int]]:
        """Terms in graded-lex descending order (highest degree first)."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, p in enumerate(e, start=1):
                if p == 1:
                    factors.append(f"x{i}")
                elif p > 1:
                    factors.append(f"x{i}^{p}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    _TERM_RE = re.compile(r"^([+-]?\d+)?((?:\*?x\d+(?:\^\d+)?)*)$")
    _FACTOR_RE = re.compile(r"x(\d+)(?:\^(\d+))?")

    @classmethod
    def parse(cls, text: str, n: int) -> "Poly":
        """Parse the text form produced by ``str``.

        >>> Poly.parse("x1 + x2", 2) == Poly.variable(1, 2) + Poly.variable(2, 2)
        True
        """
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero(n)
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        terms: dict[Exponent, int] = {}
        for chunk in s.split("+"):
            if not chunk:
                raise ValueError(f"malformed polynomial text: {text!r}")
            neg = chunk.startswith("-")
            if neg:
                chunk = chunk[1:]
            m = cls._TERM_RE.match(chunk)
            if not m or (m.group(1) is None and not m.group(2)):
                raise ValueError(f"malformed term {chunk!r} in {text!r}")
            coeff = int(m.group(1)) if m.group(1) is not None else 1
            if neg:
                coeff = -coeff
            e = [0] * n
            for fm in cls._FACTOR_RE.finditer(m.group(2) or ""):
                i = int(fm.group(1))
                if not (1 <= i <= n):
                    raise ValueError(f"variable x{i} out of range for n={n}")
                e[i - 1] += int(fm.group(2)) if fm.group(2) else 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + coeff
        return cls(n, terms)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"coeff": c, "exponents": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Poly":
        n = int(data["n"])
        terms = {}
        for t in data["terms"]:
            e = tuple(int(x) for x in t["exponents"])
            terms[e] = terms.get(e, 0) + int(t["coeff"])
        return cls(n, terms)


def act(w: Perm, P: Poly) -> Poly:
    """Apply the variable substitution x_i -> x_{w(i)}.

    >>> print(act((2, 1), Poly.parse("x1^2", 2)))
    x2^2
    """
    n = max(len(w), P.n)
    w = symgroup.embed(w, n)
    P = P.extend(n)
    terms: dict[Exponent, int] = {}
    for e, c in P.terms.items():
        out = [0] * n
        for k in range(n):
            out[w[k] - 1] = e[k]
        key = tuple(out)
        terms[key] = terms.get(key, 0) + c
    return Poly._of(n, terms)


def divided_difference(i: int, j: int, P: Poly) -> Poly:
    """The operator (P - t_ij P) / (x_i - x_j) for a transposition t_ij.

    Each monomial has a closed-form quotient.  With a = e_i > b = e_j,
    (x_i^a x_j^b - x_i^b x_j^a) / (x_i - x_j) is (x_i x_j)^b times the sum
    of x_i^(a-1-k) x_j^(b+k) over 0 <= k < a - b; swapping a and b flips
    the sign, and a = b contributes nothing.  Other exponents are kept.

    >>> print(divided_difference(1, 2, Poly.parse("x1^2*x2", 2)))
    x1*x2
    >>> print(divided_difference(2, 1, Poly.parse("x1", 2)))
    -1
    """
    if i == j:
        raise ValueError("divided difference needs two distinct indices")
    sign = 1
    if i > j:
        i, j = j, i
        sign = -1
    n = max(P.n, j)
    if i < 1:
        raise ValueError(f"invalid transposition ({i},{j}) in window {n}")
    terms: dict[Exponent, int] = {}
    for e, c in P.extend(n).terms.items():
        a, b = e[i - 1], e[j - 1]
        if a == b:
            continue
        c *= sign
        if a < b:
            a, b, c = b, a, -c
        q = list(e)
        for k in range(a - b):
            q[i - 1], q[j - 1] = a - 1 - k, b + k
            key = tuple(q)
            terms[key] = terms.get(key, 0) + c
    return Poly._of(n, terms)


def del_word(word: Word, P: Poly, n: int | None = None) -> Poly:
    """Apply a word of adjacent divided differences, rightmost letter first.

    >>> print(del_word((1, 2), schubert((2, 3, 1))))
    1
    """
    word = tuple(word)
    if n is None:
        n = max(P.n, max(word, default=0) + 1)
    for a in word:
        if not (1 <= a < n):
            raise ValueError(f"letter {a} out of range for window {n}")
    out = P.extend(n)
    for a in reversed(word):
        out = divided_difference(a, a + 1, out)
    return out


def del_perm(w: Perm, P: Poly) -> Poly:
    """The divided difference operator of a permutation, via any reduced word."""
    return del_word(symgroup.canonical_reduced_word(w), P, n=max(P.n, len(w)))


def staircase(n: int) -> Poly:
    """The monomial x1^(n-1) * x2^(n-2) * ... * x_{n-1}."""
    return Poly.monomial(tuple(range(n - 1, -1, -1)), n)


def schubert(w: Perm, n: int | None = None) -> Poly:
    """The Schubert polynomial of w: apply the divided differences of
    w^{-1} * w0 to the staircase monomial of the window.

    The polynomials are memoized per (w, n) for the life of the process.
    Each call returns a fresh copy of the terms, so a caller that changes
    its polynomial leaves the memo as it was.

    >>> print(schubert((1, 3, 2)))
    x1 + x2
    >>> print(schubert((2, 1, 3)))
    x1
    """
    if n is None:
        n = len(w)
    return Poly._of(n, _schubert(symgroup.embed(w, n), n).terms)


@lru_cache(maxsize=None)
def _schubert(w: Perm, n: int) -> Poly:
    u = symgroup.compose(symgroup.inverse(w), symgroup.longest_element(n))
    return del_perm(u, staircase(n))


def skew_direct_images(w: Perm, P: Poly, word: Word | None = None) -> dict[Perm, Poly]:
    """The skew divided difference operators of every v <= w applied to P,
    as {v: image}, leaving out zero images.

    One walk runs over the chosen reduced word of w, last position first.
    Each letter a acts as the swap of x_a and x_(a+1), joining the subword
    J that spells v, or as the divided difference d_a.  The swap is taken
    only while J stays reduced: s_a in front of a reduced word for u stays
    reduced iff u^(-1)(a) < u^(-1)(a+1), read from the inverse kept along
    the walk.  Swaps and divided differences are linear, so a zero image
    stays zero and its branch is dropped.  A leaf adds v^(-1) applied to
    its image to the entry of v.

    >>> images = skew_direct_images((2, 3, 1), Poly.parse("x1*x2", 3))
    >>> [(v, str(image)) for v, image in sorted(images.items())]
    [((1, 2, 3), '1'), ((1, 3, 2), 'x2'), ((2, 1, 3), 'x1'), ((2, 3, 1), 'x1*x2')]
    """
    n = max(len(w), P.n)
    w = symgroup.embed(w, n)
    if word is None:
        word = symgroup.canonical_reduced_word(w)
    else:
        word = tuple(word)
        if symgroup.from_word(word, n) != w or not symgroup.is_reduced(word, n):
            raise ValueError("word is not a reduced word for w")
    sums: dict[Perm, Poly] = {}
    vinv = list(range(1, n + 1))

    def walk(pos: int, image: Poly) -> None:
        if not image.terms:
            return
        if pos == 0:
            v = symgroup.inverse(vinv)
            sums[v] = sums.get(v, Poly.zero(n)) + act(tuple(vinv), image)
            return
        a = word[pos - 1]
        if vinv[a - 1] < vinv[a]:
            vinv[a - 1], vinv[a] = vinv[a], vinv[a - 1]
            walk(pos - 1, act(symgroup.simple(a, n), image))
            vinv[a - 1], vinv[a] = vinv[a], vinv[a - 1]
        walk(pos - 1, divided_difference(a, a + 1, image))

    walk(len(word), P.extend(n))
    return {v: image for v, image in sums.items() if image.terms}


def skew_direct_apply(w: Perm, v: Perm, P: Poly, word: Word | None = None) -> Poly:
    """Apply the skew divided difference operator of the pair v <= w to P:
    the entry of v in ``skew_direct_images``, zero when there is none.

    >>> print(skew_direct_apply((2, 3, 1), (1, 3, 2), Poly.parse("x1*x2", 3)))
    x2
    """
    w, v = symgroup.common_window(w, v)
    n = max(len(w), P.n)
    images = skew_direct_images(w, P, word)
    return images.get(symgroup.embed(v, n), Poly.zero(n))


def random_poly(rng, n: int, max_degree: int = 4, terms: int = 4) -> Poly:
    """A random sparse polynomial with small integer coefficients."""
    out: dict[Exponent, int] = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(e) > max_degree:
            continue
        c = rng.choice([c for c in range(-9, 10) if c])
        out[e] = out.get(e, 0) + c
    return Poly(n, out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
