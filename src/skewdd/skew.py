"""
Four routes to the skew element x_{w/v}, plus Schubert structure constants.

The signed route collects the variable swaps of each mixed operator string
to the left; the pairing route slices the standard word element of w by the
standard word element of v's inverse; the explicit and recurrence routes
both produce manifestly positive combinations.  All four agree modulo the
relation ideal (:mod:`skewdd.fkcanon`), which the verification suites and
the test battery exercise at desk scale.

>>> from .symgroup import simple
>>> print(skew_explicit((3, 4, 1, 2), simple(2, 4)))
x(1,2)x(2,4)x(3,4) + x(1,3)x(1,2)x(2,4)
>>> print(skew_signed((3, 4, 1, 2), simple(2, 4)))
x(1,2)x(3,4)x(2,3) - x(2,3)x(1,3)x(2,4)
"""

from __future__ import annotations

from functools import lru_cache

from . import fkalg, polyring, symgroup
from .fkalg import FKElement
from .polyring import Poly
from .symgroup import Perm, Word

__all__ = [
    "METHODS",
    "reduced_word_to_longest",
    "skew_signed",
    "skew_pairing",
    "skew_explicit",
    "skew_recurrence",
    "compute_skew",
    "represent",
    "structure_constant",
    "structure_constant_oracle",
    "structure_constant_table",
]

METHODS = ("signed", "pairing", "explicit", "recurrence")


def _window(w: Perm, v: Perm) -> tuple[Perm, Perm, int]:
    w, v = symgroup.common_window(w, v)
    return w, v, len(w)


def reduced_word_to_longest(v: Perm, n: int) -> Word:
    """A reduced word for w0 * v built by repeatedly removing the smallest
    ascent i of v (v <- s_i * v); the letter n - i witnesses one step up
    toward the longest element.  This choice lines the explicit route up
    with the recurrence.

    The left ascents of v are the left descents of v * w0, so the ascents
    taken are the letters of the lex-least reduced word of v * w0.

    >>> reduced_word_to_longest(symgroup.simple(2, 4), 4)
    (3, 2, 1, 2, 3)
    >>> reduced_word_to_longest(symgroup.longest_element(3), 3)
    ()
    """
    if len(v) != n:
        v = symgroup.embed(v, n)
    v_w0 = symgroup.compose(v, symgroup.longest_element(n))
    return tuple(n - i for i in symgroup.canonical_reduced_word(v_w0))


def skew_signed(w: Perm, v: Perm) -> FKElement:
    """Signed expansion over the canonical reduced word of w: in each mixed
    string the swaps migrate left, conjugating the remaining difference
    letters, and cancel against the final inverse of v.

    Letters are oriented inline, the sign going into the coefficient.  Two
    kept letters with only swaps between them never coincide: that would
    make the factor of the reduced word from one to the other non-reduced.
    So every word is clean and the terms need no revalidation.  The Bruhat
    pre-test stays although ``reduced_subwords`` finds no set for v outside
    the order: it costs a few insertions, and it spares the subword search
    on the incomparable pairs that the positivity checks feed in.

    >>> print(skew_signed((2, 3, 1), (2, 3, 1)))
    1
    >>> print(skew_signed(symgroup.simple(1, 3), symgroup.simple(2, 3)))
    0
    """
    w, v, n = _window(w, v)
    if not symgroup.bruhat_leq(v, w):
        return FKElement.zero(n)
    word = symgroup.canonical_reduced_word(w)
    terms = {}
    for J in symgroup.reduced_subwords(word, v, n):
        Jset = set(J)
        vinv = list(range(1, n + 1))
        letters = []
        sign = 1
        for j in range(len(word), 0, -1):
            i = word[j - 1]
            if j in Jset:
                # vinv * s_i
                vinv[i - 1], vinv[i] = vinv[i], vinv[i - 1]
                continue
            a, b = vinv[i - 1], vinv[i]
            if a > b:
                a, b = b, a
                sign = -sign
            letters.append((a, b))
        key = tuple(reversed(letters))
        terms[key] = terms.get(key, 0) + sign
    return FKElement._of(n, terms)


def skew_pairing(w: Perm, v: Perm) -> FKElement:
    """Slice the standard word element of w by that of the inverse of v.

    >>> print(skew_pairing((2, 3, 1), symgroup.simple(2, 3)))
    x(1,3)
    """
    w, v, n = _window(w, v)
    return fkalg.delta_op(
        fkalg.nilcoxeter_word(symgroup.inverse(v)),
        fkalg.nilcoxeter_element(w, n),
    )


def skew_explicit(w: Perm, v: Perm) -> FKElement:
    """Positive expansion: walk the ascent-rule word for w0 * v, form its
    conjugated letters, and for every embedded reduced word of w0 * w keep
    the complementary letters.

    ``sbar_word`` orients the letters.  They are the reflections of a
    reduced word, so no two are equal and each position set keeps a
    distinct clean word; the terms need no revalidation.  The Bruhat
    pre-test stays: without it every incomparable pair would pay for the
    ascent-rule word, its letters and a fruitless subword search, and the
    positivity checks feed in many such pairs.

    >>> print(skew_explicit((2, 3, 1), symgroup.simple(1, 3)))
    x(2,3)
    >>> print(skew_explicit((4, 3, 2, 1), (4, 3, 2, 1)))
    1
    """
    w, v, n = _window(w, v)
    if not symgroup.bruhat_leq(v, w):
        return FKElement.zero(n)
    word = reduced_word_to_longest(v, n)
    letters, sign = fkalg.sbar_word(tuple((i, i + 1) for i in word), n)
    target = symgroup.compose(symgroup.longest_element(n), w)
    terms = {}
    for J in symgroup.reduced_subwords(word, target, n):
        Jset = set(J)
        kept = tuple(letters[k] for k in range(len(word)) if k + 1 not in Jset)
        terms[kept] = sign
    return FKElement._of(n, terms)


@lru_cache(maxsize=None)
def _recurrence(w: Perm, v: Perm, n: int) -> FKElement:
    if not symgroup.bruhat_leq(v, w):
        return FKElement.zero(n)
    if symgroup.length(v) == symgroup.length(w):
        return FKElement.one(n) if v == w else FKElement.zero(n)
    pos = symgroup.inverse(v)
    for i in range(1, n):
        if pos[i - 1] < pos[i]:
            break
    a, b = pos[i - 1], pos[i]
    v2 = symgroup.compose(symgroup.simple(i, n), v)
    w2 = symgroup.compose(symgroup.simple(i, n), w)
    out = fkalg.generator(a, b, n) * _recurrence(w, v2, n)
    if symgroup.length(w2) == symgroup.length(w) + 1:
        out = out + _recurrence(w2, v2, n)
    return out


def skew_recurrence(w: Perm, v: Perm) -> FKElement:
    """Positive expansion by peeling one ascent of v at a time.

    >>> print(skew_recurrence((3, 4, 1, 2), symgroup.simple(2, 4)))
    x(1,2)x(2,4)x(3,4) + x(1,3)x(1,2)x(2,4)
    >>> print(skew_recurrence((2, 3, 1), symgroup.simple(1, 3)))
    x(2,3)
    """
    w, v, n = _window(w, v)
    # the memo hands out one shared element per pair; _of gives each caller
    # its own copy of the terms
    return FKElement._of(n, _recurrence(w, v, n).terms)


def compute_skew(w: Perm, v: Perm, method: str) -> FKElement:
    """Dispatch on method name; see ``METHODS``."""
    if method == "signed":
        return skew_signed(w, v)
    if method == "pairing":
        return skew_pairing(w, v)
    if method == "explicit":
        return skew_explicit(w, v)
    if method == "recurrence":
        return skew_recurrence(w, v)
    raise ValueError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")


def represent(A: FKElement, P: Poly) -> Poly:
    """Act by A on a polynomial: each letter is a divided difference, the
    rightmost letter applying first.

    >>> print(represent(fkalg.generator(1, 3, 3), Poly.parse("x1", 3)))
    1
    """
    n = max(A.n, P.n)
    P = P.extend(n)
    total = Poly.zero(n)
    for word, c in A.terms.items():
        q = P
        for a, b in reversed(word):
            q = polyring.divided_difference(a, b, q)
        total = total + c * q
    return total


def structure_constant(u: Perm, v: Perm, w: Perm) -> int:
    """Coefficient of the w-basis element in the product of the u and v
    Schubert polynomials, extracted by applying the positive skew element of
    (w, v) to the u polynomial.

    The constants are memoized per triple for the life of the process; an
    int cannot be changed by the caller who receives it.

    >>> structure_constant((2, 1, 3), (2, 1, 3), (3, 1, 2))
    1
    """
    u, v, w = symgroup.common_window(u, v, w)
    if symgroup.length(u) + symgroup.length(v) != symgroup.length(w):
        raise ValueError("structure constants need length(u) + length(v) = length(w)")
    return _structure_constant(u, v, w)


@lru_cache(maxsize=None)
def _structure_constant(u: Perm, v: Perm, w: Perm) -> int:
    return _constant(represent(skew_explicit(w, v), polyring.schubert(u, len(w))))


def _constant(val: Poly) -> int:
    """The value of a skew element applied to a polynomial of its degree."""
    if val.degree() > 0:
        raise ArithmeticError("skew application did not drop to a constant")
    return val.constant_term()


def structure_constant_oracle(u: Perm, v: Perm, w: Perm) -> int:
    """Independent route: apply the divided differences of w to the actual
    product of Schubert polynomials and read the constant term.

    >>> structure_constant_oracle((2, 1, 3), (2, 1, 3), (3, 1, 2))
    1
    """
    u, v, w = symgroup.common_window(u, v, w)
    n = len(w)
    if symgroup.length(u) + symgroup.length(v) != symgroup.length(w):
        raise ValueError("structure constants need length(u) + length(v) = length(w)")
    prod = polyring.schubert(u, n) * polyring.schubert(v, n)
    return polyring.del_perm(w, prod).constant_term()


def structure_constant_table(n: int) -> list[tuple[Perm, Perm, Perm, int]]:
    """All nonzero structure constants on window n, sorted by (w, u, v).

    Each skew element of a pair v <= w is built once and applied to every
    Schubert polynomial of the complementary length.  The table does not
    go through the memo of ``structure_constant``.

    >>> for row in structure_constant_table(2):
    ...     print(row)
    ((1, 2), (1, 2), (1, 2), 1)
    ((1, 2), (2, 1), (2, 1), 1)
    ((2, 1), (1, 2), (2, 1), 1)
    """
    perms = symgroup.all_permutations(n)
    by_len: dict[int, list[Perm]] = {}
    for p in perms:
        by_len.setdefault(symgroup.length(p), []).append(p)
    schub = {u: polyring.schubert(u, n) for u in perms}
    out = []
    for w in perms:
        lw = symgroup.length(w)
        for lv in range(lw + 1):
            for v in by_len.get(lv, ()):
                A = skew_explicit(w, v)
                if A.is_zero():
                    continue
                for u in by_len.get(lw - lv, ()):
                    c = _constant(represent(A, schub[u]))
                    if c:
                        out.append((u, v, w, c))
    out.sort(key=lambda t: (t[2], t[0], t[1]))
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
