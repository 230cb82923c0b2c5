"""
Equality oracle modulo the full relation ideal.

The free model in :mod:`skewdd.fkalg` only knows that equal adjacent letters
annihilate.  This module decides equality modulo the remaining relations

- disjoint letters commute,
- the three-term cycle relation on each triple of indices,

by building the quotient algebra A one degree at a time.  The degree-d part
of the ideal is I_{d-1} V + V^{d-2} R, so A_d is A_{d-1} (x) V modulo the rows
nf(b a1) (x) a2, one per normal word b of degree d-2 and relation
sum c a1 a2, squares included.  The columns are the words b + (g,) with b
normal of degree d-1 and g not the last letter of b (a square kills that
column).  The rows are kept in reduced echelon form over exact integers,
pivoting on the lexicographically smallest column; the non-pivot columns are
the normal words of degree d, and a word w reduces to the residue of
nf(w[:-1]) (x) w[-1].  Lexicographic order on words of one length respects
multiplication, so these are the normal words and canonical forms that an
elimination over every clean word gives, at a cost that follows the
dimension of the quotient rather than the number of words.

Echelon rows are cached per window in memory, normal forms per word.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm

from . import fkalg
from .fkalg import FKElement, FKWord

__all__ = [
    "DEFAULT_MAX_WINDOW",
    "DEFAULT_MAX_DEGREE",
    "ResourceLimitError",
    "clean_words",
    "relation_instances",
    "canonical_form",
    "fk_equal",
    "graded_dimension",
    "ideal_rank",
    "clear_cache",
]

DEFAULT_MAX_WINDOW = 5
DEFAULT_MAX_DEGREE = 7


class ResourceLimitError(ValueError):
    """Requested (window, degree) exceeds the configured elimination limits."""


def _letters(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def clean_words(n: int, d: int) -> list[FKWord]:
    """All degree-d words with no equal adjacent letters, in lex order.

    >>> len(clean_words(3, 2))
    6
    >>> clean_words(2, 2)
    []
    """
    letters = _letters(n)
    words: list[FKWord] = [()]
    for _ in range(d):
        words = [w + (g,) for w in words for g in letters if not w or g != w[-1]]
    return words


def relation_instances(n: int) -> list[list[tuple[int, FKWord]]]:
    """The degree-2 relation set, each instance a signed combination of
    two-letter words: squares, one commutator per disjoint unordered pair,
    and the two independent cycle relations per index triple.

    >>> len(relation_instances(3)), len(relation_instances(4))
    (5, 17)
    """
    out: list[list[tuple[int, FKWord]]] = []
    letters = _letters(n)
    for g in letters:
        out.append([(1, (g, g))])
    for a in range(len(letters)):
        for b in range(a + 1, len(letters)):
            g, h = letters[a], letters[b]
            if len({g[0], g[1], h[0], h[1]}) == 4:
                out.append([(1, (g, h)), (-1, (h, g))])
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                out.append([
                    (1, ((i, j), (j, k))),
                    (-1, ((j, k), (i, k))),
                    (-1, ((i, k), (i, j))),
                ])
                out.append([
                    (-1, ((i, j), (i, k))),
                    (-1, ((i, k), (j, k))),
                    (1, ((j, k), (i, j))),
                ])
    return out


class _Block:
    """Reduced echelon rows of the ideal in one degree.

    Rows are primitive integer sparse vectors (word -> coefficient) whose
    smallest column is the pivot; every pivot column appears in exactly one
    row and carries a positive coefficient.
    """

    __slots__ = ("pivots", "colindex")

    def __init__(self):
        self.pivots: dict[FKWord, dict[FKWord, int]] = {}
        # column -> set of pivot columns whose rows touch it
        self.colindex: dict[FKWord, set[FKWord]] = {}

    @staticmethod
    def _primitive(row: dict[FKWord, int]) -> dict[FKWord, int]:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if row[min(row)] < 0:
            g = -g
        return {k: v // g for k, v in row.items()}

    def insert(self, row: dict[FKWord, int]) -> None:
        """Fold one nonzero row in."""
        # clear every existing pivot column, ascending; eliminations only add
        # non-pivot columns, so one pass over the original support suffices
        for c in sorted(row):
            v = row.get(c)
            piv = self.pivots.get(c)
            if not v or piv is None:
                continue
            p = piv[c]
            nxt = {k: val * p for k, val in row.items()}
            for k, val in piv.items():
                nxt[k] = nxt.get(k, 0) - v * val
            row = {k: val for k, val in nxt.items() if val}
        if not row:
            return
        row = self._primitive(row)
        c = min(row)
        # clear the new pivot column from every older row that uses it
        for c2 in list(self.colindex.get(c, ())):
            piv = self.pivots[c2]
            p, v = row[c], piv[c]
            nxt = {k: val * p for k, val in piv.items()}
            for k, val in row.items():
                nxt[k] = nxt.get(k, 0) - v * val
            self._store(c2, self._primitive({k: val for k, val in nxt.items() if val}))
        self._store(c, row)

    def _store(self, c: FKWord, row: dict[FKWord, int]) -> None:
        old = self.pivots.get(c)
        if old:
            for k in old:
                self.colindex[k].discard(c)
        self.pivots[c] = row
        for k in row:
            self.colindex.setdefault(k, set()).add(c)

    def reduce(self, vec: dict[FKWord, Fraction]) -> dict[FKWord, Fraction]:
        """Residue of a vector; pivot columns are eliminated in one ascending
        pass since echelon rows only reach rightward of their pivot."""
        vec = dict(vec)
        for c in sorted(vec):
            val = vec.get(c)
            if not val:
                continue
            piv = self.pivots.get(c)
            if piv is None:
                continue
            p = piv[c]
            f = val if p == 1 else Fraction(val, p)
            for k, v in piv.items():
                vec[k] = vec.get(k, 0) - f * v
        return {k: v for k, v in vec.items() if v}


class _Window:
    """Normal words, echelon rows and memoized normal forms of one window,
    built degree by degree; ``normal[d]`` and ``echelon[d]`` exist for every
    degree built so far."""

    __slots__ = ("letters", "relations", "normal", "echelon", "_nf")

    def __init__(self, n: int):
        self.letters = _letters(n)
        self.relations = relation_instances(n)
        self.normal: list[list[FKWord]] = [[()]]
        self.echelon: list[_Block] = [_Block()]
        self._nf: dict[FKWord, dict[FKWord, Fraction]] = {(): {(): 1}}

    def extend(self, d: int) -> None:
        while len(self.normal) <= d:
            self._add_degree(len(self.normal))

    def _add_degree(self, d: int) -> None:
        rows = []
        for b in self.normal[d - 2] if d >= 2 else ():
            for inst in self.relations:
                row: dict[FKWord, Fraction] = {}
                for c, (a1, a2) in inst:
                    for w, v in self.nf(b + (a1,)).items():
                        if w[-1] != a2:
                            row[w + (a2,)] = row.get(w + (a2,), 0) + c * v
                row = {k: v for k, v in row.items() if v}
                if row:
                    scale = lcm(*(v.denominator for v in row.values()))
                    rows.append({k: int(v * scale) for k, v in row.items()})
        # leading columns descending: a new pivot then lies left of the older
        # rows, so it seldom has to be cleared from them
        rows.sort(key=min, reverse=True)
        blk = _Block()
        for row in rows:
            blk.insert(row)
        # echelon[d] before normal[d]: readers test len(normal) unlocked
        self.echelon.append(blk)
        self.normal.append([
            b + (g,)
            for b in self.normal[d - 1]
            for g in self.letters
            if b[-1:] != (g,) and b + (g,) not in blk.pivots
        ])

    def nf(self, w: FKWord) -> dict[FKWord, Fraction]:
        """Normal form of one word over the normal words of its degree; the
        memoized dict itself, which callers inside this module only read."""
        got = self._nf.get(w)
        if got is None:
            g = w[-1]
            vec = {b + (g,): c for b, c in self.nf(w[:-1]).items() if b[-1:] != (g,)}
            got = self._nf[w] = self.echelon[len(w)].reduce(vec)
        return got

    def reduce(self, A: FKElement) -> dict[FKWord, Fraction]:
        """Normal form of a homogeneous element, as a fresh dict."""
        out: dict[FKWord, Fraction] = {}
        for w, c in A.terms.items():
            for b, v in self.nf(w).items():
                out[b] = out.get(b, 0) + c * v
        return {b: v for b, v in out.items() if v}


_cache: dict[int, _Window] = {}
_lock = threading.Lock()


def clear_cache() -> None:
    with _lock:
        _cache.clear()


def _check_limits(n: int, d: int, max_window: int | None, max_degree: int | None) -> None:
    wcap = DEFAULT_MAX_WINDOW if max_window is None else max_window
    dcap = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    if n > wcap or d > dcap:
        raise ResourceLimitError(
            f"elimination for window {n} degree {d} exceeds limits "
            f"(window <= {wcap}, degree <= {dcap}); raise the caps to proceed"
        )


def _get_window(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> _Window:
    """The window-n data, built through degree d."""
    if d < 0:
        raise ValueError(f"degree {d} is negative")
    _check_limits(n, d, max_window, max_degree)
    win = _cache.get(n)
    if win is not None and len(win.normal) > d:
        return win
    with _lock:
        win = _cache.get(n)
        if win is None:
            win = _cache[n] = _Window(n)
        win.extend(d)
    return win


def canonical_form(
    A: FKElement, max_window: int | None = None, max_degree: int | None = None
) -> FKElement:
    """The unique representative of A modulo the relation ideal supported
    on normal words.  Linear and idempotent; zero exactly on ideal members.

    >>> x12, x23, x13 = (fkalg.generator(*g, 3) for g in ((1, 2), (2, 3), (1, 3)))
    >>> canonical_form(x12 * x23 - x23 * x13 - x13 * x12).is_zero()
    True
    """
    terms: dict[FKWord, int] = {}
    for d, comp in A.degree_components().items():
        win = _get_window(A.n, d, max_window, max_degree)
        for w, val in win.reduce(comp).items():
            if val.denominator != 1:
                raise ArithmeticError(
                    "canonical form left the integer lattice; "
                    f"a pivot exceeds 1 at window {A.n} degree {d}"
                )
            terms[w] = int(val)
    return FKElement._of(A.n, terms)


def fk_equal(
    A: FKElement, B: FKElement, max_window: int | None = None, max_degree: int | None = None
) -> bool:
    """Equality modulo the relation ideal.

    >>> x12 = fkalg.generator(1, 2, 4)
    >>> x34 = fkalg.generator(3, 4, 4)
    >>> fk_equal(x12 * x34, x34 * x12)
    True
    >>> x23 = fkalg.generator(2, 3, 4)
    >>> fk_equal(x12 * x23, x23 * x12)
    False
    """
    if isinstance(B, int):
        B = FKElement(A.n, {(): B})
    diff = A - B
    for d, comp in diff.degree_components().items():
        if _get_window(diff.n, d, max_window, max_degree).reduce(comp):
            return False
    return True


def ideal_rank(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> int:
    """Rank of the degree-d component of the relation ideal (clean basis):
    the number of clean words of degree d less the number of normal words."""
    dim = len(_get_window(n, d, max_window, max_degree).normal[d])
    m = len(_letters(n))
    return (m * (m - 1) ** (d - 1) if d else 1) - dim


def graded_dimension(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> int:
    """Dimension of the degree-d graded component of the quotient algebra.

    >>> [graded_dimension(3, d) for d in range(5)]
    [1, 3, 4, 3, 1]
    """
    if d == 0:
        return 1
    return len(_get_window(n, d, max_window, max_degree).normal[d])


if __name__ == "__main__":
    import doctest

    doctest.testmod()
