"""
Equality oracle modulo the full relation ideal.

The free model in :mod:`skewdd.fkalg` only knows that equal adjacent letters
annihilate.  This module decides equality modulo the remaining relations

- disjoint letters commute,
- the three-term cycle relation on each triple of indices,

by exact integer elimination, one graded piece at a time.  Within a degree
the ideal splits further by permutation degree, so each (degree, sn_degree)
block carries its own reduced row-echelon set of sparse integer rows over
the lexicographic word basis.  Echelon data is unique for the fixed column
order, hence canonical forms do not depend on assembly order.

Building a block set for window 4 at degree 6 takes a few seconds; results
are cached per (n, d) in memory and can be persisted to a portable JSON file.
"""

from __future__ import annotations

import hashlib
import json
import threading
from fractions import Fraction
from math import gcd

from . import fkalg, symgroup
from .fkalg import FKElement, FKWord
from .symgroup import Perm

__all__ = [
    "DEFAULT_MAX_WINDOW",
    "DEFAULT_MAX_DEGREE",
    "ResourceLimitError",
    "clean_words",
    "relation_instances",
    "relation_basis",
    "relation_hash",
    "canonical_form",
    "fk_equal",
    "graded_dimension",
    "ideal_rank",
    "save_elimination",
    "load_elimination",
    "clear_cache",
]

DEFAULT_MAX_WINDOW = 4
DEFAULT_MAX_DEGREE = 6

_FORMAT_VERSION = 1


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


def relation_hash(n: int) -> str:
    """Stable identifier for the relation set used in cache files."""
    payload = json.dumps(
        [[[c, [list(g) for g in w]] for c, w in inst] for inst in relation_instances(n)],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def relation_basis(n: int, d: int) -> list[FKElement]:
    """All nonzero products u * r * v at degree d, r a relation instance and
    u, v words.  Squares vanish already in the free model, so the returned
    elements carry only commutators and cycle relations.

    >>> [e.degree() for e in relation_basis(3, 2)]
    [2, 2]
    """
    if d < 2:
        return []
    out = []
    for inst in relation_instances(n):
        mid = FKElement(n, {w: c for c, w in inst})
        if mid.is_zero():
            continue
        for k in range(d - 1):
            for u in clean_words(n, k):
                left = FKElement.from_word(u, n) * mid
                if left.is_zero():
                    continue
                for v in clean_words(n, d - 2 - k):
                    e = left * FKElement.from_word(v, n)
                    if not e.is_zero():
                        out.append(e)
    return out


class _Block:
    """Reduced echelon rows for one (degree, sn_degree) component.

    Rows are primitive integer sparse vectors (column -> coefficient) whose
    smallest column is the pivot; every pivot column appears in exactly one
    row and carries a positive coefficient.
    """

    __slots__ = ("pivots", "colindex")

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}
        # column -> set of pivot columns whose rows touch it
        self.colindex: dict[int, set[int]] = {}

    @staticmethod
    def _primitive(row: dict[int, int]) -> dict[int, int]:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if row[min(row)] < 0:
            g = -g
        return {k: v // g for k, v in row.items()}

    def insert(self, row: dict[int, int]) -> bool:
        """Fold one row in; True when the rank grew."""
        row = {k: v for k, v in row.items() if v}
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
            return False
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
        return True

    def _store(self, c: int, row: dict[int, int]) -> None:
        old = self.pivots.get(c)
        if old:
            for k in old:
                self.colindex[k].discard(c)
        self.pivots[c] = row
        for k in row:
            self.colindex.setdefault(k, set()).add(c)

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
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
            f = Fraction(val, piv[c])
            for k, v in piv.items():
                vec[k] = vec.get(k, 0) - f * v
        return {k: v for k, v in vec.items() if v}

    def rank(self) -> int:
        return len(self.pivots)


class _Elimination:
    """Per-(n, d) elimination data: column order plus per-block echelon rows."""

    __slots__ = ("n", "d", "colof", "words", "blocks")

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.words = clean_words(n, d)
        self.colof: dict[FKWord, int] = {w: i for i, w in enumerate(self.words)}
        self.blocks: dict[Perm, _Block] = {}

    def block_for(self, word: FKWord) -> _Block:
        sigma = fkalg.sn_degree(word, self.n)
        blk = self.blocks.get(sigma)
        if blk is None:
            blk = self.blocks[sigma] = _Block()
        return blk

    def build(self) -> None:
        for inst in relation_instances(self.n):
            terms = [(c, w) for c, w in inst if w[0] != w[1]]
            if not terms:
                continue
            for k in range(self.d - 1):
                rights = clean_words(self.n, self.d - 2 - k)
                for u in clean_words(self.n, k):
                    for v in rights:
                        row: dict[int, int] = {}
                        for c, w in terms:
                            if u and u[-1] == w[0]:
                                continue
                            if v and w[-1] == v[0]:
                                continue
                            col = self.colof[u + w + v]
                            row[col] = row.get(col, 0) + c
                        row = {cc: vv for cc, vv in row.items() if vv}
                        if row:
                            self.block_for(self.words[min(row)]).insert(row)

    def rank(self) -> int:
        return sum(b.rank() for b in self.blocks.values())

    def reduce_element(self, A: FKElement) -> dict[FKWord, Fraction]:
        by_block: dict[Perm, dict[int, Fraction]] = {}
        for w, c in A.terms.items():
            sigma = fkalg.sn_degree(w, self.n)
            by_block.setdefault(sigma, {})[self.colof[w]] = Fraction(c)
        out: dict[FKWord, Fraction] = {}
        for sigma, vec in by_block.items():
            blk = self.blocks.get(sigma)
            residue = blk.reduce(vec) if blk else vec
            for col, val in residue.items():
                out[self.words[col]] = val
        return out


_cache: dict[tuple[int, int], _Elimination] = {}
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


def _get_elimination(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> _Elimination:
    if d < 0:
        raise ValueError(f"degree {d} is negative")
    _check_limits(n, d, max_window, max_degree)
    key = (n, d)
    elim = _cache.get(key)
    if elim is not None:
        return elim
    with _lock:
        elim = _cache.get(key)
        if elim is None:
            elim = _Elimination(n, d)
            elim.build()
            _cache[key] = elim
    return elim


def canonical_form(
    A: FKElement, max_window: int | None = None, max_degree: int | None = None
) -> FKElement:
    """The unique representative of A modulo the relation ideal with no
    component in the echelon row space.  Linear and idempotent; zero exactly
    on ideal members.

    >>> x12, x23, x13 = (fkalg.generator(*g, 3) for g in ((1, 2), (2, 3), (1, 3)))
    >>> canonical_form(x12 * x23 - x23 * x13 - x13 * x12).is_zero()
    True
    """
    out = FKElement(A.n)
    for d, comp in A.degree_components().items():
        elim = _get_elimination(A.n, d, max_window, max_degree)
        for w, val in elim.reduce_element(comp).items():
            if val.denominator != 1:
                raise ArithmeticError(
                    "canonical form left the integer lattice; "
                    f"a pivot exceeds 1 at window {A.n} degree {d}"
                )
            out.terms[w] = out.terms.get(w, 0) + int(val)
    out.terms = {w: c for w, c in out.terms.items() if c}
    return out


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
        elim = _get_elimination(diff.n, d, max_window, max_degree)
        if elim.reduce_element(comp):
            return False
    return True


def ideal_rank(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> int:
    """Rank of the degree-d component of the relation ideal (clean basis)."""
    return _get_elimination(n, d, max_window, max_degree).rank()


def graded_dimension(
    n: int, d: int, max_window: int | None = None, max_degree: int | None = None
) -> int:
    """Dimension of the degree-d graded component of the quotient algebra.

    >>> [graded_dimension(3, d) for d in range(5)]
    [1, 3, 4, 3, 1]
    """
    if d == 0:
        return 1
    elim = _get_elimination(n, d, max_window, max_degree)
    return len(elim.words) - elim.rank()


def save_elimination(path: str, n: int, d: int, **limits) -> None:
    """Persist the (n, d) elimination data as byte-stable JSON."""
    elim = _get_elimination(n, d, **limits)
    blocks = []
    for sigma in sorted(elim.blocks):
        blk = elim.blocks[sigma]
        rows = [
            sorted(blk.pivots[piv].items())
            for piv in sorted(blk.pivots)
        ]
        blocks.append({"sigma": list(sigma), "rows": rows})
    payload = {
        "version": _FORMAT_VERSION,
        "n": n,
        "d": d,
        "relhash": relation_hash(n),
        "blocks": blocks,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def load_elimination(path: str) -> tuple[int, int]:
    """Install persisted elimination data into the cache; returns (n, d)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported elimination file version {payload.get('version')!r}")
    n, d = int(payload["n"]), int(payload["d"])
    if payload.get("relhash") != relation_hash(n):
        raise ValueError("elimination file does not match the current relation set")
    elim = _Elimination(n, d)
    for entry in payload["blocks"]:
        sigma = tuple(int(x) for x in entry["sigma"])
        blk = elim.blocks[sigma] = _Block()
        for row in entry["rows"]:
            cells = {int(c): int(v) for c, v in row}
            blk._store(min(cells), cells)
    with _lock:
        _cache[(n, d)] = elim
    return n, d


if __name__ == "__main__":
    import doctest

    doctest.testmod()
