"""
Symmetric group combinatorics on one-line notation.

A permutation of the window {1, ..., n} is a tuple ``w`` of length n with
``w[i-1] == w(i)``.  Composition is functional: ``compose(u, v)`` maps i to
``u(v(i))``.  A word is a tuple of simple-transposition indices, multiplied
left to right, so ``from_word((2, 1), 3)`` is s2 followed by s1 acting inside:

>>> from_word((2, 1), 3)
(3, 1, 2)
>>> compose(simple(2, 3), simple(1, 3))
(3, 1, 2)

Windows embed by fixing trailing points; mixed-window operations embed into
the larger window first.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache

__all__ = [
    "Perm",
    "Word",
    "identity",
    "is_permutation",
    "embed",
    "common_window",
    "compose",
    "inverse",
    "length",
    "transposition",
    "simple",
    "from_word",
    "is_reduced",
    "left_descents",
    "canonical_reduced_word",
    "all_reduced_words",
    "bruhat_leq",
    "reduced_subwords",
    "lower_covers",
    "longest_element",
    "reflection_ordering",
    "reflection_ordering_from_word",
    "all_permutations",
    "perm_to_oneline",
]

Perm = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Perm:
    """The identity permutation of window n."""
    return tuple(range(1, n + 1))


def is_permutation(seq) -> bool:
    """True when seq is a rearrangement of 1..len(seq).

    >>> is_permutation((3, 1, 2))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    return sorted(seq) == list(range(1, len(seq) + 1))


def embed(w: Perm, n: int) -> Perm:
    """Embed w into window n by fixing the trailing points."""
    if len(w) > n:
        raise ValueError(f"cannot embed window {len(w)} into window {n}")
    if len(w) == n:
        return tuple(w)
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


def common_window(*perms: Perm) -> tuple[Perm, ...]:
    """Embed all arguments into the largest window present; tuples that
    already share one window come back as they are, uncopied."""
    n = max(len(w) for w in perms)
    if all(len(w) == n and type(w) is tuple for w in perms):
        return perms
    return tuple(embed(w, n) for w in perms)


def compose(u: Perm, v: Perm) -> Perm:
    """The product u*v acting as i -> u(v(i)).

    >>> compose(simple(2, 3), simple(1, 3))
    (3, 1, 2)
    >>> compose(simple(1, 3), simple(2, 3))
    (2, 3, 1)
    """
    if len(u) != len(v):
        u, v = common_window(u, v)
    return tuple([u[x - 1] for x in v])


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def length(w: Perm) -> int:
    """Coxeter length: the number of inversions.

    >>> length((3, 4, 1, 2))
    4
    """
    inv = 0
    for i, a in enumerate(w, start=1):
        for b in w[i:]:
            if b < a:
                inv += 1
    return inv


def transposition(i: int, j: int, n: int) -> Perm:
    """The transposition exchanging i and j inside window n."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"invalid transposition ({i},{j}) in window {n}")
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = j, i
    return tuple(out)


def simple(i: int, n: int) -> Perm:
    """The simple transposition s_i = (i, i+1) inside window n."""
    if not (1 <= i < n):
        raise ValueError(f"simple reflection index {i} out of range for window {n}")
    return transposition(i, i + 1, n)


def from_word(word, n: int) -> Perm:
    """Evaluate a word of simple-transposition indices, left to right.

    >>> from_word((2, 1, 3, 2), 4)
    (3, 4, 1, 2)
    """
    out = list(range(1, n + 1))
    for a in word:
        if not (1 <= a < n):
            raise ValueError(f"letter {a} out of range for window {n}")
        out[a - 1], out[a] = out[a], out[a - 1]
    return tuple(out)


def is_reduced(word, n: int) -> bool:
    """True when the word has the same length as the permutation it spells."""
    return length(from_word(word, n)) == len(tuple(word))


def left_descents(w: Perm) -> list[int]:
    """Indices i with length(s_i * w) < length(w)."""
    pos = inverse(w)
    return [i for i in range(1, len(w)) if pos[i - 1] > pos[i]]


def canonical_reduced_word(w: Perm) -> Word:
    """The lexicographically smallest reduced word for w.

    Greedy: repeatedly strip the smallest left descent i, where the value
    i + 1 stands left of i.  s_i * w swaps those two values, so one pass
    swaps entries of the inverse in place.  Before the swap at i there is
    no descent below i, and after it none below i - 1, so the scan for the
    next one resumes there.  The words are memoized per permutation for the
    life of the process; a word is a tuple, so no caller can change one.

    >>> canonical_reduced_word((3, 4, 1, 2))
    (2, 1, 3, 2)
    """
    return _canonical_reduced_word(tuple(w))


@lru_cache(maxsize=None)
def _canonical_reduced_word(w: Perm) -> Word:
    pos = list(inverse(w))
    word = []
    i = 1
    while i < len(pos):
        if pos[i - 1] > pos[i]:
            word.append(i)
            pos[i - 1], pos[i] = pos[i], pos[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(word)


@lru_cache(maxsize=None)
def all_reduced_words(w: Perm) -> tuple[Word, ...]:
    """All reduced words for w, in lexicographic order.

    >>> all_reduced_words((3, 2, 1))
    ((1, 2, 1), (2, 1, 2))
    """
    if length(w) == 0:
        return ((),)
    out = []
    for i in left_descents(w):
        # s_i * w swaps the values i and i + 1
        u = tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)
        for rest in all_reduced_words(u):
            out.append((i,) + rest)
    return tuple(out)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Bruhat order comparison v <= w.

    The tableau criterion (Bjorner-Brenti, Combinatorics of Coxeter Groups,
    Thm 2.6.3) decides on its own: v <= w exactly when, for each k < n, the
    sorted first k entries of v lie entrywise below those of w.  So no
    length test is needed.  The two sorted prefixes grow by one insertion
    each per k.  The test suite checks this against the subword criterion
    (Thm 2.2.2) on all of S3 and S4, and against an oracle that sorts every
    prefix afresh on all of S5.

    >>> bruhat_leq(simple(2, 4), (3, 4, 1, 2))
    True
    >>> bruhat_leq((2, 3, 1), (3, 1, 2))
    False
    """
    if len(v) != len(w):
        v, w = common_window(v, w)
    pv: list[int] = []
    pw: list[int] = []
    for a, b in zip(v[:-1], w[:-1]):
        insort(pv, a)
        insort(pw, b)
        for x, y in zip(pv, pw):
            if x > y:
                return False
    return True


def reduced_subwords(word, u: Perm, n: int | None = None) -> list[tuple[int, ...]]:
    """All position sets (1-based, increasing) where word contains a reduced
    word for u as a subword, in lexicographic order.

    The chosen letters spell a reduced word for u exactly when every partial
    product p lies below u in right weak order.  Taking letter a at an ascent
    x = p(a) < y = p(a+1) adds the inversion of the values x < y, so the
    step stays below u exactly when y precedes x in u.  That test costs
    O(1) per letter, and only a shortage of remaining letters can end a
    branch the enumeration enters.  A letter outside 1..n-1 raises
    ValueError.

    >>> reduced_subwords((1, 1), simple(1, 2))
    [(1,), (2,)]
    >>> reduced_subwords((3, 2, 1, 2, 3), from_word((1, 3), 4))
    [(1, 3), (3, 5)]
    """
    word = tuple(word)
    if n is None:
        n = max(len(u), max(word, default=0) + 1)
    for a in word:
        if not (1 <= a < n):
            raise ValueError(f"letter {a} out of range for window {n}")
    target = u if len(u) == n else embed(u, n)
    tlen = length(target)
    tpos = inverse(target)
    m = len(word)
    p = list(range(1, n + 1))
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    # Taking a letter is tried before skipping it, so the sets come out in
    # lexicographic order; tlen letters below u in weak order spell u itself.
    def rec(k: int) -> None:
        if len(chosen) == tlen:
            out.append(tuple(chosen))
            return
        if tlen - len(chosen) > m - k:
            return
        a = word[k]
        x, y = p[a - 1], p[a]
        if x < y and tpos[y - 1] < tpos[x - 1]:
            p[a - 1], p[a] = y, x
            chosen.append(k + 1)
            rec(k + 1)
            chosen.pop()
            p[a - 1], p[a] = x, y
        rec(k + 1)

    rec(0)
    return out


def lower_covers(w: Perm) -> list[tuple[Perm, tuple[int, int]]]:
    """All (v, (i, j)) with v = w * t_ij and length(v) = length(w) - 1.

    >>> sorted(v for v, t in lower_covers((2, 3, 1)))
    [(1, 3, 2), (2, 1, 3)]
    """
    n = len(w)
    lw = length(w)
    out = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            v = list(w)
            v[i - 1], v[j - 1] = v[j - 1], v[i - 1]
            v = tuple(v)
            if length(v) == lw - 1:
                out.append((v, (i, j)))
    return out


def longest_element(n: int) -> Perm:
    """The longest element n, n-1, ..., 1 of window n."""
    return tuple(range(n, 0, -1))


def reflection_ordering(n: int) -> list[tuple[int, int]]:
    """The fixed total order on transpositions in which t_ik sits strictly
    between t_ij and t_jk whenever i < j < k.

    >>> reflection_ordering(4)
    [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    """
    return [(i, j) for j in range(2, n + 1) for i in range(1, j)]


def reflection_ordering_from_word(word, n: int) -> list[tuple[int, int]]:
    """The transposition order induced by a reduced word for the longest
    element: the k-th entry is the pair swapped by the suffix-conjugated
    k-th letter."""
    word = tuple(word)
    if from_word(word, n) != longest_element(n) or len(word) != n * (n - 1) // 2:
        raise ValueError("expected a reduced word for the longest element")
    out: list[tuple[int, int]] = []
    u = identity(n)
    for a in reversed(word):
        pair = (u[a - 1], u[a])
        out.append((min(pair), max(pair)))
        u = compose(u, simple(a, n))
    out.reverse()
    return out


def all_permutations(n: int):
    """All permutations of window n in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def perm_to_oneline(w: Perm) -> str:
    """One-line digit string, e.g. (3, 4, 1, 2) -> "3412" (window <= 9)."""
    if len(w) > 9:
        raise ValueError("one-line digit strings support windows up to 9")
    return "".join(str(a) for a in w)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
