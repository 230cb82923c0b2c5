"""Shared fixtures and independent oracles.

Everything here recomputes reference values by routes the library does
not take: brute-force enumeration of words, dense elimination over the
raw word basis (adjacent duplicates included), the two-sided relation
products over clean words, synthetic division for divided differences,
skew operators applied one position set at a time, the compatible-sequence
expansion of Schubert polynomials, direct basis expansion of products,
q-integer products for Hilbert series, pairwise inversion counts, Bruhat
comparison by re-sorted prefixes, and the conjugate antipode by composing
transpositions. Tests compare library output
against these. It also holds tensor helpers that only tests use.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from skewdd import fkcanon, polyring, symgroup
from skewdd.fkalg import FKElement, FKTensor, canonical_letter


@pytest.fixture(scope="session")
def s3():
    return symgroup.all_permutations(3)


@pytest.fixture(scope="session")
def s4():
    return symgroup.all_permutations(4)


@lru_cache(maxsize=None)
def brute_reduced_words(w, n):
    """Every reduced word of w, by filtering all words of minimal length."""
    lw = symgroup.length(w)
    out = []
    for word in itertools.product(range(1, n), repeat=lw):
        if symgroup.from_word(word, n) == w:
            out.append(word)
    return tuple(sorted(out))


def right_descents(w):
    """Indices i with length(w * s_i) < length(w)."""
    return [i for i in range(1, len(w)) if w[i - 1] > w[i]]


def is_subsequence(short, long):
    it = iter(long)
    return all(x in it for x in short)


def bruhat_oracle(v, w, n):
    """Subword criterion: some reduced word of v sits inside one of w."""
    target = symgroup.canonical_reduced_word(w)
    return any(is_subsequence(rv, target) for rv in brute_reduced_words(v, n))


def brute_length(w):
    """The number of inversions, one pair of positions at a time."""
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def prefix_bruhat_oracle(v, w):
    """Tableau criterion with every prefix sorted afresh, behind a length
    test: the form the comparison took before it grew its prefixes by
    insertion."""
    v, w = symgroup.common_window(v, w)
    if brute_length(v) > brute_length(w):
        return False
    for k in range(1, len(w)):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def compose_sbar_word(word, n):
    """``sbar_word`` by its definition: letter k relabelled by the product,
    built with ``compose``, of the transpositions of the later letters."""
    u = symgroup.identity(n)
    out = []
    sign = 1
    for a, b in reversed(word):
        g, s = canonical_letter(u[a - 1], u[b - 1])
        out.append(g)
        sign *= s
        u = symgroup.compose(u, symgroup.transposition(a, b, n))
    return tuple(reversed(out)), sign


def _raw_words(n, d):
    return list(itertools.product(fkcanon._letters(n), repeat=d))


def _eliminate(rows):
    """Dense Gaussian elimination over Fraction-valued dict rows."""
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = {k: v / row[c] for k, v in row.items()}
                break
            factor = row[c]
            for k, v in pivots[c].items():
                row[k] = row.get(k, 0) - factor * v
            row = {k: v for k, v in row.items() if v}
    return pivots


@lru_cache(maxsize=None)
def raw_ideal_rank(n, d):
    """Rank of the degree-d ideal over ALL words, squares included."""
    if d < 2:
        return 0
    rows = []
    for inst in fkcanon.relation_instances(n):
        for k in range(d - 1):
            for u in _raw_words(n, k):
                for v in _raw_words(n, d - 2 - k):
                    rows.append(
                        {u + m + v: Fraction(c) for c, m in inst}
                    )
    return len(_eliminate(rows))


@lru_cache(maxsize=None)
def raw_dimension(n, d):
    """Graded dimension of the quotient, computed in the raw word basis."""
    return len(_raw_words(n, d)) - raw_ideal_rank(n, d)


def relation_basis(n, d):
    """All nonzero products u * r * v at degree d, r a relation instance and
    u, v clean words.  Squares vanish already in the free model, so the
    returned elements carry only commutators and cycle relations."""
    if d < 2:
        return []
    out = []
    for inst in fkcanon.relation_instances(n):
        mid = FKElement(n, {w: c for c, w in inst})
        if mid.is_zero():
            continue
        for k in range(d - 1):
            for u in fkcanon.clean_words(n, k):
                left = FKElement.from_word(u, n) * mid
                if left.is_zero():
                    continue
                for v in fkcanon.clean_words(n, d - 2 - k):
                    e = left * FKElement.from_word(v, n)
                    if not e.is_zero():
                        out.append(e)
    return out


def simple_tensor(A, B):
    """The tensor A (x) B, one word pair per pair of terms."""
    return FKTensor(max(A.n, B.n), [
        ((wa, wb), ca * cb) for wa, ca in A.terms.items() for wb, cb in B.terms.items()
    ])


def left_component(t, word):
    """The right-slot element paired with the left-slot word ``word`` in t."""
    return FKElement(t.n, [(r, c) for (l, r), c in t.terms.items() if l == word])


def synthetic_divided_difference(i, j, P):
    """(P - t_ij P) / (x_i - x_j) by synthetic division of the numerator.

    Monomials come off a heap in lex-descending order, so every popped
    term must still contain x_i; a remainder raises ArithmeticError.
    """
    sign = 1
    if i > j:
        i, j = j, i
        sign = -1
    n = max(P.n, j)
    P = P.extend(n)
    t = symgroup.transposition(i, j, n)
    numerator = dict((P - polyring.act(t, P)).terms)
    heap = [tuple(-x for x in e) for e in numerator]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        e = tuple(-x for x in heapq.heappop(heap))
        c = numerator.pop(e, 0)
        if not c:
            continue
        if not e[i - 1]:
            raise ArithmeticError("synthetic division left a remainder")
        q = list(e)
        q[i - 1] -= 1
        q = tuple(q)
        quotient[q] = quotient.get(q, 0) + c
        # cancel c * x_j * q from the numerator
        r = list(q)
        r[j - 1] += 1
        r = tuple(r)
        prev = numerator.get(r, 0)
        if not prev:
            heapq.heappush(heap, tuple(-x for x in r))
        numerator[r] = prev + c
    return polyring.Poly(n, {e: sign * c for e, c in quotient.items()})


def per_set_skew_direct_apply(w, v, P, word=None):
    """The skew operator of v <= w applied to P, one position set at a time.

    For each set J of positions of the reduced word of w that spells v
    (``reduced_subwords``), the letters in J act as variable swaps and the
    rest as divided differences, last position first; each result is acted
    on by v^(-1) and summed.
    """
    w, v = symgroup.common_window(w, v)
    n = max(len(w), P.n)
    w, v = symgroup.embed(w, n), symgroup.embed(v, n)
    word = symgroup.canonical_reduced_word(w) if word is None else tuple(word)
    P = P.extend(n)
    total = polyring.Poly.zero(n)
    for J in symgroup.reduced_subwords(word, v, n):
        out = P
        for pos in range(len(word), 0, -1):
            a = word[pos - 1]
            if pos in J:
                out = polyring.act(symgroup.simple(a, n), out)
            else:
                out = polyring.divided_difference(a, a + 1, out)
        total = total + polyring.act(symgroup.inverse(v), out)
    return total


def hilbert_series(factors, top):
    """Coefficients through degree ``top`` of the product of the q-integers
    [k] = 1 + q + ... + q^(k-1), one per entry of ``factors``."""
    poly = [1]
    for k in factors:
        nxt = [0] * (len(poly) + k - 1)
        for i, c in enumerate(poly):
            for j in range(k):
                nxt[i + j] += c
        poly = nxt
    return (poly + [0] * (top + 1))[: top + 1]


def bjs_schubert(w, n):
    """Schubert polynomial by compatible sequences over all reduced words.

    For each reduced word a, sum x_{b_1}..x_{b_l} over weakly increasing
    b with b_k <= a_k, strictly increasing wherever a increases.
    """
    terms = {}
    for a in brute_reduced_words(w, n):
        stack = [((), 0)]
        while stack:
            b, k = stack.pop()
            if k == len(a):
                e = [0] * n
                for i in b:
                    e[i - 1] += 1
                key = tuple(e)
                terms[key] = terms.get(key, 0) + 1
                continue
            lo = 1 if not b else b[-1] + (1 if k and a[k - 1] < a[k] else 0)
            for i in range(lo, a[k] + 1):
                stack.append((b + (i,), k + 1))
    return terms


def _code(w):
    return tuple(
        sum(1 for j in range(i + 1, len(w)) if w[j] < w[i])
        for i in range(len(w))
    )


def expand_schubert_product(u, v):
    """Coefficients of S_u * S_v over the Schubert basis, window 5.

    Peels the reverse-lex-largest monomial, which is the code monomial
    of a unique basis permutation; the final reconstruction assert makes
    the expansion self-certifying.
    """
    n = 5
    p = polyring.schubert(symgroup.embed(u, n), n) * polyring.schubert(
        symgroup.embed(v, n), n
    )
    d = symgroup.length(u) + symgroup.length(v)
    by_code = {
        _code(w): w
        for w in symgroup.all_permutations(n)
        if symgroup.length(w) == d
    }
    coeffs = {}
    rem = p
    while rem.terms:
        e = max(rem.terms, key=lambda t: t[::-1])
        w = by_code[e]
        c = rem.terms[e]
        coeffs[w] = c
        rem = rem - polyring.schubert(w, n) * c
    total = polyring.Poly.zero(n)
    for w, c in coeffs.items():
        total = total + polyring.schubert(w, n) * c
    assert total == p, "schubert expansion failed to reconstruct the product"
    return coeffs
