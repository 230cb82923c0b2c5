"""
Free-algebra model of the quadratic algebra on generators x(i,j).

Words are tuples of canonically oriented letters (i, j) with i < j; the
reversed letter x(j,i) is -x(i,j).  The only rewriting applied eagerly is
sign canonicalization and annihilation of words with two equal adjacent
letters.  Commutation and the three-term relation are deliberately NOT
applied here; equality modulo those lives in :mod:`skewdd.fkcanon`.

>>> A = generator(1, 2, 3) * generator(2, 3, 3)
>>> print(A)
x(1,2)x(2,3)
>>> print(A * A)
x(1,2)x(2,3)x(1,2)x(2,3)
>>> print(generator(1, 2, 3) * generator(1, 2, 3))
0
"""

from __future__ import annotations

import re

from . import symgroup
from .symgroup import Perm
from .terms import Terms

__all__ = [
    "Letter",
    "FKWord",
    "FKElement",
    "FKTensor",
    "ParseError",
    "canonical_letter",
    "canonical_word",
    "generator",
    "relabel_word",
    "act",
    "sn_degree",
    "coproduct",
    "delta_op",
    "delta_walk",
    "nabla_op",
    "pairing",
    "pairing_bruhat",
    "bruhat_chain_words",
    "antipode",
    "sbar_word",
    "sbar",
    "reverse_element",
    "nilcoxeter_word",
    "nilcoxeter_element",
    "random_word",
]

Letter = tuple[int, int]
FKWord = tuple[Letter, ...]


class ParseError(ValueError):
    """Malformed text input; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def canonical_letter(i: int, j: int) -> tuple[Letter, int]:
    """Orient a generator index pair, returning ((min,max), sign).

    >>> canonical_letter(2, 1)
    ((1, 2), -1)
    """
    if i == j:
        raise ValueError(f"generator indices must differ, got ({i},{j})")
    if i < j:
        return (i, j), 1
    return (j, i), -1


def canonical_word(letters) -> tuple[FKWord | None, int]:
    """Orient every letter; returns (None, 0) when two equal letters end up
    adjacent, since such a word is zero."""
    sign = 1
    out: list[Letter] = []
    for a, b in letters:
        g, s = canonical_letter(a, b)
        if out and out[-1] == g:
            return None, 0
        sign *= s
        out.append(g)
    return tuple(out), sign


class _Terms(Terms):
    """The one text form and one JSON form of FK elements and tensors.

    FKElement keys terms on a word, FKTensor on a word pair.  A subclass
    names the JSON field of each word of a key in ``_FIELDS`` and orders
    its terms in ``sorted_terms``; rendering and parsing read a key as its
    words joined by " (x) ".
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _NOUN = ""

    @classmethod
    def _key(cls, words):
        return words[0] if len(cls._FIELDS) == 1 else tuple(words)

    def _words(self, key) -> tuple:
        return (key,) if len(self._FIELDS) == 1 else key

    def __init__(self, n: int, terms=None):
        """Orient every letter, folding the signs into the coefficient, and
        drop a key when one of its words has two equal adjacent letters; a
        letter outside window n raises ValueError."""
        self.n = n
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for key, c in items:
            if not c:
                continue
            raw = self._words(key)
            # every letter is checked before any word of the key can be dropped
            for word in raw:
                for a, b in word:
                    if not (0 < a <= n and 0 < b <= n):
                        raise ValueError(f"letter ({min(a, b)},{max(a, b)}) outside window {n}")
            words = []
            for word in raw:
                w, s = canonical_word(word)
                if w is None:
                    break
                words.append(w)
                c *= s
            else:
                key = self._key(words)
                acc[key] = acc.get(key, 0) + c
        self.terms = {k: c for k, c in acc.items() if c}

    @classmethod
    def _one_key(cls, n: int):
        # the constant is the empty word in every factor
        return cls._key(((),) * len(cls._FIELDS))

    def __str__(self) -> str:
        out = ""
        for key, c in self.sorted_terms():
            body = " (x) ".join(word_text(w) for w in self._words(key))
            if abs(c) == 1:
                chunk = body
            elif body == "1":  # the empty word of an element is the constant
                chunk = str(abs(c))
            else:
                chunk = f"{abs(c)}*{body}"
            if out:
                out += f" {'-' if c < 0 else '+'} {chunk}"
            else:
                out = ("-" if c < 0 else "") + chunk
        return out or "0"

    def to_json_dict(self) -> dict:
        terms = []
        for key, c in self.sorted_terms():
            t = {"coeff": c}
            for field, w in zip(self._FIELDS, self._words(key)):
                t[field] = [list(g) for g in w]
            terms.append(t)
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: dict):
        terms = [
            (
                cls._key([tuple((int(a), int(b)) for a, b in t[f]) for f in cls._FIELDS]),
                int(t["coeff"]),
            )
            for t in data["terms"]
        ]
        return cls(int(data["n"]), terms)

    @classmethod
    def parse(cls, text: str, n: int):
        """Parse the text form produced by ``str``.

        >>> print(FKElement.parse("x(2,1)x(2,3) + 2", 3))
        2 - x(1,2)x(2,3)
        >>> print(FKTensor.parse("- 2*x(1,2) (x) 1", 3))
        -2*x(1,2) (x) 1
        """
        terms = []
        pos = _skip_spaces(text, 0)
        sign = 1
        if pos < len(text) and text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = _skip_spaces(text, pos + 1)
        if pos >= len(text):
            raise ParseError(f"empty {cls._NOUN} text", pos)
        while True:
            word, coeff, pos = _parse_term(text, pos)
            words = [word]
            for _ in cls._FIELDS[1:]:
                pos = _skip_spaces(text, pos)
                if not text.startswith("(x)", pos):
                    raise ParseError("expected '(x)' between tensor factors", pos)
                word, pos = _parse_word(text, _skip_spaces(text, pos + 3))
                if word is None:
                    raise ParseError("expected a word after '(x)'", pos)
                words.append(word)
            for w in words:
                for a, b in w:
                    if not (1 <= a <= n and 1 <= b <= n):
                        raise ParseError(f"index out of window {n}", pos)
            terms.append((cls._key(words), sign * coeff))
            pos = _skip_spaces(text, pos)
            if pos >= len(text):
                return cls(n, terms)
            if text[pos] not in "+-":
                raise ParseError("trailing input", pos)
            sign = -1 if text[pos] == "-" else 1
            pos = _skip_spaces(text, pos + 1)


class FKElement(_Terms):
    """Integer combination of words in the generators x(i,j), 1 <= i < j <= n.

    Construction reorients letters and drops words with equal adjacent
    letters:

    >>> print(FKElement(3, {((2, 1),): 5}))
    -5*x(1,2)
    >>> print(FKElement(3, {((1, 2), (2, 1)): 5}))
    0
    """

    __slots__ = ()
    _FIELDS = ("word",)
    _NOUN = "element"

    @classmethod
    def from_word(cls, word, n: int, coeff: int = 1) -> "FKElement":
        return cls(n, {tuple(tuple(g) for g in word): coeff})

    def degree(self) -> int:
        """Maximal word length, -1 for zero."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        return len({len(w) for w in self.terms}) <= 1

    def degree_components(self) -> dict[int, "FKElement"]:
        """Split into homogeneous pieces, keyed by degree."""
        out: dict[int, FKElement] = {}
        for w, c in self.terms.items():
            out.setdefault(len(w), FKElement(self.n)).terms[w] = c
        return out

    def coefficient(self, word) -> int:
        w, s = canonical_word(tuple(tuple(g) for g in word))
        if w is None:
            return 0
        return s * self.terms.get(w, 0)

    def is_positive(self) -> bool:
        """Nonzero with every stored coefficient positive."""
        return bool(self.terms) and all(c > 0 for c in self.terms.values())

    def __mul__(self, other) -> "FKElement":
        if not isinstance(other, FKElement):
            return super().__mul__(other)
        a, b = self._common(other)
        terms: dict[FKWord, int] = {}
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                # both factors are clean, so only the seam can collide
                if w1 and w2 and w1[-1] == w2[0]:
                    continue
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return FKElement._of(a.n, terms)

    def sorted_terms(self) -> list[tuple[FKWord, int]]:
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]))


def word_text(w: FKWord) -> str:
    """Text form of one word, e.g. "x(1,2)x(2,3)"; empty word prints "1"."""
    if not w:
        return "1"
    return "".join(f"x({a},{b})" for a, b in w)


_INT_RE = re.compile(r"\d+")


def _skip_spaces(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] == " ":
        pos += 1
    return pos


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    m = _INT_RE.match(text, pos)
    if not m:
        raise ParseError("expected an integer", pos)
    return int(m.group()), m.end()


def _parse_factor(text: str, pos: int) -> tuple[Letter, int]:
    # 'x' '(' int ',' int ')'
    if pos >= len(text) or text[pos] != "x":
        raise ParseError("expected a generator like x(1,2)", pos)
    pos += 1
    if pos >= len(text) or text[pos] != "(":
        raise ParseError("expected '(' after x", pos)
    a, pos = _parse_int(text, pos + 1)
    if pos >= len(text) or text[pos] != ",":
        raise ParseError("expected ',' inside generator", pos)
    b, pos = _parse_int(text, pos + 1)
    if pos >= len(text) or text[pos] != ")":
        raise ParseError("expected ')' closing generator", pos)
    return (a, b), pos + 1


def _parse_word(text: str, pos: int) -> tuple[FKWord | None, int]:
    # '1' for the empty word, else one or more factors
    if pos < len(text) and text[pos] == "1":
        return (), pos + 1
    letters = []
    while pos < len(text) and text[pos] == "x":
        g, pos = _parse_factor(text, pos)
        letters.append(g)
    if not letters:
        return None, pos
    return tuple(letters), pos


def _parse_term(text: str, pos: int) -> tuple[FKWord, int, int]:
    # [int ['*']] word?  -- at least one of coefficient, word
    coeff = None
    start = pos
    m = _INT_RE.match(text, pos)
    if m:
        coeff = int(m.group())
        pos = m.end()
        if pos < len(text) and text[pos] == "*":
            pos += 1
            word, pos = _parse_word(text, pos)
            if word is None:
                raise ParseError("expected a word after '*'", pos)
            return word, coeff, pos
        return (), coeff, pos
    word, pos = _parse_word(text, pos)
    if word is None:
        raise ParseError("expected a term", start)
    return word, 1, pos


def generator(i: int, j: int, n: int) -> FKElement:
    """The element x(i,j) inside window n; x(j,i) = -x(i,j).

    >>> print(generator(2, 1, 3))
    -x(1,2)
    """
    g, s = canonical_letter(i, j)
    if not (1 <= g[0] and g[1] <= n):
        raise ValueError(f"generator ({i},{j}) outside window {n}")
    return FKElement(n, {(g,): s})


def relabel_word(word: FKWord, w: Perm) -> tuple[FKWord, int]:
    """Apply the index relabeling i -> w(i) to every letter, reorienting."""
    sign = 1
    out = []
    for a, b in word:
        g, s = canonical_letter(w[a - 1], w[b - 1])
        sign *= s
        out.append(g)
    return tuple(out), sign


def act(w: Perm, A: FKElement) -> FKElement:
    """Relabel generator indices by w.

    >>> print(act((1, 2, 4, 3), FKElement.parse("x(1,2)x(2,3)", 4)))
    x(1,2)x(2,4)
    >>> print(act((2, 1), generator(1, 2, 2)))
    -x(1,2)
    """
    n = max(len(w), A.n)
    w = symgroup.embed(w, n)
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        rw, s = relabel_word(word, w)
        terms[rw] = terms.get(rw, 0) + s * c
    return FKElement._of(n, terms)


def sn_degree(word, n: int) -> Perm:
    """The product of the letters' transpositions, in word order.

    >>> sn_degree(((1, 2), (2, 3)), 3)
    (2, 3, 1)
    """
    out = symgroup.identity(n)
    for a, b in word:
        out = symgroup.compose(out, symgroup.transposition(a, b, n))
    return out


class FKTensor(_Terms):
    """Integer combination of ordered word pairs (coproduct values).

    Construction treats each factor as ``FKElement`` treats its word:

    >>> print(FKTensor(3, {(((2, 1),), ()): 1}))
    -x(1,2) (x) 1
    >>> print(FKTensor(3, {(((1, 2), (1, 2)), ()): 1}))
    0
    """

    __slots__ = ()
    _FIELDS = ("left", "right")
    _NOUN = "tensor"

    def swap(self) -> "FKTensor":
        return FKTensor._of(self.n, {(r, l): c for (l, r), c in self.terms.items()})

    def map_factors(self, f, g) -> "FKTensor":
        """Apply word -> FKElement maps to the two slots, bilinearly."""
        terms: dict[tuple[FKWord, FKWord], int] = {}
        for (l, r), c in self.terms.items():
            L: FKElement = f(l)
            R: FKElement = g(r)
            for wl, cl in L.terms.items():
                for wr, cr in R.terms.items():
                    key = (wl, wr)
                    terms[key] = terms.get(key, 0) + c * cl * cr
        return FKTensor._of(self.n, terms)

    def sorted_terms(self) -> list[tuple[tuple[FKWord, FKWord], int]]:
        return sorted(self.terms.items(), key=lambda t: (-len(t[0][0]), t[0][0], t[0][1]))


def coproduct(A: FKElement) -> FKTensor:
    """The braided coproduct, folding g -> g(x)1 + 1(x)g over each word.

    Sending a letter to the left slot relabels the right slot by that
    letter's transposition (the braiding); either route dies when the
    receiving factor already ends with the same letter.

    >>> print(coproduct(FKElement.parse("x(1,2)x(2,3)", 3)))
    x(1,2)x(2,3) (x) 1 + x(1,2) (x) x(2,3) + x(2,3) (x) x(1,3) + 1 (x) x(1,2)x(2,3)
    """
    terms: dict[tuple[FKWord, FKWord], int] = {}
    for word, c in A.terms.items():
        parts: dict[tuple[FKWord, FKWord], int] = {((), ()): c}
        for g in word:
            t = symgroup.transposition(g[0], g[1], A.n)
            nxt: dict[tuple[FKWord, FKWord], int] = {}
            for (l, r), cc in parts.items():
                if not (l and l[-1] == g):
                    rr, s = relabel_word(r, t)
                    key = (l + (g,), rr)
                    nxt[key] = nxt.get(key, 0) + cc * s
                if not (r and r[-1] == g):
                    key = (l, r + (g,))
                    nxt[key] = nxt.get(key, 0) + cc
            parts = nxt
        for key, cc in parts.items():
            terms[key] = terms.get(key, 0) + cc
    return FKTensor._of(A.n, terms)


def _delta_letter(a: int, b: int, A: FKElement) -> FKElement:
    (a, b), s0 = canonical_letter(a, b)
    n = A.n
    t = symgroup.transposition(a, b, n)
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        for k, g in enumerate(word):
            if g != (a, b):
                continue
            prefix, s1 = relabel_word(word[:k], t)
            suffix = word[k + 1:]
            if prefix and suffix and prefix[-1] == suffix[0]:
                continue
            w = prefix + suffix
            terms[w] = terms.get(w, 0) + s0 * s1 * c
    return FKElement._of(n, terms)


def _by_words(P: FKElement, A: FKElement, op) -> FKElement:
    """The sum over the words of P of their coefficient times op(word, A)."""
    A = A.extend(max(P.n, A.n))
    terms: dict[FKWord, int] = {}
    for word, c in P.terms.items():
        for w, cc in op(word, A).terms.items():
            terms[w] = terms.get(w, 0) + c * cc
    return FKElement._of(A.n, terms)


def delta_op(P, A: FKElement) -> FKElement:
    """The left slicing operator of a word (or element) P applied to A.

    For a single letter, picks out each occurrence, relabels everything to
    its left by the letter's transposition, and concatenates what is left.
    For a word, the last letter of P acts first.

    >>> print(delta_op(((2, 3),), FKElement.parse("x(1,2)x(2,3)x(1,2)", 3)))
    x(1,3)x(1,2)
    >>> print(delta_op(((1, 2),), generator(1, 3, 3)))
    0
    """
    if isinstance(P, FKElement):
        return _by_words(P, A, delta_op)
    for a, b in reversed(tuple(P)):
        A = _delta_letter(a, b, A)
    return A


def delta_walk(B: FKElement, letters, depth: int) -> dict[FKWord, FKElement]:
    """{u: delta_op(u, B)} over the words u of ``depth`` letters from
    ``letters`` whose image is nonzero, found in one walk over suffixes.

    Each word grows at the front, since the last letter of u acts first,
    and each trie node makes one single-letter slicing of its parent's
    image.  A branch is dropped at its first zero image: slicing is linear,
    so it maps zero to zero and no word ending with that suffix can have a
    nonzero image.

    >>> B = FKElement.parse("x(1,2)x(2,3)", 3)
    >>> walk = delta_walk(B, [(1, 2), (1, 3), (2, 3)], 2)
    >>> sorted((u, str(img)) for u, img in walk.items())
    [(((1, 3), (2, 3)), '1'), (((2, 3), (1, 2)), '1')]
    """
    letters = [tuple(g) for g in letters]
    out: dict[FKWord, FKElement] = {}
    walk = [((), B)] if B.terms else []
    while walk:
        u, img = walk.pop()
        if len(u) == depth:
            out[u] = img
            continue
        for a, b in letters:
            nxt = _delta_letter(a, b, img)
            if nxt.terms:
                walk.append((((a, b),) + u, nxt))
    return out


def _nabla_letter(A: FKElement, a: int, b: int) -> FKElement:
    (a, b), s0 = canonical_letter(a, b)
    n = A.n
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        u = symgroup.identity(n)
        for k in range(len(word) - 1, -1, -1):
            g = word[k]
            p, q = u[a - 1], u[b - 1]
            pair, s1 = canonical_letter(p, q)
            if pair == g:
                prefix, suffix = word[:k], word[k + 1:]
                if not (prefix and suffix and prefix[-1] == suffix[0]):
                    w = prefix + suffix
                    terms[w] = terms.get(w, 0) + s0 * s1 * c
            u = symgroup.compose(symgroup.transposition(g[0], g[1], n), u)
    return FKElement._of(n, terms)


def nabla_op(A: FKElement, P) -> FKElement:
    """The right slicing operator of a word (or element) P applied to A.

    Deletes each letter matching the target pair conjugated through the
    suffix's transpositions; for a word, the first letter of P acts first.

    >>> print(nabla_op(FKElement.parse("x(1,2)x(2,3)x(1,2)", 3), ((2, 3),)))
    x(2,3)x(1,2)
    >>> print(nabla_op(FKElement.parse("x(1,2)x(2,3)", 3), ((2, 3),)))
    x(1,2)
    """
    if isinstance(P, FKElement):
        return _by_words(P, A, lambda word, B: nabla_op(B, word))
    for a, b in tuple(P):
        A = _nabla_letter(A, a, b)
    return A


def pairing(A: FKElement, B: FKElement) -> int:
    """The bilinear form: constant coefficient of the slicing of B by A.

    >>> pairing(generator(1, 2, 3), generator(1, 2, 3))
    1
    >>> A = FKElement.parse("x(1,2)x(2,3)", 3)
    >>> pairing(A, FKElement.parse("x(2,3)x(1,2)", 3)), pairing(A, A)
    (1, 0)
    """
    A, B = A._common(B)
    total = 0
    for word, c in A.terms.items():
        total += c * delta_op(word, B).coefficient(())
    return total


def _chain_step(a: int, b: int, v: Perm) -> Perm | None:
    """t_ab * v when it is one longer than v, else None: one step of the chain
    test shared by ``pairing_bruhat`` and ``bruhat_chain_words``."""
    nxt = symgroup.compose(symgroup.transposition(a, b, len(v)), v)
    return nxt if symgroup.length(nxt) == symgroup.length(v) + 1 else None


def pairing_bruhat(w: Perm, word) -> int:
    """Chain test equivalent to pairing the word against the standard word
    element of w: build suffix products stepping length by one each time and
    compare the final product with the inverse of w.

    >>> pairing_bruhat((3, 1, 2), ((1, 3), (1, 2)))
    1
    >>> pairing_bruhat((3, 1, 2), ((1, 2), (1, 3)))
    0
    """
    word = tuple(tuple(g) for g in word)
    n = max(len(w), max((b for _, b in word), default=1))
    v = symgroup.identity(n)
    for a, b in reversed(word):
        v = _chain_step(a, b, v)
        if v is None:
            return 0
    return 1 if v == symgroup.embed(symgroup.inverse(w), n) else 0


def bruhat_chain_words(w: Perm, letters) -> set[FKWord]:
    """The words u of length(w) letters from ``letters`` with
    ``pairing_bruhat(w, u) == 1``, found in one walk over suffixes.

    Each word grows at the front, as ``pairing_bruhat`` reads it from the
    back, and each trie node takes one chain step.  A suffix whose step
    fails to raise the length by one is dropped: ``pairing_bruhat`` is 0 on
    every word that ends with it.

    >>> sorted(bruhat_chain_words((3, 1, 2), [(1, 2), (1, 3)]))
    [((1, 3), (1, 2))]
    """
    letters = [tuple(g) for g in letters]
    n = max(len(w), max((b for _, b in letters), default=1))
    target = symgroup.embed(symgroup.inverse(w), n)
    depth = symgroup.length(w)
    out: set[FKWord] = set()
    walk = [((), symgroup.identity(n))]
    while walk:
        u, v = walk.pop()
        if len(u) == depth:
            if v == target:
                out.add(u)
            continue
        for a, b in letters:
            nxt = _chain_step(a, b, v)
            if nxt is not None:
                walk.append((((a, b),) + u, nxt))
    return out


def antipode(A: FKElement) -> FKElement:
    """The braided antipode; on a word it yields a single signed word.

    >>> print(antipode(FKElement.parse("x(1,2)x(2,3)x(3,4)", 4)))
    -x(3,4)x(2,4)x(1,4)
    """
    n = A.n
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        img: FKWord = ()
        sign = 1
        for g in word:
            t = symgroup.transposition(g[0], g[1], n)
            rel, s = relabel_word(img, t)
            img = (g,) + rel
            sign = -sign * s
        terms[img] = terms.get(img, 0) + sign * c
    return FKElement._of(n, terms)


def sbar_word(word, n: int) -> tuple[FKWord, int]:
    """Closed form of the reversed antipode on a single word: letter k maps
    to its image under the transpositions of the strictly later letters.

    >>> sbar_word(((1, 2), (2, 3), (3, 4)), 4)
    (((1, 4), (2, 4), (3, 4)), 1)
    """
    # u is the product of the transpositions of the letters read so far,
    # which are the later ones; each letter swaps two entries of u in place
    u = list(range(1, n + 1))
    out: list[Letter] = []
    sign = 1
    for a, b in reversed(tuple(word)):
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"invalid transposition ({a},{b}) in window {n}")
        p, q = u[a - 1], u[b - 1]
        if p < q:
            out.append((p, q))
        else:
            out.append((q, p))
            sign = -sign
        u[a - 1], u[b - 1] = q, p
    out.reverse()
    return tuple(out), sign


def sbar(A: FKElement) -> FKElement:
    """Linear extension of ``sbar_word``; agrees with reversing the antipode
    and fixing the sign by degree parity.

    >>> print(sbar(FKElement.parse("x(1,2)x(2,3)x(1,2)", 3)))
    x(2,3)x(1,3)x(1,2)
    """
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        w, s = sbar_word(word, A.n)
        cw, s2 = canonical_word(w)
        if cw is None:
            continue
        terms[cw] = terms.get(cw, 0) + s * s2 * c
    return FKElement._of(A.n, terms)


def reverse_element(A: FKElement) -> FKElement:
    """Reverse the letters of every word.

    >>> print(reverse_element(FKElement.parse("x(1,2)x(2,3)", 3)))
    x(2,3)x(1,2)
    """
    terms: dict[FKWord, int] = {}
    for word, c in A.terms.items():
        terms[word[::-1]] = terms.get(word[::-1], 0) + c
    return FKElement._of(A.n, terms)


def nilcoxeter_word(w: Perm) -> FKWord:
    """The word of adjacent-pair letters along the canonical reduced word.

    >>> nilcoxeter_word((3, 2, 1))
    ((1, 2), (2, 3), (1, 2))
    """
    return tuple((i, i + 1) for i in symgroup.canonical_reduced_word(w))


def nilcoxeter_element(w: Perm, n: int | None = None) -> FKElement:
    """``nilcoxeter_word`` as an element of window n (default: len(w))."""
    if n is None:
        n = len(w)
    elif len(w) != n:
        w = symgroup.embed(w, n)
    # a reduced word has oriented letters and no equal neighbours
    return FKElement._of(n, {nilcoxeter_word(w): 1})


def random_word(rng, n: int, degree: int) -> FKWord:
    """A uniformly random word with no two equal adjacent letters."""
    letters = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if degree > 1 and len(letters) < 2:
        raise ValueError(f"window {n} has no clean word of degree {degree}")
    out: list[Letter] = []
    for _ in range(degree):
        choices = [g for g in letters if not out or g != out[-1]]
        out.append(rng.choice(choices))
    return tuple(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
