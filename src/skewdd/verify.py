"""Verification suites exercising the library's algebraic identities.

Each suite re-checks one family of identities end to end and returns
one Check per property, with a pass flag and a count summary; a check
that counts its instances fails when it saw none. Suites
that sample take an explicit seed and are deterministic given it.
Window limits mirror the canonical-form tables: exhaustive sweeps run
for windows up to 4, window 5 is sampled, anything larger is refused.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, replace

from . import fkalg, fkcanon, polyring, skew, symgroup
from .fkcanon import ResourceLimitError

SUITES = ("leibniz", "hopf", "positivity", "agreement", "canon", "all")

__all__ = [
    "SUITES",
    "Check",
    "run_leibniz",
    "run_hopf",
    "run_positivity",
    "run_agreement",
    "run_canon",
    "run_suite",
]


@dataclass(frozen=True)
class Check:
    """Outcome of one verified property; a counted check also records how
    many instances it saw and how many of them failed."""

    name: str
    passed: bool
    details: str
    instances: int | None = None
    failures: int | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.details}"


def _counted(name: str, instances: int, failures: int, details: str) -> Check:
    """A check over ``instances`` cases: it passes only when it saw at least
    one case and none failed."""
    return Check(name, instances > 0 and failures == 0, details, instances, failures)


# largest window of each suite but canon, which takes the windows of its table
_LARGEST_WINDOW = {"leibniz": 4, "hopf": 6, "positivity": 5, "agreement": 5}


def _check_limits(suite: str, n: int, max_degree: int | None = None) -> None:
    """Raise ResourceLimitError when ``suite`` refuses this window or degree."""
    if suite == "canon":
        if n not in _EXPECTED_DIMS:
            raise ResourceLimitError(f"window {n} out of range for this suite (3..4)")
        top = fkcanon.DEFAULT_MAX_DEGREE
        if max_degree is not None and max_degree > top:
            raise ResourceLimitError(f"degree {max_degree} out of range (0..{top})")
        return
    largest = _LARGEST_WINDOW[suite]
    if not 2 <= n <= largest:
        raise ResourceLimitError(
            f"window {n} out of range for this suite (2..{largest})"
        )
    if suite == "hopf" and not 0 <= max_degree <= 8:
        raise ResourceLimitError(f"degree {max_degree} out of range (0..8)")


def run_leibniz(
    n: int = 4, samples: int = 100, seed: int = 0, max_degree: int = 3
) -> list[Check]:
    """Check the product rule that defines the skew operators.

    For every permutation w of the window and each sampled pair (P, Q),
    the divided difference of P*Q along w must equal the sum over v of
    act(v, skew(w/v, P)) times the divided difference of Q along v; one
    walk gives skew(w/v, P) for every v at once.  Nonzero skew images must
    drop degree by the length difference.
    """
    _check_limits("leibniz", n)
    rng = random.Random(seed)
    perms = symgroup.all_permutations(n)
    zero = polyring.Poly.zero(n)
    instances = 0
    rule_fails = 0
    degree_fails = 0
    for _ in range(samples):
        p = polyring.random_poly(rng, n, max_degree=max_degree, terms=3)
        q = polyring.random_poly(rng, n, max_degree=max_degree, terms=3)
        pq = p * q
        dq = {v: polyring.del_perm(v, q) for v in perms}
        for w in perms:
            instances += 1
            rhs = zero
            for v, a in polyring.skew_direct_images(w, p).items():
                drop = symgroup.length(w) - symgroup.length(v)
                if a.degree() > p.degree() - drop:
                    degree_fails += 1
                rhs = rhs + polyring.act(v, a) * dq[v]
            if polyring.del_perm(w, pq) != rhs:
                rule_fails += 1
    return [
        _counted(
            "leibniz product rule",
            instances,
            rule_fails,
            f"{instances} instances ({samples} pairs x {len(perms)}"
            f" permutations), {rule_fails} failures",
        ),
        Check(
            "skew degree drop",
            degree_fails == 0,
            f"nonzero images drop degree by at least the length difference,"
            f" {degree_fails} failures",
        ),
    ]


def _random_letter(rng: random.Random, n: int) -> fkalg.Letter:
    a = rng.randint(1, n - 1)
    return (a, rng.randint(a + 1, n))


def _random_word(rng: random.Random, n: int, degree: int) -> fkalg.FKWord:
    m = rng.randint(2, n)
    if m == 2:
        degree = min(degree, 1)
    return fkalg.random_word(rng, m, degree)


def run_hopf(
    n: int = 5, samples: int = 200, seed: int = 0, max_degree: int = 6
) -> list[Check]:
    """Check coproduct, antipode, and pairing identities word by word.

    Everything here is syntactic in the free model: no canonical forms
    are consulted, so any window up to 6 is allowed.
    """
    _check_limits("hopf", n, max_degree)
    rng = random.Random(seed)
    fails = {
        "reversal": 0,
        "involution": 0,
        "product": 0,
        "braiding": 0,
        "adjoint": 0,
        "intertwine": 0,
        "symmetry": 0,
        "vanishing": 0,
        "commute": 0,
        "subword": 0,
    }
    vanish_count = 0
    for _ in range(samples):
        word = _random_word(rng, n, rng.randint(0, max_degree))
        a = fkalg.FKElement.from_word(word, n)
        deg = len(word)
        sa = fkalg.sbar(a)

        rev_anti = fkalg.reverse_element(fkalg.antipode(a))
        if deg % 2 == 1:
            rev_anti = -rev_anti
        if sa != rev_anti:
            fails["reversal"] += 1
        if fkalg.sbar(sa) != a:
            fails["involution"] += 1

        other = _random_word(rng, n, rng.randint(0, max_degree))
        b = fkalg.FKElement.from_word(other, n)
        s_b = fkalg.sn_degree(other, n)
        lhs = fkalg.sbar(a * b)
        rhs = fkalg.act(symgroup.inverse(s_b), sa) * fkalg.sbar(b)
        if lhs != rhs:
            fails["product"] += 1

        def sb(wd: fkalg.FKWord) -> fkalg.FKElement:
            return fkalg.sbar(fkalg.FKElement.from_word(wd, n))

        t = fkalg.coproduct(a)
        if fkalg.coproduct(sa) != t.map_factors(sb, sb).swap():
            fails["braiding"] += 1
        for (left, _right), _c in t.terms.items():
            it = iter(word)
            if not all(g in it for g in left):
                fails["subword"] += 1

        peer = fkalg.FKElement.from_word(fkalg.random_word(rng, n, deg), n)
        if fkalg.pairing(peer, sa) != fkalg.pairing(a, fkalg.reverse_element(peer)):
            fails["adjoint"] += 1
        if fkalg.pairing(a, peer) != fkalg.pairing(peer, a):
            fails["symmetry"] += 1

        g = (_random_letter(rng, n),)
        h = (_random_letter(rng, n),)
        if fkalg.delta_op(g, sa) != fkalg.sbar(fkalg.nabla_op(a, g)):
            fails["intertwine"] += 1
        lhs = fkalg.delta_op(g, fkalg.nabla_op(a, h))
        if lhs != fkalg.nabla_op(fkalg.delta_op(g, a), h):
            fails["commute"] += 1

        stray = fkalg.FKElement.from_word(
            _random_word(rng, n, rng.randint(0, max_degree)), n
        )
        sdeg = stray.degree()
        mismatch = sdeg != deg or (
            word
            and stray.terms
            and fkalg.sn_degree(next(iter(stray.terms)), n)
            != fkalg.sn_degree(word, n)
        )
        if mismatch:
            vanish_count += 1
            if fkalg.pairing(a, stray) != 0:
                fails["vanishing"] += 1

    def report(key: str, name: str, detail: str, count: int = samples) -> Check:
        return _counted(name, count, fails[key], f"{detail}, {fails[key]} failures")

    per_word = f"{samples} sampled words"
    return [
        report("reversal", "antipode reversal",
               f"conjugate antipode equals signed reversed antipode, {per_word}"),
        report("involution", "conjugate antipode involution", per_word),
        report("product", "conjugate antipode product rule",
               f"twisted multiplicativity, {per_word}"),
        report("braiding", "coproduct braiding",
               f"coproduct commutes with conjugate antipode up to swap, {per_word}"),
        report("adjoint", "pairing adjoint",
               f"conjugate antipode adjoint to reversal, {per_word}"),
        report("intertwine", "extraction intertwine",
               f"left extraction of the conjugate antipode is right deletion, {per_word}"),
        report("symmetry", "pairing symmetry", per_word),
        report("vanishing", "pairing vanishing",
               f"{vanish_count} degree or descent mismatches", vanish_count),
        report("commute", "extraction and deletion commute", per_word),
        report("subword", "coproduct left factors",
               f"first factors are subwords of the input, {per_word}"),
    ]


def _sample_pairs(
    rng: random.Random, perms: list, samples: int, comparable: bool
) -> list:
    below: dict = {}
    out = []
    while len(out) < samples:
        w = perms[rng.randrange(len(perms))]
        if comparable:
            if w not in below:
                below[w] = [v for v in perms if symgroup.bruhat_leq(v, w)]
            out.append((below[w][rng.randrange(len(below[w]))], w))
        else:
            v = perms[rng.randrange(len(perms))]
            if not symgroup.bruhat_leq(v, w):
                out.append((v, w))
    return out


def run_positivity(n: int = 4, samples: int = 200, seed: int = 0) -> list[Check]:
    """Check that skew expressions are positive below w and zero elsewhere.

    Windows up to 4 sweep every ordered pair of permutations; window 5
    samples comparable and incomparable pairs separately.
    """
    _check_limits("positivity", n)
    rng = random.Random(seed)
    perms = symgroup.all_permutations(n)
    if n <= 4:
        pos_pairs = [
            (v, w) for w in perms for v in perms if symgroup.bruhat_leq(v, w)
        ]
        zero_pairs = [
            (v, w) for w in perms for v in perms if not symgroup.bruhat_leq(v, w)
        ]
        scope = f"all {len(pos_pairs)} pairs (v, w) with v <= w in S{n}"
    else:
        pos_pairs = _sample_pairs(rng, perms, samples, comparable=True)
        zero_pairs = _sample_pairs(rng, perms, samples, comparable=False)
        scope = f"{len(pos_pairs)} sampled pairs (v, w) with v <= w in S{n}"
    pos_fails = 0
    for v, w in pos_pairs:
        e = skew.skew_explicit(w, v)
        drop = symgroup.length(w) - symgroup.length(v)
        if not (e.terms and e.is_positive() and e.is_homogeneous()
                and e.degree() == drop):
            pos_fails += 1
    zero_fails = 0
    for v, w in zero_pairs:
        results = (
            skew.skew_explicit(w, v),
            skew.skew_recurrence(w, v),
            skew.skew_signed(w, v),
            skew.skew_pairing(w, v),
        )
        if any(r.terms for r in results):
            zero_fails += 1
    return [
        _counted(
            "positive below",
            len(pos_pairs),
            pos_fails,
            f"{scope} positive and homogeneous, {pos_fails} failures",
        ),
        _counted(
            "zero outside the order",
            len(zero_pairs),
            zero_fails,
            f"{len(zero_pairs)} pairs with v not <= w, all four methods zero,"
            f" {zero_fails} failures",
        ),
    ]


def _inversions(w) -> list[fkalg.Letter]:
    """The letters (i, j), i < j, with w(i) > w(j)."""
    n = len(w)
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if w[i - 1] > w[j - 1]]


def run_agreement(n: int = 4, samples: int = 50, seed: int = 0) -> list[Check]:
    """Check that independent routes to the same object coincide.

    Covers the four skew methods, the operator form against the word
    expansion, saturated-chain pairing, deletion at Bruhat covers, the
    inversion letters of conjugated permutation words, and the longest
    word as a product over reflection orderings. Canonical-form checks
    cap the window at 4; window 5 runs the syntactic ones on samples.
    Up to window 4 the chain pairing takes every word of length(w)
    inversion letters of each w: one walk finds the chains to w^(-1),
    one the nonzero <u, x_w>, and they must agree on every word of either.
    """
    _check_limits("agreement", n)
    rng = random.Random(seed)
    perms = symgroup.all_permutations(n)
    checks = []

    if n <= 4:
        pairs = [(v, w) for w in perms for v in perms if symgroup.bruhat_leq(v, w)]
        scope = f"all {len(pairs)} comparable pairs in S{n}"
    else:
        pairs = _sample_pairs(rng, perms, samples, comparable=True)
        scope = f"{len(pairs)} sampled comparable pairs in S{n}"
    rec_fails = 0
    for v, w in pairs:
        if skew.skew_explicit(w, v) != skew.skew_recurrence(w, v):
            rec_fails += 1
    checks.append(
        _counted(
            "explicit matches recurrence",
            len(pairs),
            rec_fails,
            f"term-by-term equality, {scope}, {rec_fails} failures",
        )
    )

    if n <= 4:
        signed_fails = sum(
            not fkcanon.fk_equal(skew.skew_signed(w, v), skew.skew_explicit(w, v))
            for v, w in pairs
        )
        pairing_fails = sum(
            not fkcanon.fk_equal(skew.skew_pairing(w, v), skew.skew_explicit(w, v))
            for v, w in pairs
        )
        how = f"canonical forms agree, {scope}"
    else:
        probes = [
            polyring.staircase(n),
            polyring.staircase(n) * polyring.random_poly(rng, n, max_degree=2, terms=2),
        ]
        signed_fails = 0
        pairing_fails = 0
        for v, w in pairs:
            e = skew.skew_explicit(w, v)
            for p in probes:
                want = skew.represent(e, p)
                if skew.represent(skew.skew_signed(w, v), p) != want:
                    signed_fails += 1
                if skew.represent(skew.skew_pairing(w, v), p) != want:
                    pairing_fails += 1
        how = f"polynomial actions agree on {len(probes)} probes, {scope}"
    checks.append(
        _counted("signed matches explicit", len(pairs), signed_fails,
                 f"{how}, {signed_fails} failures")
    )
    checks.append(
        _counted("pairing matches explicit", len(pairs), pairing_fails,
                 f"{how}, {pairing_fails} failures")
    )

    op_pairs = pairs if n <= 4 else pairs[: max(1, samples // 2)]
    probe = polyring.staircase(n)
    # one walk per w yields the image of every v <= w at once
    uppers = dict.fromkeys(w for _, w in op_pairs)
    images = {w: polyring.skew_direct_images(w, probe) for w in uppers}
    op_fails = sum(
        images[w].get(v, polyring.Poly.zero(n))
        != skew.represent(skew.skew_explicit(w, v), probe)
        for v, w in op_pairs
    )
    checks.append(
        _counted(
            "operator matches expansion",
            len(op_pairs),
            op_fails,
            f"direct application equals represented expansion on the"
            f" staircase, {len(op_pairs)} pairs, {op_fails} failures",
        )
    )

    chain_fails = 0
    chain_count = 0
    if n <= 4:
        chain_scope = f"every inversion-letter word, exhaustive over S{n}"
        for w in perms:
            lw = symgroup.length(w)
            if lw == 0:
                continue
            inv = _inversions(w)
            chain_count += len(inv) ** lw
            paired = fkalg.delta_walk(fkalg.nilcoxeter_element(w), inv, lw)
            chains = fkalg.bruhat_chain_words(w, inv)
            chain_fails += sum(
                (u in chains) != (paired[u].coefficient(()) if u in paired else 0)
                for u in chains | paired.keys()
            )
    else:
        chain_scope = f"{samples * 4} sampled inversion-letter words in S{n}"
        for _ in range(samples * 4):
            w = perms[rng.randrange(len(perms))]
            lw = symgroup.length(w)
            inv = _inversions(w) or [(1, 2)]
            word = tuple(inv[rng.randrange(len(inv))] for _ in range(lw))
            chain_count += 1
            el = fkalg.FKElement.from_word(word, n)
            if fkalg.pairing_bruhat(w, word) != fkalg.pairing(
                fkalg.nilcoxeter_element(w), el
            ):
                chain_fails += 1
    checks.append(
        _counted(
            "chain pairing",
            chain_count,
            chain_fails,
            f"step-by-step chains match the dual pairing, {chain_scope}"
            f" ({chain_count} words), {chain_fails} failures",
        )
    )

    m = min(n, 4)
    mperms = symgroup.all_permutations(m)
    cover_fails = 0
    cover_count = 0
    for w in mperms:
        covers = dict(
            (t, v) for v, t in symgroup.lower_covers(w)
        )
        xw = fkalg.nilcoxeter_element(w)
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                cover_count += 1
                got = fkalg.nabla_op(xw, ((a, b),))
                want = (
                    fkalg.nilcoxeter_element(covers[(a, b)], m)
                    if (a, b) in covers
                    else fkalg.FKElement.zero(m)
                )
                if not fkcanon.fk_equal(got, want):
                    cover_fails += 1
    checks.append(
        _counted(
            "deletion at covers",
            cover_count,
            cover_fails,
            f"right deletion picks out Bruhat covers and kills the rest,"
            f" window {m}, {cover_count} cases, {cover_fails} failures",
        )
    )

    inv_fails = 0
    if n <= 4:
        pool = perms
        inv_scope = f"exhaustive over S{n}"
    else:
        pool = [perms[rng.randrange(len(perms))] for _ in range(4 * samples)]
        inv_scope = f"{len(pool)} sampled permutations in S{n}"
    for w in pool:
        word, sign = fkalg.sbar_word(fkalg.nilcoxeter_word(w), n)
        if sign != 1 or len(word) != len(set(word)) or set(word) != set(_inversions(w)):
            inv_fails += 1
    checks.append(
        _counted(
            "inversion letters",
            len(pool),
            inv_fails,
            f"conjugate antipode of a permutation word uses each inversion"
            f" once with sign one, {inv_scope}, {inv_fails} failures",
        )
    )

    order_fails = 0
    order_count = 0
    for mm in range(3, m + 1):
        w0 = symgroup.longest_element(mm)
        xw0 = fkalg.nilcoxeter_element(w0)
        orderings = [symgroup.reflection_ordering(mm)]
        orderings.extend(
            symgroup.reflection_ordering_from_word(word, mm)
            for word in symgroup.all_reduced_words(w0)
        )
        for ordering in orderings:
            order_count += 1
            prod = fkalg.FKElement.one(mm)
            for ab in ordering:
                prod = prod * fkalg.FKElement.from_word((ab,), mm)
            if not fkcanon.fk_equal(prod, xw0):
                order_fails += 1
    checks.append(
        _counted(
            "longest word factorization",
            order_count,
            order_fails,
            f"reflection-ordering products equal the longest word, windows"
            f" 3..{m}, {order_count} orderings, {order_fails} failures",
        )
    )
    return checks


def _q_integer_product(factors: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of the q-integers [k] = 1 + q + ... + q^(k-1).

    >>> _q_integer_product((2, 2, 3))
    (1, 3, 4, 3, 1)
    """
    series = [1]
    for k in factors:
        out = [0] * (len(series) + k - 1)
        for i, c in enumerate(series):
            for j in range(k):
                out[i + j] += c
        series = out
    return tuple(series)


# Hilbert series [2]^2[3] of E_3 and [2]^2[3]^2[4]^2 of E_4 (Fomin-Kirillov
# 1999), and the degree the canon suite checks through by default
_EXPECTED_DIMS = {3: _q_integer_product((2, 2, 3)), 4: _q_integer_product((2, 2, 3, 3, 4, 4))}
_DEFAULT_TOP = {3: 4, 4: 6}


def _random_element(
    rng: random.Random, n: int, max_degree: int, terms: int = 3
) -> fkalg.FKElement:
    out = fkalg.FKElement.zero(n)
    for _ in range(terms):
        word = fkalg.random_word(rng, n, rng.randint(0, max_degree))
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        out = out + fkalg.FKElement.from_word(word, n) * c
    return out


def _relation_elements(n: int) -> list[fkalg.FKElement]:
    insts = (
        fkalg.FKElement(n, {w: c for c, w in inst})
        for inst in fkcanon.relation_instances(n)
    )
    return [e for e in insts if not e.is_zero()]


def _random_ideal_element(
    rng: random.Random, n: int, relations: list[fkalg.FKElement], room: int
) -> fkalg.FKElement:
    while True:
        rel = relations[rng.randrange(len(relations))]
        du = rng.randint(0, min(2, room))
        dv = rng.randint(0, room - du)
        u = fkalg.FKElement.from_word(fkalg.random_word(rng, n, du), n)
        v = fkalg.FKElement.from_word(fkalg.random_word(rng, n, dv), n)
        e = u * rel * v * rng.choice([-2, -1, 1, 2, 3])
        if e.terms:
            return e


def run_canon(
    n: int = 3, samples: int = 1000, seed: int = 0, max_degree: int | None = None
) -> list[Check]:
    """Check the canonical form: dimensions, vanishing, and linearity."""
    _check_limits("canon", n, max_degree)
    rng = random.Random(seed)
    top = _DEFAULT_TOP[n] if max_degree is None else max_degree
    series = _EXPECTED_DIMS[n]
    expected = tuple(series[d] if d < len(series) else 0 for d in range(top + 1))
    dims = tuple(fkcanon.graded_dimension(n, d) for d in range(top + 1))
    checks = [
        Check(
            "graded dimensions",
            dims == expected,
            " ".join(f"dim({n},{d})={dims[d]}" for d in range(top + 1)),
        )
    ]

    relations = _relation_elements(n)
    room = max(top - 2, 0)
    vanish_fails = 0
    for _ in range(samples):
        e = _random_ideal_element(rng, n, relations, room)
        if rng.random() < 0.5:
            e = e + _random_ideal_element(rng, n, relations, room)
        if not fkcanon.canonical_form(e).is_zero():
            vanish_fails += 1
    checks.append(
        _counted(
            "ideal vanishing",
            samples,
            vanish_fails,
            f"{samples} random ideal elements reduce to zero,"
            f" {vanish_fails} failures",
        )
    )

    lin_samples = min(samples, 200)
    idem_fails = 0
    add_fails = 0
    modular_fails = 0
    for _ in range(lin_samples):
        a = _random_element(rng, n, top)
        b = _random_element(rng, n, top)
        ca = fkcanon.canonical_form(a)
        if fkcanon.canonical_form(ca) != ca:
            idem_fails += 1
        cb = fkcanon.canonical_form(b)
        if fkcanon.canonical_form(a + b) != ca + cb:
            add_fails += 1
        shift = _random_ideal_element(rng, n, relations, room)
        if not fkcanon.fk_equal(a, a + shift):
            modular_fails += 1
    checks.append(
        _counted("reduction idempotent", lin_samples, idem_fails,
                 f"{lin_samples} samples, {idem_fails} failures")
    )
    checks.append(
        _counted("reduction additive", lin_samples, add_fails,
                 f"{lin_samples} samples, {add_fails} failures")
    )
    checks.append(
        _counted("equality modulo relations", lin_samples, modular_fails,
                 f"{lin_samples} ideal shifts invisible, {modular_fails} failures")
    )
    return checks


_RUNNERS = {
    "leibniz": run_leibniz,
    "hopf": run_hopf,
    "positivity": run_positivity,
    "agreement": run_agreement,
    "canon": run_canon,
}


def run_suite(
    suite: str,
    n: int | None = None,
    samples: int | None = None,
    seed: int | None = None,
    max_degree: int | None = None,
) -> list[Check]:
    """Run one named suite, or every suite in order for "all".

    Arguments left as None take each suite's own defaults, and a suite
    that takes no ``max_degree`` ignores it.  Every selected suite's window
    and degree limits are checked before any suite runs.

    >>> run_suite("nope")
    Traceback (most recent call last):
        ...
    ValueError: unknown suite 'nope'; choose from leibniz, hopf, positivity, agreement, canon, all
    """
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITES)}"
        )
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, got {max_degree}")
    given = {"n": n, "samples": samples, "seed": seed, "max_degree": max_degree}
    plan = []
    for name in SUITES[:-1] if suite == "all" else (suite,):
        runner = _RUNNERS[name]
        sig = inspect.signature(runner)
        args = sig.bind(
            **{k: v for k, v in given.items() if v is not None and k in sig.parameters}
        )
        args.apply_defaults()
        _check_limits(name, args.arguments["n"], args.arguments.get("max_degree"))
        plan.append((name, runner, args.arguments))
    if suite != "all":
        _, runner, kwargs = plan[0]
        return runner(**kwargs)
    return [
        replace(c, name=f"{name}: {c.name}")
        for name, runner, kwargs in plan
        for c in runner(**kwargs)
    ]
