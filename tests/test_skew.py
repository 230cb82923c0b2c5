"""Skew expressions: the four methods and structure constants."""

import hashlib
import random

import pytest

from skewdd import fkalg as fk
from skewdd import fkcanon as fc
from skewdd import polyring as pr
from skewdd import skew as sk
from skewdd import symgroup as sg

from conftest import expand_schubert_product


def test_methods_constant():
    assert sk.METHODS == ("signed", "pairing", "explicit", "recurrence")


def test_reduced_word_to_longest(s4):
    w0 = sg.longest_element(4)
    for v in s4:
        word = sk.reduced_word_to_longest(v, 4)
        assert sg.is_reduced(word, 4)
        assert len(word) == sg.length(w0) - sg.length(v)
        assert sg.from_word(word, 4) == sg.compose(w0, v)
    assert sk.reduced_word_to_longest(sg.simple(2, 4), 4) == (3, 2, 1, 2, 3)


def test_worked_example_signed():
    w = (3, 4, 1, 2)
    v = sg.simple(2, 4)
    got = sk.skew_signed(w, v)
    want = fk.FKElement.parse("x(1,2)x(3,4)x(2,3) - x(2,3)x(1,3)x(2,4)", 4)
    assert got == want


def test_worked_example_explicit_and_recurrence():
    w = (3, 4, 1, 2)
    v = sg.simple(2, 4)
    want = fk.FKElement.parse("x(1,2)x(2,4)x(3,4) + x(1,3)x(1,2)x(2,4)", 4)
    assert sk.skew_explicit(w, v) == want
    assert sk.skew_recurrence(w, v) == want
    assert fc.fk_equal(sk.skew_signed(w, v), want)


# sha256 of golden_routes() under the routes as they stood before their
# kernels were rewritten in place (Bruhat test by insertion, antipode letters
# by swaps, terms summed into one dict)
ROUTES_DIGEST = "ecbee0ef4bf85a8ad8e6bb26ca391995faf76a9c6daad2be5ef6f3ee5ba92658"


def golden_routes():
    """Every route, one line each, on every pair (v, w) of S2 through S5,
    comparable or not."""
    lines = []
    for n in range(2, 6):
        perms = sg.all_permutations(n)
        for w in perms:
            ow = sg.perm_to_oneline(w)
            for v in perms:
                ov = sg.perm_to_oneline(v)
                for method in sk.METHODS:
                    lines.append(f"{ow} {ov} {method} {sk.compute_skew(w, v, method)}")
    return "\n".join(lines)


def test_routes_match_the_recorded_digest():
    text = golden_routes()
    assert len(text.splitlines()) == 4 * (2**2 + 6**2 + 24**2 + 120**2)
    assert hashlib.sha256(text.encode()).hexdigest() == ROUTES_DIGEST


def test_unit_and_zero_cases():
    e = sg.identity(3)
    w = (3, 1, 2)
    for method in sk.METHODS:
        assert sk.compute_skew(w, w, method) == fk.FKElement.one(3)
        assert sk.compute_skew(e, w, method).is_zero()


def test_trivial_lower_bound_recovers_the_word_element(s4):
    e = sg.identity(4)
    for w in s4:
        assert sk.skew_signed(w, e) == fk.nilcoxeter_element(w)
        assert fc.fk_equal(sk.skew_explicit(w, e), fk.nilcoxeter_element(w))


def test_signed_is_window_stable(s3):
    for w in s3:
        for v in s3:
            small = sk.skew_signed(w, v)
            big = sk.skew_signed(sg.embed(w, 4), sg.embed(v, 4))
            assert big == small.extend(4)


def test_embedded_classes_agree(s3):
    for w in s3:
        for v in s3:
            if not sg.bruhat_leq(v, w):
                continue
            small = sk.skew_explicit(w, v)
            big = sk.skew_explicit(sg.embed(w, 4), sg.embed(v, 4))
            assert fc.fk_equal(big, small.extend(4))


def test_compute_skew_rejects_unknown_method():
    with pytest.raises(ValueError):
        sk.compute_skew((2, 1), (1, 2), "guess")


def test_represent_matches_divided_differences(s4):
    rng = random.Random(3)
    p = pr.random_poly(rng, 4, max_degree=4, terms=4)
    for w in s4:
        assert sk.represent(fk.nilcoxeter_element(w), p) == pr.del_perm(w, p)
    # linear in the element
    a = fk.FKElement.parse("x(1,2)x(2,3) - 2*x(1,3)", 3)
    b = fk.FKElement.parse("x(2,3)", 3)
    q = pr.random_poly(rng, 3, max_degree=3, terms=3)
    assert sk.represent(a + b, q) == sk.represent(a, q) + sk.represent(b, q)


def test_structure_constant_examples():
    # x1 * x1 = S_{312}
    u = (2, 1, 3)
    assert sk.structure_constant(u, u, (3, 1, 2)) == 1
    # S_{s2} * S_{s2} picks up both length-2 targets above s2
    v = (1, 3, 2)
    assert sk.structure_constant(v, v, (2, 3, 1)) == 1
    assert sk.structure_constant(v, v, (1, 4, 2, 3)) == 1
    assert sk.structure_constant(u, v, (2, 3, 1)) == 1
    assert sk.structure_constant(u, v, (3, 1, 2)) == 1
    assert sk.structure_constant(u, u, (2, 3, 1)) == 0


def test_structure_constant_rejects_a_nonconstant_remainder(monkeypatch):
    # the degree check runs when a triple is computed, not on a memo hit
    sk._structure_constant.cache_clear()
    monkeypatch.setattr(sk, "represent", lambda A, P: pr.Poly.parse("x1", 3))
    with pytest.raises(ArithmeticError, match="constant"):
        sk.structure_constant((2, 1, 3), (2, 1, 3), (3, 1, 2))
    with pytest.raises(ArithmeticError, match="constant"):
        sk.structure_constant_table(3)


def test_memoized_schubert_polynomials_are_not_shared():
    sk._structure_constant.cache_clear()
    u, v, w = (1, 3, 2), (1, 3, 2), (2, 3, 1)
    first = pr.schubert(u, 3)
    want = dict(first.terms)
    first.terms.clear()
    first.terms[(0, 0, 3)] = 5
    assert pr.schubert(u, 3).terms == want
    assert sk.structure_constant(u, v, w) == 1 == sk.structure_constant_oracle(u, v, w)


def test_structure_constant_memo_tells_triples_apart():
    sk._structure_constant.cache_clear()
    u = (2, 1, 3)
    assert sk.structure_constant(u, u, (3, 1, 2)) == 1
    assert sk.structure_constant(u, u, (2, 3, 1)) == 0
    assert sk.structure_constant(u, u, (3, 1, 2)) == 1


def test_recurrence_results_are_not_shared():
    w, v = (3, 4, 1, 2), (1, 3, 2, 4)
    first = sk.skew_recurrence(w, v)
    want = dict(first.terms)
    assert want
    first.terms.clear()
    assert sk.skew_recurrence(w, v).terms == want


def test_structure_constant_needs_additive_lengths():
    # asked twice: a refused triple never reaches the memo
    for _ in range(2):
        with pytest.raises(ValueError):
            sk.structure_constant((2, 1, 3), (2, 1, 3), (3, 2, 1))


def test_structure_constants_match_oracle_sample(s4):
    rng = random.Random(7)
    perms = list(s4)
    count = 0
    while count < 60:
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        w = perms[rng.randrange(len(perms))]
        if sg.length(u) + sg.length(v) != sg.length(w):
            continue
        count += 1
        got = sk.structure_constant(u, v, w)
        assert got == sk.structure_constant_oracle(u, v, w)
        assert got >= 0


def test_structure_constant_table_against_expansion(s3):
    table = {
        (u, v, w): c for u, v, w, c in sk.structure_constant_table(3)
    }
    for u in s3:
        for v in s3:
            expansion = expand_schubert_product(u, v)
            for w in s3:
                if sg.length(w) != sg.length(u) + sg.length(v):
                    continue
                want = expansion.get(sg.embed(w, 5), 0)
                assert table.get((u, v, w), 0) == want
    # every listed entry is nonzero and every triple is length-additive
    for (u, v, w), c in table.items():
        assert c > 0
        assert sg.length(u) + sg.length(v) == sg.length(w)


def test_table_is_symmetric_in_the_factors():
    rows = sk.structure_constant_table(3)
    table = {(u, v, w): c for u, v, w, c in rows}
    assert table == {(v, u, w): c for (u, v, w), c in table.items()}


def test_structure_constant_table_matches_the_oracle_on_s4(s4):
    table = {(u, v, w): c for u, v, w, c in sk.structure_constant_table(4)}
    want = {}
    for w in s4:
        for u in s4:
            for v in s4:
                if sg.length(u) + sg.length(v) == sg.length(w):
                    c = sk.structure_constant_oracle(u, v, w)
                    if c:
                        want[(u, v, w)] = c
    assert table == want
