"""Exact polynomials, divided differences, and Schubert polynomials."""

import random

import pytest

from skewdd import polyring as pr
from skewdd import symgroup as sg

from conftest import (
    bjs_schubert,
    brute_reduced_words,
    per_set_skew_direct_apply,
    right_descents,
    synthetic_divided_difference,
)


def test_constructors_and_degree():
    z = pr.Poly.zero(3)
    assert z.degree() == -1 and not z.terms
    one = pr.Poly.one(3)
    assert one.degree() == 0 and one.constant_term() == 1
    x2 = pr.Poly.variable(2, 3)
    assert x2.degree() == 1
    m = pr.Poly.monomial((2, 0, 1), 3, 5)
    assert m.degree() == 3
    assert m.coefficient((2, 0, 1)) == 5


def test_ring_arithmetic():
    x1 = pr.Poly.variable(1, 2)
    x2 = pr.Poly.variable(2, 2)
    assert x1 + x2 == x2 + x1
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert x1 * (x2 + 1) == x1 * x2 + x1
    assert x1 - x1 == pr.Poly.zero(2)
    assert (x1 + 1) * 0 == pr.Poly.zero(2)
    assert -(x1 - x2) == x2 - x1


def test_window_extension_is_transparent():
    a = pr.Poly.variable(1, 2)
    b = pr.Poly.variable(3, 4)
    s = a + b
    assert s.n == 4
    assert s == pr.Poly.variable(1, 4) + b
    assert a.extend(4) == pr.Poly.variable(1, 4)
    assert a == a.extend(4)
    with pytest.raises(ValueError):
        s.extend(2)


def test_str_parse_round_trip():
    for text in ("0", "1", "-1", "x1", "3*x1^2*x2 - x3", "x1*x2 + 2"):
        p = pr.Poly.parse(text, 3)
        assert pr.Poly.parse(str(p), 3) == p
    assert str(pr.Poly.parse("x2 + x1", 3)) == "x1 + x2"
    assert str(pr.Poly.zero(2)) == "0"


def test_json_round_trip():
    p = pr.Poly.parse("3*x1^2*x2 - x3 + 7", 3)
    assert pr.Poly.from_json(p.to_json()) == p
    assert pr.Poly.from_json_dict(p.to_json_dict()) == p


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError, match="negative"):
        pr.Poly(2, {(-1, 0): 1})
    bad = '{"n":2,"terms":[{"coeff":1,"exponents":[-1,0]}]}'
    with pytest.raises(ValueError, match="negative"):
        pr.Poly.from_json(bad)


def test_act_is_a_group_action():
    rng = random.Random(5)
    perms = sg.all_permutations(3)
    for _ in range(20):
        p = pr.random_poly(rng, 3)
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        assert pr.act(u, pr.act(v, p)) == pr.act(sg.compose(u, v), p)
        assert pr.act(sg.identity(3), p) == p


def test_act_moves_variables():
    x1 = pr.Poly.variable(1, 3)
    w = (2, 3, 1)
    assert pr.act(w, x1) == pr.Poly.variable(2, 3)


def test_divided_difference_basics():
    x1 = pr.Poly.variable(1, 3)
    x2 = pr.Poly.variable(2, 3)
    assert pr.divided_difference(1, 2, x1) == pr.Poly.one(3)
    assert pr.divided_difference(1, 2, x1 * x2) == pr.Poly.zero(3)
    assert pr.divided_difference(1, 2, x1 * x1) == x1 + x2
    # antisymmetric in the index pair
    p = pr.Poly.parse("x1^2*x3 + x2", 3)
    assert pr.divided_difference(2, 1, p) == -pr.divided_difference(1, 2, p)
    # kills symmetric input, e.g. in the pair (1,3)
    sym = x1 * pr.Poly.variable(3, 3) + x1 + pr.Poly.variable(3, 3)
    assert pr.divided_difference(1, 3, sym) == pr.Poly.zero(3)


def _random_pairs(rng, n, count):
    """(i, j, P) at window n: every ordered pair of distinct indices once,
    adjacent or not, then ``count`` random pairs, each with a random P of
    up to 6 terms of degree at most 8 (zero included)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    pairs += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(count)]
    for i, j in pairs:
        terms = {}
        for _ in range(rng.randint(0, 6)):
            e = [0] * n
            for _ in range(rng.randint(0, 8)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
        yield i, j, pr.Poly(n, terms)


def test_divided_difference_matches_synthetic_division():
    rng = random.Random(19)
    for n in range(2, 7):
        for i, j, p in _random_pairs(rng, n, 60):
            got = pr.divided_difference(i, j, p)
            assert got.n == n
            assert got.terms == synthetic_divided_difference(i, j, p).terms
    assert pr.divided_difference(1, 3, pr.Poly.zero(3)) == pr.Poly.zero(3)


def test_divided_difference_defining_identity():
    # (x_i - x_j) * d_ij P == P - t_ij P
    rng = random.Random(23)
    for n in range(2, 7):
        for i, j, p in _random_pairs(rng, n, 30):
            lhs = (pr.Poly.variable(i, n) - pr.Poly.variable(j, n)) * (
                pr.divided_difference(i, j, p)
            )
            assert lhs == p - pr.act(sg.transposition(i, j, n), p)


@pytest.mark.parametrize("i, j", [(0, 2), (-1, 2), (2, 0)])
def test_divided_difference_rejects_a_bad_index(i, j):
    p = pr.Poly.parse("x1^2*x3", 3)
    lo, hi = sorted((i, j))
    with pytest.raises(ValueError) as info:
        pr.divided_difference(i, j, p)
    assert str(info.value) == f"invalid transposition ({lo},{hi}) in window 3"


def test_divided_difference_square_is_zero():
    rng = random.Random(9)
    for _ in range(30):
        p = pr.random_poly(rng, 4)
        i = rng.randint(1, 3)
        j = rng.randint(i + 1, 4)
        once = pr.divided_difference(i, j, p)
        assert pr.divided_difference(i, j, once) == pr.Poly.zero(4)


def test_divided_difference_leibniz():
    rng = random.Random(11)
    for _ in range(20):
        p = pr.random_poly(rng, 3, max_degree=3, terms=3)
        q = pr.random_poly(rng, 3, max_degree=3, terms=3)
        i = rng.randint(1, 2)
        s = sg.simple(i, 3)
        lhs = pr.divided_difference(i, i + 1, p * q)
        rhs = pr.divided_difference(i, i + 1, p) * q + pr.act(
            s, p
        ) * pr.divided_difference(i, i + 1, q)
        assert lhs == rhs


def test_braid_and_commutation():
    rng = random.Random(13)
    for _ in range(10):
        p = pr.random_poly(rng, 4, max_degree=4, terms=4)
        d = pr.divided_difference
        assert d(1, 2, d(2, 3, d(1, 2, p))) == d(2, 3, d(1, 2, d(2, 3, p)))
        assert d(1, 2, d(3, 4, p)) == d(3, 4, d(1, 2, p))


def test_del_word_is_word_independent(s4):
    rng = random.Random(17)
    p = pr.random_poly(rng, 4, max_degree=4, terms=5)
    for w in s4:
        words = brute_reduced_words(w, 4)
        results = {pr.del_word(word, p, 4) for word in words}
        assert len(results) == 1
        assert results.pop() == pr.del_perm(w, p)


def test_del_word_nonreduced_is_zero():
    p = pr.Poly.parse("x1^3*x2", 3)
    assert pr.del_word((1, 1), p, 3) == pr.Poly.zero(3)
    with pytest.raises(ValueError):
        pr.del_word((3,), p, 3)


def test_staircase():
    assert pr.staircase(3) == pr.Poly.parse("x1^2*x2", 3)
    assert pr.staircase(1) == pr.Poly.one(1)


def test_schubert_small_cases():
    assert pr.schubert((1, 2, 3)) == pr.Poly.one(3)
    assert pr.schubert((2, 1, 3)) == pr.Poly.parse("x1", 3)
    assert pr.schubert((1, 3, 2)) == pr.Poly.parse("x1 + x2", 3)
    assert pr.schubert((3, 1, 2)) == pr.Poly.parse("x1^2", 3)
    assert pr.schubert((2, 3, 1)) == pr.Poly.parse("x1*x2", 3)
    assert pr.schubert((3, 2, 1)) == pr.staircase(3)


def test_schubert_accepts_lists_and_a_wider_window():
    assert pr.schubert([2, 1, 3]) == pr.schubert((2, 1, 3)) == pr.Poly.parse("x1", 3)
    wide = pr.schubert((2, 1), 3)
    assert wide.n == 3 and wide == pr.schubert((2, 1, 3))
    with pytest.raises(ValueError):
        pr.schubert((2, 1, 3), 2)


def test_schubert_matches_compatible_sequences(s3, s4):
    for perms, n in ((s3, 3), (s4, 4)):
        for w in perms:
            assert pr.schubert(w, n).terms == bjs_schubert(w, n)


def test_schubert_is_stable_under_embedding(s4):
    for w in s4:
        a = pr.schubert(w, 4)
        b = pr.schubert(sg.embed(w, 5), 5)
        assert a.extend(5) == b


def test_schubert_recurrence(s4):
    # a right descent peels one divided difference off
    for w in s4:
        for i in right_descents(w):
            shorter = sg.compose(w, sg.simple(i, 4))
            assert pr.divided_difference(i, i + 1, pr.schubert(w, 4)) == \
                pr.schubert(shorter, 4)


def test_skew_direct_apply_degenerate_cases(s4):
    rng = random.Random(19)
    p = pr.random_poly(rng, 4, max_degree=3, terms=4)
    for w in s4:
        assert pr.skew_direct_apply(w, sg.identity(4), p) == pr.del_perm(w, p)
        assert pr.skew_direct_apply(w, w, p) == p
    v_big = (2, 1, 4, 3)
    w_small = (2, 1, 3, 4)
    assert pr.skew_direct_apply(w_small, v_big, p) == pr.Poly.zero(4)


def test_skew_direct_apply_rejects_foreign_word():
    p = pr.Poly.parse("x1*x2", 3)
    with pytest.raises(ValueError):
        pr.skew_direct_apply((2, 3, 1), (1, 2, 3), p, word=(2, 1))


def test_random_poly_is_deterministic():
    a = pr.random_poly(random.Random(23), 3)
    b = pr.random_poly(random.Random(23), 3)
    assert a == b and a.terms


def _seeded_poly(rng, n, degree, terms):
    """A nonzero sum of ``terms`` random monomials of degree <= ``degree``."""
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    p = pr.Poly(n, out)
    assert len(p.terms) > 1
    return p


def _images_match_oracle(w, perms, p, word=None):
    images = pr.skew_direct_images(w, p, word)
    assert all(not image.is_zero() for image in images.values())
    for v in perms:
        want = per_set_skew_direct_apply(w, v, p, word)
        assert images.get(v, pr.Poly.zero(p.n)) == want
        assert pr.skew_direct_apply(w, v, p, word) == want
    return sum(sg.bruhat_leq(v, w) for v in perms)


def test_skew_direct_images_match_the_per_set_oracle(s4):
    rng = random.Random(29)
    for _ in range(3):
        p = _seeded_poly(rng, 4, 6, 5)
        assert sum(_images_match_oracle(w, s4, p) for w in s4) == 213


def test_skew_direct_images_on_sampled_s5():
    rng = random.Random(31)
    s5 = sg.all_permutations(5)
    for w in rng.sample(s5, 8):
        _images_match_oracle(w, s5, _seeded_poly(rng, 5, 7, 4))


def test_skew_direct_images_along_every_reduced_word(s4):
    rng = random.Random(37)
    p = _seeded_poly(rng, 4, 5, 4)
    for w in ((3, 4, 1, 2), (4, 3, 2, 1), (2, 4, 3, 1)):
        for word in brute_reduced_words(w, 4):
            _images_match_oracle(w, s4, p, word)
    with pytest.raises(ValueError):
        pr.skew_direct_images((2, 3, 1), p, word=(2, 1))


def test_skew_direct_images_when_d_kills_early(s4):
    # symmetric P: every d_a kills it, so only the all-swap leaf v = w is left
    e1 = pr.Poly.parse("x1 + x2 + x3 + x4", 4)
    for w in s4:
        assert pr.skew_direct_images(w, e1) == {w: e1}
        _images_match_oracle(w, s4, e1)
    assert pr.skew_direct_images((4, 3, 2, 1), pr.Poly.zero(4)) == {}
    # degree 1: only v one step below w, or w itself, can survive
    x1 = pr.Poly.parse("x1", 4)
    for w in s4:
        lw = sg.length(w)
        assert all(lw - sg.length(v) <= 1 for v in pr.skew_direct_images(w, x1))
        _images_match_oracle(w, s4, x1)
