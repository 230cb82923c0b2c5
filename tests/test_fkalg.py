"""The braided quadratic algebra in its free word model."""

import itertools
import json
import random
import re

import pytest

from skewdd import fkalg as fk
from skewdd import symgroup as sg

from conftest import compose_sbar_word, left_component, simple_tensor


def test_canonical_letter_and_word():
    assert fk.canonical_letter(1, 2) == ((1, 2), 1)
    assert fk.canonical_letter(2, 1) == ((1, 2), -1)
    with pytest.raises(ValueError):
        fk.canonical_letter(2, 2)
    assert fk.canonical_word(((2, 1), (2, 3))) == (((1, 2), (2, 3)), -1)
    word, sign = fk.canonical_word(((1, 2), (2, 1)))
    assert word is None


def test_constructor_canonicalizes():
    a = fk.FKElement(3, {((2, 1),): 1})
    assert a == -fk.generator(1, 2, 3)
    assert fk.FKElement(3, {((1, 2), (1, 2)): 5}).is_zero()
    combined = fk.FKElement(3, [(((1, 2),), 1), (((2, 1),), 1)])
    assert combined.is_zero()
    with pytest.raises(ValueError):
        fk.FKElement(2, {((1, 3),): 1})


def test_multiplication_kills_only_the_seam():
    x12 = fk.generator(1, 2, 3)
    x23 = fk.generator(2, 3, 3)
    assert (x12 * x12).is_zero()
    assert not (x12 * x23).is_zero()
    # the interior of each factor is already clean, so a sandwiched square
    # survives construction only through the seam
    a = fk.FKElement.from_word(((1, 2), (2, 3)), 3)
    b = fk.FKElement.from_word(((2, 3), (1, 2)), 3)
    assert (a * b).is_zero()


def test_ring_axioms():
    rng = random.Random(3)
    for _ in range(20):
        a = fk.FKElement.from_word(fk.random_word(rng, 3, 2), 3)
        b = fk.FKElement.from_word(fk.random_word(rng, 3, 2), 3)
        c = fk.FKElement.from_word(fk.random_word(rng, 3, 2), 3)
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * fk.FKElement.one(3) == a
        assert fk.FKElement.one(3) * a == a
        assert a - a == fk.FKElement.zero(3)
        assert a * 2 - a == a


def test_degree_bookkeeping():
    a = fk.FKElement.parse("x(1,2)x(2,3) + x(1,3)", 3)
    assert a.degree() == 2
    assert not a.is_homogeneous()
    comps = a.degree_components()
    assert sorted(comps) == [1, 2]
    assert comps[1] == fk.generator(1, 3, 3)
    assert a.coefficient(((1, 2), (2, 3))) == 1
    # letters canonicalize individually: two flips cancel
    assert a.coefficient(((2, 1), (3, 2))) == 1
    assert a.coefficient(((2, 1), (2, 3))) == -1
    assert a.is_positive()
    assert not (a - 2 * fk.generator(1, 3, 3)).is_positive()


def test_str_parse_round_trip():
    texts = (
        "0",
        "1",
        "-1",
        "x(1,2)",
        "x(1,2)x(2,3) - x(2,3)x(1,3)",
        "3*x(1,2) + 2",
        "-2*x(1,3)x(1,2)",
    )
    for text in texts:
        a = fk.FKElement.parse(text, 3)
        assert fk.FKElement.parse(str(a), 3) == a
    assert str(fk.FKElement.parse("x(2,1)", 3)) == "-x(1,2)"


def test_parse_errors_carry_positions():
    for bad in ("x(1,2", "x(1;2)", "x(1,2)y", "+", "x(0,2)"):
        with pytest.raises(fk.ParseError) as info:
            fk.FKElement.parse(bad, 3)
        assert isinstance(info.value.position, int)
    with pytest.raises(ValueError):
        fk.FKElement.parse("x(1,5)", 3)


def test_json_round_trip():
    a = fk.FKElement.parse("x(1,2)x(2,3) - 2*x(1,3)x(1,2) + 4", 3)
    assert fk.FKElement.from_json(a.to_json()) == a
    data = json.loads(a.to_json())
    assert data["n"] == 3
    assert fk.FKElement.from_json_dict(a.to_json_dict()) == a


def test_act_is_an_algebra_map():
    rng = random.Random(7)
    perms = sg.all_permutations(4)
    for _ in range(20):
        a = fk.FKElement.from_word(fk.random_word(rng, 4, 2), 4)
        b = fk.FKElement.from_word(fk.random_word(rng, 4, 2), 4)
        u = perms[rng.randrange(len(perms))]
        v = perms[rng.randrange(len(perms))]
        assert fk.act(u, a * b) == fk.act(u, a) * fk.act(u, b)
        assert fk.act(u, fk.act(v, a)) == fk.act(sg.compose(u, v), a)


def test_sn_degree_composes():
    word = ((1, 2), (1, 3), (2, 3))
    one_at_a_time = sg.identity(3)
    for g in word:
        one_at_a_time = sg.compose(
            one_at_a_time, sg.transposition(g[0], g[1], 3)
        )
    assert fk.sn_degree(word, 3) == one_at_a_time


def test_coproduct_counit():
    rng = random.Random(9)
    for _ in range(30):
        word = fk.random_word(rng, 4, rng.randint(0, 4))
        a = fk.FKElement.from_word(word, 4)
        t = fk.coproduct(a)
        left_unit = fk.FKElement(4)
        right_unit = fk.FKElement(4)
        for (l, r), c in t.terms.items():
            if not l:
                left_unit = left_unit + fk.FKElement(4, {r: c})
            if not r:
                right_unit = right_unit + fk.FKElement(4, {l: c})
        assert left_unit == a
        assert right_unit == a


def test_coproduct_coassociativity():
    rng = random.Random(11)
    for _ in range(30):
        word = fk.random_word(rng, 4, rng.randint(0, 4))
        a = fk.FKElement.from_word(word, 4)
        lhs = {}
        for (l, r), c in fk.coproduct(a).terms.items():
            for (l2, r2), c2 in fk.coproduct(fk.FKElement.from_word(l, 4)).terms.items():
                key = (l2, r2, r)
                lhs[key] = lhs.get(key, 0) + c * c2
        rhs = {}
        for (l, r), c in fk.coproduct(a).terms.items():
            for (l2, r2), c2 in fk.coproduct(fk.FKElement.from_word(r, 4)).terms.items():
                key = (l, l2, r2)
                rhs[key] = rhs.get(key, 0) + c * c2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs


def test_coproduct_worked_example():
    t = fk.coproduct(fk.FKElement.parse("x(1,2)x(2,3)", 3))
    want = {
        (((1, 2), (2, 3)), ()): 1,
        (((1, 2),), ((2, 3),)): 1,
        (((2, 3),), ((1, 3),)): 1,
        ((), ((1, 2), (2, 3))): 1,
    }
    assert t.terms == want


def test_tensor_behaviour():
    a = fk.generator(1, 2, 3)
    b = fk.generator(2, 3, 3)
    t = simple_tensor(a, b)
    assert t.swap().swap() == t
    assert str(t) == "x(1,2) (x) x(2,3)"
    assert fk.FKTensor.parse(str(t), 3) == t
    assert fk.FKTensor.from_json(t.to_json()) == t
    two = t + t
    assert two == t * 2 and 2 * t == two
    assert (t - t).is_zero()
    assert left_component(t, ((1, 2),)) == b


def test_tensor_constructor_orients_and_validates():
    x12 = fk.FKTensor.parse("x(1,2) (x) 1", 3)
    assert fk.FKTensor.parse("x(2,1) (x) 1", 3) == -1 * x12
    assert fk.FKTensor(3, {((), ((3, 2), (2, 1))): 1}) == fk.FKTensor.parse(
        "1 (x) x(2,3)x(1,2)", 3
    )
    # a word with equal adjacent letters is zero in either factor
    assert fk.FKTensor(3, {(((1, 2), (2, 1)), ()): 1}).is_zero()
    assert fk.FKTensor(3, {((), ((1, 3), (1, 3))): 1}).is_zero()
    bad = '{"n":2,"terms":[{"coeff":1,"left":[[1,7]],"right":[]}]}'
    with pytest.raises(ValueError):
        fk.FKTensor.from_json(bad)


def test_window_is_checked_before_a_word_is_dropped():
    # the word x(1,7)x(1,7) would be dropped as zero, but window 2 has no 7
    with pytest.raises(ValueError, match="outside window 2"):
        fk.FKElement.from_json('{"n":2,"terms":[{"coeff":1,"word":[[1,7],[7,1]]}]}')
    with pytest.raises(ValueError, match="outside window 2"):
        fk.FKElement(2, {((1, 7), (1, 7)): 1})
    bad = '{"n":2,"terms":[{"coeff":1,"left":[[1,7],[7,1]],"right":[]}]}'
    with pytest.raises(ValueError, match="outside window 2"):
        fk.FKTensor.from_json(bad)
    # a dropped left word does not spare the right one its check
    with pytest.raises(ValueError, match="outside window 2"):
        fk.FKTensor(2, {(((1, 2), (1, 2)), ((1, 7),)): 1})


def test_delta_and_nabla_worked_examples():
    a = fk.FKElement.parse("x(1,2)x(2,3)x(1,2)", 3)
    assert fk.delta_op(((2, 3),), a) == fk.FKElement.parse("x(1,3)x(1,2)", 3)
    assert fk.nabla_op(a, ((2, 3),)) == fk.FKElement.parse("x(2,3)x(1,2)", 3)
    assert fk.delta_op(((1, 3),), a).is_zero()
    assert fk.nabla_op(a, ((1, 2),)) == fk.FKElement.parse("x(1,2)x(2,3)", 3)


def test_delta_junction_kill():
    # the relabeled prefix ends in the suffix's first letter, so the
    # extraction at the only occurrence glues two equal letters and dies
    c = fk.FKElement.parse("x(1,3)x(2,3)x(1,2)", 3)
    assert fk.delta_op(((2, 3),), c).is_zero()


def test_operators_are_linear():
    rng = random.Random(13)
    for _ in range(15):
        a = fk.FKElement.from_word(fk.random_word(rng, 3, 3), 3)
        b = fk.FKElement.from_word(fk.random_word(rng, 3, 3), 3)
        g = ((1, 2),)
        assert fk.delta_op(g, a + b) == fk.delta_op(g, a) + fk.delta_op(g, b)
        assert fk.nabla_op(a + b, g) == fk.nabla_op(a, g) + fk.nabla_op(b, g)
        assert fk.sbar(a + b) == fk.sbar(a) + fk.sbar(b)
        assert fk.antipode(a + b) == fk.antipode(a) + fk.antipode(b)


def test_antipode_and_sbar_worked_examples():
    a = fk.FKElement.parse("x(1,2)x(2,3)x(3,4)", 4)
    assert fk.antipode(a) == fk.FKElement.parse("-x(3,4)x(2,4)x(1,4)", 4)
    assert fk.sbar(a) == fk.FKElement.parse("x(1,4)x(2,4)x(3,4)", 4)


def test_sbar_word_signs():
    word, sign = fk.sbar_word(((1, 2),), 2)
    assert word == ((1, 2),) and sign == 1
    word, sign = fk.sbar_word(((2, 3), (1, 2)), 3)
    assert fk.canonical_word(word)[0] is not None
    # degree-2 consistency with the element-level map
    a = fk.FKElement.from_word(((2, 3), (1, 2)), 3)
    assert fk.sbar(a) == fk.FKElement(3, {word: sign})


def test_sbar_word_matches_compose_oracle():
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randrange(2, 7)
        word = tuple(
            tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randrange(0, 9))
        )
        assert fk.sbar_word(word, n) == compose_sbar_word(word, n)


@pytest.mark.parametrize("letter", [(1, 1), (0, 2), (1, 4)])
def test_sbar_word_rejects_an_invalid_letter(letter):
    a, b = letter
    with pytest.raises(ValueError, match=re.escape(f"invalid transposition ({a},{b}) in window 3")):
        fk.sbar_word(((1, 2), letter, (2, 3)), 3)


def test_reverse_element_is_an_involution():
    a = fk.FKElement.parse("x(1,2)x(2,3) - 2*x(1,3)", 3)
    assert fk.reverse_element(fk.reverse_element(a)) == a
    assert fk.reverse_element(a) == fk.FKElement.parse(
        "x(2,3)x(1,2) - 2*x(1,3)", 3
    )


def test_pairing_is_dual_to_inversion(s3):
    for u in s3:
        for v in s3:
            got = fk.pairing(
                fk.nilcoxeter_element(u), fk.nilcoxeter_element(v)
            )
            assert got == (1 if v == sg.inverse(u) else 0)


def test_pairing_bilinear():
    a = fk.FKElement.parse("x(1,2)x(2,3)", 3)
    b = fk.FKElement.parse("x(2,3)x(1,2)", 3)
    assert fk.pairing(a, b + b) == 2
    assert fk.pairing(a + a, b) == 2
    assert fk.pairing(a, fk.FKElement.zero(3)) == 0


def test_pairing_bruhat_examples():
    assert fk.pairing_bruhat((3, 1, 2), ((1, 3), (1, 2))) == 1
    assert fk.pairing_bruhat((3, 1, 2), ((1, 2), (1, 3))) == 0
    assert fk.pairing_bruhat((1, 2, 3), ()) == 1
    # adjacent duplicate letters cannot form an increasing chain
    assert fk.pairing_bruhat((3, 1, 2), ((1, 2), (1, 2))) == 0


def test_nilcoxeter_words():
    assert fk.nilcoxeter_word((3, 2, 1)) == ((1, 2), (2, 3), (1, 2))
    e = fk.nilcoxeter_element((2, 1), 4)
    assert e == fk.generator(1, 2, 4)
    assert fk.nilcoxeter_element((1, 2, 3)) == fk.FKElement.one(3)


def test_random_word_properties():
    rng = random.Random(17)
    for _ in range(50):
        word = fk.random_word(rng, 4, 5)
        assert len(word) == 5
        assert all(word[i] != word[i + 1] for i in range(4))
    with pytest.raises(ValueError):
        fk.random_word(rng, 2, 2)


def test_generator_window_check():
    with pytest.raises(ValueError):
        fk.generator(1, 4, 3)


def _walk_cases():
    for n in (3, 4):
        letters = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for w in sg.all_permutations(n):
            if sg.length(w) <= 4:
                yield w, letters


def test_walks_match_per_word_pairings():
    # every word over all letters, equal adjacent letters included
    words = 0
    for w, letters in _walk_cases():
        lw = sg.length(w)
        xw = fk.nilcoxeter_element(w)
        paired = fk.delta_walk(xw, letters, lw)
        chains = fk.bruhat_chain_words(w, letters)
        assert all(not img.is_zero() for img in paired.values())
        for u in itertools.product(letters, repeat=lw):
            words += 1
            el = fk.FKElement.from_word(u, len(w))
            image = fk.delta_op(u, xw)
            assert paired.get(u, fk.FKElement.zero(len(w))) == image
            assert image.coefficient(()) == fk.pairing(el, xw)
            assert fk.pairing(xw, el) == fk.pairing(el, xw)
            assert (u in chains) == (fk.pairing_bruhat(w, u) == 1)
            assert (u in chains) == (fk.pairing(el, xw) == 1)
    s3_words = 1 + 2 * 3 + 2 * 3**2 + 1 * 3**3
    s4_words = 1 + 3 * 6 + 5 * 6**2 + 6 * 6**3 + 5 * 6**4
    assert words == s3_words + s4_words


def test_delta_walk_on_an_inhomogeneous_element():
    b = fk.FKElement.parse("x(1,2)x(2,3)x(1,2) - 2*x(1,3)", 3)
    letters = [(1, 2), (1, 3), (2, 3)]
    assert fk.delta_walk(b, letters, 0) == {(): b}
    assert fk.delta_walk(fk.FKElement.zero(3), letters, 0) == {}
    assert fk.delta_walk(b, letters, 4) == {}
    for depth in (1, 2):
        walk = fk.delta_walk(b, letters, depth)
        for u in itertools.product(letters, repeat=depth):
            assert walk.get(u, fk.FKElement.zero(3)) == fk.delta_op(u, b)


def test_tensor_parse_errors_carry_positions():
    for bad in ("", "x(1,2)", "x(1,2) (x)", "x(1,2) (x) 1 x(1,3)", "x(1,4) (x) 1"):
        with pytest.raises(fk.ParseError) as info:
            fk.FKTensor.parse(bad, 3)
        assert isinstance(info.value.position, int)
    t = fk.FKTensor.parse("2*1 (x) 1 - x(1,2) (x) x(2,3)", 3)
    assert str(t) == "-x(1,2) (x) x(2,3) + 2*1 (x) 1"
