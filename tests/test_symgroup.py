"""Permutations, words, Bruhat order, and reflection orderings."""

import itertools

import pytest

from skewdd import symgroup as sg

from conftest import (
    brute_length,
    bruhat_oracle,
    brute_reduced_words,
    is_subsequence,
    prefix_bruhat_oracle,
    right_descents,
)


def test_identity_and_composition():
    assert sg.identity(4) == (1, 2, 3, 4)
    u, v = (2, 3, 1), (3, 1, 2)
    assert sg.compose(u, v) == sg.identity(3)
    assert sg.inverse(u) == v
    w = (3, 1, 2, 4)
    assert sg.compose(w, sg.inverse(w)) == sg.identity(4)
    assert sg.compose(sg.inverse(w), w) == sg.identity(4)


def test_compose_applies_right_first():
    # (u o v)(i) = u(v(i))
    u, v = (2, 1, 3), (1, 3, 2)
    assert sg.compose(u, v) == tuple(u[v[i] - 1] for i in range(3))


def test_is_permutation():
    assert sg.is_permutation((2, 1, 3))
    assert not sg.is_permutation((1, 1, 3))
    assert not sg.is_permutation((0, 1, 2))


def test_embed_and_common_window():
    assert sg.embed((2, 1), 4) == (2, 1, 3, 4)
    assert sg.embed((2, 1), 2) == (2, 1)
    with pytest.raises(ValueError):
        sg.embed((2, 1, 3), 2)
    assert sg.common_window((2, 1), (1, 3, 2)) == ((2, 1, 3), (1, 3, 2))
    assert sg.common_window([2, 1], (1, 2)) == ((2, 1), (1, 2))
    u, v = (2, 1, 3), (1, 3, 2)
    same = sg.common_window(u, v)
    assert same[0] is u and same[1] is v


def test_length_counts_inversions():
    for n in range(1, 7):
        for w in sg.all_permutations(n):
            assert sg.length(w) == brute_length(w)


def test_transposition_and_simple():
    assert sg.transposition(1, 3, 3) == (3, 2, 1)
    assert sg.simple(2, 4) == (1, 3, 2, 4)
    with pytest.raises(ValueError):
        sg.transposition(2, 2, 3)
    with pytest.raises(ValueError):
        sg.simple(3, 3)


def test_from_word_and_reduced():
    assert sg.from_word((1, 2), 3) == (2, 3, 1)
    assert sg.from_word((2, 1), 3) == (3, 1, 2)
    assert sg.from_word((), 3) == sg.identity(3)
    assert sg.is_reduced((1, 2, 1), 3)
    assert not sg.is_reduced((1, 1), 3)
    with pytest.raises(ValueError):
        sg.from_word((3,), 3)


def test_descents(s4):
    for w in s4:
        winv = sg.inverse(w)
        lefts = {i for i in range(1, 4) if winv[i - 1] > winv[i]}
        rights = {i for i in range(1, 4) if w[i - 1] > w[i]}
        assert set(sg.left_descents(w)) == lefts
        assert set(right_descents(w)) == rights
        # a left descent shortens on the left, a right descent on the right
        for i in lefts:
            assert sg.length(sg.compose(sg.simple(i, 4), w)) == sg.length(w) - 1
        for i in rights:
            assert sg.length(sg.compose(w, sg.simple(i, 4))) == sg.length(w) - 1


def test_canonical_reduced_word_accepts_a_list():
    assert sg.canonical_reduced_word([2, 1, 3]) == (1,)
    assert sg.canonical_reduced_word([3, 4, 1, 2]) == sg.canonical_reduced_word((3, 4, 1, 2))


def test_canonical_reduced_word_is_lex_least(s4):
    for w in s4:
        words = brute_reduced_words(w, 4)
        assert sg.canonical_reduced_word(w) == min(words)


def test_all_reduced_words_matches_brute(s4):
    for w in s4:
        assert tuple(sg.all_reduced_words(w)) == brute_reduced_words(w, 4)


def test_bruhat_matches_subword_criterion(s3, s4):
    for perms, n in ((s3, 3), (s4, 4)):
        for v in perms:
            for w in perms:
                assert sg.bruhat_leq(v, w) == bruhat_oracle(v, w, n)


def test_bruhat_matches_prefix_oracle_on_s5():
    s5 = sg.all_permutations(5)
    for v in s5:
        for w in s5:
            assert sg.bruhat_leq(v, w) == prefix_bruhat_oracle(v, w)
    # mixed windows embed before comparing
    assert sg.bruhat_leq((2, 1), (1, 3, 2)) == prefix_bruhat_oracle((2, 1), (1, 3, 2))


def test_bruhat_is_a_partial_order(s4):
    for v in s4:
        assert sg.bruhat_leq(v, v)
        for w in s4:
            if sg.bruhat_leq(v, w) and sg.bruhat_leq(w, v):
                assert v == w
    w0 = sg.longest_element(4)
    e = sg.identity(4)
    for v in s4:
        assert sg.bruhat_leq(e, v)
        assert sg.bruhat_leq(v, w0)


def test_reduced_subwords_against_brute(s4):
    word = sg.canonical_reduced_word(sg.longest_element(4))
    for v in s4:
        got = sg.reduced_subwords(word, v)
        brute = [
            pos
            for pos in itertools.combinations(range(1, len(word) + 1), sg.length(v))
            if sg.from_word(tuple(word[k - 1] for k in pos), 4) == v
        ]
        assert got == sorted(brute)
        for pos in got:
            sub = tuple(word[k - 1] for k in pos)
            assert sg.is_reduced(sub, 4)
            assert sg.from_word(sub, 4) == v


def test_reduced_subwords_of_shorter_words(s3, s4):
    # every word up to length 6, reduced or not, against every target
    for perms, n in ((s3, 3), (s4, 4)):
        for size in range(7):
            for word in itertools.product(range(1, n), repeat=size):
                for v in perms:
                    got = sg.reduced_subwords(word, v)
                    brute = [
                        pos
                        for pos in itertools.combinations(
                            range(1, len(word) + 1), sg.length(v)
                        )
                        if sg.from_word(tuple(word[k - 1] for k in pos), n) == v
                    ]
                    assert got == sorted(brute)
                    assert bool(got) == bool(brute)
    # a letter outside the window is refused, not read as another swap
    for word, n in (((2, 1, 0), 3), ((1, 3), 3)):
        with pytest.raises(ValueError, match="out of range"):
            sg.reduced_subwords(word, sg.longest_element(3), n)


def test_lower_covers(s4):
    for w in s4:
        covers = sg.lower_covers(w)
        expected = {
            v
            for v in s4
            if sg.length(v) == sg.length(w) - 1 and sg.bruhat_leq(v, w)
        }
        assert {v for v, _t in covers} == expected
        for v, (i, j) in covers:
            assert i < j
            assert sg.compose(w, sg.transposition(i, j, 4)) == v or \
                sg.compose(sg.transposition(i, j, 4), w) == v


def test_longest_element():
    assert sg.longest_element(1) == (1,)
    assert sg.longest_element(4) == (4, 3, 2, 1)
    assert sg.length(sg.longest_element(5)) == 10


def test_reflection_ordering_shape():
    order = sg.reflection_ordering(4)
    assert len(order) == 6
    assert sorted(order) == [
        (i, j) for i in range(1, 4) for j in range(i + 1, 5)
    ]
    assert order[0] == (1, 2)


def test_reflection_ordering_from_word():
    w0 = sg.longest_element(4)
    for word in sg.all_reduced_words(w0):
        order = sg.reflection_ordering_from_word(word, 4)
        assert sorted(order) == sorted(sg.reflection_ordering(4))
    with pytest.raises(ValueError):
        sg.reflection_ordering_from_word((1, 1, 2, 1, 3, 2), 4)
    with pytest.raises(ValueError):
        sg.reflection_ordering_from_word((1, 2, 1), 4)


def test_all_permutations_counts():
    assert len(sg.all_permutations(1)) == 1
    assert len(sg.all_permutations(4)) == 24
    assert len(set(sg.all_permutations(4))) == 24


def test_perm_to_oneline():
    assert sg.perm_to_oneline((3, 1, 2)) == "312"
    with pytest.raises(ValueError):
        sg.perm_to_oneline(tuple(range(1, 11)))
