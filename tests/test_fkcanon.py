"""Canonical forms in the quadratic quotient, against a dense oracle."""

import hashlib
import random
import threading

import pytest

from skewdd import fkalg as fk
from skewdd import fkcanon as fc
from skewdd import symgroup as sg
from skewdd import verify

from conftest import hilbert_series, raw_dimension, raw_ideal_rank, relation_basis


def test_clean_words_counts_and_order():
    for n, d, count in ((3, 0, 1), (3, 1, 3), (3, 2, 6), (3, 4, 24), (4, 2, 30)):
        words = fc.clean_words(n, d)
        assert len(words) == count
        assert words == sorted(words)
        for w in words:
            assert all(w[i] != w[i + 1] for i in range(len(w) - 1))
    # m*(m-1)^(d-1) in general
    assert len(fc.clean_words(4, 6)) == 6 * 5 ** 5


def test_relation_instances_shape():
    assert len(fc.relation_instances(3)) == 5
    assert len(fc.relation_instances(4)) == 17
    for inst in fc.relation_instances(4):
        for c, word in inst:
            assert len(word) == 2
        # every term of an instance moves the window the same way
        degrees = {fk.sn_degree(w, 4) for _c, w in inst}
        assert len(degrees) == 1


def test_relation_basis_uses_the_clean_model():
    basis = relation_basis(3, 2)
    assert len(basis) == 2
    assert [e.degree() for e in basis] == [2, 2]
    # the raw model sees the squares too
    assert raw_ideal_rank(3, 2) == 5
    # both models leave the same quotient
    assert len(fc.clean_words(3, 2)) - fc.ideal_rank(3, 2) == raw_dimension(3, 2)


def test_graded_dimensions_match_dense_oracle():
    for d in range(5):
        assert fc.graded_dimension(3, d) == raw_dimension(3, d)
    for d in range(4):
        assert fc.graded_dimension(4, d) == raw_dimension(4, d)


def test_graded_dimension_profile():
    assert [fc.graded_dimension(3, d) for d in range(5)] == [1, 3, 4, 3, 1]
    assert [fc.graded_dimension(4, d) for d in range(7)] == [
        1, 6, 19, 42, 71, 96, 106,
    ]


def test_full_hilbert_series_of_window_4():
    # [2]^2 [3]^2 [4]^2: the top degree is 12 and the total dimension 576
    dims = [fc.graded_dimension(4, d, max_degree=13) for d in range(14)]
    assert dims == hilbert_series((2, 2, 3, 3, 4, 4), 13)
    assert sum(dims) == 576 and dims[12] == 1 and dims[13] == 0


def test_canon_suite_series_match_the_canonicalizer():
    series = verify._EXPECTED_DIMS
    assert series[3] == (1, 3, 4, 3, 1)
    assert series[4] == (1, 6, 19, 42, 71, 96, 106, 96, 71, 42, 19, 6, 1)
    assert [fc.graded_dimension(4, d) for d in range(8)] == list(series[4][:8])
    assert [fc.graded_dimension(3, d) for d in range(8)] == list(series[3]) + [0, 0, 0]


def test_hilbert_series_of_window_5_through_degree_6():
    dims = [fc.graded_dimension(5, d, max_window=5) for d in range(7)]
    assert dims == hilbert_series((4,) * 4 + (5,) * 2 + (6,) * 4, 6)
    assert dims[-3:] == [711, 1960, 4761]


def test_ideal_rank_values():
    assert fc.ideal_rank(3, 2) == 2
    assert fc.ideal_rank(3, 3) == 9
    assert fc.ideal_rank(4, 2) == 11
    assert fc.ideal_rank(4, 3) == 108


def test_canonical_form_kills_relations():
    # commutation
    a = fk.FKElement.parse("x(1,2)x(3,4) - x(3,4)x(1,2)", 4)
    assert fc.canonical_form(a).is_zero()
    # the two cycle relations on each triple
    b = fk.FKElement.parse("x(1,2)x(2,3) - x(2,3)x(1,3) - x(1,3)x(1,2)", 3)
    assert fc.canonical_form(b).is_zero()
    c = fk.FKElement.parse("-x(1,2)x(1,3) - x(1,3)x(2,3) + x(2,3)x(1,2)", 3)
    assert fc.canonical_form(c).is_zero()


def test_canonical_form_is_linear_and_idempotent():
    rng = random.Random(5)
    for _ in range(25):
        words = [fk.random_word(rng, 4, rng.randint(0, 4)) for _ in range(3)]
        a = fk.FKElement(4)
        for w in words:
            a = a + fk.FKElement.from_word(w, 4) * rng.choice([-2, -1, 1, 2])
        ca = fc.canonical_form(a)
        assert fc.canonical_form(ca) == ca
        assert fc.canonical_form(a + a) == ca + ca
        assert all(isinstance(c, int) for c in ca.terms.values())


def test_canonical_form_separates_classes():
    x12 = fk.generator(1, 2, 3)
    x23 = fk.generator(2, 3, 3)
    assert not fc.fk_equal(x12 * x23, x23 * x12)
    assert fc.fk_equal(x12, x12)
    assert fc.fk_equal(x12 - x12, 0)
    assert fc.fk_equal(fk.FKElement.one(3), 1)
    assert not fc.fk_equal(x12, 0)


def test_resource_limits():
    with pytest.raises(fc.ResourceLimitError):
        fc.graded_dimension(6, 2)
    with pytest.raises(fc.ResourceLimitError):
        fc.graded_dimension(4, 8)
    # the error is a ValueError so CLI maps it to a domain failure
    assert issubclass(fc.ResourceLimitError, ValueError)
    # overrides unlock larger windows; degree 1 stays cheap
    assert fc.graded_dimension(6, 1, max_window=6) == 15


def test_concurrent_builds_agree():
    fc.clear_cache()
    results = []

    def work():
        results.append(fc.graded_dimension(4, 4))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [71, 71, 71, 71]


def test_permutation_words_are_reduced_word_independent():
    # every reduced word of w lands in the same class as the canonical one
    for n in (3, 4):
        for w in sg.all_permutations(n):
            target = fk.nilcoxeter_element(w)
            for word in sg.all_reduced_words(w):
                built = fk.FKElement.from_word(
                    tuple((i, i + 1) for i in word), n
                )
                assert fc.fk_equal(built, target)


# sha256 of golden_forms() under the elimination over every clean word,
# recorded before that implementation was replaced
GOLDEN_DIGEST = "d2b22d2fa55c69163eb65d4cf554be8ea62ee2a17147e765a9d169e4d79ca452"


def golden_forms():
    """Canonical forms, one line each, of every clean word at window 3
    through degree 4 and window 4 through degree 5, then of 300 seeded
    three-term degree-6 elements at window 4."""
    lines = []
    for n, top in ((3, 4), (4, 5)):
        for d in range(top + 1):
            for w in fc.clean_words(n, d):
                lines.append(str(fc.canonical_form(fk.FKElement.from_word(w, n))))
    rng = random.Random(46)
    for _ in range(300):
        terms = {fk.random_word(rng, 4, 6): rng.choice((-2, -1, 1, 3)) for _ in range(3)}
        lines.append(str(fc.canonical_form(fk.FKElement(4, terms))))
    return "\n".join(lines)


def test_canonical_forms_match_the_clean_word_elimination():
    text = golden_forms()
    assert len(text.splitlines()) == 46 + 4687 + 300
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST
