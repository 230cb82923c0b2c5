"""Randomized invariants, hypothesis-driven."""

from hypothesis import given, settings, strategies as st

from skewdd import fkalg as fk
from skewdd import fkcanon as fc
from skewdd import polyring as pr
from skewdd import symgroup as sg

from conftest import left_component

perms3 = st.permutations(list(range(1, 4))).map(tuple)
perms4 = st.permutations(list(range(1, 5))).map(tuple)


def polys(n, max_degree=3, terms=4):
    exponent = st.tuples(*(st.integers(0, max_degree) for _ in range(n)))
    term = st.tuples(exponent, st.integers(-3, 3))
    return st.lists(term, max_size=terms).map(
        lambda ts: sum(
            (pr.Poly.monomial(e, n, c) for e, c in ts), pr.Poly.zero(n)
        )
    )


def fk_elements(n, max_len=3, terms=3):
    letter = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda ab: ab[0] != ab[1]
    )
    word = st.lists(letter, max_size=max_len).map(tuple)
    return st.lists(st.tuples(word, st.integers(-3, 3)), max_size=terms).map(
        lambda ts: fk.FKElement(n, ts)
    )


@settings(max_examples=100, deadline=None)
@given(perms4, perms4, perms4)
def test_compose_is_associative(u, v, w):
    assert sg.compose(sg.compose(u, v), w) == sg.compose(u, sg.compose(v, w))


@settings(max_examples=100, deadline=None)
@given(perms4)
def test_inverse_round_trip(u):
    assert sg.compose(u, sg.inverse(u)) == sg.identity(4)
    assert sg.inverse(sg.inverse(u)) == u


@settings(max_examples=100, deadline=None)
@given(perms4, perms4)
def test_length_subadditive_with_matching_parity(u, v):
    lu, lv, luv = sg.length(u), sg.length(v), sg.length(sg.compose(u, v))
    assert luv <= lu + lv
    assert (luv - lu - lv) % 2 == 0


@settings(max_examples=100, deadline=None)
@given(perms4, perms4, perms4)
def test_bruhat_transitive_and_antisymmetric(u, v, w):
    if sg.bruhat_leq(u, v) and sg.bruhat_leq(v, w):
        assert sg.bruhat_leq(u, w)
    if sg.bruhat_leq(u, v) and sg.bruhat_leq(v, u):
        assert u == v


@settings(max_examples=50, deadline=None)
@given(perms3, perms3, polys(3))
def test_substitution_is_a_group_action(u, v, p):
    assert pr.act(u, pr.act(v, p)) == pr.act(sg.compose(u, v), p)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), polys(3))
def test_divided_difference_squares_to_zero(i, p):
    once = pr.divided_difference(i, i + 1, p)
    assert pr.divided_difference(i, i + 1, once).is_zero()


@settings(max_examples=50, deadline=None)
@given(fk_elements(3), fk_elements(3), fk_elements(3))
def test_fk_multiplication_distributes_and_associates(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=50, deadline=None)
@given(perms3, fk_elements(3), fk_elements(3))
def test_relabeling_is_an_algebra_map(w, a, b):
    assert fk.act(w, a * b) == fk.act(w, a) * fk.act(w, b)
    assert fk.act(w, a + b) == fk.act(w, a) + fk.act(w, b)


@settings(max_examples=50, deadline=None)
@given(fk_elements(3))
def test_conjugate_antipode_is_an_involution(a):
    assert fk.sbar(fk.sbar(a)) == a


@settings(max_examples=50, deadline=None)
@given(fk_elements(3))
def test_coproduct_counit(a):
    t = fk.coproduct(a)
    assert left_component(t, ()) == a


@settings(max_examples=30, deadline=None)
@given(fk_elements(3), fk_elements(3))
def test_canonical_form_is_a_linear_projection(a, b):
    ca = fc.canonical_form(a)
    assert fc.canonical_form(ca) == ca
    assert fc.canonical_form(a + b) == ca + fc.canonical_form(b)
    assert fc.fk_equal(a, ca)
