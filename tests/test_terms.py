"""The shared sparse-term container behind Poly, FKElement and FKTensor."""

import pytest

from skewdd.fkalg import FKElement, FKTensor
from skewdd.polyring import Poly

X12 = ((1, 2),)

# a value that fits window 2 and reads the same in any larger window
CASES = {
    "Poly": lambda n: Poly(n, {(1,) + (0,) * (n - 1): 2, (0, 1) + (0,) * (n - 2): -1}),
    "FKElement": lambda n: FKElement(n, {X12: 3, (): -1}),
    "FKTensor": lambda n: FKTensor(n, {(X12, ()): 2, ((), X12): -1, ((), ()): 4}),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_across_windows_hash_equal(name):
    small, large = CASES[name](2), CASES[name](3)
    assert small == large and large == small
    assert hash(small) == hash(large)
    assert len({small, large}) == 1
    zero, one = type(small).zero(2), type(small).one(3)
    assert hash(zero) == hash(0) and hash(one) == hash(1)
    assert len({zero, 0}) == 1 and len({one, 1}) == 1


@pytest.mark.parametrize("name", CASES)
def test_container_contract(name):
    x = CASES[name](2)
    cls = type(x)
    zero, one = cls.zero(2), cls.one(2)
    assert x + 0 == x and 0 + x == x and x - 0 == x
    assert x - x == 0 and (x - x).is_zero() and x - x == zero
    assert 1 - x == one - x
    assert (1 - x).constant_term() == 1 - x.constant_term()
    assert (-x).terms == {k: -c for k, c in x.terms.items()}
    assert (x * 0).is_zero() and (0 * x).is_zero()
    assert 2 * x == x + x == x * 2
    assert one != x and one == 1 and zero == 0 and not zero.terms

    big = x.extend(4)
    assert big.n == 4 and big == x and x == big and big != x.extend(4) * 2
    assert x.extend(2) == x
    with pytest.raises(ValueError):
        big.extend(3)
    assert (x + big).n == 4 and x + big == 2 * x

    back = cls.from_json(big.to_json())
    assert back.n == 4 and back.terms == big.terms
    assert str(cls.from_json(x.to_json())) == str(x)

    key, other = list(x.terms)[:2]
    assert cls._of(2, {key: 0, other: 5}).terms == {other: 5}
    assert cls._of(2, {key: 0}).is_zero()

    for other_name, make in CASES.items():
        if other_name != name:
            y = make(2)
            assert x != y and zero != type(y).zero(2) and one != type(y).one(2)


def test_mixing_container_types_is_a_type_error():
    p, a, t = Poly.one(3), FKElement.one(3), FKTensor.one(3)
    for x, y in ((p, a), (a, p), (t, a), (a, t), (p, t)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
        with pytest.raises(TypeError):
            x * y
