"""Run the documented examples in every source module."""

import doctest

import pytest

from skewdd import cli, fkalg, fkcanon, polyring, skew, symgroup, terms, verify


@pytest.mark.parametrize(
    "module", [symgroup, terms, polyring, fkalg, fkcanon, skew, verify, cli],
    ids=lambda m: m.__name__.rsplit(".", 1)[-1],
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
