"""
skewdd: skew divided difference operators over exact integer arithmetic.

Submodules:

- ``symgroup``: symmetric-group combinatorics (words, Bruhat order,
  reflection orderings, reduced subword enumeration).
- ``terms``: the sparse-term container shared by polynomials, braided
  algebra elements and tensors: window, arithmetic, equality, hash and
  the JSON string form.
- ``polyring``: sparse integer polynomials, the variable-permuting action,
  divided differences, Schubert polynomials, and the direct skew action.
- ``fkalg``: the free-algebra model of the quadratic algebra on generators
  x(i,j): braided coproduct, slicing operators, pairing, antipodes.
- ``fkcanon``: equality oracle modulo the commutation and three-term
  relations, by exact elimination over normal words, each degree built
  from the one below.
- ``skew``: four routes to the skew element x_{w/v} (signed, pairing,
  explicit positive, recurrence positive) and Schubert structure constants.
- ``verify``: randomized and exhaustive property suites.
- ``cli``: the ``skewdd`` command-line tool.
"""

__version__ = "0.1.0"

__all__ = ["symgroup", "terms", "polyring", "fkalg", "fkcanon", "skew", "verify", "cli"]
