"""One equality rule for every polynomial and operator class.

``scalars._Ring.__eq__`` reads the operand through the class's
``_check``: a foreign operand gives NotImplemented, an operand the check
refuses with a ``KernelError`` (another prime, a truncated operator to
embed) is unequal, and anything else compares by ``_eq_key``, which is
also the hash.  The table pins the answer both ways round for each class.
"""

import pytest

from padicdx import (
    DiffOp,
    MicroOp,
    PAdicScalar,
    ResidueElem,
    ResiduePoly,
    TatePoly,
)

P, Q = 3, 5


def tate(p, var="x"):
    return TatePoly([2, 1], p, var)


def residue(p, var="x"):
    return ResiduePoly([2, 1], p, var)


def diff(p, var="x"):
    return DiffOp({1: TatePoly([0, 1], p, var), 0: 2}, p, var)


def micro(p, var="x"):
    return MicroOp({-1: 1, 1: TatePoly([0, 1], p, var)}, p, var)


# (row, left, right, equal)
TABLE = [
    ("TatePoly", tate(P), tate(P), True),
    ("TatePoly", TatePoly([2], P), 2, True),
    ("TatePoly", TatePoly([2], P), PAdicScalar(2, P), True),
    ("TatePoly", tate(P), 2, False),
    ("TatePoly", tate(P), tate(Q), False),
    ("TatePoly", TatePoly([2], P), PAdicScalar(2, Q), False),
    ("TatePoly", tate(P), object(), False),
    ("ResiduePoly", residue(P), residue(P), True),
    # the one deliberate change: a constant equals its int, as for TatePoly
    ("ResiduePoly", ResiduePoly([1], P), 1, True),
    ("ResiduePoly", ResiduePoly([2], P), ResidueElem(2, P), True),
    ("ResiduePoly", residue(P), 2, False),
    ("ResiduePoly", residue(P), residue(Q), False),
    ("ResiduePoly", ResiduePoly([2], P), ResidueElem(2, Q), False),
    ("ResiduePoly", residue(P), object(), False),
    ("DiffOp", diff(P), diff(P), True),
    ("DiffOp", DiffOp.one(P), 1, True),
    ("DiffOp", DiffOp({0: 2}, P), PAdicScalar(2, P), True),
    ("DiffOp", diff(P), 2, False),
    ("DiffOp", diff(P), diff(Q), False),
    ("DiffOp", DiffOp({0: 2}, P), PAdicScalar(2, Q), False),
    ("DiffOp", diff(P), object(), False),
    ("MicroOp", micro(P), micro(P), True),
    ("MicroOp", MicroOp.one(P), 1, True),
    ("MicroOp", MicroOp({0: 2}, P), PAdicScalar(2, P), True),
    ("MicroOp", micro(P), 2, False),
    ("MicroOp", micro(P), micro(Q), False),
    ("MicroOp", MicroOp({0: 2}, P), PAdicScalar(2, Q), False),
    ("MicroOp", micro(P), object(), False),
    ("MicroOp", MicroOp.from_diffop(diff(P)), diff(P), True),
    ("MicroOp", MicroOp({1: 1}, P), DiffOp.truncated({1: 1}, P), False),
]


@pytest.mark.parametrize(
    "left, right, equal",
    [row[1:] for row in TABLE],
    ids=[f"{row[0]}-{i}" for i, row in enumerate(TABLE)],
)
def test_equality_both_ways_round(left, right, equal):
    assert (left == right) is equal
    assert (right == left) is equal
    assert (left != right) is not equal
    assert (right != left) is not equal


@pytest.mark.parametrize("make", [tate, residue, diff, micro])
def test_equal_values_of_one_class_hash_equal(make):
    assert hash(make(P)) == hash(make(P))
    cls = type(make(P))
    # a constant does not depend on its variable symbol
    a, b = cls.one(P, "x"), cls.one(P, "y")
    assert a == b and hash(a) == hash(b)
    assert make(P, "x") != make(P, "y")


@pytest.mark.parametrize("make", [tate, residue, diff, micro])
def test_a_foreign_operand_is_left_to_python(make):
    assert make(P).__eq__(object()) is NotImplemented
    assert make(P).__eq__(make(Q)) is False
