"""Kernel values survive ``copy.copy``, ``copy.deepcopy`` and ``pickle``:
each copy has the original's type, value, hash and printed form, and an
operator keeps its truncation tag."""

import copy
import pickle

import pytest

from padicdx import (
    DiffOp,
    MicroOp,
    NormExp,
    PAdicScalar,
    ResiduePoly,
    TatePoly,
    TruncatedOperand,
)
from padicdx.weyl import ConnectionMatrix

VALUES = [
    TatePoly([1, -2, "3/4"], 2),
    TatePoly([], 5, "t"),
    ResiduePoly([1, 2, 0, 1], 3, "y"),
    DiffOp({0: TatePoly([0, 1], 2), 2: "1/2"}, 2),
    DiffOp.truncated({0: 1, 3: TatePoly([1, 1], 3)}, 3),
    MicroOp({-2: 5, 0: TatePoly([1, 0, 1], 5), 1: 1}, 5),
    PAdicScalar("9/14", 7),
    NormExp(-3),
    NormExp.NEG_INF,
    ConnectionMatrix([[1, TatePoly([0, 1], 2)], [0, "1/2"]], 2),
]
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_copies_are_equal_values(value, how):
    out = COPIES[how](value)
    assert type(out) is type(value)
    assert out == value
    assert hash(out) == hash(value)
    assert repr(out) == repr(value)
    if isinstance(value, (DiffOp, MicroOp)):
        assert out.finite is value.finite


def test_copied_truncation_still_refuses_arithmetic():
    T = pickle.loads(pickle.dumps(DiffOp.truncated({0: 1, 1: 1}, 2)))
    with pytest.raises(TruncatedOperand):
        T * T
