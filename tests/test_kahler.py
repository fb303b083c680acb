"""Differential-form oracle against the kernel-of-commutator computation."""

import pytest

from queerhom.algebras import build_builtin
from queerhom.cyclic import hc1
from queerhom.kahler import kahler_hc1_oracle
from queerhom.linalg import GradedDim
from queerhom.scalars import QQ, parse_field_flag

FROZEN = [
    ("truncated-poly(2)", GradedDim(0, 0)),
    ("group-algebra(3)", GradedDim(0, 0)),
    ("square-zero-plane", GradedDim(1, 0)),
    ("monogenic(x^3-1)", GradedDim(0, 0)),
]


@pytest.mark.parametrize("tag,expect", FROZEN, ids=[t for t, _ in FROZEN])
def test_oracle_frozen_values(tag, expect):
    assert kahler_hc1_oracle(tag, QQ) == expect


@pytest.mark.parametrize(
    "tag",
    ["truncated-poly(2)", "truncated-poly(3)", "group-algebra(2)",
     "group-algebra(3)", "square-zero-plane", "monogenic(x^2-2)",
     "monogenic(x^3-1)"],
)
def test_oracle_agrees_with_commutator_kernel(tag):
    assert kahler_hc1_oracle(tag, QQ) == hc1(build_builtin(tag, QQ)).graded_dim


def test_oracle_agrees_in_degenerate_characteristic():
    # x^5 has zero derivative mod 5, so the quotient gains a class
    F5 = parse_field_flag("Fp:5")
    assert kahler_hc1_oracle("truncated-poly(5)", field=F5) == GradedDim(1, 0)
    assert hc1(build_builtin("truncated-poly(5)", F5)).graded_dim == GradedDim(1, 0)
    F3 = parse_field_flag("Fp:3")
    assert kahler_hc1_oracle("group-algebra(3)", field=F3) == GradedDim(1, 0)
    assert hc1(build_builtin("group-algebra(3)", F3)).graded_dim == GradedDim(1, 0)


@pytest.mark.parametrize("tag", ["grassmann(1)", "matrix(2)", "q1", "nonsense"])
def test_oracle_rejects_unsupported_presentations(tag):
    with pytest.raises(ValueError):
        kahler_hc1_oracle(tag, QQ)
