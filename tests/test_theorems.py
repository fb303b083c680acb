"""Report-producing verification drivers: gating, skips, expected sides."""

import pytest

from queerhom.algebras import build_builtin, build_grassmann, build_matrix
from queerhom.linalg import GradedDim, graded_dim
from queerhom.scalars import QQ
from queerhom.theorems import (
    build_psq_lie,
    build_sq_lie,
    expected_psq_dims,
    verify_main_theorem,
    verify_psq_formula,
    verify_slnn_identity,
)

BASE = build_builtin("base-field", QQ)
G1 = build_grassmann(QQ, 1)


def test_build_sq_lie_returns_algebra_in_canonical_basis():
    q, sq = build_sq_lie(2, G1)
    assert graded_dim(q.space) == GradedDim(8, 8)
    assert graded_dim(sq.space) == GradedDim(7, 7)
    assert sq.ambient is q


def test_build_psq_lie_dims():
    psq = build_psq_lie(3, BASE)
    assert graded_dim(psq.space) == GradedDim(8, 8)


def test_build_psq_lie_rejects_noncommutative_coordinates():
    with pytest.raises(ValueError):
        build_psq_lie(3, build_matrix(QQ, 2))


@pytest.mark.parametrize(
    "R,expect",
    [(BASE, GradedDim(1, 0)), (G1, GradedDim(1, 2)),
     (build_builtin("truncated-poly(2)", QQ), GradedDim(2, 0))],
    ids=["base", "gr1", "tp2"],
)
def test_expected_psq_dims(R, expect):
    assert expected_psq_dims(R) == expect


def test_main_verification_passes_at_n3():
    report = verify_main_theorem(BASE, 3)
    assert report.status == "PASS"
    (row,) = report.rows
    assert row.check == "h2-equals-shifted-cyclic"
    assert row.computed == "(0|0)"


def test_main_verification_note_says_ranks_are_weight_zero():
    report = verify_main_theorem(G1, 3)
    (row,) = report.rows
    assert row.status == "PASS"
    assert row.note.startswith("weight-zero subcomplex of a rank-3 torus:")
    assert " of 578 " in row.note and " of 6562 " in row.note


def test_main_verification_marks_small_n_exploratory():
    report = verify_main_theorem(G1, 2)
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "exploratory" in row.note
    assert "computed H2=(2|1)" in row.note
    assert report.exit_code == 0


def test_main_verification_budget_skip_names_the_dimension():
    report = verify_main_theorem(G1, 3, budget=100)
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "6562" in row.note and "exceeds budget" in row.note


def test_psq_verification_skips_noncommutative_coordinates():
    report = verify_psq_formula(build_matrix(QQ, 2), 3)
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "supercommutative" in row.note


def test_psq_verification_skips_small_n():
    report = verify_psq_formula(BASE, 2)
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "n >= 3" in row.note


def test_slnn_verification_skips_without_sqrt_minus_one():
    report = verify_slnn_identity(BASE, 3)
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "square root of -1" in row.note
    assert report.exit_code == 0
