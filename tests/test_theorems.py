"""The homology scenarios (h2-main, psq-central, slnn-identity): gating,
skips, expected sides, and the sq/psq/block algebras they build."""

import gc
import types

import pytest

from queerhom import scenarios
from queerhom.algebras import (
    build_builtin,
    build_grassmann,
    build_matrix,
    build_q1,
    commutator_subspace,
    tensor,
)
from queerhom.chevalley import lam3_dim_formula
from queerhom.lie import (
    LieSuperAlgebra,
    StructureError,
    block_graded_dim,
    build_block_lie,
    build_psq_lie,
    build_q,
    build_sq_by_characterization,
    build_sq_lie,
    induced_lie,
    iso_qQ1_to_glnn,
    psq_graded_dim,
    sq_graded_dim,
)
from queerhom.linalg import GradedDim
from queerhom.scalars import QQ, parse_field_flag
from queerhom.scenarios import (
    ScenarioOptions,
    scenario_h2_main,
    scenario_psq_central,
    scenario_slnn_identity,
)

from oracles import expected_psq_dims

BASE = build_builtin("base-field", QQ)
G1 = build_grassmann(QQ, 1)


def test_build_sq_lie_returns_algebra_in_canonical_basis():
    sq, torus = build_sq_lie(2, G1)
    q = build_q(2, G1)
    assert q.space.graded_dim == GradedDim(8, 8)
    assert sq.space.graded_dim == GradedDim(7, 7)
    assert sq.space == induced_lie(q, build_sq_by_characterization(2, G1, q)).space
    assert len(torus) == 2


def test_build_psq_lie_dims():
    psq, torus = build_psq_lie(3, BASE)
    assert psq.space.graded_dim == GradedDim(8, 8)
    assert len(torus) == 3


def test_build_psq_lie_rejects_noncommutative_coordinates():
    with pytest.raises(ValueError):
        build_psq_lie(3, build_matrix(QQ, 2))


def _reachable_lie_algebras(root):
    """Every LieSuperAlgebra reachable from root through gc.get_referents,
    without entering a type or a module."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, LieSuperAlgebra):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType)):
                seen.add(id(ref))
                stack.append(ref)
    return found


H2_BUILDS = {
    "sq": lambda: build_sq_lie(3, G1),
    "psq": lambda: build_psq_lie(3, G1),
    "block": lambda: build_block_lie(iso_qQ1_to_glnn(3, build_grassmann(parse_field_flag("Qi"), 1))),
}


@pytest.mark.parametrize("kind", sorted(H2_BUILDS))
def test_h2_builder_keeps_no_other_algebra_alive(kind):
    # q_n(R), its table and any intermediate algebra are freed when the
    # builder returns, so ce_h2 runs beside the returned algebra alone
    built = H2_BUILDS[kind]()
    g, torus = built
    assert isinstance(torus, list) and len(torus) == 3
    assert _reachable_lie_algebras(built) == [g]


@pytest.mark.parametrize(
    "R,expect",
    [(BASE, GradedDim(1, 0)), (G1, GradedDim(1, 2)),
     (build_builtin("truncated-poly(2)", QQ), GradedDim(2, 0))],
    ids=["base", "gr1", "tp2"],
)
def test_expected_psq_dims(R, expect):
    assert expected_psq_dims(R) == expect


def test_main_verification_passes_at_n3():
    report = scenario_h2_main(ScenarioOptions("builtin:base-field", n=3))
    assert report.status == "PASS"
    (row,) = report.rows
    assert row.check == "h2-equals-shifted-cyclic"
    assert row.computed == "(0|0)"


def test_main_verification_note_says_ranks_are_weight_zero():
    report = scenario_h2_main(ScenarioOptions("builtin:grassmann(1)", n=3))
    (row,) = report.rows
    assert row.status == "PASS"
    assert row.note.startswith("weight-zero subcomplex of a rank-3 torus:")
    assert " of 578 " in row.note and " of 6562 " in row.note


def test_main_verification_marks_small_n_exploratory():
    report = scenario_h2_main(ScenarioOptions("builtin:grassmann(1)", n=2))
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "exploratory" in row.note
    assert "computed H2=(2|1)" in row.note
    assert report.exit_code == 0


def test_main_verification_budget_skip_names_the_dimension():
    # lam3 of sq_3(grassmann(1)) is 6562: one below SKIPs, an exact fit runs
    for budget in (100, 6561):
        report = scenario_h2_main(ScenarioOptions("builtin:grassmann(1)", n=3, budget=budget))
        (row,) = report.rows
        assert row.status == "SKIP"
        assert row.note == "degree-3 chain space dimension 6562 exceeds budget %d" % budget
    report = scenario_h2_main(ScenarioOptions("builtin:grassmann(1)", n=3, budget=6562))
    (row,) = report.rows
    assert row.status == "PASS"
    assert " of 6562 " in row.note


def test_psq_verification_skips_noncommutative_coordinates():
    report = scenario_psq_central(ScenarioOptions("builtin:matrix(2)", n=3))
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "supercommutative" in row.note


def test_psq_verification_skips_small_n():
    report = scenario_psq_central(ScenarioOptions("builtin:base-field", n=2))
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "n >= 3" in row.note


def test_slnn_verification_skips_without_sqrt_minus_one():
    report = scenario_slnn_identity(ScenarioOptions("builtin:base-field", n=3))
    (row,) = report.rows
    assert row.status == "SKIP"
    assert "square root of -1" in row.note
    assert report.exit_code == 0


# ------------------------------------------- budget decided before building


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "tag", ["base-field", "grassmann(1)", "grassmann(2)", "matrix(2)", "q1", "square-zero-plane"]
)
def test_sq_graded_dim_formula_matches_the_built_algebra(tag, n):
    R = build_builtin(tag, QQ)
    sq, _ = build_sq_lie(n, R)
    assert sq_graded_dim(n, R) == sq.space.graded_dim


@pytest.mark.parametrize("tag", ["base-field", "grassmann(1)", "square-zero-plane"])
def test_psq_graded_dim_formula_matches_the_built_algebra(tag):
    R = build_builtin(tag, QQ)
    assert psq_graded_dim(3, R) == build_psq_lie(3, R)[0].space.graded_dim


@pytest.mark.parametrize("tag", ["base-field", "grassmann(1)"])
def test_block_algebra_has_the_dimension_of_sq_over_s_tensor_q1(tag):
    S = build_builtin(tag, parse_field_flag("Qi"))
    sl, _ = build_block_lie(iso_qQ1_to_glnn(3, S))
    assert sl.space.graded_dim == sq_graded_dim(3, tensor(S, build_q1(S.field)))
    assert block_graded_dim(3, S) == sl.space.graded_dim


ALL_TAGS = [
    "base-field", "q1", "grassmann(1)", "grassmann(2)", "truncated-poly(2)",
    "monogenic(x^2-2)", "group-algebra(2)", "group-algebra(3)", "matrix(2)",
    "square-zero-plane",
]


@pytest.mark.parametrize("field", ["Q", "Qi", "Fp:3", "Fp:5"])
@pytest.mark.parametrize("tag", ALL_TAGS)
def test_block_graded_dim_is_sq_over_the_built_tensor_product(tag, field):
    # gd([T,T]) = gd(S) + swap gd([S,S]) for T = S(x)Q1, 2 invertible
    S = build_builtin(tag, parse_field_flag(field))
    T = tensor(S, build_q1(S.field))
    assert commutator_subspace(T).graded_dim == (
        S.space.graded_dim + commutator_subspace(S).graded_dim.swap()
    )
    for n in (1, 3):
        assert block_graded_dim(n, S) == sq_graded_dim(n, T)


def test_budget_skip_text_for_grassmann2_at_n6_is_unchanged():
    R = build_grassmann(QQ, 2)
    assert sq_graded_dim(6, R) == GradedDim(142, 142)
    report = scenario_h2_main(ScenarioOptions("builtin:grassmann(2)", n=6, budget=10000))
    (row,) = report.rows
    assert row.status == "SKIP"
    assert row.note == "degree-3 chain space dimension 3817812 exceeds budget 10000"


def test_an_slnn_budget_skip_builds_no_tensor_product(monkeypatch):
    # grassmann(9)(x)Q1 has dimension 1024: its supercommutators alone took
    # 0.75 s and 72.8 MB before the budget was decided from S
    monkeypatch.setattr(scenarios, "tensor", _no_build)
    opts = ScenarioOptions("builtin:grassmann(9)", n=3, field=parse_field_flag("Qi"), budget=10)
    (row,) = scenario_slnn_identity(opts).rows
    assert (row.check, row.status) == ("h2-equals-cyclic", "SKIP")
    assert row.note == "degree-3 chain space dimension %d exceeds budget 10" % lam3_dim_formula(
        block_graded_dim(3, build_grassmann(QQ, 9))
    )


def _no_build(*args, **kwargs):
    raise AssertionError("built an algebra, a torus or the cyclic side before the budget check")


def test_budget_skips_come_before_anything_is_built(monkeypatch):
    for name in (
        "build_sq_lie", "build_psq_lie", "iso_qQ1_to_glnn", "build_block_lie",
        "build_q", "ce_h2", "hc1", "tensor",
    ):
        monkeypatch.setattr(scenarios, name, _no_build)
    G2 = ScenarioOptions("builtin:grassmann(2)", n=6, budget=10)
    G1_QI = ScenarioOptions("builtin:grassmann(1)", n=6, field=parse_field_flag("Qi"), budget=10)
    checks = [
        (scenario_h2_main(G2), "h2-equals-shifted-cyclic"),
        (scenario_psq_central(G2), "h2-equals-coords-plus-shifted-cyclic"),
        (scenario_slnn_identity(G1_QI), "h2-equals-cyclic"),
    ]
    for report, check in checks:
        row = report.rows[-1]
        assert (row.check, row.status) == (check, "SKIP")
        assert "exceeds budget 10" in row.note


def test_built_algebra_that_disagrees_with_the_formula_is_an_error(monkeypatch):
    monkeypatch.setattr(scenarios, "sq_graded_dim", lambda n, R: GradedDim(1, 1))
    with pytest.raises(StructureError):
        scenario_h2_main(ScenarioOptions("builtin:base-field", n=3))
