"""End-to-end acceptance runs.

Every verification scenario is exercised through the command-line entry
point on its full documented input family, with wall-clock budgets asserted
where the workload is nontrivial.  Expected graded dimensions are pinned
from independently computed values, never from the code under test.

The nu-side pair rows on odd coordinates are expected to fail: the two
odd-pair-vanishes[nu] rows report a genuine nonzero canonical residue on
grassmann coordinates (see the relation tests for the sharp identity that
does hold).  The corresponding case below is intentionally left red.
"""

import json
import random
import time

import pytest

from queerhom.algebras import build_builtin, build_grassmann
from queerhom.chevalley import CEComplex, ce_h2
from queerhom.cli import main
from queerhom.kahler import kahler_hc1_oracle
from queerhom.lie import (
    LieSuperAlgebra,
    build_q,
    build_sq_by_characterization,
    induced_lie,
    lie_tensor,
    quotient_lie,
)
from queerhom.linalg import Echelon, GradedDim, GradedSpace, Subspace
from queerhom.scalars import QQ

from oracles import (
    QuotientSpace,
    SparseMatrix,
    center,
    check_lie,
    d2_matrix,
    d3_matrix,
    gl_table,
    lam2_dim_formula,
    rref,
)

MAIN_FAMILY = [
    "base-field",
    "grassmann(1)",
    "truncated-poly(2)",
    "group-algebra(3)",
    "matrix(2)",
]

ALL_TAGS = [
    "base-field",
    "q1",
    "grassmann(1)",
    "grassmann(2)",
    "truncated-poly(2)",
    "monogenic(x^2-2)",
    "group-algebra(2)",
    "group-algebra(3)",
    "matrix(2)",
    "square-zero-plane",
]


def timed_main(argv, budget):
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, "took %.1fs, budget %ds" % (elapsed, budget)
    return code


def report_row(path, check):
    data = json.loads(path.read_text())
    for row in data["rows"]:
        if row["check"] == check:
            return row
    raise AssertionError("no row %r in %s" % (check, path))


# ------------------------------------------------ block realization of q_n


@pytest.mark.parametrize("tag", MAIN_FAMILY)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_iso_with_trace_subalgebra_image(n, tag, capsys):
    code = timed_main(
        ["iso-queer-gl", "--algebra", "builtin:%s" % tag, "--n", str(n)], budget=10
    )
    assert code == 0, capsys.readouterr().out


# ----------------------------------------------- derived subalgebra and sq


@pytest.mark.parametrize("tag", MAIN_FAMILY)
@pytest.mark.parametrize("n", [2, 3])
def test_derived_characterization_and_perfectness(n, tag, capsys):
    code = timed_main(
        ["perfectness", "--algebra", "builtin:%s" % tag, "--n", str(n)], budget=10
    )
    assert code == 0, capsys.readouterr().out


# --------------------------------------------------------- abelian corner


@pytest.mark.parametrize(
    "tag", ["base-field", "grassmann(1)", "grassmann(2)", "truncated-poly(2)"]
)
def test_sq1_abelian_on_supercommutative_coordinates(tag, capsys):
    code = main(["sq1-abelian", "--algebra", "builtin:%s" % tag])
    assert code == 0, capsys.readouterr().out


# ------------------------------------------------------- coordinate change


LOOP_ISO_INPUTS = [
    (tag, field)
    for field in ("Q", "Fp:3", "Qi")
    for tag in ("grassmann(1)", "truncated-poly(2)")
]


@pytest.mark.parametrize(
    "tag, field",
    LOOP_ISO_INPUTS,
    ids=[tag if field == "Q" else "%s-%s" % (tag, field) for tag, field in LOOP_ISO_INPUTS],
)
def test_tensoring_base_q2_matches_q2_of_coordinates(tag, field, capsys):
    code = main(["loop-iso", "--algebra", "builtin:%s" % tag, "--n", "2", "--field", field])
    assert code == 0, capsys.readouterr().out


# ------------------------------------------- gl(n|n) over sqrt(-1) fields


@pytest.mark.parametrize("tag", ["base-field", "grassmann(1)"])
@pytest.mark.parametrize("n", [1, 2])
def test_q_of_clifford_coordinates_realizes_glnn(n, tag, capsys):
    code = main(
        ["qtogl-sqrt-1", "--field", "Qi", "--algebra", "builtin:%s" % tag,
         "--n", str(n)]
    )
    assert code == 0, capsys.readouterr().out


# -------------------------------------------------------- pairing identities


@pytest.mark.parametrize(
    "tag", ["base-field", "grassmann(1)", "truncated-poly(2)", "matrix(2)"]
)
def test_pairing_rows_have_zero_residue(tag, capsys):
    # grassmann(1) is expected to fail: its two nu-side rows carry a
    # genuine residue +-x1(x)nu(x)1(x)nu, witnessed exactly by the CLI
    code = timed_main(["pair-relations", "--algebra", "builtin:%s" % tag], budget=60)
    assert code == 0, capsys.readouterr().out


# ----------------------------------------------------- the coordinate shift


@pytest.mark.parametrize(
    "tag",
    ["base-field", "grassmann(1)", "truncated-poly(2)", "matrix(2)",
     "group-algebra(3)", "square-zero-plane"],
)
def test_shift_swaps_cyclic_dims_by_both_routes(tag, capsys):
    code = main(["hc1-shift", "--algebra", "builtin:%s" % tag])
    assert code == 0, capsys.readouterr().out


# -------------------------------------------------------- differential forms


KAHLER_EXPECT = [
    ("truncated-poly(2)", GradedDim(0, 0)),
    ("group-algebra(3)", GradedDim(0, 0)),
    ("square-zero-plane", GradedDim(1, 0)),
]


@pytest.mark.parametrize("tag,expect", KAHLER_EXPECT, ids=[t for t, _ in KAHLER_EXPECT])
def test_cyclic_matches_differential_forms(tag, expect, capsys):
    assert kahler_hc1_oracle(tag, QQ) == expect
    code = main(["kahler-oracle", "--algebra", "builtin:%s" % tag])
    assert code == 0, capsys.readouterr().out


# ------------------------------------------------------------ degree-two h2


H2_MAIN_CASES = [
    ("base-field", "Q", "(0|0)", 10),
    ("grassmann(1)", "Q", "(0|1)", 300),
    ("square-zero-plane", "Q", "(0|1)", 900),
    ("grassmann(1)", "Fp:10007", "(0|1)", 60),
]


@pytest.mark.parametrize(
    "tag,field,expect,budget",
    H2_MAIN_CASES,
    ids=["rationals", "grassmann-line", "square-zero", "prime-smoke"],
)
def test_h2_of_sq3_matches_shifted_cyclic(tag, field, expect, budget, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = timed_main(
        ["h2-main", "--algebra", "builtin:%s" % tag, "--n", "3", "--field", field,
         "--report", str(path)],
        budget=budget,
    )
    assert code == 0, capsys.readouterr().out
    row = report_row(path, "h2-equals-shifted-cyclic")
    assert row["status"] == "PASS"
    assert row["computed"] == expect


# -------------------------------------------------------------- a_n quotient


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_an_quotient_vanishes_for_n_two_and_three(tag, capsys):
    code = main(["an-vanishing", "--algebra", "builtin:%s" % tag])
    assert code == 0, capsys.readouterr().out


# ------------------------------------------------------------- psq homology


PSQ_CASES = [
    ("base-field", "(1|0)"),
    ("grassmann(1)", "(1|2)"),
    ("truncated-poly(2)", "(2|0)"),
]


@pytest.mark.parametrize("tag,expect", PSQ_CASES, ids=[t for t, _ in PSQ_CASES])
def test_h2_of_psq3_adds_coordinate_classes(tag, expect, tmp_path, capsys):
    path = tmp_path / "report.json"
    code = timed_main(
        ["psq-central", "--algebra", "builtin:%s" % tag, "--n", "3",
         "--report", str(path)],
        budget=300,
    )
    assert code == 0, capsys.readouterr().out
    row = report_row(path, "h2-equals-coords-plus-shifted-cyclic")
    assert row["status"] == "PASS"
    assert row["computed"] == expect


# ------------------------------------------------------------ sl(n|n) chain


def test_slnn_block_chain_gives_cyclic_dims(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = timed_main(
        ["slnn-identity", "--field", "Qi", "--algebra", "builtin:base-field",
         "--n", "3", "--report", str(path)],
        budget=300,
    )
    assert code == 0, capsys.readouterr().out
    row = report_row(path, "h2-equals-cyclic")
    assert row["status"] == "PASS"
    assert row["computed"] == "(0|0)"


# --------------------------------------------------------- invariant suite


def _constructed_family():
    base = build_builtin("base-field", QQ)
    g1 = build_grassmann(QQ, 1)
    q3 = build_q(3, base)
    sq3 = induced_lie(q3, build_sq_by_characterization(3, base, q3), name="sq3")
    yield build_q(1, base)
    yield build_q(1, g1)
    yield build_q(2, g1)
    yield q3
    yield sq3
    yield quotient_lie(sq3, center(sq3), name="psq3")[0]
    yield gl_table(2, 1, base)
    yield lie_tensor(build_q(2, base), g1)


def invariant_axioms():
    for g in _constructed_family():
        assert check_lie(g) is True


def invariant_boundary_composition():
    base = build_builtin("base-field", QQ)
    g1 = build_grassmann(QQ, 1)
    q2 = build_q(2, base)
    sq2 = induced_lie(q2, build_sq_by_characterization(2, base, q2), name="sq2")
    for g in (sq2, build_q(1, g1), gl_table(1, 1, base)):
        cx = CEComplex(g)
        d2 = d2_matrix(cx)
        cols = {}
        for (r, c), v in d3_matrix(cx).entries.items():
            cols.setdefault(c, {})[r] = v
        for col in cols.values():
            assert d2.apply(col, g.field) == {}


def invariant_abelian_h2_closed_form():
    rng = random.Random(13)
    for _ in range(8):
        even, odd = rng.randint(0, 6), rng.randint(0, 6)
        labels = tuple("e%d" % i for i in range(even + odd))
        g = LieSuperAlgebra(QQ, GradedSpace(labels, (0,) * even + (1,) * odd), {})
        assert ce_h2(g).dims == lam2_dim_formula(GradedDim(even, odd))


def invariant_quotient_additivity():
    rng = random.Random(41)
    for _ in range(10):
        even, odd = rng.randint(1, 5), rng.randint(1, 5)
        labels = tuple("e%d" % i for i in range(even + odd))
        space = GradedSpace(labels, (0,) * even + (1,) * odd)
        vecs = []
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(0, 1)
            idxs = [i for i in range(even + odd) if space.parities[i] == p]
            vec = {i: QQ.from_int(rng.randint(-3, 3)) for i in idxs}
            vec = {i: v for i, v in vec.items() if v}
            if vec:
                vecs.append(vec)
        sub = Subspace.from_vectors(space, vecs, QQ)
        quot = QuotientSpace(space, sub)
        assert sub.graded_dim + quot.graded_dim == space.graded_dim


def invariant_echelon_idempotence():
    rng = random.Random(67)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        entries = {}
        for r in range(nrows):
            for c in range(ncols):
                if rng.random() < 0.4:
                    v = QQ.from_int(rng.randint(-4, 4))
                    if v:
                        entries[(r, c)] = v
        m = SparseMatrix(nrows, ncols, entries)
        once, rank_once = rref(m, QQ)
        twice, rank_twice = rref(once, QQ)
        assert once.entries == twice.entries
        assert rank_once == rank_twice
        rows = [dict() for _ in range(nrows)]
        for (r, c), v in entries.items():
            rows[r][c] = v
        rows = [r for r in rows if r]
        # canonical spans agree regardless of insertion order
        spans = []
        for _ in range(3):
            rng.shuffle(rows)
            ech = Echelon(QQ)
            for row in rows:
                ech.insert(dict(row))
            spans.append(ech.rref_rows())
        assert spans[0] == spans[1] == spans[2]


def test_invariant_axioms_hold_on_constructed_family():
    invariant_axioms()


def test_invariant_boundary_maps_compose_to_zero():
    invariant_boundary_composition()


def test_invariant_abelian_h2_is_degree_two_space():
    invariant_abelian_h2_closed_form()


def test_invariant_quotient_dims_are_additive():
    invariant_quotient_additivity()


def test_invariant_echelon_reduction_is_canonical():
    invariant_echelon_idempotence()


def test_invariant_suite_runs_inside_budget():
    t0 = time.perf_counter()
    invariant_axioms()
    invariant_boundary_composition()
    invariant_abelian_h2_closed_form()
    invariant_quotient_additivity()
    invariant_echelon_idempotence()
    assert time.perf_counter() - t0 < 120
