"""Degree-two homology of Lie superalgebras via the exterior complex."""

import random

import pytest

from queerhom.algebras import build_builtin, build_grassmann
from queerhom.chevalley import (
    BudgetExceeded,
    CEComplex,
    ce_h2,
    lam2_dim_formula,
    lam3_dim_formula,
)
from queerhom.lie import (
    LieSuperAlgebra,
    StructureError,
    build_gl,
    build_q,
    build_sl,
    build_sq_by_characterization,
    induced_lie,
    iso_qQ1_to_glnn,
)
from queerhom.linalg import GradedDim, GradedSpace, vec_add_scaled
from queerhom.scalars import QQ, parse_field_flag
from queerhom.theorems import (
    block_torus,
    build_block_lie,
    build_psq_lie,
    build_sq_lie,
    psq_torus,
    sq_torus,
)

BASE = build_builtin("base-field", QQ)
G1 = build_grassmann(QQ, 1)


def sq_algebra(n, R):
    q = build_q(n, R)
    return induced_lie(q, build_sq_by_characterization(n, R, q), name="sq%d" % n)


def abelian(even, odd):
    labels = ["a%d" % i for i in range(even)] + ["b%d" % i for i in range(odd)]
    parities = [0] * even + [1] * odd
    return LieSuperAlgebra(QQ, GradedSpace(tuple(labels), tuple(parities)), {})


# ------------------------------------------------------------ chain spaces


@pytest.mark.parametrize(
    "g",
    [build_q(1, BASE), build_q(1, G1), build_q(2, BASE), sq_algebra(2, G1)],
    ids=["q1", "q1-gr1", "q2", "sq2-gr1"],
)
def test_lam2_formula_matches_enumerated_basis(g):
    cx = CEComplex(g)
    assert cx.lam2.graded_dim == lam2_dim_formula(g.space.graded_dim)


@pytest.mark.parametrize(
    "g",
    [build_q(1, BASE), build_q(1, G1), build_q(2, BASE), sq_algebra(2, G1)],
    ids=["q1", "q1-gr1", "q2", "sq2-gr1"],
)
def test_lam3_formula_matches_iteration_count(g):
    cx = CEComplex(g)
    triples = list(cx.iter_lam3())
    assert len(triples) == cx.lam3_dim == lam3_dim_formula(g.space.graded_dim)
    assert len(set(triples)) == len(triples)


def test_wedge_sign_rules():
    g = build_q(1, G1)  # parities (0, 1, 1, 0)
    cx = CEComplex(g)
    par = g.space.parities
    assert cx.wedge(0, 0) is None  # even self-wedge dies
    pos, sgn = cx.wedge(1, 1)  # odd self-wedge survives
    assert sgn == 1
    for t in range(g.dim):
        for c in range(t + 1, g.dim):
            fwd = cx.wedge(t, c)
            rev = cx.wedge(c, t)
            assert fwd[0] == rev[0]
            want = 1 if (par[t] and par[c]) else -1
            assert rev[1] == fwd[1] * want


def test_wedge_positions_cover_basis_once():
    cx = CEComplex(sq_algebra(2, BASE))
    seen = set()
    n = cx.g.dim
    for t in range(n):
        for c in range(t, n):
            w = cx.wedge(t, c)
            if w is not None:
                seen.add(w[0])
    assert seen == set(range(cx.lam2.dim))


# --------------------------------------------------------------- boundaries


def test_d2_composed_with_d3_is_zero_as_matrices():
    g = sq_algebra(2, BASE)
    cx = CEComplex(g)
    d2 = cx.d2_matrix()
    d3 = cx.d3_matrix()
    assert d2.nrows == g.dim and d2.ncols == cx.lam2.dim
    assert d3.nrows == cx.lam2.dim and d3.ncols == cx.lam3_dim
    cols = {}
    for (r, c), v in d3.entries.items():
        cols.setdefault(c, {})[r] = v
    for c, col in cols.items():
        assert d2.apply(col) == {}, "triple column %d survives d2" % c


def test_d3_column_on_three_even_generators():
    # [x, y] = z with x, y, z even: the only boundary is z^z which dies
    labels = ("x", "y", "z")
    space = GradedSpace(labels, (0, 0, 0))
    one = QQ.one
    heis = LieSuperAlgebra(QQ, space, {(0, 1): {2: one}, (1, 0): {2: -one}})
    cx = CEComplex(heis)
    assert cx.d3_column((0, 1, 2)) == {}
    assert cx.d2_column(cx.pair_pos[(0, 1)]) == {2: one}


def test_heisenberg_h2():
    labels = ("x", "y", "z")
    space = GradedSpace(labels, (0, 0, 0))
    one = QQ.one
    heis = LieSuperAlgebra(QQ, space, {(0, 1): {2: one}, (1, 0): {2: -one}})
    r = ce_h2(heis)
    assert r.dims == GradedDim(2, 0)


# ------------------------------------------------------------ homology dims


def test_abelian_h2_is_the_whole_degree_two_space():
    rng = random.Random(20260815)
    for _ in range(6):
        even, odd = rng.randint(0, 6), rng.randint(0, 6)
        g = abelian(even, odd)
        r = ce_h2(g)
        assert r.dims == lam2_dim_formula(GradedDim(even, odd))
        assert r.stats["im_rank_parity0"] == 0
        assert r.stats["im_rank_parity1"] == 0
        assert len(r.basis) == r.dims.total


def test_abelian_two_one_frozen():
    assert ce_h2(abelian(2, 1)).dims == GradedDim(2, 2)


@pytest.mark.parametrize(
    "g,expect",
    [
        (build_q(1, BASE), GradedDim(0, 0)),
        (sq_algebra(2, BASE), GradedDim(0, 0)),
        (sq_algebra(3, BASE), GradedDim(0, 0)),
        (sq_algebra(2, G1), GradedDim(2, 1)),
    ],
    ids=["q1", "sq2", "sq3", "sq2-gr1"],
)
def test_h2_frozen_values(g, expect):
    assert ce_h2(g).dims == expect


def test_h2_of_traceless_two_by_two_vanishes():
    gl = build_gl(2, 0, BASE)
    sl2 = induced_lie(gl, build_sl(2, BASE), name="sl2")
    assert ce_h2(sl2).dims == GradedDim(0, 0)


# ------------------------------------------------------- budget and stats


def test_budget_rejects_large_chain_space_before_work():
    g = sq_algebra(3, BASE)
    with pytest.raises(BudgetExceeded) as err:
        ce_h2(g, budget=100)
    assert err.value.lam3_dim == 816
    assert err.value.budget == 100
    assert "exceeds budget" in str(err.value)


def test_budget_allows_exact_fit():
    g = build_q(1, BASE)
    r = ce_h2(g, budget=lam3_dim_formula(g.space.graded_dim))
    assert r.dims == GradedDim(0, 0)


def test_stats_account_for_kernel_minus_image():
    r = ce_h2(sq_algebra(2, G1))
    s = r.stats
    assert s["algebra_dim"] == [7, 7]
    assert s["ker_rank_parity0"] - s["im_rank_parity0"] == r.dims.even
    assert s["ker_rank_parity1"] - s["im_rank_parity1"] == r.dims.odd
    assert s["h2"] == [r.dims.even, r.dims.odd]
    for key in ("kernel_parity0", "boundaries_parity0", "quotient_parity1"):
        assert key in s["timings"]


def test_basis_vectors_are_homogeneous_cycles():
    g = sq_algebra(2, G1)
    r = ce_h2(g)
    cx = CEComplex(g)
    d2 = cx.d2_matrix()
    assert len(r.basis) == r.dims.total
    for p, vec in r.basis:
        assert vec
        assert all(cx.lam2.parities[k] == p for k in vec)
        assert d2.apply(vec) == {}


# ------------------------------------------------- weight-zero subcomplex


def heisenberg():
    one = QQ.one
    space = GradedSpace(("x", "y", "z"), (0, 0, 0))
    return LieSuperAlgebra(QQ, space, {(0, 1): {2: one}, (1, 0): {2: -one}})


def sq3_with_torus(tag, field):
    _, sq = build_sq_lie(3, build_builtin(tag, parse_field_flag(field)))
    return sq, list(sq_torus(sq))


def assert_weight_zero_matches_full(g, torus):
    full = ce_h2(g)
    w0 = ce_h2(g, torus=torus)
    assert w0.dims == full.dims
    assert [(p, sorted(v.items())) for p, v in w0.basis] == [
        (p, sorted(v.items())) for p, v in full.basis
    ]
    assert full.stats["lam3_weight0_dim"] == full.stats["lam3_dim"]
    assert w0.stats["lam3_dim"] == full.stats["lam3_dim"]
    assert w0.stats["lam3_weight0_dim"] < full.stats["lam3_dim"]
    assert w0.stats["lam2_weight0_dim"] < full.stats["lam2_dim"]
    return w0


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
@pytest.mark.parametrize("tag", ["base-field", "grassmann(1)", "matrix(2)"])
def test_weight_zero_h2_of_sq3_equals_full_complex(tag, field):
    sq, torus = sq3_with_torus(tag, field)
    r = assert_weight_zero_matches_full(sq, torus)
    assert r.stats["torus_rank"] == 3


def test_weight_zero_h2_of_psq3_equals_full_complex():
    psq = build_psq_lie(3, G1)
    r = assert_weight_zero_matches_full(psq, list(psq_torus(psq)))
    # h_1 + h_2 + h_3 is the identity block, which the quotient kills
    assert r.stats["torus_rank"] == 2


def test_weight_zero_h2_of_block_algebra_equals_full_complex():
    hom = iso_qQ1_to_glnn(3, build_builtin("base-field", parse_field_flag("Qi")))
    sl = build_block_lie(hom)
    r = assert_weight_zero_matches_full(sl, list(block_torus(sl, hom)))
    assert r.stats["torus_rank"] == 3


def test_empty_torus_streams_every_triple_in_order(monkeypatch):
    g = sq_algebra(2, G1)
    cx = CEComplex(g)
    assert list(cx.iter_lam3_weight0()) == list(cx.iter_lam3())
    streamed = []
    d3_column = CEComplex.d3_column

    def recording(self, t):
        streamed.append(t)
        return d3_column(self, t)

    monkeypatch.setattr(CEComplex, "d3_column", recording)
    ce_h2(g)
    want = [t for p in (0, 1) for t in cx.iter_lam3() if cx.lam3_parity(t) == p]
    assert streamed == want


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_weight_zero_triples_are_the_filtered_full_list(field):
    sq, torus = sq3_with_torus("grassmann(1)", field)
    cx = CEComplex(sq, torus)
    zero = tuple(sq.field.zero for _ in torus)

    def weight(t):
        return tuple(sum(col, sq.field.zero) for col in zip(*(cx.weights[i] for i in t)))

    want = [t for t in cx.iter_lam3() if weight(t) == zero]
    assert list(cx.iter_lam3_weight0()) == want
    assert cx.lam2_weight0 == [
        k for k, t in enumerate(cx.pairs) if weight(t) == zero
    ]


def test_weights_are_compared_in_the_field():
    # 3 (e_1 - e_2) vanishes in characteristic 3: S^3 of an odd root vector
    # has weight zero there, so F_3 keeps strictly more triples than Q
    counts = {}
    for field in ("Q", "Fp:3"):
        sq, torus = sq3_with_torus("grassmann(1)", field)
        counts[field] = ce_h2(sq, torus=torus).stats["lam3_weight0_dim"]
    assert counts["Fp:3"] > counts["Q"]


def test_odd_torus_element_is_rejected():
    g = build_q(1, G1)  # parities (0, 1, 1, 0)
    with pytest.raises(StructureError, match="not even"):
        ce_h2(g, torus=[{1: QQ.one}])


def test_non_diagonal_torus_element_is_rejected():
    with pytest.raises(StructureError, match="diagonal"):
        ce_h2(heisenberg(), torus=[{0: QQ.one}])


def test_budget_is_decided_before_the_torus_is_read():
    def torus():
        raise AssertionError("torus read before the budget check")
        yield

    with pytest.raises(BudgetExceeded):
        ce_h2(sq_algebra(3, BASE), budget=100, torus=torus())
