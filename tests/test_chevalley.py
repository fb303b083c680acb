"""Degree-two homology of Lie superalgebras via the exterior complex."""

import functools
import random
from fractions import Fraction

import pytest

from queerhom import chevalley, lie, linalg, scenarios
from queerhom.algebras import build_builtin, build_grassmann
from queerhom.chevalley import CEComplex, ce_h2, lam3_dim_formula, torus_weights
from queerhom.lie import (
    LieSuperAlgebra,
    StructureError,
    build_block_lie,
    build_gl,
    build_psq_lie,
    build_q,
    build_sl,
    build_sq_by_characterization,
    build_sq_lie,
    induced_lie,
    iso_qQ1_to_glnn,
    sq_graded_dim,
)
from queerhom.linalg import GradedDim, GradedSpace, in_field
from queerhom.scalars import QQ, parse_field_flag
from queerhom.scenarios import ScenarioOptions, scenario_h2_main

from oracles import (
    QuotientSpace,
    d2_matrix,
    d3_by_wedges,
    d3_matrix,
    d3_vector,
    generated_subalgebra,
    gl_table,
    greedy_generators,
    h2_by_representatives,
    identity_block,
    image_by_full_stream,
    torus_weights_by_unit_columns,
    iter_lam3,
    iter_lam3_weight0,
    lam2_dim_formula,
    lam2_pairs,
    lam2_positions,
    upper_half,
    wedge,
)

BASE = build_builtin("base-field", QQ)
G1 = build_grassmann(QQ, 1)


def sq_algebra(n, R):
    q = build_q(n, R)
    return induced_lie(q, build_sq_by_characterization(n, R, q), name="sq%d" % n)


def hand_written(space, brackets):
    """The algebra of a bracket table written out in full, both halves."""
    return LieSuperAlgebra(QQ, space, upper_half(brackets, space.parities, QQ))


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
    assert cx.pairs == lam2_pairs(g)  # an empty torus gives all of L2


@pytest.mark.parametrize(
    "g",
    [build_q(1, BASE), build_q(1, G1), build_q(2, BASE), sq_algebra(2, G1)],
    ids=["q1", "q1-gr1", "q2", "sq2-gr1"],
)
def test_lam3_formula_matches_iteration_count(g):
    cx = CEComplex(g)
    triples = list(iter_lam3(cx))
    assert len(triples) == lam3_dim_formula(g.space.graded_dim)
    assert len(set(triples)) == len(triples)


def test_wedge_sign_rules():
    g = build_q(1, G1)  # parities (0, 1, 1, 0)
    cx = CEComplex(g)
    par = g.space.parities
    ww = cx._wedge_with  # ww[c][t]: e_t ^ e_c
    assert ww[0][0] is None  # even self-wedge dies
    pos, sgn = ww[1][1]  # odd self-wedge survives
    assert sgn == 1
    for t in range(g.dim):
        for c in range(t + 1, g.dim):
            fwd = ww[c][t]
            rev = ww[t][c]
            assert fwd[0] == rev[0]
            want = 1 if (par[t] and par[c]) else -1
            assert rev[1] == fwd[1] * want


def test_wedge_positions_cover_basis_once():
    cx = CEComplex(sq_algebra(2, BASE))
    seen = set()
    n = cx.g.dim
    for t in range(n):
        for c in range(t, n):
            w = cx._wedge_with[c][t]
            if w is not None:
                seen.add(w[0])
    assert seen == set(range(cx.lam2.dim))


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_wedge_table_is_the_sign_rule_on_every_pair_and_nothing_else(field, empty_torus):
    g, torus = _acceptance_h2_input("sq", field)
    cx = CEComplex(g, [] if empty_torus else torus)
    pos = lam2_positions(cx)
    par = g.space.parities
    want = [{} for _ in range(g.dim)]
    for c in range(g.dim):
        if par[c] == 0:
            assert wedge(pos, par, c, c) is None
            want[c][c] = None  # an even self-wedge
    for i, j in cx.pairs:
        want[j][i] = wedge(pos, par, i, j)  # e_i ^ e_j
        want[i][j] = wedge(pos, par, j, i)  # e_j ^ e_i
        if par[i] and par[j]:  # equal signs: both directions hold one tuple
            assert cx._wedge_with[i][j] is cx._wedge_with[j][i]
    # both directions of every pair, the even self-wedges, and no other key
    assert cx._wedge_with == want


# --------------------------------------------------------------- boundaries


def test_d2_composed_with_d3_is_zero_as_matrices():
    g = sq_algebra(2, BASE)
    cx = CEComplex(g)
    d2 = d2_matrix(cx)
    d3 = d3_matrix(cx)
    assert d2.nrows == g.dim and d2.ncols == cx.lam2.dim
    assert d3.nrows == cx.lam2.dim and d3.ncols == lam3_dim_formula(g.space.graded_dim)
    cols = {}
    for (r, c), v in d3.entries.items():
        cols.setdefault(c, {})[r] = v
    for c, col in cols.items():
        assert d2.apply(col, g.field) == {}, "triple column %d survives d2" % c


def test_d3_column_on_three_even_generators():
    # [x, y] = z with x, y, z even: the only boundary is z^z which dies
    labels = ("x", "y", "z")
    space = GradedSpace(labels, (0, 0, 0))
    one = QQ.one
    heis = hand_written(space, {(0, 1): {2: one}, (1, 0): {2: -one}})
    cx = CEComplex(heis)
    assert cx.d3_column((0, 1, 2)) == []
    assert d3_vector(cx, (0, 1, 2)) == {}
    assert cx.d2_column(cx.pairs.index((0, 1))) == {2: one}


def test_heisenberg_h2():
    labels = ("x", "y", "z")
    space = GradedSpace(labels, (0, 0, 0))
    one = QQ.one
    heis = hand_written(space, {(0, 1): {2: one}, (1, 0): {2: -one}})
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
        assert len(r.basis) == r.dims.even + r.dims.odd


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
    # sl_2 inside the gl rule and inside the independent gl table
    rule = build_gl(2, 0, BASE)
    sl = build_sl(rule)
    on_rule, on_table = (induced_lie(gl, sl, name="sl2") for gl in (rule, gl_table(2, 0, BASE)))
    assert on_rule.brackets == on_table.brackets
    assert ce_h2(on_rule).dims == GradedDim(0, 0)


# ------------------------------------------------------- budget and stats
# The budget caps the degree-3 chain space; the h2 scenarios decide it from
# the graded dimension alone, before the cyclic side or any algebra, torus
# or complex exists.


def _h2_main_row(budget):
    (row,) = scenario_h2_main(ScenarioOptions("builtin:base-field", n=3, budget=budget)).rows
    assert row.check == "h2-equals-shifted-cyclic"
    return row


def _no_work(*args, **kwargs):
    raise AssertionError("work done before the budget check")


def test_budget_rejects_large_chain_space_before_work(monkeypatch):
    # build_sq_lie reads the torus too, so neither the algebra nor its
    # torus is made before the budget is decided
    assert lam3_dim_formula(sq_algebra(3, BASE).space.graded_dim) == 816
    assert lam3_dim_formula(sq_graded_dim(3, BASE)) == 816
    for name in ("build_sq_lie", "ce_h2"):
        monkeypatch.setattr(scenarios, name, _no_work)
    row = _h2_main_row(100)
    assert row.status == "SKIP"
    assert row.note == "degree-3 chain space dimension 816 exceeds budget 100"


def test_budget_allows_exact_fit():
    row = _h2_main_row(816)
    assert row.status == "PASS"
    assert " of 816 " in row.note
    assert _h2_main_row(815).status == "SKIP"


def test_budget_is_decided_before_the_torus_is_read(monkeypatch):
    # the builders read the torus through diagonal_torus; a skipped row
    # never reaches it
    monkeypatch.setattr(lie, "diagonal_torus", _no_work)
    row = _h2_main_row(100)
    assert row.status == "SKIP"
    assert "exceeds budget 100" in row.note


def test_stats_account_for_kernel_minus_image():
    r = ce_h2(sq_algebra(2, G1))
    s = r.stats
    assert s["algebra_dim"] == [7, 7]
    assert s["ker_rank_parity0"] - s["im_rank_parity0"] == r.dims.even
    assert s["ker_rank_parity1"] - s["im_rank_parity1"] == r.dims.odd
    assert s["h2"] == [r.dims.even, r.dims.odd]
    for key in ("kernel_parity01", "boundaries_parity01", "quotient_parity01"):
        assert key in s["timings"]


def test_basis_vectors_are_homogeneous_cycles():
    g = sq_algebra(2, G1)
    r = ce_h2(g)
    cx = CEComplex(g)
    pos = lam2_positions(cx)
    d2 = d2_matrix(cx)
    assert len(r.basis) == r.dims.even + r.dims.odd
    assert [p for p, _ in r.basis] == [0] * r.dims.even + [1] * r.dims.odd
    for p, vec in r.basis:
        assert vec
        assert all(cx.lam2.parities[pos[t]] == p for t in vec)
        assert d2.apply({pos[t]: v for t, v in vec.items()}, g.field) == {}


def test_d2_after_d3_is_checked_on_every_column():
    # [x, y] = y and [x, z] = x break the Jacobi identity at x, y, z:
    # d2(d3(x^y^z)) = [[x,y],z] - [[x,z],y] + [[y,z],x] = -y
    one = QQ.one
    space = GradedSpace(("x", "y", "z"), (0, 0, 0))
    brackets = {(0, 1): {1: one}, (1, 0): {1: -one}, (0, 2): {0: one}, (2, 0): {0: -one}}
    g = hand_written(space, brackets)
    with pytest.raises(AssertionError, match=r"^d2 o d3 != 0 at triple \(0, 1, 2\)$"):
        ce_h2(g)


def test_the_rescan_names_the_first_failing_triple_in_stream_order():
    # [w, z] = x and [x, y] = w: every basis vector is a generator, so all
    # four triples are streamed and the rescan names the smallest that
    # fails; d2 kills the columns of w^x^y and w^x^z, while d2(d3(w^y^z)) =
    # -[[w,z],y] = -w and d2(d3(x^y^z)) = [[x,y],z] = x do not vanish
    one = QQ.one
    space = GradedSpace(("w", "x", "y", "z"), (0, 0, 0, 0))
    brackets = {(0, 3): {1: one}, (3, 0): {1: -one}, (1, 2): {0: one}, (2, 1): {0: -one}}
    g = hand_written(space, brackets)
    assert list(iter_lam3_weight0(CEComplex(g))) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    with pytest.raises(AssertionError, match=r"^d2 o d3 != 0 at triple \(0, 2, 3\)$"):
        ce_h2(g)


# ------------------------------------------------- weight-zero subcomplex


def heisenberg():
    one = QQ.one
    space = GradedSpace(("x", "y", "z"), (0, 0, 0))
    return hand_written(space, {(0, 1): {2: one}, (1, 0): {2: -one}})


def sq3_with_torus(tag, field):
    return build_sq_lie(3, build_builtin(tag, parse_field_flag(field)))


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
    r = assert_weight_zero_matches_full(*build_psq_lie(3, G1))
    # h_1 + h_2 + h_3 is the identity block, which the quotient kills
    assert r.stats["torus_rank"] == 2


def test_weight_zero_h2_of_block_algebra_equals_full_complex():
    S = build_builtin("base-field", parse_field_flag("Qi"))
    r = assert_weight_zero_matches_full(*build_block_lie(3, S))
    assert r.stats["torus_rank"] == 3


def _has_bracket(g, t):
    i, j, k = t
    return any(key in g.brackets for key in ((i, j), (i, k), (j, k)))


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_the_stream_reads_exactly_the_triples_with_a_bracket_in_order(field, empty_torus, monkeypatch):
    # the triples of the full walk with a bracket key and a factor in the
    # generating set, in decreasing order; the count is still the walk's
    g, torus = _acceptance_h2_input("sq", field)
    if empty_torus:
        torus = []
    cx = CEComplex(g, torus)
    gens = set(cx.generating_set())
    triples = list(iter_lam3_weight0(cx))
    want = [t for t in triples if _has_bracket(g, t) and not gens.isdisjoint(t)]
    want.reverse()
    assert 0 < len(want) < sum(_has_bracket(g, t) for t in triples)
    streamed = []
    d3_column = CEComplex.d3_column

    def recording(self, t):
        streamed.append(t)
        return d3_column(self, t)

    monkeypatch.setattr(CEComplex, "d3_column", recording)
    r = ce_h2(g, torus=torus)
    assert streamed == want
    assert r.stats["lam3_weight0_dim"] == len(triples)
    assert r.stats["lam3_streamed"] == len(want)
    assert r.stats["generators"] == len(gens)


@pytest.mark.parametrize(
    "g", [sq_algebra(2, G1), build_q(2, G1), build_q(1, G1)], ids=["sq2-gr1", "q2-gr1", "q1-gr1"]
)
def test_every_skipped_triple_has_a_zero_column_in_the_full_complex(g):
    cx = CEComplex(g)
    pos = lam2_positions(cx)
    d3 = d3_matrix(cx)
    nonzero = {c for (_, c) in d3.entries}
    skipped = [(c, t) for c, t in enumerate(iter_lam3(cx)) if not _has_bracket(g, t)]
    assert skipped
    for c, t in skipped:
        assert c not in nonzero
        assert d3_by_wedges(cx, pos, t) == {}


@pytest.mark.parametrize(
    "kind,field,chains",
    [("sq", f, "weight-zero") for f in ("Q", "Qi", "Fp:3", "Fp:5")]
    + [("psq", "Fp:3", "weight-zero"), ("block", "Qi", "weight-zero"), ("sq", "Fp:5", "full")],
)
def test_d3_terms_sum_to_the_column_built_from_its_definition(kind, field, chains):
    g, torus = _acceptance_h2_input(kind, field)
    cx = CEComplex(g, torus if chains == "weight-zero" else [])
    pos = lam2_positions(cx)
    nonzero = 0
    for t in iter_lam3_weight0(cx):
        col = d3_vector(cx, t)
        assert col == d3_by_wedges(cx, pos, t), t
        nonzero += bool(col)
    assert nonzero > 100


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_weight_zero_triples_are_the_filtered_full_list(field):
    sq, torus = sq3_with_torus("grassmann(1)", field)
    cx = CEComplex(sq, torus)
    zero = tuple(sq.field.zero for _ in torus)
    p = sq.field.characteristic

    def weight(t):
        # summed in Z over F_p, then reduced by the field's modulus
        sums = (sum(col, sq.field.zero) for col in zip(*(cx.weights[i] for i in t)))
        return tuple(x % p if p else x for x in sums)

    want = [t for t in iter_lam3(cx) if weight(t) == zero]
    assert list(iter_lam3_weight0(cx)) == want
    # with every basis vector a generator the stream is the same walk, reversed
    assert list(cx.iter_lam3_weight0(range(sq.dim))) == want[::-1]
    assert cx.pairs == [t for t in lam2_pairs(sq) if weight(t) == zero]


def test_d3_leaving_the_weight_zero_subcomplex_is_caught():
    # h, x, y, w, z even; h has weights x:1, w:-1, y:0, z:0, but [x, y] = z
    # breaks the weight, so d3(x^y^w) = z^w lands on a pair of weight -1
    one = QQ.one
    space = GradedSpace(("h", "x", "y", "w", "z"), (0, 0, 0, 0, 0))
    brackets = {
        (0, 1): {1: one}, (1, 0): {1: -one},
        (0, 3): {3: -one}, (3, 0): {3: one},
        (1, 2): {4: one}, (2, 1): {4: -one},
    }
    g = hand_written(space, brackets)
    msg = r"d3 leaves the weight-zero subcomplex at triple \(1, 2, 3\)"
    with pytest.raises(AssertionError, match=msg):
        ce_h2(g, torus=[{0: one}])


def _acceptance_h2_input(kind, field):
    """(algebra, weight-zero torus) of the h2-main, psq-central and
    slnn-identity paths at n = 3 over grassmann(1)."""
    R = build_builtin("grassmann(1)", parse_field_flag(field))
    if kind == "block":
        return build_block_lie(3, R)
    if kind == "psq":
        return build_psq_lie(3, R)
    return build_sq_lie(3, R)


def _diagonal_torus_by_hand(kind, field):
    """The torus of _acceptance_h2_input(kind, field), from q, the trace
    characterization and the quotient by the identity block built here."""
    R = build_builtin("grassmann(1)", parse_field_flag(field))
    if kind == "block":
        hom = iso_qQ1_to_glnn(3, R)
        q = hom.source
        sub = hom.map_subspace(build_sq_by_characterization(3, q.coord, q))
        lift = hom.apply
    else:
        q = build_q(3, R)
        sub = build_sq_by_characterization(3, R, q)
        lift = dict
    unit = q.coord.unit
    torus = [sub.coords_of(lift({q.qindex.u(k, k, r): v for r, v in unit.items()})) for k in (1, 2, 3)]
    if kind != "psq":
        return torus
    sq = induced_lie(q, sub)
    quot = QuotientSpace(sq.space, identity_block(q, sub, sq))
    return [quot.project(h) for h in torus]


@pytest.mark.parametrize(
    "kind,field", [("sq", "Q"), ("sq", "Fp:3"), ("psq", "Q"), ("psq", "Fp:3"), ("block", "Qi")]
)
def test_each_builder_returns_the_diagonal_torus_in_its_basis(kind, field):
    _, torus = _acceptance_h2_input(kind, field)
    want = _diagonal_torus_by_hand(kind, field)
    assert None not in want
    assert torus == want


@pytest.mark.parametrize("kind,field", [("sq", "Q"), ("psq", "Fp:3"), ("block", "Qi")])
def test_one_torus_serves_two_ce_h2_calls(kind, field):
    # a torus read up by the first call would leave the second one the
    # full complex: the same H2, other stats
    g, torus = _acceptance_h2_input(kind, field)
    first, second = (ce_h2(g, torus=torus).stats for _ in range(2))
    del first["timings"], second["timings"]
    assert first["torus_rank"] > 0
    assert second == first


def _typed_basis(basis):
    return [(p, [(t, type(v), v) for t, v in sorted(vec.items())]) for p, vec in basis]


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize(
    "kind,field",
    [(k, f) for k in ("sq", "psq") for f in ("Q", "Qi", "Fp:3")] + [("block", "Qi")],
)
def test_basis_and_stats_match_the_representative_echelon_oracle(kind, field, empty_torus):
    g, torus = _acceptance_h2_input(kind, field)
    if empty_torus:
        torus = []
    r = ce_h2(g, torus=torus)
    basis, stats = h2_by_representatives(g, torus)
    assert _typed_basis(r.basis) == _typed_basis(basis)
    assert {k: v for k, v in r.stats.items() if k != "timings"} == stats
    assert r.dims == GradedDim(*stats["h2"])


@pytest.mark.parametrize("field", ["Q", "Qi", "Fp:3"])
def test_each_basis_vector_lists_its_pairs_in_l2_order(field):
    # on psq the elimination leaves row keys out of L2 order; the basis
    # lists each vector's pairs in the order of cx.pairs
    g, torus = _acceptance_h2_input("psq", field)
    position = {pair: k for k, pair in enumerate(CEComplex(g, torus).pairs)}
    basis = ce_h2(g, torus=torus).basis
    assert any(len(vec) > 1 for _, vec in basis)
    for _, vec in basis:
        keys = [position[pair] for pair in vec]
        assert keys == sorted(keys)


def test_ce_h2_builds_two_echelons_of_its_own(monkeypatch):
    # the torus span and the image echelon; the generators' closure
    # (linalg.greedy_generators), the span of d2's columns
    # (Subspace.from_vectors) and the echelons of linalg.quotient_kernel and
    # linalg.kernel are made in linalg, not counted
    made = []

    class Recording(linalg.Echelon):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

    monkeypatch.setattr(chevalley, "Echelon", Recording)
    sq, torus = sq3_with_torus("grassmann(1)", "Q")
    ce_h2(sq, torus=torus)
    assert len(made) == 2


def test_a_passing_ce_h2_applies_d2_only_to_build_its_kernel(monkeypatch):
    # d2's columns are read once, for their rank and then for
    # linalg.quotient_kernel, which checks d2 on the image rows and takes the
    # kernel on the free columns; while that check passes no d3 column
    # meets d2
    calls = []
    d2_column = CEComplex.d2_column

    def counting(self, k):
        calls.append(k)
        return d2_column(self, k)

    monkeypatch.setattr(CEComplex, "d2_column", counting)
    sq, torus = sq3_with_torus("grassmann(1)", "Q")
    r = ce_h2(sq, torus=torus)
    assert sorted(calls) == list(range(r.stats["lam2_weight0_dim"]))


def test_ce_h2_takes_its_kernel_on_the_free_columns_only(monkeypatch):
    # the kernel of d2 is taken on the |N| columns that are not pivots of
    # RREF(im d3), not on all of L2
    dims = []
    kernel = linalg.kernel

    def recording(rows, dim, field):
        dims.append(dim)
        return kernel(rows, dim, field)

    monkeypatch.setattr(linalg, "kernel", recording)
    sq, torus = sq3_with_torus("grassmann(1)", "Q")
    s = ce_h2(sq, torus=torus).stats
    free = s["lam2_weight0_dim"] - s["im_rank_parity0"] - s["im_rank_parity1"]
    assert dims == [free]
    assert free < s["lam2_weight0_dim"] // 2


def test_qi_echelon_rows_hold_int_parts_where_integral(monkeypatch):
    # grassmann(1) has real structure constants, so every stored Q(i) value
    # is real: a plain int or Fraction, as over Q, never an integral Fraction.
    # Only ce_h2's echelons are recorded: sq is built first
    made = []

    class Recording(linalg.Echelon):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

    sq, torus = sq3_with_torus("grassmann(1)", "Qi")
    monkeypatch.setattr(chevalley, "Echelon", Recording)
    monkeypatch.setattr(linalg, "Echelon", Recording)
    ce_h2(sq, torus=torus)
    values = [v for ech in made for row in ech.pivots.values() for v in row.values()]
    assert len(values) > 200  # 208 from ce_h2's echelons alone
    assert {type(v) for v in values} <= {int, Fraction}
    assert any(type(v) is int for v in values)
    assert not [v for v in values if type(v) is Fraction and v.denominator == 1]


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


# ------------------------------------------------------ the generating set
# ce_h2 streams only the triples with a factor in a generating set S of g:
# im d3 = d3(S ^ L2g) by the Cartan identities, so the image echelon ends
# as the same RREF.


@functools.lru_cache(maxsize=None)
def _h2_input(kind, field):
    """_acceptance_h2_input, and sq_4(grassmann(2)) as "sq4-gr2"."""
    if kind == "sq4-gr2":
        return build_sq_lie(4, build_builtin("grassmann(2)", parse_field_flag(field)))
    return _acceptance_h2_input(kind, field)


IMAGE_CASES = [(k, f) for k in ("sq", "psq", "sq4-gr2") for f in ("Q", "Qi", "Fp:3", "Fp:5")] + [
    ("block", f) for f in ("Qi", "Fp:5")  # the fields with a square root of -1
]


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize("kind,field", IMAGE_CASES)
def test_the_generators_stream_gives_the_full_streams_image(kind, field, empty_torus, monkeypatch):
    # the image span, taken when the stream ends and it goes to
    # linalg.quotient_kernel, is the RREF of every weight-zero d3 column
    g, torus = _h2_input(kind, field)
    if empty_torus:
        torus = []
    images = []
    quotient_kernel = chevalley.quotient_kernel

    def recording(span, columns):
        images.append(dict(zip(span.pivot_cols, span.rows)))
        return quotient_kernel(span, columns)

    monkeypatch.setattr(chevalley, "quotient_kernel", recording)
    ce_h2(g, torus=torus)
    (image,) = images
    assert image == image_by_full_stream(CEComplex(g, torus))


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize("kind,field", IMAGE_CASES)
def test_the_generating_set_generates_g(kind, field, empty_torus):
    # the rule's S on every input the image oracle runs: the walk is
    # linalg.greedy_generators, which cyclic.generating_set shares
    g, torus = _h2_input(kind, field)
    cx = CEComplex(g, [] if empty_torus else torus)
    gens = cx.generating_set()
    assert gens == greedy_generators(g, cx.weights)
    assert 0 < len(gens) < g.dim
    assert generated_subalgebra(g, [{s: g.field.one} for s in gens]).dim == g.dim


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("field", ["Q", "Qi", "Fp:3", "Fp:5"])
def test_the_generating_set_reads_each_mirrored_bracket_with_its_sign(field, n):
    # generating_set reads [e_s, e_c] for s > c by LieSuperAlgebra.ad, off
    # the stored key (c, s) with the sign -(-1)^{|s||c|}, +1 on the odd-odd
    # keys sq_n(q1) has.  Which basis vectors the walk keeps does not show a
    # flipped sign, so each mirrored read is compared with the stored value
    # times that sign
    R = build_builtin("q1", parse_field_flag(field))
    sq, torus = build_sq_lie(n, R)
    par = sq.space.parities
    assert any(c < s and par[c] and par[s] for c, s in sq.brackets)
    for (c, s), tbl in sq.brackets.items():
        sign = 1 if par[c] and par[s] else -1
        assert sq.ad({s: sq.field.one}, c) == in_field({t: sign * v for t, v in tbl.items()}, R.field)
    cx = CEComplex(sq, torus)
    gens = cx.generating_set()
    assert gens == greedy_generators(sq, cx.weights)
    assert generated_subalgebra(sq, [{s: sq.field.one} for s in gens]).dim == sq.dim


@pytest.mark.parametrize(
    "kind,field", IMAGE_CASES + [("sq-q1", f) for f in ("Q", "Qi", "Fp:3", "Fp:5")]
)
def test_torus_weights_equal_the_unit_column_join(kind, field):
    # torus_weights reads each [h, e_b] off the table by LieSuperAlgebra.ad;
    # the oracle joins h with every unit vector.  sq_3(q1) has odd-odd keys,
    # whose mirror sign is +1
    if kind == "sq-q1":
        g, torus = build_sq_lie(3, build_builtin("q1", parse_field_flag(field)))
    else:
        g, torus = _h2_input(kind, field)
    got = torus_weights(g, torus)
    want = torus_weights_by_unit_columns(g, torus)
    assert [[(x, type(x)) for x in w] for w in got] == [[(x, type(x)) for x in w] for w in want]
    assert any(any(w) for w in got)


def test_torus_weights_refuse_as_the_unit_column_join():
    for g, torus in [(build_q(1, G1), [{1: QQ.one}]), (heisenberg(), [{0: QQ.one}])]:
        with pytest.raises(StructureError) as got:
            torus_weights(g, torus)
        with pytest.raises(StructureError) as want:
            torus_weights_by_unit_columns(g, torus)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("empty_torus", [False, True], ids=["weight-zero", "empty-torus"])
@pytest.mark.parametrize(
    "kind,field",
    [(k, f) for k in ("sq", "psq", "sq4-gr2") for f in ("Q", "Fp:3", "Fp:5")] + [("block", "Fp:5")],
)
def test_the_weight_zero_count_is_the_walks(kind, field, empty_torus):
    # over F_3 weights that differ over Z collide, and the count follows
    g, torus = _h2_input(kind, field)
    cx = CEComplex(g, [] if empty_torus else torus)
    count = cx.lam3_weight0_dim()
    if empty_torus:
        assert count == lam3_dim_formula(g.space.graded_dim)
    if kind != "sq4-gr2" or not empty_torus:  # that walk is the formula's 317 812
        assert count == sum(1 for _ in iter_lam3_weight0(cx))


@pytest.mark.parametrize("z_first", [True, False], ids=["b-equals-c", "a-equals-b"])
def test_the_weight_zero_count_with_two_equal_weights_is_the_walks(z_first):
    # h acts by 1 on x, y, u (y and u odd) and by -2 on z: the weight
    # multiset {1, 1, -2} takes the |L2(B_1)| |B_-2| term, which the sq tori
    # never reach; z's place in the basis decides which two of the sorted
    # weight ids coincide
    one = QQ.one
    labels = ("h", "z", "x", "y", "u") if z_first else ("h", "x", "y", "u", "z")
    space = GradedSpace(labels, [0 if c in "hzx" else 1 for c in labels])
    scale = {"z": -2 * one, "x": one, "y": one, "u": one}
    g = LieSuperAlgebra(QQ, space, {(0, b): {b: scale[c]} for b, c in enumerate(labels) if b})
    cx = CEComplex(g, [{0: one}])
    count = sum(1 for _ in iter_lam3_weight0(cx))
    assert count == cx.lam3_weight0_dim() == 5  # |L2(B_1)| = 3 + 2


def test_a_jacobi_failure_off_the_generators_is_still_caught():
    # a and b generate x = [a, b], y = [a, x] and z = [b, x]; [x, y] = y and
    # [x, z] = x break the Jacobi identity at x ^ y ^ z, which has no factor
    # in S = {a, b} and is not streamed.  The x whose ad_x is a derivation
    # form a subalgebra, so with an empty torus d2 kills the streamed
    # columns exactly when Jacobi holds, and the failure shows on them; the
    # rescan walks the streamed triples and names the smallest that fails
    one = QQ.one
    space = GradedSpace(("a", "b", "x", "y", "z"), (0,) * 5)
    brackets = {
        (0, 1): {2: one}, (0, 2): {3: one}, (1, 2): {4: one},
        (2, 3): {3: one}, (2, 4): {2: one},
    }
    g = LieSuperAlgebra(QQ, space, brackets)
    cx = CEComplex(g)
    assert cx.generating_set() == [0, 1]
    assert d2_matrix(cx).apply(d3_vector(cx, (2, 3, 4)), QQ) == {3: -one}
    with pytest.raises(AssertionError, match=r"^d2 o d3 != 0 at triple \(0, 1, 3\)$"):
        ce_h2(g)


def test_sq4_grassmann2_streams_at_most_3000_columns(monkeypatch):
    # 18 516 weight-zero triples, 11 435 with a bracket key, 2 725 of them
    # with a factor in the nine generators
    calls = []
    d3_column = CEComplex.d3_column

    def counting(self, t):
        calls.append(t)
        return d3_column(self, t)

    monkeypatch.setattr(CEComplex, "d3_column", counting)
    g, torus = _h2_input("sq4-gr2", "Q")
    r = ce_h2(g, torus=torus)
    assert len(calls) <= 3000
    assert r.stats["lam3_streamed"] == len(calls)
    assert r.stats["generators"] == 9  # of 124 basis vectors
    assert r.stats["lam3_weight0_dim"] == 18516
    assert r.dims == GradedDim(2, 3)
