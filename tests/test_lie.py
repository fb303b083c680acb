"""Lie superalgebras: q_n builders, subalgebras, verified maps, tensoring."""

import random

import pytest

from queerhom import lie
from queerhom.algebras import (
    build_builtin,
    build_grassmann,
    build_matrix,
    build_q1,
    tensor,
)
from queerhom.chevalley import ce_h2
from queerhom.cli import main
from queerhom.lie import (
    GlRule,
    LieSuperAlgebra,
    StructureError,
    VerifiedHomomorphism,
    build_block_lie,
    build_gl,
    build_psq_lie,
    build_q,
    build_sl,
    build_sq_lie,
    build_sq_by_characterization,
    derived_subalgebra,
    induced_lie,
    is_perfect,
    iso_q_to_gl,
    iso_qQ1_to_glnn,
    lie_tensor,
    quotient_lie,
)
from queerhom.cyclic import hc1
from queerhom.linalg import GradedDim, GradedSpace, GradingError, Subspace, in_field
from queerhom.scalars import QQ, GaussianRational, ScalarError, parse_field_flag

from oracles import (
    block_realization_columns,
    block_realization_on_table,
    bracket_coords,
    center,
    check_lie,
    gl_entry_index,
    gl_rule_get,
    gl_rule_keys,
    gl_table,
    identity_block,
    induced_lie_full_scan,
    lie_from_assoc,
    lie_tensor_pair_scan,
    q_formula_brackets_full_scan,
    quotient_lie_full_scan,
    trace_rule_by_kernel,
    verify_full_scan,
)

QI = parse_field_flag("Qi")

BASE = build_builtin("base-field", QQ)
G1 = build_grassmann(QQ, 1)
G2 = build_grassmann(QQ, 2)
TP2 = build_builtin("truncated-poly(2)", QQ)


def coeff(n):
    return QQ.from_int(n)


# ------------------------------------------------------------- axiom checks


@pytest.mark.parametrize(
    "n,R",
    [(1, BASE), (1, G1), (2, BASE), (2, G1), (3, BASE), (2, TP2)],
    ids=["q1", "q1-gr1", "q2", "q2-gr1", "q3", "q2-tp2"],
)
def test_check_lie_accepts_q_builds(n, R):
    g = build_q(n, R)
    assert check_lie(g) is True


def test_check_lie_flags_broken_antisymmetry():
    # the constructor refuses a key below the diagonal, so it is slipped
    # into the table afterwards: check_lie reads the keys, not the
    # constructor's word for them
    g = build_q(2, BASE)
    g.brackets[(1, 0)] = {0: QQ.one}
    with pytest.raises(StructureError, match="below the diagonal"):
        check_lie(g)


def test_check_lie_flags_grading_violation():
    g = build_q(1, G1)
    bad = dict(g.brackets)
    par = g.space.parities
    odd = next(i for i, p in enumerate(par) if p)
    x, y = [i for i, p in enumerate(par) if not p][:2]
    bad[(x, y)] = {odd: QQ.one}
    broken = LieSuperAlgebra(g.field, g.space, bad, name="broken")
    with pytest.raises(StructureError) as err:
        check_lie(broken)
    assert "grading" in str(err.value)


# ------------------------------------------------------------ table ownership


def test_lie_algebra_keeps_the_inner_dicts_it_is_given():
    one = QQ.one
    t = {(0, 1): {2: one}, (0, 2): {1: -one}}
    g = LieSuperAlgebra(QQ, GradedSpace(("x", "y", "z"), (0, 0, 0)), t)
    assert g.brackets == t
    for k in t:
        assert g.brackets[k] is t[k]


def test_lie_algebra_still_drops_empty_brackets():
    one = QQ.one
    t = {(0, 1): {}, (1, 2): {0: one}, (2, 1): {}}
    g = LieSuperAlgebra(QQ, GradedSpace(("a", "b", "c"), (0, 0, 0)), t)
    assert (0, 1) not in g.brackets and (2, 1) not in g.brackets
    assert g.bracket_basis(0, 1) == {} == g.bracket_basis(1, 0)
    assert g.brackets[(1, 2)] is t[(1, 2)]


def test_build_q_holds_the_formula_table_once(monkeypatch):
    made = []
    formula = lie._q_formula_brackets

    def recording(*args):
        table = formula(*args)
        made.append(table)
        return table

    monkeypatch.setattr(lie, "_q_formula_brackets", recording)
    g = build_q(2, G1)
    (table,) = made
    assert g.brackets.keys() == table.keys()
    for k, v in g.brackets.items():
        assert v is table[k]


def test_bracket_antisymmetry_on_random_homogeneous_pairs():
    rng = random.Random(20260815)
    g = build_q(2, G1)
    by_parity = {0: [], 1: []}
    for i, p in enumerate(g.space.parities):
        by_parity[p].append(i)
    for _ in range(40):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = {i: coeff(rng.randint(-3, 3)) for i in rng.sample(by_parity[px], 3)}
        y = {i: coeff(rng.randint(-3, 3)) for i in rng.sample(by_parity[py], 3)}
        x = {i: v for i, v in x.items() if v}
        y = {i: v for i, v in y.items() if v}
        lhs = bracket_coords(g, x, y)
        rhs = bracket_coords(g, y, x)
        sign = -1 if (px and py) else 1
        flipped = {k: -v if sign > 0 else v for k, v in rhs.items()}
        assert lhs == flipped


# ------------------------------------------ formula vs block realization

FORMULA_INPUTS = [
    (n, tag, field)
    for field in ("Q", "Qi", "Fp:5")
    for n, tag in [(1, "grassmann(1)"), (2, "grassmann(1)"), (1, "grassmann(2)"),
                   (2, "q1"), (2, "matrix(2)"), (3, "base-field")]
]


@pytest.mark.parametrize("n,tag,field", FORMULA_INPUTS)
def test_q_formula_table_equals_the_full_scan_in_key_order(n, tag, field):
    R = build_builtin(tag, parse_field_flag(field))
    qi = lie.QueerRule(n, R)
    got = lie._q_formula_brackets(n, R)
    want = q_formula_brackets_full_scan(n, R, qi)
    assert [(k, list(v.items())) for k, v in got.items()] == [
        (k, list(v.items())) for k, v in want.items()
    ]


def drop_entry(table, qi, field):
    del table[(qi.u(1, 2, 0), qi.u(2, 1, 0))]


def add_spurious_entry(table, qi, field):
    # [u_11(1), u_22(1)] = 0: no matrix units meet
    table[(qi.u(1, 1, 0), qi.u(2, 2, 0))] = {qi.u(1, 2, 0): field.one}


def flip_sign(table, qi, field):
    # a new dict for this key: stored values are shared by every key with an
    # equal value, so flipping one in place would change them all
    key = (qi.u(1, 2, 0), qi.u(2, 1, 0))
    tbl = table[key]
    k = next(iter(tbl))
    table[key] = {**tbl, k: -tbl[k]}


def _corrupt_formula(monkeypatch, mutate):
    formula = lie._q_formula_brackets

    def corrupted(n, R):
        table = formula(n, R)
        mutate(table, lie.QueerRule(n, R), R.field)
        return table

    monkeypatch.setattr(lie, "_q_formula_brackets", corrupted)


@pytest.mark.parametrize(
    "mutate,pair",
    [
        (drop_entry, "(u[1,2](1), u[2,1](1))"),
        (add_spurious_entry, "(u[1,1](1), u[2,2](1))"),
        (flip_sign, "(u[1,2](1), u[2,1](1))"),
    ],
    ids=["dropped", "spurious", "sign-flipped"],
)
def test_corrupted_formula_table_fails_the_block_realization(monkeypatch, capsys, mutate, pair):
    _corrupt_formula(monkeypatch, mutate)
    with pytest.raises(StructureError) as err:
        build_q(2, G1)
    msg = str(err.value)
    assert msg.startswith("structure constants disagree with the block realization")
    assert pair in msg
    code = main(["iso-queer-gl", "--algebra", "builtin:grassmann(1)", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] block-table-matches-formula" in out


MUTATIONS = {
    "dropped": (drop_entry, (1, 2, 2, 1)),
    "spurious": (add_spurious_entry, (1, 1, 2, 2)),
    "sign-flipped": (flip_sign, (1, 2, 2, 1)),
}


@pytest.mark.parametrize(
    "n,tag,field,mutate",
    [(n, tag, field, None) for n, tag, field in FORMULA_INPUTS]
    + [(n, tag, field, m) for n, tag, field in FORMULA_INPUTS if n >= 2 for m in MUTATIONS],
)
def test_rule_backed_block_check_equals_the_table_backed_check(
    monkeypatch, n, tag, field, mutate
):
    made = _record_homs(monkeypatch)
    R = build_builtin(tag, parse_field_flag(field))
    if mutate is None:
        build_q(n, R)
    else:
        corrupt, (i, j, k, l) = MUTATIONS[mutate]
        _corrupt_formula(monkeypatch, corrupt)
        with pytest.raises(StructureError) as err:
            build_q(n, R)
    (hom,) = made
    q = hom.source
    table = block_realization_on_table(q)
    assert table.columns == hom.columns
    assert _flags(table) == _flags(hom)
    assert hom.bracket_preserving is (mutate is None)
    if mutate is not None:
        labels, qi = q.space.labels, q.qindex
        pair = "(%s, %s)" % (labels[qi.u(i, j, 0)], labels[qi.u(k, l, 0)])
        assert table.failures[0] == "bracket not preserved on " + pair
        assert str(err.value).endswith(table.failures[0])


@pytest.mark.parametrize("n,tag,field", FORMULA_INPUTS)
def test_queer_rule_rows_equal_the_formula_table(n, tag, field):
    # the rule brackets in gl and reads the top half back: [e_t, e_j] for
    # every pair, in q's basis, equals the formula table's
    R = build_builtin(tag, parse_field_flag(field))
    q, rule = build_q(n, R), lie.QueerRule(n, R)
    assert rule.space == q.space and rule.columns == q.qindex.columns
    units = [{t: R.field.one} for t in range(q.dim)]
    index = rule.column_index(units)
    for t in range(q.dim):
        want = {j: tbl for j in range(q.dim) if (tbl := q.bracket_basis(t, j))}
        assert rule.bracket_row(units[t], index) == want


def test_queer_rule_refuses_a_bracket_outside_the_block_form():
    # u_12(1) lifted to E_12 - E_34 instead of E_12 + E_34: [u_21(1), u_12(1)]
    # then has top half E_22 - E_11 and bottom half E_33 - E_44, not the
    # sign-twisted top half E_44 - E_33
    rule = lie.QueerRule(2, G1)
    u12, u21 = rule.u(1, 2, 0), rule.u(2, 1, 0)
    x = {u21: QQ.one}
    got = rule.bracket_row(x, rule.column_index([{u12: QQ.one}]))
    assert got == {0: {rule.u(2, 2, 0): QQ.one, rule.u(1, 1, 0): -QQ.one}}
    top, bottom = rule.columns[u12]
    rule.columns[u12] = {top: QQ.one, bottom: -QQ.one}
    with pytest.raises(StructureError, match=r"leaves the block form"):
        rule.bracket_row(x, rule.column_index([{u12: QQ.one}]))


# ---------------------------------------------------------- frozen brackets


def test_gl_matrix_unit_brackets():
    gl = build_gl(2, 0, BASE)
    e = gl.entry_index
    assert gl_rule_get(gl, (e(1, 2, 0), e(2, 1, 0))) == {
        e(1, 1, 0): QQ.one,
        e(2, 2, 0): -QQ.one,
    }
    # in gl(1|1) both off-diagonal units are odd, so the bracket symmetrizes
    gl11 = build_gl(1, 1, BASE)
    e = gl11.entry_index
    assert gl_rule_get(gl11, (e(1, 2, 0), e(2, 1, 0))) == {
        e(1, 1, 0): QQ.one,
        e(2, 2, 0): QQ.one,
    }


@pytest.mark.parametrize("flag", ["Q", "Qi"])
@pytest.mark.parametrize(
    "m,n,tag",
    [(2, 0, "grassmann(1)"), (1, 1, "grassmann(2)"), (2, 1, "matrix(2)"),
     (1, 1, "square-zero-plane")],
)
def test_gl_brackets_match_the_full_pair_scan(m, n, tag, flag):
    # build_gl returns the rule; on its keys i <= j it gives the full
    # scan's table, which holds that half
    R = build_builtin(tag, parse_field_flag(flag))
    gl = build_gl(m, n, R)
    assert isinstance(gl, GlRule)
    want = gl_table(m, n, R)
    assert (gl.name, gl.coord, gl.size) == (want.name, R, m + n)
    got = {key: gl_rule_get(gl, key) for key in gl_rule_keys(gl) if key[0] <= key[1]}
    assert got == want.brackets
    assert list(got) == list(want.brackets)


GL_RULE_INPUTS = [
    (m, n, tag, flag)
    for flag in ("Q", "Qi")
    for m, n, tag in [(2, 0, "grassmann(1)"), (1, 1, "grassmann(2)"), (2, 1, "matrix(2)"),
                      (1, 1, "square-zero-plane")]
] + [(1, 1, "grassmann(2)", "Fp:3"), (2, 1, "matrix(2)", "Fp:3")]


@pytest.mark.parametrize("m,n,tag,flag", GL_RULE_INPUTS)
def test_gl_rule_answers_as_the_gl_table(m, n, tag, flag):
    # Fp:3 reduces the l == i branch, where -(-1)^{..} ba is added mod 3
    R = build_builtin(tag, parse_field_flag(flag))
    rule, gl = GlRule(m, n, R), gl_table(m, n, R)
    assert (rule.space, rule.field, rule.dim) == (gl.space, gl.field, gl.dim)
    idx, N = gl_entry_index(m, n, R), m + n
    positions = [(i, j, r) for i in range(1, N + 1) for j in range(1, N + 1) for r in range(R.dim)]
    assert [rule.entry_index(*t) for t in positions] == [idx(*t) for t in positions]
    for x in range(gl.dim):
        for y in range(gl.dim):
            assert gl_rule_get(rule, (x, y)) == gl.bracket_basis(x, y)
    assert [k for k in gl_rule_keys(rule) if k[0] <= k[1]] == list(gl.brackets)
    rng = random.Random(20261018)
    vecs = []
    for _ in range(16):
        supp = rng.sample(range(gl.dim), rng.randint(1, 3))
        vecs.append({t: R.field.from_int(rng.randint(1, 2)) for t in supp})
    for cols in (vecs, vecs[5:]):
        index, table_index = rule.column_index(cols), gl.column_index(cols)
        for x in vecs[:5]:
            assert rule.bracket_row(x, index) == gl.bracket_row(x, table_index)
    for u in vecs[:4]:
        for v in vecs:
            assert bracket_coords(rule, u, v) == bracket_coords(gl, u, v)


@pytest.mark.parametrize("n,tag,flag", [(2, "grassmann(1)", "Q"), (1, "grassmann(2)", "Qi"),
                                        (2, "matrix(2)", "Fp:3")])
def test_gl_rule_partners_of_the_block_realization_columns(n, tag, flag):
    R = build_builtin(tag, parse_field_flag(flag))
    rule, gl = GlRule(n, n, R), gl_table(n, n, R)
    cols = block_realization_columns(build_q(n, R), rule.entry_index)
    assert cols == block_realization_columns(build_q(n, R), gl_entry_index(n, n, R))
    index, table_index = rule.column_index(cols), gl.column_index(cols)
    for x in cols:
        assert rule.bracket_row(x, index) == gl.bracket_row(x, table_index)


def _seeded_vectors(field, dim, rng, count):
    # supports of one to four coordinates of either parity, so some vectors
    # are inhomogeneous; over Q and Q(i) some values are not integral
    scalars = [field.from_int(k) for k in (-2, -1, 1, 3)]
    if not field.characteristic:
        half = field.invert(field.from_int(2))
        scalars += [half, -half * field.from_int(3)]
    i_val = field.sqrt_minus_one()
    if i_val is not None and not field.characteristic:
        scalars += [i_val, i_val * half + field.one]
    return [
        {t: rng.choice(scalars) for t in rng.sample(range(dim), rng.randint(1, 4))}
        for _ in range(count)
    ]


BRACKET_ROW_INPUTS = [
    (m, n, tag, flag)
    for m, n, tag in [(1, 1, "grassmann(2)"), (2, 1, "matrix(2)"), (2, None, "grassmann(1)"),
                      (1, None, "matrix(2)")]
    for flag in ("Q", "Qi", "Fp:3")
]


@pytest.mark.parametrize("m,n,tag,flag", BRACKET_ROW_INPUTS)
def test_bracket_row_equals_the_per_pair_brackets(m, n, tag, flag):
    # the one join against a column index gives, for each j >= first, the
    # bracket the per-pair oracle bracket_coords gives on gl_table for
    # GlRule(m, n, R), and on the table of q_m(R) itself (n is None).
    # Values are compared, not their types: the join adds the same products
    # in another order, so over Q(i) an integral value can come out a
    # Fraction where the pair sum gives an int (real Fractions that add up
    # to an integer stay a Fraction; only a result whose imaginary part
    # cancels is made an int)
    field = parse_field_flag(flag)
    R = build_builtin(tag, field)
    if n is None:
        alg = oracle = build_q(m, R)
    else:
        alg, oracle = GlRule(m, n, R), gl_table(m, n, R)
    rng = random.Random(20261019)
    cols = _seeded_vectors(field, alg.dim, rng, 24)
    assert any(len({alg.space.parities[t] for t in c}) == 2 for c in cols)
    index = alg.column_index(cols)
    nonzero = 0
    for first in (0, 1, 7, len(cols) - 1):
        for x in cols[:10] + _seeded_vectors(field, alg.dim, rng, 4):
            want = {}
            for j in range(first, len(cols)):
                vec = bracket_coords(oracle, x, cols[j])
                if vec:
                    want[j] = vec
            got = alg.bracket_row(x, index, first)
            assert got == want
            nonzero += len(got)
    assert nonzero
    assert alg.bracket_row({}, index) == {}


def test_q2_frozen_brackets():
    g = build_q(2, BASE)
    qi = g.qindex
    one = QQ.one
    assert g.bracket_basis(qi.u(1, 2, 0), qi.u(2, 1, 0)) == {
        qi.u(1, 1, 0): one,
        qi.u(2, 2, 0): -one,
    }
    assert g.bracket_basis(qi.w(1, 1, 0), qi.w(1, 1, 0)) == {qi.u(1, 1, 0): coeff(2)}
    assert g.bracket_basis(qi.u(1, 2, 0), qi.w(2, 1, 0)) == {
        qi.w(1, 1, 0): one,
        qi.w(2, 2, 0): -one,
    }
    assert g.bracket_basis(qi.w(1, 2, 0), qi.w(2, 1, 0)) == {
        qi.u(1, 1, 0): one,
        qi.u(2, 2, 0): one,
    }


def test_q1_brackets_twist_on_odd_coordinates():
    g = build_q(1, G1)
    qi = g.qindex
    # coordinate labels: index 0 is 1, index 1 is x1
    assert g.bracket_basis(qi.w(1, 1, 0), qi.w(1, 1, 1)) == {qi.u(1, 1, 1): coeff(-2)}
    assert g.bracket_basis(qi.w(1, 1, 1), qi.w(1, 1, 0)) == {qi.u(1, 1, 1): coeff(2)}
    assert g.bracket_basis(qi.w(1, 1, 0), qi.w(1, 1, 0)) == {qi.u(1, 1, 0): coeff(2)}
    assert g.bracket_basis(qi.w(1, 1, 1), qi.w(1, 1, 1)) == {}
    assert g.bracket_basis(qi.u(1, 1, 1), qi.w(1, 1, 1)) == {}


def test_lie_from_assoc_matches_gl_on_matrices():
    A = build_matrix(QQ, 2)
    g = lie_from_assoc(A)
    gl = build_gl(2, 0, BASE)
    assert g.dim == gl.dim
    for i in range(g.dim):
        for j in range(g.dim):
            assert g.bracket_basis(i, j) == gl_rule_get(gl, (i, j))


# ------------------------------------------------- derived and sq subalgebra


def test_derived_subalgebra_of_q3_over_rationals():
    g = build_q(3, BASE)
    der = derived_subalgebra(g)
    assert der.graded_dim == GradedDim(9, 8)
    assert der.dim == 17


@pytest.mark.parametrize(
    "n,R,expect",
    [
        (1, G2, GradedDim(2, 2)),
        (2, G1, GradedDim(7, 7)),
        (3, BASE, GradedDim(9, 8)),
        (2, G2, GradedDim(14, 14)),
        (3, G1, GradedDim(17, 17)),
        (2, TP2, GradedDim(8, 6)),
    ],
    ids=["sq1-gr2", "sq2-gr1", "sq3-base", "sq2-gr2", "sq3-gr1", "sq2-tp2"],
)
def test_sq_graded_dims(n, R, expect):
    q = build_q(n, R)
    sq = build_sq_by_characterization(n, R, q)
    assert sq.graded_dim == expect


@pytest.mark.parametrize(
    "n,R",
    [(2, BASE), (3, BASE), (2, G1), (3, G1), (2, TP2)],
    ids=["q2", "q3", "q2-gr1", "q3-gr1", "q2-tp2"],
)
def test_sq_equals_derived_subalgebra(n, R):
    q = build_q(n, R)
    assert build_sq_by_characterization(n, R, q) == derived_subalgebra(q)


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3"])
@pytest.mark.parametrize(
    "tag", ["base-field", "grassmann(1)", "grassmann(2)", "matrix(2)", "q1", "truncated-poly(2)"]
)
def test_sq_and_sl_equal_the_trace_map_kernel(tag, flag):
    R = build_builtin(tag, parse_field_flag(flag))
    one = R.field.one
    for n in range(1, 5):
        q = build_q(n, R)
        qi = q.qindex
        ij = range(1, n + 1)
        units = [{qi.u(i, j, r): one} for i in ij for j in ij for r in range(R.dim)]
        by_kernel = units + list(trace_rule_by_kernel(R, n, qi.w))
        sq = build_sq_by_characterization(n, R, q)
        assert sq == Subspace.from_vectors(q.space, by_kernel, R.field), n
        gl = build_gl(n, 0, R)
        by_kernel = trace_rule_by_kernel(R, n, gl.entry_index)
        assert build_sl(gl) == Subspace.from_vectors(gl.space, by_kernel, R.field), n
        # gl_{m|n-m}: str E_ii(a) = a for i <= m and -(-1)^{|a|} a for i > m.
        # At m = 0, and over q1 (whose [R,R] holds 1), str X and tr X lie in
        # [R,R] together; the other cases tell them apart
        for m in range(n):
            gl = build_gl(m, n - m, R)
            by_kernel = trace_rule_by_kernel(R, n, gl.entry_index, m)
            assert build_sl(gl) == Subspace.from_vectors(gl.space, by_kernel, R.field), (m, n)


SLNN_TAGS = [
    "base-field", "grassmann(1)", "grassmann(2)", "truncated-poly(2)", "group-algebra(2)",
    "matrix(2)", "square-zero-plane",
]


@pytest.mark.parametrize("flag", ["Qi", "Fp:5", "Fp:13"])
@pytest.mark.parametrize("tag", SLNN_TAGS)
def test_sl_nn_is_the_image_of_sq_under_the_sqrt_minus_one_map(tag, flag):
    # sl_{n|n}(S), built on the supertrace rule, is the image of the trace
    # characterization of q_n(S(x)Q1) under iso_qQ1_to_glnn(n, S)
    S = build_builtin(tag, parse_field_flag(flag))
    for n in (1, 2, 3):
        gl, image = _block_oracle_inputs(iso_qQ1_to_glnn(n, S))
        assert build_sl(build_gl(n, n, S)) == image, n
        assert gl.space == image.space


def test_sq1_keeps_only_the_u_block():
    q = build_q(1, G2)
    sq = build_sq_by_characterization(1, G2, q)
    assert sq.graded_dim == GradedDim(2, 2)
    u_block = G2.dim  # u-indices come first, one per coordinate basis vector
    for row in sq.rows:
        assert all(i < u_block for i in row)


def test_sq1_is_abelian_and_not_perfect():
    q = build_q(1, G2)
    sq = build_sq_by_characterization(1, G2, q)
    s = induced_lie(q, sq, name="sq1")
    assert all(not tbl for tbl in s.brackets.values())
    assert derived_subalgebra(s).graded_dim == GradedDim(0, 0)
    assert not is_perfect(s)


def test_sq3_is_perfect_with_scalar_center():
    q = build_q(3, BASE)
    sq = build_sq_by_characterization(3, BASE, q)
    s = induced_lie(q, sq, name="sq3")
    assert is_perfect(s)
    assert center(s).graded_dim == GradedDim(1, 0)


def test_quotient_by_center_gives_psq3():
    q = build_q(3, BASE)
    sq = build_sq_by_characterization(3, BASE, q)
    s = induced_lie(q, sq, name="sq3")
    z = center(s)
    ps, project = quotient_lie(s, z, name="psq3")
    assert ps.space.graded_dim == GradedDim(8, 8)
    # project kills the center and numbers the other columns from 0 in order
    assert all(project(row) == {} for row in z.rows)
    free = [c for c in range(s.dim) if c not in z.pivot_cols]
    assert [project({c: QQ.one}) for c in free] == [{i: QQ.one} for i in range(ps.dim)]
    assert ps.space.labels == tuple(s.space.labels[c] for c in free)
    assert check_lie(ps) is True


def test_quotient_refuses_a_non_homogeneous_ideal_after_the_ideal_check():
    # in an abelian algebra every subspace is an ideal, so the line through
    # a + b, a even and b odd, fails only the homogeneity refusal
    g = LieSuperAlgebra(QQ, GradedSpace(("a", "b"), (0, 1)), {}, name="abelian")
    mixed = Subspace.from_vectors(g.space, [{0: QQ.one, 1: QQ.one}], QQ)
    with pytest.raises(GradingError, match="non-homogeneous"):
        quotient_lie(g, mixed)
    # the ideal check runs first: a subspace that is neither an ideal nor
    # homogeneous is refused as a non-ideal
    h = LieSuperAlgebra(QQ, GradedSpace(("a", "b", "c"), (0, 1, 1)), {(0, 1): {2: QQ.one}})
    mixed = Subspace.from_vectors(h.space, [{0: QQ.one, 1: QQ.one}], QQ)
    with pytest.raises(StructureError, match="not an ideal"):
        quotient_lie(h, mixed)


def test_quotient_rejects_non_ideal():
    g = build_q(2, BASE)
    qi = g.qindex
    line = Subspace.from_vectors(g.space, [{qi.u(1, 2, 0): QQ.one}], QQ)
    with pytest.raises(StructureError):
        quotient_lie(g, line)


# ----------------------------------------------------------- verified maps


@pytest.mark.parametrize(
    "n,R",
    [(1, G1), (2, BASE), (2, G1)],
    ids=["n1-gr1", "n2-base", "n2-gr1"],
)
def test_iso_q_to_gl_is_isomorphism(n, R):
    phi = iso_q_to_gl(n, R)
    assert phi.parity_preserving
    assert phi.bracket_preserving
    assert phi.injective and phi.surjective
    assert phi.is_isomorphism
    assert phi.failures == []


@pytest.mark.parametrize("n,R", [(2, BASE), (2, G1)], ids=["n2-base", "n2-gr1"])
def test_iso_q_to_gl_carries_sq_onto_traceless(n, R):
    phi = iso_q_to_gl(n, R)
    q = phi.source
    sq = build_sq_by_characterization(n, R, q)
    S = tensor(R, build_q1(QQ))
    assert phi.map_subspace(sq) == build_sl(build_gl(n, 0, S))


@pytest.mark.parametrize("n", [1, 2])
def test_iso_qQ1_to_glnn_over_gaussian_rationals(n):
    R = build_builtin("base-field", QI)
    psi = iso_qQ1_to_glnn(n, R)
    assert psi.is_isomorphism


def test_iso_qQ1_to_glnn_with_odd_coordinates():
    R = build_grassmann(QI, 1)
    psi = iso_qQ1_to_glnn(1, R)
    assert psi.is_isomorphism


def test_iso_qQ1_to_glnn_needs_sqrt_minus_one():
    with pytest.raises(ScalarError):
        iso_qQ1_to_glnn(2, BASE)


def test_verified_homomorphism_keeps_the_columns_it_is_given():
    phi = iso_q_to_gl(2, BASE)
    cols = [dict(c) for c in phi.columns]
    hom = VerifiedHomomorphism(phi.source, phi.target, cols)
    assert hom.is_isomorphism
    assert all(hom.columns[i] is cols[i] for i in range(len(cols)))


def test_verified_homomorphism_flags_corrupted_column():
    phi = iso_q_to_gl(2, BASE)
    cols = [dict(c) for c in phi.columns]
    target_even = next(
        i
        for i, c in enumerate(cols)
        if phi.source.space.parities[i] == 0 and c
    )
    k = next(iter(cols[target_even]))
    cols[target_even][k] = cols[target_even][k] + QQ.one
    bad = VerifiedHomomorphism(phi.source, phi.target, cols, name="corrupted")
    assert not bad.bracket_preserving
    assert bad.failures
    assert not bad.is_isomorphism


def _record_homs(monkeypatch):
    """The list every VerifiedHomomorphism that lie makes is appended to,
    even one whose check then raises."""
    made = []

    class Recording(VerifiedHomomorphism):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(lie, "VerifiedHomomorphism", Recording)
    return made


def _flags(hom):
    names = ("parity_preserving", "bracket_preserving", "injective", "surjective")
    out = {k: getattr(hom, k) for k in names}
    out["failures"] = hom.failures
    return out


def _scaled(cols, src):
    # column x of a bracket [e_x, e_y] whose value has no e_x term, times 2:
    # the source table is untouched, only the target side goes wrong
    x = next(x for (x, y), tbl in src.brackets.items() if x != y and x not in tbl)
    cols[x] = {k: v + v for k, v in cols[x].items()}
    return cols


def _moved(cols, src):
    # column x takes the image of another basis vector of its parity, so
    # the supports and with them the target-side partners change
    par = src.space.parities
    x = next(x for x, _ in src.brackets)
    y = next(y for y in range(src.dim) if y != x and par[y] == par[x] and cols[y] != cols[x])
    cols[x] = dict(cols[y])
    return cols


def _dropped(cols, src):
    x = next(x for x, _ in src.brackets)
    cols[x] = {}
    return cols


HOM_INPUTS = [
    (builder, field, n, tag)
    for builder in ("build_q", "iso_q_to_gl", "iso_qQ1_to_glnn")
    for field in ("Q", "Qi", "Fp:5")
    for n, tag in [(2, "grassmann(1)"), (1, "matrix(2)")]
    if not (builder == "iso_qQ1_to_glnn" and field == "Q")  # Q has no sqrt(-1)
]


def _with_table(alg, brackets):
    return LieSuperAlgebra(alg.field, alg.space, brackets, name=alg.name)


def _with_mirror(src):
    # the source table with the exact signed mirror (j, i) of its first key
    # (i, j), i < j: right by value, but a key below the diagonal
    i, j = next((i, j) for i, j in src.brackets if i < j)
    return {**src.brackets, (j, i): src.bracket_basis(j, i)}


def _even_diagonal(src):
    # an even x with the key (x, x), [e_x, e_x] = e_x
    x = next(x for x in range(src.dim) if not src.space.parities[x])
    return {**src.brackets, (x, x): {x: src.field.one}}


def _rule_table(tgt):
    # the target rule as a LieSuperAlgebra table, keys i <= j in the rule's order
    keys = (key for key in gl_rule_keys(tgt) if key[0] <= key[1])
    return _with_table(tgt, {key: gl_rule_get(tgt, key) for key in keys})


def _doubled(table, cols):
    # the table with one key (s, t) doubled, s in the support of col_i and
    # t in that of col_j for some i < j, so [col_i, col_j] changes and the
    # table stays super antisymmetric
    key = next(
        (s, t)
        for j in range(len(cols))
        for i in range(j)
        for s in cols[i]
        for t in cols[j]
        if (s, t) in table.brackets
    )
    brackets = dict(table.brackets)
    brackets[key] = in_field({t: v + v for t, v in brackets[key].items()}, table.field)
    return _with_table(table, brackets)


@pytest.mark.parametrize("builder,field,n,tag", HOM_INPUTS)
def test_verify_matches_the_all_pairs_scan(monkeypatch, builder, field, n, tag):
    made = _record_homs(monkeypatch)
    R = build_builtin(tag, parse_field_flag(field))
    getattr(lie, builder)(n, R)
    assert made
    for hom in made:
        src, tgt = hom.source, hom.target
        assert _flags(hom) == verify_full_scan(src, tgt, hom.columns)
        for corrupt in (_scaled, _moved, _dropped):
            cols = corrupt([dict(c) for c in hom.columns], src)
            bad = VerifiedHomomorphism(src, tgt, cols)
            assert not bad.bracket_preserving
            assert _flags(bad) == verify_full_scan(src, tgt, cols)
        # a source table that is not super antisymmetric cannot be built
        for bad_table in (_with_mirror(src), _even_diagonal(src)):
            with pytest.raises(StructureError, match="bracket key"):
                _with_table(src, bad_table)
        # the target as a table, intact and then with a wrong bracket
        table = _rule_table(tgt)
        good = VerifiedHomomorphism(src, table, hom.columns)
        assert good.is_isomorphism or not hom.is_isomorphism
        assert _flags(good) == _flags(hom) == verify_full_scan(src, table, hom.columns)
        bad_tgt = _doubled(table, hom.columns)
        bad = VerifiedHomomorphism(src, bad_tgt, hom.columns)
        assert not bad.bracket_preserving
        assert _flags(bad) == verify_full_scan(src, bad_tgt, hom.columns)


def test_a_passing_check_brackets_columns_only_in_order(monkeypatch):
    # when both sides are super antisymmetric and the map preserves parity,
    # row i of the target is asked for [col_i, col_j] only with j >= i, and
    # each pair only once
    made = _record_homs(monkeypatch)
    asked = []
    bracket_row = GlRule.bracket_row

    def recording(self, x, index, first=0):
        row = bracket_row(self, x, index, first)
        asked.append((id(x), first, row))
        return row

    monkeypatch.setattr(GlRule, "bracket_row", recording)
    build_q(2, build_builtin("grassmann(1)", QQ))
    (hom,) = made
    assert hom.bracket_preserving and asked
    index = {id(c): i for i, c in enumerate(hom.columns)}
    assert [index[x] for x, _, _ in asked] == list(range(len(hom.columns)))
    assert all(first == index[x] for x, first, _ in asked)
    pairs = [(index[x], j) for x, _, row in asked for j in row]
    assert pairs and all(i <= j for i, j in pairs)
    assert len(set(pairs)) == len(pairs)


def test_the_constructor_rejects_a_lower_or_even_diagonal_key():
    g = build_q(2, G1)
    par = g.space.parities
    # odd diagonal keys are allowed: [x, x] of an odd x need not vanish
    assert any(i == j and par[i] for i, j in g.brackets)
    assert all(i <= j for i, j in g.brackets)
    # a pair whose mirror carries the sign -1
    (i, j), tbl = next(
        (k, t) for k, t in g.brackets.items() if k[0] < k[1] and not (par[k[0]] and par[k[1]])
    )
    mirror = g.bracket_basis(j, i)
    assert mirror == {t: -c for t, c in tbl.items()}
    even = next(x for x in range(g.dim) if not par[x])
    bad_tables = [
        {**g.brackets, (j, i): mirror},  # the exact mirror, stored below
        {k: v for k, v in g.brackets.items() if k != (i, j)} | {(j, i): mirror},  # below only
        {**g.brackets, (j, i): dict(tbl)},  # a mirror without its sign
        {**g.brackets, (even, even): {even: QQ.one}},  # an even diagonal key
    ]
    for table in bad_tables:
        with pytest.raises(StructureError, match="bracket key"):
            _with_table(g, table)
    # an empty value is dropped before the keys are checked
    assert _with_table(g, {**g.brackets, (j, i): {}, (even, even): {}}).brackets == g.brackets


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3", "Fp:5"])
def test_bracket_basis_reads_the_signed_mirror(flag):
    # a table of the upper half only answers [e_j, e_i] for j > i as
    # -(-1)^{|i||j|} [e_i, e_j], reduced into the field, for every pair
    field = parse_field_flag(flag)
    R = build_builtin("grassmann(1)", field)
    p = field.characteristic
    signs = set()
    for n in (1, 2):
        q = build_q(n, R)
        upper = q_formula_brackets_full_scan(n, R, q.qindex)
        g = LieSuperAlgebra(field, q.space, upper)
        par = g.space.parities
        for i in range(g.dim):
            for j in range(g.dim):
                got = g.bracket_basis(i, j)
                if i <= j:
                    assert got == upper.get((i, j), {})
                    continue
                sign = 1 if par[i] and par[j] else -1
                want = in_field({t: sign * c for t, c in upper.get((j, i), {}).items()}, field)
                assert got == want
                assert all(0 < c < p for c in got.values()) if p else all(got.values())
                if got:
                    signs.add(sign)
    assert signs == {1, -1}


@pytest.mark.parametrize("flag", ["Q", "Fp:5"])
def test_ad_reads_a_mirrored_key_with_its_sign(flag):
    # h even, x and y odd: [h, x] = x, [h, y] = -y, [x, x] = 2h, [x, y] = h.
    # ad(v, b) = [v, e_b] reads the key (b, r) of an entry r > b with
    # -(-1)^{|r||b|}: -1 on the even-odd key (0, 1), +1 on the odd-odd (1, 2)
    field = parse_field_flag(flag)
    one = field.one
    neg = field.from_int(-1)
    space = GradedSpace(("h", "x", "y"), (0, 1, 1))
    table = {(0, 1): {1: one}, (0, 2): {2: neg}, (1, 1): {0: field.from_int(2)}, (1, 2): {0: one}}
    g = LieSuperAlgebra(field, space, table)
    stored = {k: dict(v) for k, v in table.items()}
    three = field.from_int(3)
    assert g.ad({1: three}, 0) == {1: field.from_int(-3)}  # [3x, h] = -3x
    assert g.ad({2: three}, 1) == {0: three}  # [3y, x] = +3h
    assert g.ad({0: one}, 2) == {2: neg}  # the stored key, read as it is
    assert g.ad({1: one, 2: field.from_int(-2)}, 1) == {}  # 2h - 2h cancels
    for v in ({0: one, 1: three}, {1: one, 2: three}, {2: neg}):
        for b in range(3):
            got = g.ad(v, b)
            assert got == bracket_coords(g, v, {b: one})
            if field.characteristic:
                assert all(type(c) is int and 0 < c < 5 for c in got.values())
    assert g.brackets == stored  # no stored value is changed in place


def _sq_oracle_inputs(n, R):
    """(q_n(R), its trace characterization sub, sq = induced_lie(q, sub), the
    identity block in sq's basis): the inputs of the sq and psq tables'
    oracles, built here as build_sq_lie and build_psq_lie build them."""
    q = build_q(n, R)
    sub = build_sq_by_characterization(n, R, q)
    sq = induced_lie(q, sub)
    return q, sub, sq, identity_block(q, sub, sq)


def _block_oracle_inputs(hom):
    """(gl_{n|n}(S), the image of the trace characterization of q_n(S(x)Q1)
    under hom = iso_qQ1_to_glnn(n, S)): the inputs of the block table's
    oracle."""
    q = hom.source
    return hom.target, hom.map_subspace(build_sq_by_characterization(q.block_n, q.coord, q))


def _built_tables(field):
    # (table, its oracle's upper half) for each builder of a LieSuperAlgebra
    R = build_builtin("grassmann(1)", field)
    q = build_q(2, R)
    yield q.brackets, q_formula_brackets_full_scan(2, R, q.qindex)
    q, sub, sq, ideal = _sq_oracle_inputs(2, R)
    yield build_sq_lie(2, R)[0].brackets, induced_lie_full_scan(q, sub)
    yield build_psq_lie(2, R)[0].brackets, quotient_lie_full_scan(sq, ideal)
    if field.sqrt_minus_one() is not None:
        hom = iso_qQ1_to_glnn(2, R)
        yield build_block_lie(2, R)[0].brackets, induced_lie_full_scan(*_block_oracle_inputs(hom))
    base = build_builtin("base-field", field)
    qk = build_q(2, base)
    yield lie_tensor(qk, R).brackets, lie_tensor_pair_scan(qk, R)


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:5"])
def test_every_built_table_holds_each_pair_once(flag):
    # only keys i <= j, as many as the oracle's full table has unordered
    # nonzero pairs (upper_half asserts the other half is their mirror)
    count = 0
    for got, want in _built_tables(parse_field_flag(flag)):
        assert all(i <= j for i, j in got)
        assert got == want
        count += 1
    assert count == (5 if flag != "Q" else 4)


GL_ANTISYMMETRY_INPUTS = [
    (m, n, tag, flag)
    for flag in ("Q", "Qi", "Fp:3")
    for m, n, tag in [(2, 0, "grassmann(1)"), (1, 1, "grassmann(2)"), (2, 1, "matrix(2)")]
]


@pytest.mark.parametrize("m,n,tag,flag", GL_ANTISYMMETRY_INPUTS)
def test_gl_rule_is_super_antisymmetric(m, n, tag, flag):
    # [v, u] = -(-1)^{|u||v|} [u, v] on seeded homogeneous vectors, and the
    # rule agrees with the independent gl table, whose full scan upper_half
    # checked for super antisymmetry
    R = build_builtin(tag, parse_field_flag(flag))
    field = R.field
    rule, gl = GlRule(m, n, R), gl_table(m, n, R)
    by_parity = [[x for x in range(rule.dim) if rule.parities[x] == p] for p in (0, 1)]
    rng = random.Random(20261019)
    vecs = []
    for _ in range(24):
        par = rng.randint(0, 1)
        supp = rng.sample(by_parity[par], rng.randint(1, 4))
        vecs.append((par, {t: field.from_int(rng.choice([-2, -1, 1, 3])) for t in supp}))
    for pu, u in vecs:
        for pv, v in vecs[:8]:
            uv, vu = bracket_coords(rule, u, v), bracket_coords(rule, v, u)
            assert uv == bracket_coords(gl, u, v)
            sign = 1 if pu and pv else -1
            assert vu == in_field({t: sign * c for t, c in uv.items()}, field)


def _typed_table(brackets):
    return [(k, [(t, type(c), c) for t, c in v.items()]) for k, v in brackets.items()]


TABLE_INPUTS = [
    (field, n, tag)
    for field in ("Q", "Qi", "Fp:5")
    for n, tag in [(2, "grassmann(1)"), (3, "grassmann(1)"), (2, "grassmann(2)"),
                   (3, "base-field")]
]


@pytest.mark.parametrize("field,n,tag", TABLE_INPUTS)
def test_sq_and_psq_tables_equal_the_all_pairs_scan(field, n, tag):
    R = build_builtin(tag, parse_field_flag(field))
    q, sub, sq, ideal = _sq_oracle_inputs(n, R)
    want = induced_lie_full_scan(q, sub)
    assert _typed_table(build_sq_lie(n, R)[0].brackets) == _typed_table(want)
    want = quotient_lie_full_scan(sq, ideal)
    assert _typed_table(build_psq_lie(n, R)[0].brackets) == _typed_table(want)


@pytest.mark.parametrize("field,n,tag", [t for t in TABLE_INPUTS if t[0] != "Q"])
def test_block_algebra_table_equals_the_all_pairs_scan(field, n, tag):
    R = build_builtin(tag, parse_field_flag(field))
    hom = iso_qQ1_to_glnn(n, R)
    want = induced_lie_full_scan(*_block_oracle_inputs(hom))
    assert _typed_table(build_block_lie(n, R)[0].brackets) == _typed_table(want)


def test_non_ideal_and_unclosed_subspace_fail_as_in_the_all_pairs_scan():
    q, _, sq, _ = _sq_oracle_inputs(2, G1)
    line = Subspace.from_vectors(sq.space, [{3: QQ.one}], QQ)
    with pytest.raises(StructureError) as got:
        quotient_lie(sq, line)
    with pytest.raises(StructureError) as want:
        quotient_lie_full_scan(sq, line)
    assert str(got.value) == str(want.value)
    # a table that only has the key (0, 1): the ideal check must find e_0
    # from the row's support {1}, through the key's right-hand index
    g = LieSuperAlgebra(QQ, GradedSpace(("a", "b"), (0, 0)), {(0, 1): {0: QQ.one}})
    line = Subspace.from_vectors(g.space, [{1: QQ.one}], QQ)
    with pytest.raises(StructureError, match="fails at basis 0"):
        quotient_lie(g, line)
    with pytest.raises(StructureError, match="fails at basis 0"):
        quotient_lie_full_scan(g, line)
    u12 = Subspace.from_vectors(q.space, [{q.qindex.u(1, 2, 0): QQ.one},
                                          {q.qindex.u(2, 1, 0): QQ.one}], QQ)
    with pytest.raises(StructureError) as got:
        induced_lie(q, u12)
    with pytest.raises(StructureError) as want:
        induced_lie_full_scan(q, u12)
    assert str(got.value) == str(want.value)


def test_verified_homomorphism_zero_map_is_not_surjective():
    g = build_q(1, BASE)
    zero = VerifiedHomomorphism(g, g, [{} for _ in range(g.dim)], name="zero")
    assert zero.bracket_preserving  # zero map preserves brackets trivially
    assert not zero.injective
    assert not zero.surjective


# ---------------------------------------------------------------- tensoring


def test_lie_tensor_with_base_field_changes_nothing():
    g = build_q(2, BASE)
    gt = lie_tensor(g, BASE)
    assert gt.space.graded_dim == g.space.graded_dim
    for i in range(g.dim):
        for j in range(g.dim):
            assert gt.bracket_basis(i, j) == g.bracket_basis(i, j)


def test_lie_tensor_with_grassmann_satisfies_axioms():
    g = build_q(2, BASE)
    gt = lie_tensor(g, G1)
    assert gt.space.graded_dim == GradedDim(8, 8)
    assert check_lie(gt) is True


def _items_in_order(table):
    return [(k, list(v.items())) for k, v in table.items()]


SUPERCOMMUTATIVE_TAGS = [
    "base-field",
    "grassmann(1)",
    "grassmann(2)",
    "truncated-poly(2)",
    "monogenic(x^2-2)",
    "group-algebra(2)",
    "group-algebra(3)",
    "square-zero-plane",
]


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3", "Fp:5"])
def test_lie_tensor_equals_the_pair_scan_in_key_order(flag):
    field = parse_field_flag(flag)
    base = build_builtin("base-field", field)
    for n in (1, 2, 3):
        qk = build_q(n, base)
        for tag in SUPERCOMMUTATIVE_TAGS:
            R = build_builtin(tag, field)
            got = lie_tensor(qk, R).brackets
            want = lie_tensor_pair_scan(qk, R)
            assert _items_in_order(got) == _items_in_order(want), (n, tag)


def test_lie_tensor_rejects_noncommutative_coordinates():
    g = build_q(2, BASE)
    with pytest.raises(ValueError):
        lie_tensor(g, build_matrix(QQ, 2))


# ------------------------------------------------------------ pooled values


def _deep_kind(x):
    return (type(x), type(x.re), type(x.im)) if type(x) is GaussianRational else type(x)


def _deep_snapshot(table):
    """Every key and entry of a table in order, with each value's type."""
    return [(k, [(t, _deep_kind(c), c) for t, c in v.items()]) for k, v in table.items()]


def _pooled_tables(flag):
    """(name, table) for the tables of q, sq, psq, lie_tensor and
    tensor(R, Q1), with the algebras, the tori of sq and psq, and S."""
    field = parse_field_flag(flag)
    R = build_builtin("grassmann(1)", field)
    q = build_q(3, R)
    sq, sq_torus = build_sq_lie(3, R)
    psq, psq_torus = build_psq_lie(3, R)
    gT = lie_tensor(build_q(2, build_builtin("base-field", field)), build_builtin("grassmann(2)", field))
    S = tensor(build_builtin("grassmann(2)", field), build_q1(field))
    tables = [
        ("q", q.brackets),
        ("sq", sq.brackets),
        ("psq", psq.brackets),
        ("lie_tensor", gT.brackets),
        ("tensor", S.products),
    ]
    return tables, (q, sq, psq, gT), (sq_torus, psq_torus), S


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3"])
def test_equal_values_in_one_table_are_one_object(flag):
    tables = _pooled_tables(flag)[0]
    for name, table in tables:
        groups = {}
        for v in table.values():
            key = (tuple(v.items()), tuple(_deep_kind(c) for c in v.values()))
            groups.setdefault(key, set()).add(id(v))
        assert all(len(ids) == 1 for ids in groups.values()), name
        # every table here repeats some value, so the pool is what shares it
        assert len(groups) < len(table), name


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3"])
def test_shared_values_are_unchanged_by_the_code_that_reads_them(flag):
    tables, algebras, (sq_torus, psq_torus), S = _pooled_tables(flag)
    q, sq, psq, gT = algebras
    before = [_deep_snapshot(table) for _, table in tables]
    ce_h2(sq, sq_torus)
    ce_h2(psq, psq_torus)
    ce_h2(gT)
    for g in algebras:
        one = g.field.one
        units = [{i: one} for i in range(g.dim)]
        assert VerifiedHomomorphism(g, g, units).is_isomorphism
        whole = Subspace.from_vectors(g.space, units, g.field)
        induced_lie(g, whole)
    hc1(S)
    assert [_deep_snapshot(table) for _, table in tables] == before
