"""First cyclic homology of superalgebras and the odd coordinate shift."""

import random
import tracemalloc

import pytest

from queerhom import cyclic, linalg
from queerhom.algebras import (
    SuperAlgebra,
    build_builtin,
    build_grassmann,
    build_q1,
    tensor,
    validate,
)
from queerhom.cyclic import (
    PairSpace,
    build_shift_iso,
    check_h_relations,
    generating_set,
    hc1,
)
from queerhom.lie import StructureError
from queerhom.linalg import GradedDim, GradedSpace, GradingError, add_scaled, in_field
from queerhom.scalars import QQ, parse_field_flag

from oracles import (
    cyclic_relation,
    greedy_product_generators,
    hc1_in_quotient_coords,
    pair_relations_full_scan,
    words_span,
)

G1 = build_grassmann(QQ, 1)

HC1_TABLE = [
    ("base-field", GradedDim(0, 0), 0),
    ("q1", GradedDim(0, 0), 1),
    ("grassmann(1)", GradedDim(1, 0), 1),
    ("grassmann(2)", GradedDim(3, 2), 5),
    ("truncated-poly(2)", GradedDim(0, 0), 0),
    ("monogenic(x^2-2)", GradedDim(0, 0), 0),
    ("group-algebra(2)", GradedDim(0, 0), 0),
    ("group-algebra(3)", GradedDim(0, 0), 0),
    ("matrix(2)", GradedDim(0, 0), 3),
    ("square-zero-plane", GradedDim(1, 0), 1),
]


# ------------------------------------------------------------- pair spaces


@pytest.mark.parametrize("tag,_,quot_dim", HC1_TABLE, ids=[t for t, _, _ in HC1_TABLE])
def test_pair_space_quotient_dims(tag, _, quot_dim):
    pair = PairSpace(build_builtin(tag, QQ))
    assert pair.space.dim - pair.relations.dim == quot_dim


def _unit_last(R):
    """R with its basis vector e_0 moved to the last index: the builtins all
    have the unit e_0, and this one has its unit at e_k, k = dim R - 1."""
    d = R.dim
    pos = [d - 1, *range(d - 1)]  # new index of old basis vector b
    order = sorted(range(d), key=pos.__getitem__)
    space = GradedSpace([R.space.labels[b] for b in order], [R.space.parities[b] for b in order])
    products = {
        (pos[x], pos[y]): {pos[t]: v for t, v in tbl.items()} for (x, y), tbl in R.products.items()
    }
    unit = {pos[b]: v for b, v in R.unit.items()}
    return SuperAlgebra(R.field, space, products, unit, name=R.name + "-unit-last")


def _with_tensor(tag, field):
    if tag.endswith("-unit-last"):
        R = _unit_last(build_builtin(tag[: -len("-unit-last")], field))
    else:
        R = build_builtin(tag, field)
    return R, tensor(R, build_q1(field))


# every builtin family, one algebra whose unit is e_k with k > 0, and
# matrix(3), whose unit E11 + E22 + E33 is no multiple of one basis vector
PAIR_TAGS = [t for t, _, _ in HC1_TABLE] + ["grassmann(2)-unit-last", "matrix(3)"]


def test_the_unit_last_inputs_are_valid_with_the_unit_at_e_k_for_k_above_0():
    for A in _with_tensor("grassmann(2)-unit-last", QQ):
        assert validate(A).ok
        ((k, _),) = A.unit.items()
        assert k > 0


def _typed(rows):
    # key order inside a stored row follows its insertion history
    return [sorted((k, type(v), v) for k, v in row.items()) for row in rows]


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Qi"])
@pytest.mark.parametrize("tag", PAIR_TAGS)
def test_relation_subspace_equals_the_full_triple_scan(tag, field):
    for A in _with_tensor(tag, parse_field_flag(field)):
        pair = PairSpace(A)
        want = pair_relations_full_scan(A, pair.space)
        assert _typed(pair.relations.rows) == _typed(want.rows)


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Qi"])
@pytest.mark.parametrize("tag", PAIR_TAGS)
def test_the_generating_set_spans_r_by_words(tag, field):
    for A in _with_tensor(tag, parse_field_flag(field)):
        gens = generating_set(A)
        assert gens == greedy_product_generators(A)
        assert words_span(A, [{s: A.field.one} for s in gens]).dim == A.dim


def test_a_table_that_breaks_the_grading_gives_a_mixed_relation_subspace():
    # e0 e1 = e2 puts an odd vector in the even product e0 e1; the cyclicity
    # relations then span a subspace that mixes parities, which the quotient
    # <R,R> refuses (validate rejects such a table before any scenario runs)
    space = GradedSpace(["e0", "e1", "e2"], [0, 0, 1])
    bad = SuperAlgebra(QQ, space, {(0, 1): {2: 1}, (1, 0): {1: 1}}, {0: 1}, name="bad")
    with pytest.raises(GradingError, match="non-homogeneous"):
        PairSpace(bad)


def _streamed_relations(R):
    # the relations PairSpace forms, in its order: antisymmetry for a <= b,
    # then cyclicity for a <= b, a <= c, each nonzero one, on the triples
    # with a factor in the generating set and without the unit's index u,
    # and r(u, u, c) for every c, at (u, u, c) for c >= u and (c, u, u)
    # for c < u
    d, par, one = R.dim, R.space.parities, R.field.one
    for a in range(d):
        for b in range(a, d):
            vec = {a * d + b: one}
            add_scaled(vec, {b * d + a: one}, -one if (par[a] and par[b]) else one)
            vec = in_field(vec, R.field)
            if vec:
                yield vec
    gens = set(generating_set(R))
    (u,) = R.unit
    for a in range(d):
        for b in range(a, d):
            for c in range(a, d):
                if u in (a, b, c):
                    keep = b == u and (a == u or c == u)
                else:
                    keep = not gens.isdisjoint((a, b, c))
                vec = cyclic_relation(R, a, b, c) if keep else None
                if vec:
                    yield vec


# Echelon.insert calls for PairSpace(grassmann(4)⊗q1), the generator walk's
# 112 included; over Q it was 4 217 while every nonzero orbit relation went
# in, and 6 519 before the spanned one-term ones were skipped
PAIR_SPACE_INSERTS = {"Q": 2832, "Fp:3": 2831, "Qi": 2832}


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Qi"])
def test_pair_space_skips_only_relations_already_spanned(monkeypatch, field):
    f = parse_field_flag(field)
    S = tensor(build_grassmann(f, 4), build_q1(f))
    inserted = []
    insert = linalg.Echelon.insert

    def recording(self, vec):
        inserted.append((self, dict(vec)))
        return insert(self, vec)

    monkeypatch.setattr(linalg.Echelon, "insert", recording)
    pair = PairSpace(S)
    assert len(inserted) == PAIR_SPACE_INSERTS[field]
    # the relations went into the echelon whose rows the relation subspace
    # holds; they are the streamed relations in order, less the skipped
    # ones, and each skipped one is a one-term relation in the span
    first = pair.relations.pivot_cols[0]
    relations = [v for ech, v in inserted if ech.pivots.get(first) is pair.relations.rows[0]]
    skipped = []
    pos = 0
    for vec in _streamed_relations(S):
        if pos < len(relations) and relations[pos] == vec:
            pos += 1
        else:
            skipped.append(vec)
    assert pos == len(relations)
    assert skipped
    for vec in skipped:
        assert len(vec) == 1 and pair.relations.contains(vec)


@pytest.mark.parametrize("field", ["Q", "Fp:3", "Qi"])
def test_pair_space_peaks_under_three_times_what_it_retains(field):
    # Streaming the relations into Subspace.from_vectors, whose echelon hands
    # its rows over, peaks at 1.24-1.27x what the pair space retains; copying
    # the rows into the relation subspace peaked at 2.1-2.2x, and holding
    # every relation vector in a list before eliminating at 5.2x (Q) to
    # 5.5x (Qi) on this input.
    f = parse_field_flag(field)
    S = tensor(build_grassmann(f, 4), build_q1(f))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pair = PairSpace(S)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.space.dim - pair.relations.dim > 0
    assert peak - base < 1.6 * (held - base)


@pytest.mark.parametrize("tag", [t for t, _, _ in HC1_TABLE])
def test_cyclic_relation_is_rotation_invariant(tag):
    for A in _with_tensor(tag, QQ):
        d = A.dim
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    assert cyclic_relation(A, a, b, c) == cyclic_relation(A, b, c, a)


def test_lambda_classes_on_grassmann_line():
    pair = PairSpace(G1)
    one = QQ.one
    assert pair.lam({1: one}, {1: one}) != {}
    assert pair.lam({0: one}, {1: one}) == {}
    assert pair.lam({1: one}, {0: one}) == {}
    assert pair.lam({0: one}, {0: one}) == {}


def test_lambda_antisymmetry_on_random_homogeneous_pairs():
    rng = random.Random(20260815)
    R = build_builtin("grassmann(2)", QQ)
    pair = PairSpace(R)
    by_parity = {0: [], 1: []}
    for i, p in enumerate(R.space.parities):
        by_parity[p].append(i)
    for _ in range(30):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = {i: QQ.from_int(rng.randint(-3, 3)) for i in by_parity[px]}
        y = {i: QQ.from_int(rng.randint(-3, 3)) for i in by_parity[py]}
        x = {i: v for i, v in x.items() if v}
        y = {i: v for i, v in y.items() if v}
        lxy = pair.lam(x, y)
        lyx = pair.lam(y, x)
        sign = -1 if (px and py) else 1
        assert lxy == {k: -v if sign > 0 else v for k, v in lyx.items()}


def test_lambda_cyclic_relation_on_random_triples():
    # (-1)^{|a||c|} ab(x)c + (-1)^{|b||a|} bc(x)a + (-1)^{|c||b|} ca(x)b dies
    rng = random.Random(7)
    R = build_builtin("matrix(2)", QQ)
    pair = PairSpace(R)

    def rand_vec():
        v = {i: QQ.from_int(rng.randint(-2, 2)) for i in range(R.dim)}
        return {i: c for i, c in v.items() if c}

    for _ in range(20):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        amb = {}
        add_scaled(amb, pair.tensor_vec(R.mul_coords(a, b), c), QQ.one)
        add_scaled(amb, pair.tensor_vec(R.mul_coords(b, c), a), QQ.one)
        add_scaled(amb, pair.tensor_vec(R.mul_coords(c, a), b), QQ.one)
        assert pair.class_of(amb) == {}


def test_lambda_cyclic_relation_with_koszul_signs():
    rng = random.Random(99)
    R = build_builtin("grassmann(2)", QQ)
    pair = PairSpace(R)
    par = R.space.parities
    by_parity = {0: [], 1: []}
    for i, p in enumerate(par):
        by_parity[p].append(i)

    def rand_homog(p):
        v = {i: QQ.from_int(rng.randint(-2, 2)) for i in by_parity[p]}
        return {i: c for i, c in v.items() if c}

    for _ in range(30):
        pa, pb, pc = (rng.randint(0, 1) for _ in range(3))
        a, b, c = rand_homog(pa), rand_homog(pb), rand_homog(pc)
        amb = {}
        s1 = QQ.from_int(-1 if pa and pc else 1)
        s2 = QQ.from_int(-1 if pb and pa else 1)
        s3 = QQ.from_int(-1 if pc and pb else 1)
        add_scaled(amb, pair.tensor_vec(R.mul_coords(a, b), c), s1)
        add_scaled(amb, pair.tensor_vec(R.mul_coords(b, c), a), s2)
        add_scaled(amb, pair.tensor_vec(R.mul_coords(c, a), b), s3)
        assert pair.class_of(amb) == {}


# ------------------------------------------------------------ homology dims


@pytest.mark.parametrize("tag,expect,_", HC1_TABLE, ids=[t for t, _, _ in HC1_TABLE])
def test_hc1_graded_dims(tag, expect, _):
    R = build_builtin(tag, QQ)
    assert hc1(R).graded_dim == expect


def test_hc1_of_grassmann_line_is_spanned_by_lam_x_x():
    h = hc1(G1)
    pair = h.pair
    cls = pair.lam({1: QQ.one}, {1: QQ.one})
    assert h.subspace.contains(cls)
    assert h.subspace.dim == 1


def test_hc1_names_the_first_relation_row_the_commutator_does_not_kill():
    # e is the unit and xy = x is the only other product, so (xy)y = x while
    # x(yy) = 0.  The cyclicity relation of (x, y, y) is xy(x)y + yy(x)x +
    # yx(x)y = x(x)y, at key 1*3 + 2 = 5, and [x, y] = x.  The pairs at keys
    # 0..4 (e(x)e, e(x)x, e(x)y, x(x)e, x(x)x) have zero commutator, so the
    # first canonical relation row with a nonzero image leads at 5.
    one = QQ.one
    space = GradedSpace(("e", "x", "y"), (0, 0, 0))
    unit = {(0, b): {b: one} for b in range(3)} | {(b, 0): {b: one} for b in range(3)}
    R = SuperAlgebra(QQ, space, {**unit, (1, 2): {1: one}}, {0: one}, name="A")
    assert R.supercommutator(1, 2) == {1: one}
    assert PairSpace(R).relations.contains({5: one})
    msg = (
        r"^commutator map is not well-defined on <A,A>: relation row with "
        r"leading 5 has nonzero image$"
    )
    with pytest.raises(StructureError, match=msg):
        hc1(R)


@pytest.mark.parametrize("field", ["Q", "Qi", "Fp:3"])
@pytest.mark.parametrize("tag", [t for t, _, _ in HC1_TABLE])
def test_hc1_keeps_each_class_as_its_canonical_representative(tag, field):
    # each HC1 basis row lies on the columns off the relation pivots, so it
    # is its own class_of, and the rows are the basis computed in quotient
    # coordinates, mapped back by section
    for A in _with_tensor(tag, parse_field_flag(field)):
        h = hc1(A)
        pair = h.pair
        pivots = set(pair.relations.pivot_cols)
        for row in h.subspace.rows:
            assert row and not pivots & set(row)
            assert pair.class_of(row) == row
        quot, old = hc1_in_quotient_coords(A)
        assert list(h.subspace.rows) == [quot.section(r) for r in old.rows]


# ------------------------------------------------------------ relation rows


def failed_rows(rows):
    return [r for r in rows if not r.ok]


@pytest.mark.parametrize(
    "tag,n_rows",
    [("base-field", 4), ("truncated-poly(2)", 14), ("matrix(2)", 52)],
    ids=["base", "tp2", "mat2"],
)
def test_relation_rows_all_pass_without_odd_coordinates(tag, n_rows):
    rows = check_h_relations(build_builtin(tag, QQ))
    assert len(rows) == n_rows
    assert all(r.ok for r in rows)
    assert failed_rows(rows) == []


def test_relation_rows_on_grassmann_line_fail_only_on_nu_pairs():
    rows = check_h_relations(G1)
    assert not all(r.ok for r in rows)
    fails = failed_rows(rows)
    assert len(fails) == 2
    assert all(r.check == "odd-pair-vanishes[nu]" for r in fails)
    by_inputs = {r.inputs: r.note for r in fails}
    assert by_inputs[("1", "x1")] == "residue -1*x1⊗nu⊗1⊗nu"
    assert by_inputs[("x1", "1")] == "residue 1*x1⊗nu⊗1⊗nu"
    # every other row family is clean
    for r in rows:
        if r.check != "odd-pair-vanishes[nu]":
            assert r.ok, (r.check, r.inputs, r.note)


def test_relation_residues_over_fp_are_reduced():
    # the residue is summed in Z and reduced once: -1 is printed as 4 in F_5
    fails = failed_rows(check_h_relations(build_builtin("grassmann(1)", parse_field_flag("Fp:5"))))
    by_inputs = {r.inputs: r.note for r in fails}
    assert by_inputs == {
        ("1", "x1"): "residue 4*x1⊗nu⊗1⊗nu",
        ("x1", "1"): "residue 1*x1⊗nu⊗1⊗nu",
    }


def test_relation_rows_on_grassmann_plane_fail_only_on_nu_pairs():
    fails = failed_rows(check_h_relations(build_builtin("grassmann(2)", QQ)))
    assert len(fails) == 6
    assert all(r.check == "odd-pair-vanishes[nu]" for r in fails)


@pytest.mark.parametrize(
    "tag",
    ["base-field", "q1", "grassmann(1)", "grassmann(2)", "truncated-poly(2)",
     "matrix(2)", "square-zero-plane"],
)
def test_nu_pair_reduction_with_explicit_signs_always_holds(tag):
    """The sharp form of the pairing reductions, valid for odd inputs too.

    For all homogeneous a, b with sign s = (-1)^{|a||b|}:
      h(a(x)1,  b(x)1)  = 1/2 h((ab - s ba)(x)nu, 1(x)nu)
      h(a(x)nu, b(x)nu) = 1/2 (-1)^{|b|} h((ab + s ba)(x)nu, 1(x)nu)
    """
    R = build_builtin(tag, QQ)
    S = tensor(R, build_q1(QQ))
    pair = PairSpace(S)
    d = R.dim
    par = R.space.parities
    one = QQ.one
    half = QQ.invert(QQ.from_int(2))

    def elem(r_coords, nu):
        return {r * 2 + nu: c for r, c in r_coords.items()}

    unit_nu = elem(R.unit, 1)
    for a in range(d):
        for b in range(d):
            sgn = -one if (par[a] and par[b]) else one
            ab = dict(R.products.get((a, b), {}))
            comm = dict(ab)
            add_scaled(comm, R.products.get((b, a), {}), -sgn)
            anti = dict(ab)
            add_scaled(anti, R.products.get((b, a), {}), sgn)
            amb = pair.tensor_vec(elem({a: one}, 0), elem({b: one}, 0))
            add_scaled(amb, pair.tensor_vec(elem(comm, 1), unit_nu), -half)
            assert pair.class_of(amb) == {}, (tag, a, b, "even-style")
            amb = pair.tensor_vec(elem({a: one}, 1), elem({b: one}, 1))
            c = half if par[b] else -half
            add_scaled(amb, pair.tensor_vec(elem(anti, 1), unit_nu), c)
            assert pair.class_of(amb) == {}, (tag, a, b, "nu-style")


# ------------------------------------------------------------ the odd shift


SHIFT_FLAGS = (
    "psi_kills_relations",
    "psi_image_in_hc1",
    "phi_solvable",
    "phi_well_defined",
    "phi_image_in_hc1",
    "mutually_inverse",
    "parity_flip",
)


def all_flags_hold(iso):
    return all(getattr(iso, f) is True for f in SHIFT_FLAGS)


SHIFT_TAGS = [
    ("base-field", GradedDim(0, 0)),
    ("grassmann(1)", GradedDim(1, 0)),
    ("grassmann(2)", GradedDim(3, 2)),
    ("truncated-poly(2)", GradedDim(0, 0)),
    ("group-algebra(3)", GradedDim(0, 0)),
    ("square-zero-plane", GradedDim(1, 0)),
    ("matrix(2)", GradedDim(0, 0)),
]


@pytest.mark.parametrize("tag,dim_R", SHIFT_TAGS, ids=[t for t, _ in SHIFT_TAGS])
def test_shift_iso_flags_and_swapped_dims(tag, dim_R):
    R = build_builtin(tag, QQ)
    hc_R, hc_S = hc1(R), hc1(tensor(R, build_q1(QQ)))
    iso = build_shift_iso(hc_R, hc_S)
    assert all_flags_hold(iso), iso.failures
    assert hc_R.graded_dim == dim_R
    assert hc_S.graded_dim == GradedDim(dim_R.odd, dim_R.even)
    assert iso.parity_flip is True
    assert iso.mutually_inverse is True


def test_shift_iso_reuses_supplied_homology(monkeypatch):
    R = G1
    h = hc1(R)
    h_S = hc1(tensor(R, build_q1(QQ)))

    def recompute(*args, **kwargs):
        raise AssertionError("build_shift_iso recomputed what it was given")

    monkeypatch.setattr(cyclic, "hc1", recompute)
    monkeypatch.setattr(cyclic, "PairSpace", recompute)
    iso = build_shift_iso(h, h_S)
    assert all_flags_hold(iso)


def test_shift_iso_rejects_homology_not_over_the_tensor_algebra():
    h = hc1(G1)
    with pytest.raises(ValueError):
        build_shift_iso(h, h)


@pytest.mark.parametrize("tag", ["grassmann(1)", "grassmann(2)"])
def test_shift_flags_fail_over_a_tensor_factor_that_is_not_q1(tag):
    # R(x)truncated-poly(2) has dimension 2 dim R, so it passes the size
    # guard, but its second factor is even: psi, phi and the parities break
    R = build_builtin(tag, QQ)
    T = tensor(R, build_builtin("truncated-poly(2)", QQ))
    iso = build_shift_iso(hc1(R), hc1(T))
    broken = {"psi_kills_relations", "phi_solvable", "mutually_inverse", "parity_flip"}
    assert {f: getattr(iso, f) for f in SHIFT_FLAGS} == {f: f not in broken for f in SHIFT_FLAGS}
    assert iso.failures


@pytest.mark.parametrize("tag", ["grassmann(1)", "grassmann(2)", "matrix(2)", "square-zero-plane"])
def test_phi_is_ill_defined_when_a_zero_h_column_has_a_nonzero_lam(tag, monkeypatch):
    # h(e_0(x)1, e_0(x)nu) = 0 on these algebras; giving lam(e_0, e_0) a
    # nonzero class makes phi send 0 to a nonzero class
    R = build_builtin(tag, QQ)
    hc_R, hc_S = hc1(R), hc1(tensor(R, build_q1(QQ)))
    assert hc_S.pair.class_of({1: 1}) == {}  # key 1 is (e_0(x)1)(x)(e_0(x)nu)
    class_of = hc_R.pair.class_of

    def corrupted(vec):
        return {0: 1} if vec == {0: 1} else class_of(vec)

    assert class_of({0: 1}) == {}
    monkeypatch.setattr(hc_R.pair, "class_of", corrupted)
    iso = build_shift_iso(hc_R, hc_S)
    assert iso.phi_well_defined is False
    assert "phi is ill-defined on a kernel combination of h-columns" in iso.failures
