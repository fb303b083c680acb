"""Structure-constant superalgebras: builders, validation, tensor products."""

import random

import pytest

from queerhom.algebras import (
    BUILTIN_FAMILIES,
    an_vanishing_check,
    build_builtin,
    build_base_field,
    build_grassmann,
    build_group_algebra,
    build_matrix,
    build_monogenic,
    build_q1,
    build_square_zero_plane,
    build_truncated_poly,
    commutator_subspace,
    format_poly,
    parse_poly,
    tensor,
    two_sided_ideal,
    validate,
)
from queerhom.linalg import GradedDim, add_scaled, in_field, linear_apply
from queerhom.scalars import QQ, ScalarError, parse_field_flag

from oracles import lie_from_assoc, tensor_quadruple_scan

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
FIELDS = ["Q", "Qi", "Fp:3", "Fp:5"]


def basis(A, label):
    return A.basis_vec(A.space.labels.index(label))


def vec(coords):
    return {k: v for k, v in coords.items() if v}


def add(x, y, c=QQ.one):
    """x + c*y over Q as a new coordinate dict."""
    out = dict(x)
    add_scaled(out, y, c)
    return out


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_builtins_validate(tag):
    R = build_builtin(tag, QQ)
    rep = validate(R)
    assert rep.ok, [(f.kind, f.where, f.detail) for f in rep.failures]


def test_builtin_registry_is_complete():
    assert set(BUILTIN_FAMILIES) == {
        "base-field",
        "q1",
        "grassmann",
        "truncated-poly",
        "monogenic",
        "group-algebra",
        "matrix",
        "square-zero-plane",
    }
    with pytest.raises(ValueError):
        build_builtin("weyl(1)", QQ)
    with pytest.raises(ValueError):
        build_builtin("grassmann(", QQ)


def test_q1_generator_squares_to_one():
    A = build_q1(QQ)
    nu = basis(A, "nu")
    assert A.space.parity_of_vec(nu) == 1
    assert A.mul_coords(nu, nu) == A.unit
    assert A.space.graded_dim == GradedDim(1, 1)


def test_grassmann_signs_and_nilpotence():
    A = build_grassmann(QQ, 2)
    x1, x2 = basis(A, "x1"), basis(A, "x2")
    assert not A.mul_coords(x1, x1)
    assert A.mul_coords(x1, x2) == add({}, A.mul_coords(x2, x1), -QQ.one)
    assert A.mul_coords(x1, x2)
    assert A.space.graded_dim == GradedDim(2, 2)


def test_truncated_poly_truncates():
    A = build_truncated_poly(QQ, 2)
    x = basis(A, "x")
    assert not A.mul_coords(x, x)
    assert A.dim == 2


def test_group_algebra_wraps_around():
    A = build_group_algebra(QQ, 3)
    t = basis(A, "t")
    assert A.mul_coords(A.mul_coords(t, t), t) == A.unit
    assert A.dim == 3


def test_monogenic_reduction_matches_modulus():
    # x^2 = 2 in k[x]/(x^2-2)
    A = build_monogenic(QQ, parse_poly("x^2-2"))
    x = basis(A, "x")
    assert A.mul_coords(x, x) == add({}, A.unit, QQ.from_int(2))
    # x^3 = 1 makes the power basis a cyclic group algebra
    B = build_monogenic(QQ, parse_poly("x^3-1"))
    y = basis(B, "x")
    assert B.mul_coords(B.mul_coords(y, y), y) == B.unit
    assert B.dim == 3


def test_square_zero_plane_products_vanish():
    A = build_square_zero_plane(QQ)
    x, y = basis(A, "x"), basis(A, "y")
    for u, v in [(x, x), (x, y), (y, x), (y, y)]:
        assert not A.mul_coords(u, v)


def test_matrix_units_compose():
    A = build_matrix(QQ, 2)
    e12, e21, e11, e22 = (basis(A, lab) for lab in ("E12", "E21", "E11", "E22"))
    assert A.mul_coords(e12, e21) == e11
    assert A.mul_coords(e21, e12) == e22
    assert not A.mul_coords(e12, e12)
    i12, i21 = A.space.labels.index("E12"), A.space.labels.index("E21")
    assert A.supercommutator(i12, i21) == add(e11, e22, -QQ.one)
    assert add(A.mul_coords(e12, e21), A.mul_coords(e21, e12)) == add(e11, e22)
    assert A.unit == add(e11, e22)


def test_validate_flags_nonassociative_table():
    A = build_matrix(QQ, 2)
    products = dict(A.products)
    products[(0, 1)] = {3: QQ.one}  # corrupt E11*E12
    from queerhom.algebras import SuperAlgebra

    broken = SuperAlgebra(QQ, A.space, products, dict(A.unit), name="broken")
    rep = validate(broken)
    assert not rep.ok
    assert any("assoc" in f.kind for f in rep.failures)


def test_validate_flags_parity_violation():
    from queerhom.algebras import SuperAlgebra
    from queerhom.linalg import GradedSpace

    space = GradedSpace(("1", "z"), (0, 1))
    # z*z = z is odd*odd landing on an odd vector
    products = {(0, 0): {0: QQ.one}, (0, 1): {1: QQ.one}, (1, 0): {1: QQ.one}, (1, 1): {1: QQ.one}}
    rep = validate(SuperAlgebra(QQ, space, products, {0: QQ.one}, name="bad"))
    assert not rep.ok


def test_tensor_koszul_signs():
    S = tensor(build_grassmann(QQ, 1), build_q1(QQ))
    d = 2  # dim of q1
    one_nu = {0 * d + 1: QQ.one}
    xi_1 = {1 * d + 0: QQ.one}
    xi_nu = {1 * d + 1: QQ.one}
    one_one = {0: QQ.one}
    assert S.mul_coords(xi_1, one_nu) == xi_nu
    assert S.mul_coords(one_nu, xi_1) == {1 * d + 1: QQ.from_int(-1)}
    assert S.mul_coords(one_nu, xi_nu) == {1 * d + 0: QQ.from_int(-1)}
    assert S.mul_coords(xi_nu, one_nu) == xi_1
    assert S.mul_coords(one_nu, one_nu) == one_one
    assert validate(S).ok


def test_tensor_of_builtins_stays_associative():
    rng = random.Random(2)
    for tag in ["grassmann(2)", "matrix(2)", "group-algebra(2)"]:
        S = tensor(build_builtin(tag, QQ), build_q1(QQ))
        assert validate(S).ok
        # random element triple as an extra spot check
        els = []
        for _ in range(3):
            coords = {rng.randrange(S.dim): QQ.from_int(rng.randint(-3, 3)) for _ in range(3)}
            els.append(vec(coords))
        a, b, c = els
        assert S.mul_coords(S.mul_coords(a, b), c) == S.mul_coords(a, S.mul_coords(b, c))


def test_commutator_subspace_detects_supercommutativity():
    assert commutator_subspace(build_grassmann(QQ, 2)).dim == 0
    assert commutator_subspace(build_group_algebra(QQ, 3)).dim == 0
    # [M2, M2] = traceless matrices
    assert commutator_subspace(build_matrix(QQ, 2)).dim == 3
    q1 = build_q1(QQ)
    assert commutator_subspace(q1).dim == 1  # [nu, nu] = 2


def test_two_sided_ideal_closure():
    G = build_grassmann(QQ, 1)
    ideal = two_sided_ideal(G, [{1: QQ.one}])
    assert ideal.dim == 1
    M = build_matrix(QQ, 2)
    ideal = two_sided_ideal(M, [{0: QQ.one}])  # E11 generates everything
    assert ideal.dim == 4


def test_an_vanishing_small_cases():
    assert an_vanishing_check(build_base_field(QQ), 2) == GradedDim(0, 0)
    assert an_vanishing_check(build_grassmann(QQ, 1), 3) == GradedDim(0, 0)


def test_an_vanishing_rejects_bad_characteristic():
    f5 = parse_field_flag("Fp:5")
    with pytest.raises(ScalarError):
        an_vanishing_check(build_base_field(f5), 5)
    # coprime n is fine
    assert an_vanishing_check(build_base_field(f5), 2) == GradedDim(0, 0)


def test_poly_parse_and_format():
    assert parse_poly("x^2-2") == (-2, 0, 1)
    assert parse_poly("x^3-1") == (-1, 0, 0, 1)
    assert parse_poly("x") == (0, 1)
    assert parse_poly(format_poly((-2, 0, 1))) == (-2, 0, 1)
    with pytest.raises(ValueError):
        parse_poly("x^2 + y")
    with pytest.raises(ValueError):
        parse_poly("")


@pytest.mark.parametrize("tag", ["grassmann(2)", "matrix(2)", "q1"])
def test_unit_acts_trivially_on_random_elements(tag):
    R = build_builtin(tag, QQ)
    rng = random.Random(13)
    for _ in range(10):
        coords = {rng.randrange(R.dim): QQ.from_int(rng.randint(-4, 4)) for _ in range(2)}
        v = vec(coords)
        assert R.mul_coords(R.unit, v) == v
        assert R.mul_coords(v, R.unit) == v


def test_element_arithmetic_distributes():
    R = build_builtin("matrix(2)", QQ)
    rng = random.Random(29)
    for _ in range(15):
        a, b, c = (
            vec({rng.randrange(R.dim): QQ.from_int(rng.randint(-3, 3))}) for _ in range(3)
        )
        mul = R.mul_coords
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert mul(c, add(a, b, -QQ.one)) == add(mul(c, a), mul(c, b), -QQ.one)


@pytest.mark.parametrize("flag", FIELDS)
def test_tensor_equals_the_quadruple_scan_on_all_builtin_pairs(flag):
    field = parse_field_flag(flag)
    algebras = [build_builtin(tag, field) for tag in ALL_TAGS]
    for A in algebras:
        for B in algebras:
            T, O = tensor(A, B), tensor_quadruple_scan(A, B)
            assert T.products == O.products, (A.name, B.name)
            assert T.unit == O.unit
            assert (T.space.labels, T.space.parities) == (O.space.labels, O.space.parities)


@pytest.mark.parametrize("flag", FIELDS)
def test_supercommutator_is_the_bracket_of_lie_from_assoc(flag):
    field = parse_field_flag(flag)
    for tag in ALL_TAGS:
        R = build_builtin(tag, field)
        for A in (R, tensor(R, build_q1(field))):
            L = lie_from_assoc(A)
            for i in range(A.dim):
                for j in range(A.dim):
                    assert A.supercommutator(i, j) == L.bracket_basis(i, j), (A.name, i, j)


@pytest.mark.parametrize("flag", ["Fp:3", "Fp:5"])
def test_products_and_linear_maps_hand_on_reduced_vectors(flag):
    # mul_coords, supercommutator and linear_apply sum in Z and reduce once:
    # each returns its sum over Q taken mod p, every value an int in [1, p)
    field = parse_field_flag(flag)
    p = field.characteristic
    rng = random.Random(23)
    unreduced = 0
    for tag in ("grassmann(2)", "matrix(2)"):
        R, RQ = build_builtin(tag, field), build_builtin(tag, QQ)
        d = R.dim
        vecs = [{i: rng.randint(1, p - 1) for i in rng.sample(range(d), 3)} for _ in range(8)]
        for x, y in zip(vecs, vecs[1:]):
            got, over_q = R.mul_coords(x, y), RQ.mul_coords(x, y)
            assert got == in_field(over_q, field)
            unreduced += any(not 0 < v < p for v in over_q.values())
            assert linear_apply(vecs, x, field) == in_field(linear_apply(vecs, x, QQ), field)
        for a in range(d):
            for b in range(d):
                got = R.supercommutator(a, b)
                assert got == in_field(RQ.supercommutator(a, b), field)
                assert all(type(v) is int and 0 < v < p for v in got.values())
    assert unreduced
