"""Finite-dimensional associative superalgebras given by structure constants.

An algebra is a graded basis, a unit vector and a sparse product table
products[(i, j)] = coordinates of e_i e_j.  Missing (i, j) entries mean the
product is zero.  Elements are plain coordinate dicts {basis index: scalar};
mul_coords multiplies them and unit is the unit's coordinates.
``validate`` checks grading compatibility, associativity on all basis
triples and the two-sided unit law, exactly.

The builtin catalog covers the coordinate algebras used by the verification
scenarios: the base field, the two-dimensional algebra Q1 = k + k*nu with nu
odd and nu^2 = 1, Grassmann algebras, truncated polynomials, monogenic
algebras k[x]/(f), cyclic group algebras, matrix algebras and the square-zero
plane k[x,y]/(x,y)^2.

Two derived structure tables have one rule each.  koszul_tensor writes the
table of a tensor product with the Koszul sign
(x (x) a)(y (x) b) = (-1)^{|a||y|} xy (x) ab; tensor uses it for products
and lie.lie_tensor for brackets.  SuperAlgebra.supercommutator gives
[e_a, e_b] = e_a e_b - (-1)^{|a||b|} e_b e_a; the commutator subspace
[R, R] and the commutator map of cyclic.hc1 are built from it.

A product table holds each distinct value once: koszul_tensor and the
copy SuperAlgebra makes of the table it is given pool their values with
linalg.pooled while that one table is built, so equal values are one
shared dict, and stored values are read-only.
"""
from __future__ import annotations

import re

from .linalg import GradedDim, GradedSpace, Subspace, add_scaled, in_field, pooled
from .scalars import Field, ScalarError


class ValidationFailure:
    def __init__(self, kind: str, where: tuple, detail: str):
        self.kind = kind  # grading | associativity | unit | structure
        self.where = where
        self.detail = detail


class ValidationReport:
    def __init__(self, failures=None):
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


class SuperAlgebra:
    """Associative superalgebra with a distinguished unit.

    The product table is a copy of the one it is given, with empty values
    dropped and equal values made one shared dict (module docstring), so
    its values are read-only.
    """

    def __init__(self, field: Field, space: GradedSpace, products: dict, unit: dict, name=""):
        self.field = field
        self.space = space
        pool = {}
        self.products = {k: pooled(pool, dict(v)) for k, v in products.items() if v}
        self.unit = dict(unit)
        self.name = name or "algebra"

    @property
    def dim(self):
        return self.space.dim

    def mul_coords(self, x: dict, y: dict) -> dict:
        """sum x_i y_j e_i e_j over field, summed exactly and reduced once."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                tbl = self.products.get((i, j))
                if tbl:
                    add_scaled(out, tbl, xi * yj)
        return in_field(out, self.field) if self.field.characteristic else out

    def basis_vec(self, i: int) -> dict:
        return {i: self.field.one}

    def supercommutator(self, a: int, b: int) -> dict:
        """e_a e_b - (-1)^{|a||b|} e_b e_a, as coordinates, summed exactly
        and reduced once."""
        par = self.space.parities
        one = self.field.one
        out = dict(self.products.get((a, b), {}))
        add_scaled(out, self.products.get((b, a), {}), one if par[a] and par[b] else -one)
        return in_field(out, self.field) if self.field.characteristic else out

    def __repr__(self):
        return "<SuperAlgebra %s %s>" % (self.name, self.space.graded_dim)


def validate(A: SuperAlgebra) -> ValidationReport:
    """Exact check of grading, associativity and unit on all basis tuples."""
    rep = ValidationReport()
    par = A.space.parities
    n = A.dim
    for (i, j), tbl in A.products.items():
        want = (par[i] + par[j]) % 2
        for k, v in tbl.items():
            if v and par[k] != want:
                rep.failures.append(
                    ValidationFailure(
                        "grading",
                        (i, j, k),
                        "product of parities %d,%d hits parity %d" % (par[i], par[j], par[k]),
                    )
                )
    unit = A.unit
    for i in range(n):
        e = A.basis_vec(i)
        left = A.mul_coords(unit, e)
        right = A.mul_coords(e, unit)
        if left != e:
            rep.failures.append(ValidationFailure("unit", (i, "left"), "1*e_%d != e_%d" % (i, i)))
        if right != e:
            rep.failures.append(ValidationFailure("unit", (i, "right"), "e_%d*1 != e_%d" % (i, i)))
    for i in range(n):
        ei = A.basis_vec(i)
        for j in range(n):
            ij = A.mul_coords(ei, A.basis_vec(j))
            ej = A.basis_vec(j)
            for k in range(n):
                ek = A.basis_vec(k)
                lhs = A.mul_coords(ij, ek)
                rhs = A.mul_coords(ei, A.mul_coords(ej, ek))
                if lhs != rhs:
                    rep.failures.append(
                        ValidationFailure("associativity", (i, j, k), "(e_i e_j)e_k != e_i(e_j e_k)")
                    )
    return rep


def koszul_tensor(
    A_space: GradedSpace, A_table: dict, B_space: GradedSpace, B_table: dict, field
):
    """(space, table) of the tensor product of two bilinear tables over field.

    Basis x(x)a has key x*dim B + a and parity |x| + |a|, and
    (x(x)a)(y(x)b) = (-1)^{|a||y|} xy(x)ab.  Keys follow A_table's order,
    then B's keys in increasing order.  Each target key t*dim B + s comes
    from one (t, s), and a product of nonzero scalars is nonzero, so no
    entry is accumulated or tested for zero; over F_p it is only reduced.
    Values are pooled (module docstring).  A value depends only on the two
    factor values and the sign, and the tables read here are pooled ones,
    so each (factor, factor, sign), told apart by identity, is made and
    pooled once.
    """
    p = field.characteristic
    db = B_space.dim
    apar, bpar = A_space.parities, B_space.parities
    labels = []
    parities = []
    for x, lx in enumerate(A_space.labels):
        for a, la in enumerate(B_space.labels):
            labels.append("%s⊗%s" % (lx, la))
            parities.append((apar[x] + bpar[a]) % 2)
    b_items = sorted(B_table.items())
    table = {}
    pool = {}
    made = {}  # (id(txy), id(tab), sign) -> the value it gives
    for (x, y), txy in A_table.items():
        for (a, b), tab in b_items:
            neg = bpar[a] and apar[y]
            src = (id(txy), id(tab), neg)
            out = made.get(src)
            if out is None:
                out = {}
                for t, c in txy.items():
                    for s, d in tab.items():
                        v = -(c * d) if neg else c * d
                        out[t * db + s] = v % p if p else v
                out = made[src] = pooled(pool, out)
            table[(x * db + a, y * db + b)] = out
    return GradedSpace(labels, parities), table


def tensor(A: SuperAlgebra, B: SuperAlgebra) -> SuperAlgebra:
    """Graded tensor product with the Koszul sign rule."""
    if A.field != B.field:
        raise ValueError("tensor factors over different fields")
    space, products = koszul_tensor(A.space, A.products, B.space, B.products, A.field)
    db = B.dim
    unit = {}
    for i, va in A.unit.items():
        for j, vb in B.unit.items():
            unit[i * db + j] = va * vb
    unit = in_field(unit, A.field)
    return SuperAlgebra(A.field, space, products, unit, name="%s⊗%s" % (A.name, B.name))


def commutator_subspace(A: SuperAlgebra) -> Subspace:
    """Span of all supercommutators of basis elements, canonical form [A, A]."""
    comms = (A.supercommutator(i, j) for i in range(A.dim) for j in range(i, A.dim))
    return Subspace.from_vectors(A.space, comms, A.field)


def two_sided_ideal(A: SuperAlgebra, generators) -> Subspace:
    """Smallest subspace containing the generators and closed under both
    multiplications by basis elements.

    By associativity it is J + AJ, where J, the span of the generators
    and their right multiples, is closed under right multiplication; so J
    is spanned first, and then its rows with their left multiples.
    """
    basis = [A.basis_vec(i) for i in range(A.dim)]

    def with_multiples(vecs, mul):
        for v in vecs:
            yield v
            for e in basis:
                yield mul(v, e)

    right = Subspace.from_vectors(A.space, with_multiples(generators, A.mul_coords), A.field)
    left = with_multiples(right.rows, lambda v, e: A.mul_coords(e, v))
    return Subspace.from_vectors(A.space, left, A.field)


def an_vanishing_check(R: SuperAlgebra, n: int) -> GradedDim:
    """Graded dimension of (R(x)Q1)/<n*1, [S,S]> where S = R(x)Q1.

    The characteristic must be 0 or coprime to n, otherwise n*1 is not a
    unit for the wrong reason.
    """
    p = R.field.characteristic
    if p and n % p == 0:
        raise ScalarError("characteristic %d divides n=%d" % (p, n))
    S = tensor(R, build_q1(R.field))
    gens = [in_field({k: R.field.from_int(n) * v for k, v in S.unit.items()}, R.field)]
    comm = commutator_subspace(S)
    gens.extend(comm.rows)
    return S.space.graded_dim - two_sided_ideal(S, gens).graded_dim


# ---------------------------------------------------------------- builders

def build_base_field(field: Field) -> SuperAlgebra:
    space = GradedSpace(("1",), (0,))
    return SuperAlgebra(field, space, {(0, 0): {0: field.one}}, {0: field.one}, name="base-field")


def build_q1(field: Field) -> SuperAlgebra:
    """k + k*nu, nu odd, nu^2 = 1."""
    space = GradedSpace(("1", "nu"), (0, 1))
    one = field.one
    products = {
        (0, 0): {0: one},
        (0, 1): {1: one},
        (1, 0): {1: one},
        (1, 1): {0: one},
    }
    return SuperAlgebra(field, space, products, {0: one}, name="q1")


def build_grassmann(field: Field, k: int) -> SuperAlgebra:
    """Exterior algebra on k odd generators; dimension 2^k."""
    if k < 0:
        raise ValueError("grassmann needs k >= 0")
    subsets = []
    for mask in range(1 << k):
        subsets.append(tuple(i for i in range(k) if mask >> i & 1))
    index = {s: n for n, s in enumerate(subsets)}
    labels = ["1" if not s else "".join("x%d" % (i + 1) for i in s) for s in subsets]
    parities = [len(s) % 2 for s in subsets]
    space = GradedSpace(labels, parities)
    one = field.one
    products = {}
    for a in subsets:
        for b in subsets:
            if set(a) & set(b):
                continue
            merged = tuple(sorted(a + b))
            # sign of the shuffle sorting a+b
            seq = list(a + b)
            sign = 1
            for i in range(len(seq)):
                for j in range(i + 1, len(seq)):
                    if seq[i] > seq[j]:
                        sign = -sign
            products[(index[a], index[b])] = {index[merged]: field.from_int(sign)}
    return SuperAlgebra(field, space, products, {0: one}, name="grassmann(%d)" % k)


def build_truncated_poly(field: Field, m: int) -> SuperAlgebra:
    """k[x]/(x^m), all even."""
    if m < 1:
        raise ValueError("truncated-poly needs m >= 1")
    labels = ["1"] + ["x^%d" % d if d > 1 else "x" for d in range(1, m)]
    space = GradedSpace(labels, (0,) * m)
    one = field.one
    products = {}
    for i in range(m):
        for j in range(m):
            if i + j < m:
                products[(i, j)] = {i + j: one}
    return SuperAlgebra(field, space, products, {0: one}, name="truncated-poly(%d)" % m)


def build_monogenic(field: Field, coeffs) -> SuperAlgebra:
    """k[x]/(f) for monic integer f given by ascending coefficients.

    coeffs = (c0, ..., c_{d-1}, 1), degree d >= 1.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("monogenic needs a monic polynomial of degree >= 1")
    d = len(coeffs) - 1
    # x^d = -(c0 + c1 x + ... + c_{d-1} x^{d-1})
    top = {i: field.from_int(-coeffs[i]) for i in range(d) if coeffs[i]}
    powers = [dict() for _ in range(2 * d - 1)]
    for i in range(d):
        powers[i] = {i: field.one}
    for e in range(d, 2 * d - 1):
        # x^e = x * x^(e-1): x^i -> x^(i+1) below d, and x^(d-1) -> x^d = top
        prev = powers[e - 1]
        nxt = {i + 1: v for i, v in prev.items() if i + 1 < d}
        add_scaled(nxt, top, prev.get(d - 1, 0))
        powers[e] = in_field(nxt, field)
    labels = ["1"] + ["x^%d" % i if i > 1 else "x" for i in range(1, d)]
    space = GradedSpace(labels, (0,) * d)
    products = {}
    for i in range(d):
        for j in range(d):
            tbl = powers[i + j]
            if tbl:
                products[(i, j)] = dict(tbl)
    name = "monogenic(%s)" % format_poly(coeffs)
    return SuperAlgebra(field, space, products, {0: field.one}, name=name)


def build_group_algebra(field: Field, m: int) -> SuperAlgebra:
    """k[t]/(t^m - 1), the cyclic group algebra, all even."""
    if m < 1:
        raise ValueError("group-algebra needs m >= 1")
    labels = ["1"] + ["t^%d" % d if d > 1 else "t" for d in range(1, m)]
    space = GradedSpace(labels, (0,) * m)
    one = field.one
    products = {}
    for i in range(m):
        for j in range(m):
            products[(i, j)] = {(i + j) % m: one}
    return SuperAlgebra(field, space, products, {0: one}, name="group-algebra(%d)" % m)


def build_matrix(field: Field, k: int) -> SuperAlgebra:
    """Full matrix algebra M_k, all even."""
    if k < 1:
        raise ValueError("matrix needs k >= 1")
    labels = ["E%d%d" % (i + 1, j + 1) for i in range(k) for j in range(k)]
    space = GradedSpace(labels, (0,) * (k * k))
    one = field.one
    products = {}
    for i in range(k):
        for j in range(k):
            for l in range(k):
                # E_ij E_jl = E_il
                products[(i * k + j, j * k + l)] = {i * k + l: one}
    unit = {i * k + i: one for i in range(k)}
    return SuperAlgebra(field, space, products, unit, name="matrix(%d)" % k)


def build_square_zero_plane(field: Field) -> SuperAlgebra:
    """k[x,y]/(x,y)^2: basis 1, x, y with xx = xy = yx = yy = 0."""
    space = GradedSpace(("1", "x", "y"), (0, 0, 0))
    one = field.one
    products = {
        (0, 0): {0: one},
        (0, 1): {1: one},
        (0, 2): {2: one},
        (1, 0): {1: one},
        (2, 0): {2: one},
    }
    return SuperAlgebra(field, space, products, {0: one}, name="square-zero-plane")


_POLY_TERM = re.compile(r"^([+-]?\d*)(?:(x)(?:\^(\d+))?)?$")


def parse_poly(text: str):
    """Ascending coefficient tuple of an integer polynomial in x."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    coeffs = {}
    for chunk in chunks:
        m = _POLY_TERM.match(chunk)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError("bad polynomial term: %r" % chunk)
        coef_txt, has_x, exp_txt = m.groups()
        if coef_txt in ("", "+"):
            coef = 1
        elif coef_txt == "-":
            coef = -1
        else:
            coef = int(coef_txt)
        if has_x:
            exp = int(exp_txt) if exp_txt else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + coef
    deg = max(e for e, c in coeffs.items() if c) if any(coeffs.values()) else 0
    return tuple(coeffs.get(e, 0) for e in range(deg + 1))


def format_poly(coeffs) -> str:
    bits = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            base = "x" if e == 1 else "x^%d" % e
            term = base if abs(c) == 1 else "%d%s" % (abs(c), base)
        if not bits:
            bits.append(term if c > 0 else "-" + term)
        else:
            bits.append(("+" if c > 0 else "-") + term)
    return "".join(bits) or "0"


_TAG_RE = re.compile(r"^([a-z0-9-]+)(?:\((.*)\))?$")

BUILTIN_FAMILIES = (
    "base-field",
    "q1",
    "grassmann",
    "truncated-poly",
    "monogenic",
    "group-algebra",
    "matrix",
    "square-zero-plane",
)


def build_builtin(tag: str, field: Field) -> SuperAlgebra:
    """Builtin catalog: e.g. grassmann(2), monogenic(x^2-2), matrix(2)."""
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise ValueError("bad builtin tag: %r" % tag)
    family, arg = m.group(1), m.group(2)
    if family not in BUILTIN_FAMILIES:
        raise ValueError("unknown builtin family: %r" % family)
    if family == "base-field":
        return build_base_field(field)
    if family == "q1":
        return build_q1(field)
    if family == "square-zero-plane":
        return build_square_zero_plane(field)
    if arg is None:
        raise ValueError("builtin %s needs an argument" % family)
    if family == "grassmann":
        return build_grassmann(field, int(arg))
    if family == "truncated-poly":
        return build_truncated_poly(field, int(arg))
    if family == "group-algebra":
        return build_group_algebra(field, int(arg))
    if family == "matrix":
        return build_matrix(field, int(arg))
    if family == "monogenic":
        return build_monogenic(field, parse_poly(arg))
    raise ValueError("unhandled builtin: %r" % tag)
