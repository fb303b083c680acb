"""Reference routes that only the tests use.

The program never calls these.  They are the independent or brute-force
second routes the tests compare it against: the full L2 pair list and
Chevalley-Eilenberg matrices (a d3 column is CEComplex.d3_column's terms
summed, and d3_by_wedges builds it from its definition as a dict, with
the wedge sign rule stated on its own in wedge), the full walk of the
weight-zero triples and the image of d3 from every one of them, the
torus weights by a row join against every unit vector, the subalgebra a
set of vectors generates by its definition and ce_h2's greedy generating
set on it, a standalone
sparse-matrix rref, the Lie axioms on basis tuples, the center by a
kernel, the supercommutator algebra of an associative algebra, the
q_n(R) formula table by a full index scan, the gl_{m|n}(R) bracket table
by a scan of every pair of basis vectors (the program has only the rule
lie.GlRule), the rule evaluated on one pair (gl_rule_get) and the bilinear
extension of a table or a rule (bracket_coords), build_q's
block-realization check against that table, the all-pairs bracket scans of
VerifiedHomomorphism.verify, induced_lie and quotient_lie, the pair-space
relations from every triple, the span of the words in a set of vectors of
an associative algebra by its definition and PairSpace's greedy
generating set on it, the tensor product tables by a scan of every
index quadruple, the trace condition tr X in [R,R] as the kernel of a
trace or supertrace map, the identity block of sq_n(R) that psq_n(R) divides by, the
cyclic side of the psq formula, the quotient-coordinate route (a class
in coordinates on the non-pivot columns numbered from 0, QuotientSpace,
and HC1 computed in them), and Q(i) arithmetic on pairs of rationals.

A LieSuperAlgebra table holds each pair once, the keys (i, j) with i <= j.
Every oracle above that builds a bracket table builds all of it, both
halves, and hands it through upper_half, which asserts that the lower half
is the exact signed mirror of the upper one before it returns the upper:
so the oracles still check super antisymmetry, which the program's tables
have by construction.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain

from queerhom.algebras import SuperAlgebra, commutator_subspace
# lam2_dim_formula is imported for the tests that read it from here
from queerhom.chevalley import CEComplex, lam2_dim_formula, lam3_dim_formula
from queerhom.cyclic import PairSpace, hc1
from queerhom.lie import (
    MAX_FAILURES,
    GlRule,
    LieSuperAlgebra,
    StructureError,
    VerifiedHomomorphism,
)
from queerhom.linalg import (
    Echelon,
    GradedDim,
    GradedSpace,
    GradingError,
    Subspace,
    add_scaled,
    in_field,
    kernel,
    linear_apply,
)
from queerhom.scalars import GaussianRational


# ------------------------------------------------------- sparse matrices

class SparseMatrix:
    """Immutable-by-convention sparse matrix, entries keyed by (row, col)."""

    def __init__(self, nrows: int, ncols: int, entries: dict):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {k: v for k, v in entries.items() if v}

    @classmethod
    def from_rows(cls, rows, ncols):
        entries = {}
        for r, row in enumerate(rows):
            for c, v in row.items():
                entries[(r, c)] = v
        return cls(len(rows), ncols, entries)

    def rows_as_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def cols_as_dicts(self):
        cols = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def apply(self, vec: dict, field) -> dict:
        """Matrix times a coordinate vector (vec indexed by columns), over field."""
        out = {}
        cols = self.cols_as_dicts()
        for c, x in vec.items():
            add_scaled(out, cols[c], x)
        return in_field(out, field)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return "<SparseMatrix %dx%d, %d nonzero>" % (self.nrows, self.ncols, len(self.entries))


def is_canonical(v, field) -> bool:
    """Whether v is a nonzero value of field in its canonical form: an int in
    [1, p) over F_p, an int or Fraction over Q, and over Q(i) an int or
    Fraction or a GaussianRational (whose imaginary part is nonzero)."""
    p = field.characteristic
    if p:
        return type(v) is int and 0 < v < p
    if type(v) in (int, Fraction):
        return v != 0
    return field.kind == "gaussian-rationals" and type(v) is GaussianRational


def rref(m: SparseMatrix, field):
    """Canonical reduced row echelon form and rank over field; row space is
    preserved.  ValueError for an entry that is not a canonical value of field."""
    for v in m.entries.values():
        if not is_canonical(v, field):
            raise ValueError("entry %r is not a canonical value of %s" % (v, field.name))
    ech = Echelon(field)
    for row in m.rows_as_dicts():
        if row:
            ech.insert(row)
    rows = ech.rref_rows()
    return SparseMatrix.from_rows(rows, m.ncols), ech.rank


# ------------------------------------------------ quotient coordinates

class QuotientSpace:
    """Ambient modulo a homogeneous subspace, coordinatized by the
    subspace's non-pivot columns numbered again from 0: the second
    coordinate system for classes, which the program does without (it keeps
    a class as its canonical representative, in ambient coordinates).
    project and section change between the two."""

    def __init__(self, ambient: GradedSpace, sub: Subspace):
        if sub.space != ambient:
            raise ValueError("subspace lives in a different ambient space")
        if not sub.is_homogeneous():
            raise GradingError("quotient by a non-homogeneous subspace")
        self.sub = sub
        pivots = set(sub.pivot_cols)
        self.section_cols = tuple(c for c in range(ambient.dim) if c not in pivots)
        self._col_of = {c: i for i, c in enumerate(self.section_cols)}
        self.space = GradedSpace(
            tuple(ambient.labels[c] for c in self.section_cols),
            tuple(ambient.parities[c] for c in self.section_cols),
        )

    @property
    def graded_dim(self) -> GradedDim:
        return self.space.graded_dim

    @property
    def dim(self):
        return len(self.section_cols)

    def project(self, vec: dict) -> dict:
        """Class of an ambient vector in quotient coordinates."""
        res = self.sub.reduce(vec)
        return {self._col_of[c]: v for c, v in res.items()}

    def section(self, qvec: dict) -> dict:
        """Canonical ambient representative of a quotient vector."""
        return {self.section_cols[c]: v for c, v in qvec.items()}


def hc1_in_quotient_coords(R: SuperAlgebra):
    """(quot, HC1(R)) in quotient coordinates: quot is <R,R> as a
    QuotientSpace of R(x)R, and HC1(R) the null space, by kernel and a
    second elimination, of the commutator map on the section of each
    quotient basis vector.  quot.section takes its rows to the canonical
    representatives cyclic.hc1 keeps."""
    field = R.field
    pair = PairSpace(R)
    quot = QuotientSpace(pair.space, pair.relations)
    comm = [R.supercommutator(a, b) for a in range(R.dim) for b in range(R.dim)]
    rows = [{} for _ in range(R.dim)]
    for col in range(quot.dim):
        for r, v in linear_apply(comm, quot.section({col: field.one}), field).items():
            rows[r][col] = v
    null = kernel(rows, quot.dim, field)
    return quot, Subspace.from_vectors(quot.space, null, field)


# ------------------------------------------- Q(i) as pairs of rationals

def qi_pair(v) -> tuple:
    """A value of Q(i), rational or GaussianRational, as the pair (re, im)
    of Fractions."""
    if type(v) is GaussianRational:
        return Fraction(v.re), Fraction(v.im)
    return Fraction(v), Fraction(0)


def qi_pair_op(op, x, y) -> tuple:
    """x op y for pairs x = (a, b), y = (c, d) standing for a + bi and
    c + di, with op one of "+", "-", "*", "/"."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


# ------------------------------------------- the full exterior complex

def lam2_pairs(g: LieSuperAlgebra) -> list:
    """Every pair (i, j) of L2 of g, i <= j, i = j only odd, in the order
    (|i| + |j|, i, j) of CEComplex's basis."""
    par = g.space.parities
    pairs = [
        (i, j) for i in range(g.dim) for j in range(i, g.dim) if i != j or par[i]
    ]
    pairs.sort(key=lambda t: (par[t[0]] + par[t[1]], t))
    return pairs


def iter_lam3(cx):
    """Every sorted triple (i, j, k) of L3 of cx.g; equalities only at odd indices."""
    par = cx.g.space.parities
    n = cx.g.dim
    for i in range(n):
        for j in range(i, n):
            if i == j and par[i] == 0:
                continue
            for k in range(j, n):
                if j == k and par[j] == 0:
                    continue
                yield (i, j, k)


def iter_lam3_weight0(cx):
    """Every weight-zero triple (i, j, k) of cx in increasing order, drawn
    from the weight buckets: the full walk, which CEComplex.iter_lam3_weight0
    cuts down to the triples with a factor in a generating set (every triple
    of L3 for an empty torus)."""
    par = cx.g.space.parities
    n = cx.g.dim
    wid = cx.weight_id
    for i in range(n):
        third = cx._third[wid[i]]
        for j in range(i, n):
            if i == j and par[i] == 0:
                continue
            c = third[wid[j]]
            if c is None:
                continue
            ks = cx._buckets[c]
            for k in ks[bisect_left(ks, j):]:
                if j == k and par[j] == 0:
                    continue
                yield (i, j, k)


def d2_matrix(cx) -> SparseMatrix:
    entries = {}
    for k in range(cx.lam2.dim):
        for r, v in cx.d2_column(k).items():
            entries[(r, k)] = v
    return SparseMatrix(cx.g.dim, cx.lam2.dim, entries)


def summed_terms(terms, field) -> dict:
    """The vector sum(v * e_c for c, v in terms): a term list, as
    CEComplex.d3_column gives it and Echelon.insert_terms takes it, summed
    exactly and reduced into field, zeros dropped."""
    out = {}
    for c, v in terms:
        out[c] = out.get(c, 0) + v
    return in_field(out, field)


def d3_vector(cx, t) -> dict:
    """d3 of the triple t as a vector: CEComplex.d3_column's terms summed."""
    return summed_terms(cx.d3_column(t), cx.g.field)


def lam2_positions(cx) -> dict:
    """{(i, j): position} of cx's L2 basis, read off cx.pairs."""
    return {t: k for k, t in enumerate(cx.pairs)}


def wedge(pos, par, s, c):
    """(position, sign) of e_s ^ e_c in the L2 basis whose pair positions
    are pos, or None if it is zero; KeyError if the pair is not in pos.
    par are the parities of g's basis.  The sign rule:
    e_c ^ e_s = -(-1)^{|s||c|} e_s ^ e_c, so e_s ^ e_s = 0 for s even."""
    if s == c:
        return None if par[s] == 0 else (pos[(s, s)], 1)
    if s < c:
        return pos[(s, c)], 1
    return pos[(c, s)], 1 if par[s] and par[c] else -1


def d3_by_wedges(cx, pos, t) -> dict:
    """d3 of the triple t by its definition, as the column was once built:
    each bracket read through g.bracket_basis, wedged on by wedge with the
    pair positions pos (lam2_positions(cx)), summed by add_scaled and
    reduced into the field.  KeyError on a wedge of nonzero weight."""
    i, j, k = t
    g = cx.g
    par = g.space.parities
    out = {}
    for a, b, c, sign in (
        (i, j, k, 1),
        (i, k, j, 1 if par[j] and par[k] else -1),
        (j, k, i, -1 if par[i] and (par[j] + par[k]) % 2 else 1),
    ):
        # [e_a, e_b] ^ e_c = sum_s v e_s ^ e_c, and e_s ^ e_c = sgn * pair
        for s, v in g.bracket_basis(a, b).items():
            w = wedge(pos, par, s, c)
            if w is not None:
                add_scaled(out, {w[0]: v}, sign * w[1])
    return in_field(out, g.field)


def d3_matrix(cx) -> SparseMatrix:
    entries = {}
    for k, t in enumerate(iter_lam3(cx)):
        for r, v in d3_vector(cx, t).items():
            entries[(r, k)] = v
    return SparseMatrix(cx.lam2.dim, lam3_dim_formula(cx.g.space.graded_dim), entries)


def torus_weights_by_unit_columns(g: LieSuperAlgebra, torus) -> list:
    """chevalley.torus_weights by the row join: one bracket_row of each
    torus element h against a column_index of all dim g unit vectors,
    which gives [h, e_b] for every b at once, with the same refusals."""
    par = g.space.parities
    zero, one = g.field.zero, g.field.one
    weights = [[] for _ in range(g.dim)]
    units = g.column_index([{b: one} for b in range(g.dim)])
    for t, h in enumerate(torus):
        if any(par[k] for k in h):
            raise StructureError("torus element %d is not even" % t)
        row = g.bracket_row(h, units)  # {b: [h, e_b]}
        for b in range(g.dim):
            img = row.get(b, {})
            weights[b].append(img.get(b, zero))
            if len(img) > (b in img):
                raise StructureError(
                    "torus element %d does not act diagonally: [h, %s] leaves the line"
                    % (t, g.space.labels[b])
                )
    return [tuple(w) for w in weights]


def generated_subalgebra(g: LieSuperAlgebra, vectors) -> Subspace:
    """The subalgebra of g generated by vectors, by its definition: the span
    V, then V + [V, V] over every pair of V's canonical rows through
    bracket_coords, until the span stops growing."""
    span = Subspace.from_vectors(g.space, vectors, g.field)
    while True:
        rows = span.rows
        brackets = (bracket_coords(g, x, y) for x in rows for y in rows)
        grown = Subspace.from_vectors(g.space, chain(rows, brackets), g.field)
        if grown.dim == span.dim:
            return span
        span = grown


def greedy_generators(g: LieSuperAlgebra, weights) -> list:
    """The generating set CEComplex.generating_set chooses, by its rule run
    on generated_subalgebra: the basis vectors of nonzero weight, most
    bracket keys first and ties by index, then every index; e_b is kept
    when it lies outside the subalgebra the kept ones generate."""
    one = g.field.one
    keys = [sum(b in key for key in g.brackets) for b in range(g.dim)]
    first = sorted((b for b in range(g.dim) if any(weights[b])), key=lambda b: (-keys[b], b))
    gens = []
    span = generated_subalgebra(g, [])
    for b in chain(first, range(g.dim)):
        if not span.contains({b: one}):
            gens.append(b)
            span = generated_subalgebra(g, [{s: one} for s in gens])
    return sorted(gens)


def image_by_full_stream(cx) -> dict:
    """The pivot dict of the RREF of im d3 on cx's chains: d3 of every triple
    of the full walk, as its summed terms, inserted in walk order."""
    ech = Echelon(cx.g.field)
    for t in iter_lam3_weight0(cx):
        col = d3_vector(cx, t)
        if col:
            ech.insert(col)
    return ech.pivots


def h2_by_representatives(g: LieSuperAlgebra, torus=()):
    """(basis, stats without timings) of ce_h2(g, torus), with the image
    and the quotient as ce_h2 first computed them: every weight-zero d3
    column streamed, the kernel of d2 brought to canonical rows,
    each row reduced modulo the image echelon, and every nonzero residue
    inserted into that echelon and into a second, representative echelon,
    whose canonical rows are the H2 basis."""
    torus = list(torus)
    cx = CEComplex(g, torus)
    field = g.field
    torus_span = Echelon(field)
    for h in torus:
        torus_span.insert(h)
    par = cx.lam2.parities
    null = kernel(d2_matrix(cx).rows_as_dicts(), cx.lam2.dim, field)
    ker = Subspace.from_vectors(cx.lam2, null, field)
    gens = set(greedy_generators(g, cx.weights))
    ech = Echelon(field)
    lam3_weight0_dim = streamed = 0
    for t in iter_lam3_weight0(cx):
        lam3_weight0_dim += 1
        i, j, k = t
        has_bracket = any(key in g.brackets for key in ((i, j), (i, k), (j, k)))
        streamed += has_bracket and not gens.isdisjoint(t)
        col = d3_vector(cx, t)
        if col:
            ech.insert(col)
    im_odd = sum(par[c] for c in ech.pivots)
    im = GradedDim(ech.rank - im_odd, im_odd)
    rep_ech = Echelon(field)
    for row in ker.rows:
        res = ech.reduce(row)
        if res:
            ech.insert(res)
            rep_ech.insert(res)
    reps = sorted(rep_ech.rref_rows(), key=lambda rep: par[min(rep)])
    basis = [(par[min(rep)], {cx.pairs[c]: v for c, v in rep.items()}) for rep in reps]
    odd = sum(p for p, _ in basis)
    gd = g.space.graded_dim
    stats = {
        "lam2_dim": sum(lam2_dim_formula(gd)),
        "lam3_dim": lam3_dim_formula(gd),
        "lam2_weight0_dim": cx.lam2.dim,
        "torus_rank": torus_span.rank,
        "algebra_dim": [gd.even, gd.odd],
    }
    kd = ker.graded_dim
    for p in (0, 1):
        stats["ker_rank_parity%d" % p] = kd[p]
        stats["im_rank_parity%d" % p] = im[p]
    stats["lam3_weight0_dim"] = lam3_weight0_dim
    stats["generators"] = len(gens)
    stats["lam3_streamed"] = streamed
    stats["h2"] = [len(basis) - odd, odd]
    return basis, stats


def trace_rule_by_kernel(R: SuperAlgebra, n: int, index, m=None):
    """Vectors spanning {X in gl_n(R) : tr X in [R,R]}, as lie._trace_rule
    first found them: the off-diagonal units, then the kernel of the trace
    map from the diagonal entries X_ii = e_r (at coordinate index(i, i, r))
    into R/[R,R].  With m, the supertrace of gl_{m|n-m}(R): X_ii = e_r
    counts -(-1)^{|r|} e_r for i > m."""
    one = R.field.one
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                for r in range(R.dim):
                    yield {index(i, j, r): one}
    comm_q = QuotientSpace(R.space, commutator_subspace(R))
    diag = [index(i, i, r) for i in range(1, n + 1) for r in range(R.dim)]
    rows = [{} for _ in range(comm_q.dim)]
    p = R.field.characteristic
    for d in range(len(diag)):
        i, r = divmod(d, R.dim)  # i 0-based
        for qrow, v in comm_q.project({r: one}).items():
            if m is not None and i >= m and not R.space.parities[r]:
                v = -v % p if p else -v
            rows[qrow][d] = v
    for vec in kernel(rows, len(diag), R.field):
        yield {diag[d]: v for d, v in vec.items()}


# ------------------------------------------------------- bracket tables

def upper_half(brackets: dict, parities, field) -> dict:
    """The keys i <= j of a full bracket table, in its order, once the
    table is asserted super antisymmetric: each key (i, j) with i < j has
    the mirror (j, i) = -(-1)^{|i||j|} (i, j) reduced into field, there is
    no other key below the diagonal, and no even basis vector has a
    diagonal key.  The half a LieSuperAlgebra holds."""
    upper = {}
    below = 0
    for (i, j), tbl in brackets.items():
        if not tbl:
            continue
        if i > j:
            below += 1
            continue
        assert i < j or parities[i], "even diagonal key %r" % ((i, j),)
        if i < j:
            sign = 1 if parities[i] and parities[j] else -1
            mirror = in_field({t: sign * c for t, c in tbl.items()}, field)
            assert brackets.get((j, i)) == mirror, "no signed mirror of %r" % ((i, j),)
        upper[(i, j)] = tbl
    assert below == sum(i < j for i, j in upper), "a key below the diagonal has no mirror"
    return upper


def gl_rule_get(rule: GlRule, key) -> dict:
    """[e_x, e_y] for key = (x, y) in gl = rule, evaluated from the
    matrix-unit rule on this one pair, {} when it is zero."""
    x, y = key
    i, j, a = rule.entries[x]
    k, l, b = rule.entries[y]
    if j != k and l != i:
        return {}
    N, dR = rule.size, rule.coord_dim
    products = rule.coord.products
    out = {}
    if j == k:
        tbl = products.get((a, b))
        if tbl:
            base = (i * N + l) * dR
            for t, c in tbl.items():
                out[base + t] = c  # one product of R, already reduced
    if l == i:
        tbl = products.get((b, a))
        if tbl:
            odd = rule.parities[x] and rule.parities[y]
            zero, p = rule.field.zero, rule.field.characteristic
            base = (k * N + j) * dR
            for t, c in tbl.items():
                key = base + t
                cur = out.get(key, zero)
                nv = cur + c if odd else cur - c
                if p:
                    nv %= p
                if nv:
                    out[key] = nv
                else:
                    del out[key]
    return out


def bracket_coords(alg, x: dict, y: dict) -> dict:
    """[x, y] in alg, a LieSuperAlgebra or a GlRule, as the sum of
    x_i y_j [e_i, e_j] over every pair of their entries."""
    if type(alg) is GlRule:
        def entry(i, j):
            return gl_rule_get(alg, (i, j))
    else:
        entry = alg.bracket_basis
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            tbl = entry(i, j)
            if tbl:
                add_scaled(out, tbl, xi * yj)
    return in_field(out, alg.field)


# ------------------------------------------------------- queer formulas

def q_formula_brackets_full_scan(n: int, R: SuperAlgebra, qi) -> dict:
    """The q_n(R) formula table by a scan of every (i, j, a, k, l, b), both
    halves, [w,u] from [u,w], handed through upper_half.

    Reference for lie._q_formula_brackets, which must give the same table,
    key order included.
    """
    dR = R.dim
    rpar = R.space.parities
    brackets = {}

    def put(tbl, key, val):
        cur = tbl.get(key)
        if cur is None:
            tbl[key] = val
        else:
            nv = cur + val
            if nv:
                tbl[key] = nv
            else:
                del tbl[key]

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for a in range(dR):
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        for b in range(dR):
                            ab = R.products.get((a, b), {})
                            ba = R.products.get((b, a), {})
                            s_ab = -1 if (rpar[a] and rpar[b]) else 1
                            # [u,u] -> u
                            out = {}
                            if j == k:
                                for t, c in ab.items():
                                    put(out, qi.u(i, l, t), c)
                            if i == l:
                                for t, c in ba.items():
                                    put(out, qi.u(k, j, t), -c if s_ab > 0 else c)
                            out = in_field(out, R.field)
                            if out:
                                brackets[(qi.u(i, j, a), qi.u(k, l, b))] = out
                            # [u,w] -> w
                            out = {}
                            if j == k:
                                for t, c in ab.items():
                                    put(out, qi.w(i, l, t), c)
                            if i == l:
                                for t, c in ba.items():
                                    put(out, qi.w(k, j, t), -c if s_ab > 0 else c)
                            out = in_field(out, R.field)
                            if out:
                                brackets[(qi.u(i, j, a), qi.w(k, l, b))] = out
                            # [w,w] -> (-1)^{|b|} (delta_jk u_il(ab) + (-1)^{|a||b|} delta_il u_kj(ba))
                            out = {}
                            lead = -1 if rpar[b] else 1
                            if j == k:
                                for t, c in ab.items():
                                    put(out, qi.u(i, l, t), c if lead > 0 else -c)
                            if i == l:
                                sgn = lead * s_ab
                                for t, c in ba.items():
                                    put(out, qi.u(k, j, t), c if sgn > 0 else -c)
                            out = in_field(out, R.field)
                            if out:
                                brackets[(qi.w(i, j, a), qi.w(k, l, b))] = out
    # [w,u] from super antisymmetry
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for a in range(dR):
                pu = rpar[a]
                for k in range(1, n + 1):
                    for l in range(1, n + 1):
                        for b in range(dR):
                            pw = (rpar[b] + 1) % 2
                            tbl = brackets.get((qi.u(i, j, a), qi.w(k, l, b)))
                            if not tbl:
                                continue
                            sgn = -1 if (pu and pw) else 1
                            flipped = in_field(
                                {t: (v if sgn < 0 else -v) for t, v in tbl.items()}, R.field
                            )
                            brackets[(qi.w(k, l, b), qi.u(i, j, a))] = flipped
    block = n * n * dR
    parities = [(rpar[t % dR] + (t >= block)) % 2 for t in range(2 * block)]
    return upper_half(brackets, parities, R.field)


def gl_entry_index(m: int, n: int, R: SuperAlgebra):
    """The index of E_ij(e_r) in gl_{m|n}(R), positions 1-based, as a
    function of (i, j, r)."""
    N, dR = m + n, R.dim
    return lambda i, j, r: ((i - 1) * N + (j - 1)) * dR + r


def gl_table(m: int, n: int, R: SuperAlgebra) -> LieSuperAlgebra:
    """gl_{m|n}(R) as a bracket table, from every pair of basis vectors,
    O(N^4 dR^2), without lie.GlRule:

        [E_ij(a), E_kl(b)] = d_jk E_il(ab) - (-1)^{|E_ij(a)||E_kl(b)|} d_li E_kj(ba)

    Basis labels and order are GlRule's, and so is the key order.  The
    table is handed through upper_half.
    """
    N = m + n
    dR = R.dim
    rpar = R.space.parities
    idx = gl_entry_index(m, n, R)

    def pos_par(i):
        return 0 if i <= m else 1

    labels = []
    parities = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for a in range(dR):
                labels.append("E[%d,%d](%s)" % (i, j, R.space.labels[a]))
                parities.append((pos_par(i) + pos_par(j) + rpar[a]) % 2)
    brackets = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for a in range(dR):
                pa = parities[idx(i, j, a)]
                for k in range(1, N + 1):
                    for l in range(1, N + 1):
                        for b in range(dR):
                            pb = parities[idx(k, l, b)]
                            out = {}
                            if j == k:
                                for t, c in R.products.get((a, b), {}).items():
                                    key = idx(i, l, t)
                                    out[key] = out.get(key, R.field.zero) + c
                            if l == i:
                                sgn = -1 if (pa and pb) else 1
                                for t, c in R.products.get((b, a), {}).items():
                                    key = idx(k, j, t)
                                    cur = out.get(key, R.field.zero)
                                    out[key] = cur - c if sgn > 0 else cur + c
                            out = in_field(out, R.field)
                            if out:
                                brackets[(idx(i, j, a), idx(k, l, b))] = out
    space = GradedSpace(labels, parities)
    upper = upper_half(brackets, parities, R.field)
    return LieSuperAlgebra(R.field, space, upper, name="gl(%d|%d;%s)" % (m, n, R.name))


def gl_rule_keys(rule):
    """The pairs (x, y) with [e_x, e_y] != 0 in gl = rule, a lie.GlRule, in
    ascending order: the keys a gl bracket table would have, enumerated
    from R's product keys without evaluating a bracket.

    E_ij(a) meets E_kl(b) nontrivially for b with (a, b) a product key when
    only j == k, (b, a) when only l == i, either when both with i != j, and
    [a, b] != 0 in R when i == j == k == l.
    """
    R, N, dR = rule.coord, rule.size, rule.coord_dim
    right = [[] for _ in range(dR)]
    left = [[] for _ in range(dR)]
    either = [set() for _ in range(dR)]
    for a, b in sorted(R.products):
        right[a].append(b)
        left[b].append(a)
        either[a].add(b)
        either[b].add(a)
    either = [sorted(bs) for bs in either]
    commuting = [[b for b in bs if R.supercommutator(a, b)] for a, bs in enumerate(either)]
    for x, (i, j, a) in enumerate(rule.entries):
        for k in range(N):
            if k != j:
                base = (k * N + i) * dR
                for b in left[a]:
                    yield x, base + b
                continue
            for l in range(N):
                if l != i:
                    bs = right[a]
                else:
                    bs = commuting[a] if i == j else either[a]
                base = (k * N + l) * dR
                for b in bs:
                    yield x, base + b


def block_realization_columns(q: LieSuperAlgebra, entry_index) -> list:
    """The images of q = q_n(R)'s basis in gl_{n|n}(R), with entry_index
    giving the index of E_ij(e_r):

        u_ij(a) -> E_ij(a) + (-1)^{|a|} E_{n+i,n+j}(a)
        w_ij(a) -> E_{i,n+j}(a) + (-1)^{|a|} E_{n+i,j}(a)
    """
    n, R = q.block_n, q.coord
    cols = []
    for t in range(q.dim):
        kind, i, j, r = q.qindex.unpack(t)
        sgn = R.field.from_int(-1 if R.space.parities[r] else 1)
        if kind == "u":
            cols.append({entry_index(i, j, r): R.field.one, entry_index(n + i, n + j, r): sgn})
        else:
            cols.append({entry_index(i, n + j, r): R.field.one, entry_index(n + i, j, r): sgn})
    return cols


def block_realization_on_table(q: LieSuperAlgebra) -> VerifiedHomomorphism:
    """build_q's check as it was: q = q_n(R) along the block realization
    into the full gl_{n|n}(R) bracket table of gl_table, not the gl rule."""
    n, R = q.block_n, q.coord
    cols = block_realization_columns(q, gl_entry_index(n, n, R))
    return VerifiedHomomorphism(q, gl_table(n, n, R), cols)


# ------------------------------------------------ all-pairs bracket scans

def verify_full_scan(source, target, columns) -> dict:
    """The flags and failure list of VerifiedHomomorphism(source, target,
    columns), from a bracket comparison on every pair of basis vectors."""
    columns = [dict(c) for c in columns]
    field = target.field

    def apply(vec):
        out = {}
        for i, v in vec.items():
            add_scaled(out, columns[i], v)
        return in_field(out, field)

    failures = []
    ok_par = True
    for i, col in enumerate(columns):
        if not col:
            continue
        try:
            p = target.space.parity_of_vec(col)
        except GradingError:
            ok_par = False
            failures.append("image of %s mixes parities" % source.space.labels[i])
            continue
        if p != source.space.parities[i]:
            ok_par = False
            failures.append("image of %s flips parity" % source.space.labels[i])
    ok_br = True
    for i in range(source.dim):
        for j in range(source.dim):
            lhs = apply(source.bracket_basis(i, j))
            rhs = bracket_coords(target, columns[i], columns[j])
            if lhs != rhs:
                ok_br = False
                if len(failures) < MAX_FAILURES:
                    failures.append(
                        "bracket not preserved on (%s, %s)"
                        % (source.space.labels[i], source.space.labels[j])
                    )
    ech = Echelon(field)
    for col in columns:
        if col:
            ech.insert(dict(col))
    return {
        "parity_preserving": ok_par,
        "bracket_preserving": ok_br,
        "injective": ech.rank == source.dim,
        "surjective": ech.rank == target.dim,
        "failures": failures,
    }


def induced_lie_full_scan(g, sub: Subspace) -> dict:
    """induced_lie's bracket table from every pair of basis rows, handed
    through upper_half."""
    rows = sub.rows
    brackets = {}
    for a in range(len(rows)):
        for b in range(len(rows)):
            vec = bracket_coords(g, rows[a], rows[b])
            if not vec:
                continue
            coords = sub.coords_of(vec)
            if coords is None:
                raise StructureError("subspace is not closed under the bracket")
            brackets[(a, b)] = coords
    parities = [g.space.parity_of_vec(r) for r in rows]
    return upper_half(brackets, parities, g.field)


def quotient_lie_full_scan(g: LieSuperAlgebra, ideal: Subspace) -> dict:
    """quotient_lie's ideal check on every basis vector and its bracket
    table from every pair of quotient basis vectors, handed through
    upper_half."""
    for row in ideal.rows:
        for i in range(g.dim):
            out = bracket_coords(g, {i: g.field.one}, dict(row))
            if out and not ideal.contains(out):
                raise StructureError("subspace is not an ideal: fails at basis %d" % i)
    quot = QuotientSpace(g.space, ideal)
    brackets = {}
    for a in range(quot.dim):
        va = quot.section({a: g.field.one})
        for b in range(quot.dim):
            vb = quot.section({b: g.field.one})
            pr = quot.project(bracket_coords(g, va, vb))
            if pr:
                brackets[(a, b)] = pr
    return upper_half(brackets, quot.space.parities, g.field)


# ------------------------------------------------------- pair relations

def cyclic_relation(R: SuperAlgebra, a: int, b: int, c: int) -> dict:
    """(-1)^{|a||c|} ab(x)c + (-1)^{|b||a|} bc(x)a + (-1)^{|c||b|} ca(x)b in R(x)R."""
    d = R.dim
    par = R.space.parities
    one = R.field.one
    vec = {}
    for (x, y), z, s in (((a, b), c, par[a] and par[c]),
                         ((b, c), a, par[b] and par[a]),
                         ((c, a), b, par[c] and par[b])):
        for t, v in R.products.get((x, y), {}).items():
            add_scaled(vec, {t * d + z: v}, -one if s else one)
    return in_field(vec, R.field)


def words_span(R: SuperAlgebra, vectors) -> Subspace:
    """The span of the words of length >= 1 in vectors of R, by its
    definition: the span V, then V + VV over every pair of V's canonical
    rows through mul_coords, until the span stops growing."""
    span = Subspace.from_vectors(R.space, vectors, R.field)
    while True:
        rows = span.rows
        products = (R.mul_coords(x, y) for x in rows for y in rows)
        grown = Subspace.from_vectors(R.space, chain(rows, products), R.field)
        if grown.dim == span.dim:
            return span
        span = grown


def greedy_product_generators(R: SuperAlgebra) -> list:
    """The generating set cyclic.generating_set chooses, by its rule run on
    words_span: the basis vectors most product keys first, ties by index;
    e_b is kept when it lies outside the span of the words in the kept
    ones."""
    one = R.field.one
    keys = [sum(b in key for key in R.products) for b in range(R.dim)]
    gens = []
    span = words_span(R, [])
    for b in sorted(range(R.dim), key=lambda b: (-keys[b], b)):
        if not span.contains({b: one}):
            gens.append(b)
            span = words_span(R, [{s: one} for s in gens])
    return sorted(gens)


def pair_relations_full_scan(R: SuperAlgebra, space) -> Subspace:
    """The relation subspace of <R,R> from antisymmetry on every pair and
    cyclicity on every triple (a, b, c), all d^3 of them."""
    d = R.dim
    par = R.space.parities
    one = R.field.one
    rel = []
    for a in range(d):
        for b in range(a, d):
            vec = {a * d + b: one}
            add_scaled(vec, {b * d + a: one}, -one if (par[a] and par[b]) else one)
            vec = in_field(vec, R.field)
            if vec:
                rel.append(vec)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                vec = cyclic_relation(R, a, b, c)
                if vec:
                    rel.append(vec)
    return Subspace.from_vectors(space, rel, R.field)


# ------------------------------------------------------- Lie structure

def check_lie(g: LieSuperAlgebra, max_failures=20):
    """Exact grading, super antisymmetry and super Jacobi on basis tuples.

    Super antisymmetry is checked on the table's keys (only i <= j, and
    i == j only odd) and on every pair as bracket_basis reads it.  Jacobi
    is evaluated on sorted triples only: given antisymmetry, the Jacobi
    expression for a permuted triple differs by an overall sign.  Raises
    StructureError listing the first failures.
    """
    par = g.space.parities
    n = g.dim
    failures = []

    def sgn(p):
        return -1 if p else 1

    for (i, j), tbl in g.brackets.items():
        want = (par[i] + par[j]) % 2
        for k, v in tbl.items():
            if v and par[k] != want:
                failures.append("grading: [e%d,e%d] has parity-%d component e%d" % (i, j, par[k], k))
        if i > j:
            failures.append("antisymmetry: key (e%d,e%d) below the diagonal" % (i, j))
    for i in range(n):
        for j in range(i, n):
            bij = g.bracket_basis(i, j)
            bji = g.bracket_basis(j, i)
            s = sgn(par[i] * par[j])
            want = in_field({k: -v if s > 0 else v for k, v in bij.items()}, g.field)
            if bji != want:
                failures.append("antisymmetry fails on (e%d,e%d)" % (i, j))
        if par[i] == 0 and g.bracket_basis(i, i):
            failures.append("[e%d,e%d] != 0 for even e%d" % (i, i, i))
    for j in range(n):
        for k in range(j, n):
            bjk = g.bracket_basis(j, k)
            for i in range(j + 1):
                # sorted triple (i, j, k)
                acc = {}
                if bjk:
                    s1 = sgn(par[i] * par[k])
                    for t, v in bjk.items():
                        tb = g.bracket_basis(i, t)
                        if tb:
                            add_scaled(acc, tb, v if s1 > 0 else -v)
                bki = g.bracket_basis(k, i)
                if bki:
                    s2 = sgn(par[j] * par[i])
                    for t, v in bki.items():
                        tb = g.bracket_basis(j, t)
                        if tb:
                            add_scaled(acc, tb, v if s2 > 0 else -v)
                bij = g.bracket_basis(i, j)
                if bij:
                    s3 = sgn(par[k] * par[j])
                    for t, v in bij.items():
                        tb = g.bracket_basis(k, t)
                        if tb:
                            add_scaled(acc, tb, v if s3 > 0 else -v)
                if in_field(acc, g.field):
                    failures.append("jacobi fails on (e%d,e%d,e%d)" % (i, j, k))
                if len(failures) >= max_failures:
                    raise StructureError("; ".join(failures))
    if failures:
        raise StructureError("; ".join(failures))
    return True


def lie_from_assoc(A: SuperAlgebra) -> LieSuperAlgebra:
    """Supercommutator Lie structure on an associative superalgebra."""
    par = A.space.parities
    brackets = {}
    for i in range(A.dim):
        ei = A.basis_vec(i)
        for j in range(A.dim):
            ej = A.basis_vec(j)
            xy = A.mul_coords(ei, ej)
            yx = A.mul_coords(ej, ei)
            sign = -1 if (par[i] and par[j]) else 1
            out = dict(xy)
            add_scaled(out, yx, -sign)
            out = in_field(out, A.field)
            if out:
                brackets[(i, j)] = out
    upper = upper_half(brackets, par, A.field)
    return LieSuperAlgebra(A.field, A.space, upper, name="Lie(%s)" % A.name)


def center(g: LieSuperAlgebra) -> Subspace:
    """{x : [x, g] = 0} with canonical homogeneous basis."""
    rows = []
    row_index = {}
    for j in range(g.dim):
        for i in range(g.dim):
            for k, v in g.bracket_basis(j, i).items():
                r = row_index.setdefault((i, k), len(row_index))
                if r == len(rows):
                    rows.append({})
                rows[r][j] = v
    return Subspace.from_vectors(g.space, kernel(rows, g.dim, g.field), g.field)


def identity_block(q: LieSuperAlgebra, sub: Subspace, sq: LieSuperAlgebra) -> Subspace:
    """The identity block u_11(e_r) + ... + u_nn(e_r), for each basis vector
    e_r of R, in the basis of sq = induced_lie(q, sub), q = q_n(R) and sub
    its trace characterization: the ideal psq_n(R) is sq_n(R) modulo."""
    one = q.field.one
    n = q.block_n
    vecs = [
        sub.coords_of({q.qindex.u(i, i, r): one for i in range(1, n + 1)})
        for r in range(q.coord.dim)
    ]
    return Subspace.from_vectors(sq.space, vecs, sq.field)


# ------------------------------------------------------- tensor products

def tensor_quadruple_scan(A: SuperAlgebra, B: SuperAlgebra) -> SuperAlgebra:
    """A(x)B with the Koszul sign, every index quadruple visited and
    products accumulated into their target keys."""
    if A.field != B.field:
        raise ValueError("tensor factors over different fields")
    field = A.field
    db = B.dim
    labels = []
    parities = []
    for i, la in enumerate(A.space.labels):
        for j, lb in enumerate(B.space.labels):
            labels.append("%s⊗%s" % (la, lb))
            parities.append((A.space.parities[i] + B.space.parities[j]) % 2)
    space = GradedSpace(labels, parities)
    products = {}
    for (i1, j1) in ((i, j) for i in range(A.dim) for j in range(B.dim)):
        for (i2, j2) in ((i, j) for i in range(A.dim) for j in range(B.dim)):
            ta = A.products.get((i1, i2))
            tb = B.products.get((j1, j2))
            if not ta or not tb:
                continue
            sign = -1 if (A.space.parities[i2] and B.space.parities[j1]) else 1
            tbl = {}
            for t, ca in ta.items():
                for s, cb in tb.items():
                    v = ca * cb
                    if sign < 0:
                        v = -v
                    key = t * db + s
                    cur = tbl.get(key)
                    if cur is None:
                        tbl[key] = v
                    else:
                        nv = cur + v
                        if nv:
                            tbl[key] = nv
                        else:
                            del tbl[key]
            tbl = in_field(tbl, field)
            if tbl:
                products[(i1 * db + j1, i2 * db + j2)] = tbl
    unit = {}
    for i, va in A.unit.items():
        for j, vb in B.unit.items():
            unit[i * db + j] = va * vb
    unit = in_field(unit, field)
    return SuperAlgebra(field, space, products, unit, name="%s⊗%s" % (A.name, B.name))


def lie_tensor_pair_scan(g: LieSuperAlgebra, R: SuperAlgebra) -> dict:
    """Bracket table of g(x)R, [x(x)a, y(x)b] = (-1)^{|a||y|}[x,y](x)ab,
    every coordinate pair (a, b) visited for each key of g's table and for
    its mirror, products accumulated into their target keys, and the table
    handed through upper_half."""
    dR = R.dim
    brackets = {}
    mirrored = (((i, j), (j, i)) if i != j else ((i, j),) for i, j in g.brackets)
    full = ((k, g.bracket_basis(*k)) for keys in mirrored for k in keys)
    for (i, j), tbl in full:
        for a in range(dR):
            for b in range(dR):
                ab = R.products.get((a, b))
                if not ab:
                    continue
                sign = -1 if (R.space.parities[a] and g.space.parities[j]) else 1
                out = {}
                for t, c in tbl.items():
                    for s, cr in ab.items():
                        v = c * cr
                        if sign < 0:
                            v = -v
                        key = t * dR + s
                        cur = out.get(key)
                        if cur is None:
                            out[key] = v
                        else:
                            nv = cur + v
                            if nv:
                                out[key] = nv
                            else:
                                del out[key]
                out = in_field(out, g.field)
                if out:
                    brackets[(i * dR + a, j * dR + b)] = out
    gpar, rpar = g.space.parities, R.space.parities
    parities = [(gpar[t // dR] + rpar[t % dR]) % 2 for t in range(g.dim * dR)]
    return upper_half(brackets, parities, g.field)


# ------------------------------------------------------- cyclic side

def expected_psq_dims(R: SuperAlgebra) -> GradedDim:
    """R plus the parity-shifted HC1(R): the cyclic side of psq-central."""
    return R.space.graded_dim + hc1(R).graded_dim.swap()
