"""Lie superalgebras from structure constants, and the queer family.

Brackets are sparse tables brackets[(i, j)] = coordinates of [e_i, e_j]
that hold each pair once: only keys with i <= j, and i == j only for an odd
e_i.  [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j] is read off the key (i, j),
reduced mod p over F_p, so every table is super antisymmetric by
construction, and LieSuperAlgebra raises StructureError on any other key.
The queer Lie superalgebra q_n(R) over a coordinate superalgebra R is built
from the closed bracket formulas on the generators u_ij(a) (parity |a|) and
w_ij(a) (parity |a|+1), and checked against its block realization in
gl_{n|n}(R),

    u_ij(a) = E_ij(a) + (-1)^{|a|} E_{n+i,n+j}(a)
    w_ij(a) = E_{i,n+j}(a) + (-1)^{|a|} E_{n+i,j}(a),

as a VerifiedHomomorphism: unless it preserves every bracket exactly, the
construction aborts.  gl_{m|n}(R) has one form, GlRule, the matrix-unit
rule evaluated from R's products, which build_gl returns: it is the target
of that check and of the isomorphisms into gl, and the ambient algebra of
the traceless block algebra, and no gl bracket table is built.
VerifiedHomomorphism.verify is the one place that compares a linear map
with two bracket tables or rules.  Where the map preserves parity it
compares each unordered pair once; otherwise, or where a pair differs, it
compares every ordered pair.  sq_n(R) is characterized as {(A,B) : tr B in
[R,R]} and must coincide with the derived subalgebra of q_n(R) for n >= 2;
that trace condition and build_sl's {X : tr X in [S,S]} are one rule,
_trace_rule, placed at the w-block or at gl's entries.

The builders of the three H2 inputs (build_sq_lie, build_psq_lie,
build_block_lie) return (algebra, torus), the diagonal torus of q read in
the algebra's basis inside the builder.  No algebra carries its ambient, so
q_n(R) and its table are freed when a builder returns.

A bracket with a basis vector is read off the table: LieSuperAlgebra.ad(x,
b) gives [x, e_b] key by key (torus weights, ad_S-closures, quotient_lie's
ideal check).  The scans of other vectors (verify, induced_lie) bracket a
row at a time: bracket_row(x, index, first), a method of LieSuperAlgebra
and GlRule, gives [x, columns[j]] for every j >= first with a nonzero
bracket, from one join of x's entries with a column_index of the columns'
entries built once per scan.  A table joins through each key (r, s) from
both ends, the mirror with its sign; GlRule joins E_ij(a) with the column
entries E_jl(b) and E_ki(b) for the b that R's product keys pair with a.
induced_lie brackets row a only with the rows b >= a, so its table, like
quotient_lie's (g's keys off the ideal's pivots) and the q formula table,
is the i <= j half of the all-pairs scan's, key order included.  The q
formula table visits only the partners with j == k or l == i and the b
with ab or ba a product key.
lie_tensor keeps the i <= j keys of algebras.koszul_tensor, the one Koszul
sign rule.

Each table builder (the q formula, induced_lie, quotient_lie and
koszul_tensor) pools its values while it builds one table, through
linalg.pooled: equal values of that table are one dict object, so a table
holds each distinct bracket once however many keys share it.  Stored values
are therefore shared and read-only; nothing in the package changes one in
place, and a caller that wants another value stores a new dict.

The super Jacobi convention used throughout:
(-1)^{|x||z|}[x,[y,z]] + (-1)^{|y||x|}[y,[z,x]] + (-1)^{|z||y|}[z,[x,y]] = 0.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import chain

from .algebras import SuperAlgebra, build_q1, commutator_subspace, koszul_tensor, tensor
from .linalg import (
    Echelon,
    GradedDim,
    GradedSpace,
    GradingError,
    Subspace,
    add_scaled,
    in_field,
    linear_apply,
    pooled,
)
from .scalars import ScalarError


class StructureError(ValueError):
    """A would-be Lie algebra fails an exact structural identity."""


class LieSuperAlgebra:
    """A Lie superalgebra given by its bracket table over field, each pair
    once (module docstring): any other key raises StructureError.

    The algebra takes ownership of the inner dicts of the table it is given:
    empty values are dropped, the others are kept as they are, not copied,
    so each table is held once.  _q_formula_brackets, induced_lie,
    quotient_lie, and koszul_tensor through lie_tensor each hand over a
    freshly built table whose equal values are one shared dict (module
    docstring): the values are read-only.
    """

    def __init__(self, field, space: GradedSpace, brackets: dict, name=""):
        self.field = field
        self.space = space
        self.brackets = {k: v for k, v in brackets.items() if v}
        self.name = name or "lie"
        par = space.parities
        for i, j in self.brackets:
            if i > j or (i == j and not par[i]):
                raise StructureError("bracket key (%d, %d): need i < j, or i == j odd" % (i, j))

    @property
    def dim(self):
        return self.space.dim

    def bracket_basis(self, i: int, j: int) -> dict:
        if i <= j:
            return self.brackets.get((i, j), {})
        tbl = self.brackets.get((j, i), {})
        if self.space.parities[i] and self.space.parities[j]:
            return tbl
        p = self.field.characteristic
        return {t: -c % p if p else -c for t, c in tbl.items()}

    def ad(self, x: dict, b: int) -> dict:
        """[x, e_b] for a vector x, read key by key off the table: a key
        stored as (b, r) puts -(-1)^{|r||b|} on x's coefficient, so no stored
        value is copied; the sum is exact and reduced into the field once."""
        brackets, par = self.brackets, self.space.parities
        odd_b = par[b]
        out = {}
        for r, c in x.items():
            if r <= b:
                tbl = brackets.get((r, b))
            else:
                tbl = brackets.get((b, r))
                if not (odd_b and par[r]):
                    c = -c
            if tbl:
                add_scaled(out, tbl, c)
        return in_field(out, self.field) if self.field.characteristic else out

    def column_index(self, columns):
        """The index bracket_row joins against: for each r, one (hits, tbl,
        sign) per key (r, s) or (s, r) whose s some column has, with [e_r,
        e_s] = sign tbl and hits the (j, columns[j][s]) in increasing j."""
        holders = {}
        for j, col in enumerate(columns):
            for s, v in col.items():
                holders.setdefault(s, []).append((j, v))
        par = self.space.parities
        index = {}
        for (r, s), tbl in self.brackets.items():
            hits = holders.get(s)
            if hits:
                index.setdefault(r, []).append((hits, tbl, 1))
            if r != s:
                hits = holders.get(r)
                if hits:
                    index.setdefault(s, []).append((hits, tbl, 1 if par[r] and par[s] else -1))
        return index

    def bracket_row(self, x: dict, index, first=0) -> dict:
        """{j: [x, columns[j]]} for each j >= first with a nonzero bracket,
        index = column_index(columns): one join of x's entries with the
        table keys and the columns' entries, no pair evaluated apart."""
        row = defaultdict(dict)
        for r, c in x.items():
            for hits, tbl, sign in index.get(r, ()):
                for j, v in hits:
                    if j >= first:
                        add_scaled(row[j], tbl, c * v if sign > 0 else -(c * v))
        return _finish_row(row, self.field)

    def __repr__(self):
        return "<LieSuperAlgebra %s %s>" % (self.name, self.space.graded_dim)


def _finish_row(row: dict, field) -> dict:
    """The row of a bracket_row join, each bracket summed exactly by
    add_scaled, with its values reduced into field once and its zero
    brackets dropped."""
    if field.characteristic:
        return {j: vec for j, out in row.items() if (vec := in_field(out, field))}
    return {j: out for j, out in row.items() if out}


# ------------------------------------------------------------------ gl and q

class GlRule:
    """gl_{m|n}(R) as the matrix-unit rule, answered from R's products and
    the block parities without a bracket table:

        [E_ij(a), E_kl(b)] = d_jk E_il(ab) - (-1)^{|E_ij(a)||E_kl(b)|} d_li E_kj(ba),

    with |E_ij(a)| = |i| + |j| + |a| and |i| = 0 for i <= m.  The rule
    answers where a LieSuperAlgebra is read as a target or an ambient
    algebra (space, field, column_index and bracket_row).  It carries its
    name, its coordinate algebra coord with its dimension coord_dim, and
    its size m + n.
    """

    def __init__(self, m: int, n: int, R: SuperAlgebra):
        if m < 0 or n < 0 or m + n < 1:
            raise ValueError("need m + n >= 1")
        N = m + n
        self.name = "gl(%d|%d;%s)" % (m, n, R.name)
        self.coord = R
        dR = R.dim
        rpar = R.space.parities
        labels = []
        parities = []
        self.entries = []  # index -> (i, j, a), positions 0-based
        for i in range(N):
            for j in range(N):
                for a in range(dR):
                    labels.append("E[%d,%d](%s)" % (i + 1, j + 1, R.space.labels[a]))
                    parities.append(((i >= m) + (j >= m) + rpar[a]) % 2)
                    self.entries.append((i, j, a))
        self.space = GradedSpace(labels, parities)
        self.parities = self.space.parities
        self.field = R.field
        self.size = N
        self.coord_dim = dR
        # right[a]: the (b, ab) with ab = e_a e_b a product key of R;
        # left[a]: the (b, ba) with ba = e_b e_a one
        self.right = [[] for _ in range(dR)]
        self.left = [[] for _ in range(dR)]
        for (a, b), tbl in sorted(R.products.items()):
            self.right[a].append((b, tbl))
            self.left[b].append((a, tbl))

    @property
    def dim(self):
        return self.space.dim

    def entry_index(self, i: int, j: int, r: int) -> int:
        """The index of E_ij(e_r), positions 1-based."""
        return ((i - 1) * self.size + (j - 1)) * self.coord_dim + r

    def column_index(self, columns):
        """The index bracket_row joins against: each entry E_kl(b) = v of
        columns[j], as (j, l dR, v) under its (matrix row, R coordinate)
        (k, b) and as (j, k N dR, v, |E_kl(b)|) under its (matrix column,
        R coordinate) (l, b), in increasing j; a key (k, b) is k dR + b."""
        N, dR = self.size, self.coord_dim
        entries, par = self.entries, self.parities
        by_row, by_col = {}, {}
        for j, col in enumerate(columns):
            for y, v in col.items():
                k, l, b = entries[y]
                by_row.setdefault(k * dR + b, []).append((j, l * dR, v))
                by_col.setdefault(l * dR + b, []).append((j, k * N * dR, v, par[y]))
        return by_row, by_col

    def bracket_row(self, x: dict, index, first=0) -> dict:
        """{j: [x, columns[j]]} for each j >= first with a nonzero bracket,
        index = column_index(columns).  An entry E_ij(a) of x meets the
        entries E_jl(b) with b in right[a] (the d_jk term) and E_ki(b) with
        b in left[a] (the d_li term), so one join replaces every per-pair
        evaluation of the rule."""
        by_row, by_col = index
        N, dR = self.size, self.coord_dim
        entries, par = self.entries, self.parities
        row = defaultdict(dict)
        for e, c in x.items():
            i, j, a = entries[e]
            odd = par[e]
            i_row, j_col = i * N * dR, j * dR
            for b, ab in self.right[a]:
                for jj, l_col, v in by_row.get(j * dR + b, ()):
                    if jj >= first:
                        add_scaled(row[jj], ab, c * v, i_row + l_col)
            for b, ba in self.left[a]:
                for jj, k_row, v, odd_y in by_col.get(i * dR + b, ()):
                    if jj >= first:
                        s = c * v
                        add_scaled(row[jj], ba, s if odd and odd_y else -s, k_row + j_col)
        return _finish_row(row, self.field)


def build_gl(m: int, n: int, R: SuperAlgebra) -> GlRule:
    """gl_{m|n}(R), the one constructor of gl: its matrix-unit rule."""
    return GlRule(m, n, R)


class _QIndex:
    """Index bookkeeping for q_n(R): u-block then w-block."""

    def __init__(self, n, dR):
        self.n = n
        self.dR = dR

    def u(self, i, j, r):
        return ((i - 1) * self.n + (j - 1)) * self.dR + r

    def w(self, i, j, r):
        return self.n * self.n * self.dR + ((i - 1) * self.n + (j - 1)) * self.dR + r

    def unpack(self, t):
        block = self.n * self.n * self.dR
        kind = "u" if t < block else "w"
        t = t % block
        r = t % self.dR
        ij = t // self.dR
        return kind, ij // self.n + 1, ij % self.n + 1, r


def _q_formula_brackets(n: int, R: SuperAlgebra) -> dict:
    """The closed bracket formulas of q_n(R) as one matrix-unit rule.

    [x_ij(a), y_kl(b)] = s1 d_jk z_il(ab) + s2 d_il z_kj(ba) with (z, s1, s2)
    = (u, 1, -e) for [u,u], (w, 1, -e) for [u,w] and (u, f, fe) for [w,w],
    where e = (-1)^{|a||b|} and f = (-1)^{|b|}.  Only partners with j == k
    or l == i, and b with ab or ba a product key, are visited, in full-scan
    order, and only the keys x <= y are kept: every [u,w], and the [u,u] and
    [w,w] whose (i, j, a) comes no later than (k, l, b).  ab, ba, e and f are
    looked up once per (a, b), and indices are 0-based, u_ij(r) at
    (i n + j) dR + r and w_ij(r) one block further.  Each bracket is summed
    exactly by add_scaled, then reduced once.  A bracket depends only on
    (a, b), its kind and the positions il and kj, not on j where only il
    is set, nor on i where only kj is: it is made and pooled once for each
    of those and read back for the other keys.
    """
    dR = R.dim
    rpar = R.space.parities
    p = R.field.characteristic
    products = R.products
    block = n * n * dR
    partners = [set() for _ in range(dR)]
    for a, b in products:
        partners[a].add(b)
        partners[b].add(a)
    pairs = []
    for a in range(dR):
        row = []
        for b in sorted(partners[a]):
            e = -1 if (rpar[a] and rpar[b]) else 1
            f = -1 if rpar[b] else 1
            uw = ((0, block, block, 1, -e),)
            kinds = ((0, 0, 0, 1, -e), uw[0], (block, block, 0, f, f * e))
            row.append((b, products.get((a, b), {}), products.get((b, a), {}), kinds, uw))
        pairs.append(row)
    brackets = {}
    pool = {}
    made = {}  # (a, b, dx, dy, il, kj) -> the pooled value; dx, dy tell the kind
    for i in range(n):
        for j in range(n):
            for a in range(dR):
                x = (i * n + j) * dR + a
                for k in range(n):
                    for l in range(n) if k == j else (i,):
                        y = (k * n + l) * dR
                        il = (i * n + l) * dR if j == k else None
                        kj = (k * n + j) * dR if i == l else None
                        for b, ab, ba, kinds, uw in pairs[a]:
                            for dx, dy, dz, s1, s2 in kinds if x <= y + b else uw:
                                src = (a, b, dx, dy, il, kj)
                                out = made.get(src)
                                if out is None:
                                    out = {}
                                    if il is not None:
                                        add_scaled(out, ab, s1, dz + il)
                                    if kj is not None:
                                        add_scaled(out, ba, s2, dz + kj)
                                    if p:
                                        out = in_field(out, R.field)
                                    out = made[src] = pooled(pool, out)
                                if out:
                                    brackets[(dx + x, dy + y + b)] = out
    return brackets


class QueerLie(LieSuperAlgebra):
    """q_n(R) with basis u_ij(a), w_ij(a) and the formula table, carrying
    n as block_n, R as coord and its index bookkeeping as qindex."""

    def __init__(self, n: int, R: SuperAlgebra):
        if n < 1:
            raise ValueError("need n >= 1")
        rpar = R.space.parities
        labels = []
        parities = []
        for kind in ("u", "w"):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for r in range(R.dim):
                        labels.append("%s[%d,%d](%s)" % (kind, i, j, R.space.labels[r]))
                        parities.append(rpar[r] if kind == "u" else (rpar[r] + 1) % 2)
        space = GradedSpace(labels, parities)
        super().__init__(R.field, space, _q_formula_brackets(n, R), name="q(%d;%s)" % (n, R.name))
        self.block_n = n
        self.coord = R
        self.qindex = _QIndex(n, R.dim)


def build_q(n: int, R: SuperAlgebra) -> QueerLie:
    """q_n(R), checked against gl.

    The formula table is checked as a VerifiedHomomorphism into gl_{n|n}(R)
    along the block realization (module docstring), with the rule
    build_gl(n, n, R) as the target: the check reads only the formula table
    and R's products.  The map is injective, so it preserves every
    bracket exactly when the two sides agree; otherwise StructureError
    names the first pair where they differ.
    """
    g = QueerLie(n, R)
    rpar = R.space.parities
    rule = build_gl(n, n, R)
    idx = rule.entry_index
    one = R.field.one
    cols = []
    for t in range(g.dim):
        kind, i, j, r = g.qindex.unpack(t)
        sgn = R.field.from_int(-1 if rpar[r] else 1)
        if kind == "u":
            cols.append({idx(i, j, r): one, idx(n + i, n + j, r): sgn})
        else:
            cols.append({idx(i, n + j, r): one, idx(n + i, j, r): sgn})
    hom = VerifiedHomomorphism(g, rule, cols)
    if not hom.bracket_preserving:
        raise StructureError(
            "structure constants disagree with the block realization: %s" % hom.failures[0]
        )
    return g


# --------------------------------------------------------- derived pieces

def derived_subalgebra(g: LieSuperAlgebra) -> Subspace:
    """Canonical span of all brackets [g, g]."""
    brackets = (tbl for _, tbl in sorted(g.brackets.items()))
    return Subspace.from_vectors(g.space, brackets, g.field)


def induced_lie(g: LieSuperAlgebra, sub: Subspace, name="") -> LieSuperAlgebra:
    """Lie structure on a bracket-closed subspace of g, a LieSuperAlgebra
    or a GlRule, in the subspace's canonical basis.

    The table is {(a, b): [x_a, x_b] for b >= a} over the canonical rows
    x, from one g.bracket_row of each x_a against a column_index of the
    rows, each bracket read by Subspace.coords_of and the readings pooled;
    StructureError where one lies outside sub.
    """
    if sub.space != g.space:
        raise ValueError("subspace is not inside the algebra")
    rows = sub.rows
    labels = tuple(g.space.labels[pc] for pc in sub.pivot_cols)
    parities = tuple(g.space.parity_of_vec(r) for r in rows)
    space = GradedSpace(labels, parities)
    index = g.column_index(rows)
    brackets = {}
    pool = {}
    for a, x in enumerate(rows):
        row = g.bracket_row(x, index, a)
        for b in sorted(row):
            coords = sub.coords_of(row[b])
            if coords is None:
                raise StructureError("subspace is not closed under the bracket")
            brackets[(a, b)] = pooled(pool, coords)
    del index, pool  # freed before the algebra filters its own copy of the table
    return LieSuperAlgebra(g.field, space, brackets, name=name or "sub(%s)" % g.name)


def is_perfect(g: LieSuperAlgebra) -> bool:
    return derived_subalgebra(g).dim == g.dim


def _trace_rule(R: SuperAlgebra, n: int, index):
    """Vectors spanning {X in gl_n(R) : tr X in [R,R]}, with the entry
    X_ij = e_r at coordinate index(i, j, r): the off-diagonal units, the
    differences E_ii(e_r) - E_11(e_r) for i >= 2, and E_11(c) for each row c
    of [R,R].  They are independent, (n-1) dim R + dim [R,R] of them, and
    every diagonal with trace in [R,R] is E_11 of its trace plus a sum of
    the differences, so they span the condition exactly."""
    one = R.field.one
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                for r in range(R.dim):
                    yield {index(i, j, r): one}
    for i in range(2, n + 1):
        for r in range(R.dim):
            yield {index(i, i, r): one, index(1, 1, r): -one}
    for c in commutator_subspace(R).rows:
        yield {index(1, 1, r): v for r, v in c.items()}


def build_sq_by_characterization(n: int, R: SuperAlgebra, q: LieSuperAlgebra) -> Subspace:
    """{(A,B) in q = q_n(R) : tr B in [R,R]} as a canonical subspace of q.

    For n >= 2 it is compared with the derived subalgebra of q, as
    canonical subspaces; StructureError if they differ.
    """
    qi = q.qindex
    one = q.field.one
    ij = range(1, n + 1)
    units = ({qi.u(i, j, r): one} for i in ij for j in ij for r in range(R.dim))
    sub = Subspace.from_vectors(q.space, chain(units, _trace_rule(R, n, qi.w)), q.field)
    if n >= 2:
        if sub != derived_subalgebra(q):
            raise StructureError("trace characterization differs from the derived subalgebra")
    return sub


def _sq_graded_dim(n: int, gd: GradedDim, comm: GradedDim) -> GradedDim:
    """Graded dimension of sq_n(R) for R of graded dimension gd and [R,R]
    of comm.

    The u-block is all of gl_n(R).  The w-block has parity shifted by one:
    its n^2 - n off-diagonal entries are free, and its diagonal is n copies
    of R with trace in [R,R], which leaves (n - 1) copies plus [R,R].
    """
    a, b = gd
    c, d = comm
    w = GradedDim((n * n - 1) * a + c, (n * n - 1) * b + d)
    return GradedDim(n * n * a, n * n * b) + w.swap()


def sq_graded_dim(n: int, R: SuperAlgebra) -> GradedDim:
    """Graded dimension of sq_n(R), from n and R alone."""
    return _sq_graded_dim(n, R.space.graded_dim, commutator_subspace(R).graded_dim)


def diagonal_torus(q: QueerLie) -> list:
    """h_k = u_kk(1) for k = 1..n in the coordinates of q = q_n(R)."""
    unit = q.coord.unit
    return [{q.qindex.u(k, k, r): v for r, v in unit.items()} for k in range(1, q.block_n + 1)]


def _torus_in(sub: Subspace, torus: list) -> list:
    """The torus elements, vectors of sub's ambient space, in the canonical
    basis of sub; StructureError if one lies outside it."""
    coords = [sub.coords_of(h) for h in torus]
    if None in coords:
        raise StructureError("torus element lies outside the algebra")
    return coords


def _sq_parts(n: int, R: SuperAlgebra):
    """(q = q_n(R), its trace-characterized subspace sub, sq_n(R) =
    induced_lie(q, sub), the diagonal torus of q in sq's basis)."""
    q = build_q(n, R)
    sub = build_sq_by_characterization(n, R, q)
    sq = induced_lie(q, sub, name="sq(%d;%s)" % (n, R.name))
    return q, sub, sq, _torus_in(sub, diagonal_torus(q))


def build_sq_lie(n: int, R: SuperAlgebra):
    """(sq_n(R) in its canonical basis, the diagonal torus of q_n(R) in that
    basis as a list).  Nothing returned refers to q_n(R)."""
    _, _, sq, torus = _sq_parts(n, R)
    return sq, torus


def build_psq_lie(n: int, R: SuperAlgebra):
    """(psq_n(R) = sq_n(R) / (scalar multiples of the identity block), the
    diagonal torus of q_n(R) projected into its basis), for supercommutative
    R."""
    if commutator_subspace(R).dim != 0:
        raise ValueError("the central quotient needs supercommutative coordinates")
    q, sub, sq, torus = _sq_parts(n, R)
    one = R.field.one
    ideal_vecs = []
    for r in range(R.dim):
        vec = {q.qindex.u(i, i, r): one for i in range(1, n + 1)}
        coords = sub.coords_of(vec)
        if coords is None:
            raise ValueError("identity block is not inside the derived algebra")
        ideal_vecs.append(coords)
    ideal = Subspace.from_vectors(sq.space, ideal_vecs, sq.field)
    psq, project = quotient_lie(sq, ideal, name="psq(%d;%s)" % (n, R.name))
    return psq, [project(h) for h in torus]


def psq_graded_dim(n: int, R: SuperAlgebra) -> GradedDim:
    """Graded dimension of psq_n(R): sq_n(R) minus the identity block R."""
    return sq_graded_dim(n, R) - R.space.graded_dim


def block_graded_dim(n: int, S: SuperAlgebra) -> GradedDim:
    """Graded dimension of the traceless block algebra over S, which is
    sq_n(T) for T = S(x)Q1, from n and S alone: T is never built.

    T = S(x)1 + S(x)nu, and [T,T] = S(x)1 + [S,S](x)nu: [a(x)1, b(x)nu] =
    [a,b](x)nu, [a(x)nu, b(x)nu] lies in S(x)1, and [a(x)nu, 1(x)nu] = 2a(x)1,
    with 2 invertible in every admissible field.  a(x)nu has parity |a| + 1.
    """
    gd = S.space.graded_dim
    return _sq_graded_dim(n, gd + gd.swap(), gd + commutator_subspace(S).graded_dim.swap())


def build_block_lie(hom):
    """(the traceless block algebra over S, the image of sq_n(S(x)Q1) under
    hom = iso_qQ1_to_glnn(n, S); the image of the diagonal torus of
    hom.source in its basis, as a list)."""
    q, gl = hom.source, hom.target
    n = q.block_n
    sub = hom.map_subspace(build_sq_by_characterization(n, q.coord, q))
    sl = induced_lie(gl, sub, name="sl(%d|%d;%s)" % (n, n, gl.coord.name))
    return sl, _torus_in(sub, [hom.apply(h) for h in diagonal_torus(q)])


def build_sl(gl: GlRule) -> Subspace:
    """{X in gl : tr X in [S,S]} as a canonical subspace of gl = build_gl(n, 0, S)."""
    S = gl.coord
    return Subspace.from_vectors(gl.space, _trace_rule(S, gl.size, gl.entry_index), S.field)


# ------------------------------------------------------------ homomorphisms

MAX_FAILURES = 20  # bracket failure messages kept; bracket_preserving sees every pair


class VerifiedHomomorphism:
    """A graded linear map between Lie superalgebras over one field, with
    recomputed flags.  The target is a LieSuperAlgebra or a GlRule.

    columns[i] is the image of e_i.  The column dicts are kept as they are,
    not copied, as LieSuperAlgebra keeps its table: build_q, iso_q_to_gl,
    iso_qQ1_to_glnn and loop-iso each hand over fresh ones.
    """

    def __init__(self, source: LieSuperAlgebra, target, columns, name=""):
        if source.field != target.field:
            raise ValueError("mixed fields")
        self.source = source
        self.target = target
        self.columns = list(columns)
        self.name = name or "hom"
        self.failures = []
        self.parity_preserving = None
        self.bracket_preserving = None
        self.injective = None
        self.surjective = None
        self.verify()

    def apply(self, vec: dict) -> dict:
        return linear_apply(self.columns, vec, self.target.field)

    def verify(self):
        """Recompute the four flags, listing failures in (i, j) order.

        The bracket check takes, for each i, the target's bracket_row of
        col_i against the columns, one join built on one column_index, and
        compares it with apply([e_i, e_j]) for the j of that row and the j
        with (i, j) or (j, i) a key of the source table.  Outside them
        apply([e_i, e_j]) and [col_i, col_j] are both empty, so the check is
        exact.

        When the map preserves parity, the rows start at j = i: both sides
        are super antisymmetric (a table by construction, GlRule by its
        rule), so both sides of the pairs (j, i) with j > i are those of
        (i, j) times -(-1)^{|i||j|}, and they agree exactly when the pair
        (i, j) does.  Otherwise, and whenever a compared pair differs, the
        rows are taken again from j = 0, and that scan of every pair lists
        the failures.
        """
        src, tgt, cols = self.source, self.target, self.columns
        self.failures = []
        ok_par = True
        for i, col in enumerate(cols):
            if not col:
                continue
            try:
                p = tgt.space.parity_of_vec(col)
            except GradingError:
                ok_par = False
                self.failures.append("image of %s mixes parities" % src.space.labels[i])
                continue
            if p != src.space.parities[i]:
                ok_par = False
                self.failures.append("image of %s flips parity" % src.space.labels[i])
        self.parity_preserving = ok_par
        src_partners = [[] for _ in range(src.dim)]
        for x, y in src.brackets:
            src_partners[x].append(y)
            if x != y:
                src_partners[y].append(x)
        index = tgt.column_index(cols)

        def differing(upper):
            # each (i, j) with apply([e_i, e_j]) != [col_i, col_j], in (i, j) order
            for i in range(src.dim):
                first = i if upper else 0
                row = tgt.bracket_row(cols[i], index, first)
                js = set(row)
                js.update(j for j in src_partners[i] if j >= first)
                for j in sorted(js):
                    if self.apply(src.bracket_basis(i, j)) != row.get(j, {}):
                        yield i, j

        passed = False
        if ok_par:
            passed = next(differing(upper=True), None) is None
        ok_br = True
        if not passed:
            for i, j in differing(upper=False):
                ok_br = False
                if len(self.failures) < MAX_FAILURES:
                    self.failures.append(
                        "bracket not preserved on (%s, %s)"
                        % (src.space.labels[i], src.space.labels[j])
                    )
        self.bracket_preserving = ok_br
        ech = Echelon(tgt.field)
        for col in cols:
            ech.insert(col)
        self.injective = ech.rank == src.dim
        self.surjective = ech.rank == tgt.dim
        return self

    @property
    def is_isomorphism(self):
        return (
            self.parity_preserving
            and self.bracket_preserving
            and self.injective
            and self.surjective
        )

    def map_subspace(self, sub: Subspace) -> Subspace:
        vecs = [self.apply(r) for r in sub.rows]
        return Subspace.from_vectors(self.target.space, vecs, self.target.field)

    def __repr__(self):
        return "<VerifiedHomomorphism %s: iso=%s>" % (self.name, self.is_isomorphism)


def iso_q_to_gl(n: int, R: SuperAlgebra) -> VerifiedHomomorphism:
    """q_n(R) -> gl_n(R(x)Q1): u_ij(a) -> E_ij(a(x)1), w_ij(a) -> E_ij(a(x)nu)."""
    q = build_q(n, R)
    S = tensor(R, build_q1(R.field))
    gl = build_gl(n, 0, S)
    one = R.field.one
    cols = []
    for t in range(q.dim):
        kind, i, j, r = q.qindex.unpack(t)
        s = r * 2 + (0 if kind == "u" else 1)
        cols.append({gl.entry_index(i, j, s): one})
    return VerifiedHomomorphism(q, gl, cols, name="q%d(%s)->gl%d(%s)" % (n, R.name, n, S.name))


def iso_qQ1_to_glnn(n: int, R: SuperAlgebra) -> VerifiedHomomorphism:
    """q_n(R(x)Q1) -> gl_{n|n}(R), needs a square root of -1 in the field."""
    field = R.field
    i_val = field.sqrt_minus_one()
    if i_val is None:
        raise ScalarError("field %s has no square root of -1" % field.name)
    S = tensor(R, build_q1(field))
    q = build_q(n, S)
    gl = build_gl(n, n, R)
    one = field.one
    rpar = R.space.parities
    cols = []
    for t in range(q.dim):
        kind, i, j, s = q.qindex.unpack(t)
        r, nu_part = divmod(s, 2)
        sgn = field.from_int(-1 if rpar[r] else 1)
        if kind == "u" and nu_part == 0:
            col = {gl.entry_index(i, j, r): one, gl.entry_index(n + i, n + j, r): sgn}
        elif kind == "u" and nu_part == 1:
            col = {gl.entry_index(i, n + j, r): one, gl.entry_index(n + i, j, r): sgn}
        elif kind == "w" and nu_part == 0:
            col = {
                gl.entry_index(i, n + j, r): -i_val,
                gl.entry_index(n + i, j, r): i_val * sgn,
            }
        else:
            col = {
                gl.entry_index(i, j, r): i_val,
                gl.entry_index(n + i, n + j, r): -(i_val * sgn),
            }
        cols.append(in_field(col, field))
    return VerifiedHomomorphism(q, gl, cols, name="q%d(%s)->gl(%d|%d;%s)" % (n, S.name, n, n, R.name))


def lie_tensor(g: LieSuperAlgebra, R: SuperAlgebra) -> LieSuperAlgebra:
    """g (x) R for supercommutative R: [x(x)a, y(x)b] = (-1)^{|a||y|}[x,y](x)ab."""
    if commutator_subspace(R).dim != 0:
        raise ValueError("lie_tensor needs supercommutative coordinates")
    if g.field != R.field:
        raise ValueError("mixed fields")
    space, brackets = koszul_tensor(g.space, g.brackets, R.space, R.products, g.field)
    upper = {k: v for k, v in brackets.items() if k[0] <= k[1]}
    return LieSuperAlgebra(g.field, space, upper, name="%s⊗%s" % (g.name, R.name))


def quotient_lie(g: LieSuperAlgebra, ideal: Subspace, name=""):
    """Quotient by a graded ideal: (the quotient algebra, project), project
    sending a vector of g to the coordinates of its class.

    The ideal property is checked exactly first: g.ad(x, i) = [x, e_i] =
    -(-1)^{|x||i|} [e_i, x] for each of the ideal's rows x and each index
    i, and a failure names the i of the first failing (row, i).  An ideal
    that mixes parities is refused next, with GradingError.  The basis is
    the classes of the e_c, c off the ideal's pivots, numbered from 0 in
    increasing c: the one place that renumbers those columns, as a
    LieSuperAlgebra's basis runs 0..dim-1.  project renumbers a vector's
    canonical representative (Subspace.reduce) so.  The table is g's keys
    between such c, in g's key order, each value projected and pooled.
    """
    for x in ideal.rows:
        for i in range(g.dim):
            if not ideal.contains(g.ad(x, i)):
                raise StructureError("subspace is not an ideal: fails at basis %d" % i)
    if not ideal.is_homogeneous():
        raise GradingError("quotient by a non-homogeneous subspace")
    pivots = set(ideal.pivot_cols)
    free = [c for c in range(g.dim) if c not in pivots]
    col_of = {c: i for i, c in enumerate(free)}
    space = GradedSpace(
        tuple(g.space.labels[c] for c in free), tuple(g.space.parities[c] for c in free)
    )

    def project(vec):
        return {col_of[c]: v for c, v in ideal.reduce(vec).items()}

    pool = {}
    brackets = {
        (col_of[r], col_of[s]): pooled(pool, project(tbl))
        for (r, s), tbl in g.brackets.items()
        if r in col_of and s in col_of
    }
    quotient = LieSuperAlgebra(g.field, space, brackets, name=name or "%s/ideal" % g.name)
    return quotient, project
