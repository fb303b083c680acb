"""Second homology of a finite-dimensional Lie superalgebra.

The complex is  L3 --d3--> L2 --d2--> g  with the super exterior powers

    L2 = L²g0 + g0(x)g1 + S²g1        basis: (i, j), i <= j, i = j only odd
    L3 = L³g0 + L²g0(x)g1 + g0(x)S²g1 + S³g1   basis: (i,j,k) sorted likewise

    d2(x^y)   = [x, y]
    d3(x^y^z) = [x,y]^z - (-1)^{|y||z|}[x,z]^y + (-1)^{|x|(|y|+|z|)}[y,z]^x

with x^y = -(-1)^{|x||y|} y^x.  H2 = ker d2 / im d3 is computed per parity
block; d2 o d3 = 0 is checked on every streamed d3 column.

Weight-zero reduction.  ce_h2 takes a torus: even elements h_1..h_r whose
adjoint action is diagonal on g's basis, checked exactly.  The weight of
a basis vector is the tuple of its eigenvalues, compared as field
elements, and the weight of a wedge is the sum over its factors.  Both
differentials preserve weight, and with e_h(c) = h ^ c the Cartan
homotopy d e_h + e_h d = ad h holds on chains, so ad h acts as zero on
homology.  On the weight-w block ad h is the scalar w(h); wherever that
is nonzero in the field, the block is acyclic.  So H2 is the homology of
the weight-zero subcomplex, and only that is built.  In characteristic p
a weight that is nonzero over Z may vanish, which keeps more chains and
is still exact.  Its H2 basis is the one of the full complex: the
canonical complement of the image inside the kernel splits by weight,
and the blocks of nonzero weight contribute nothing.  An empty torus
gives the full complex.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from math import comb

from .lie import LieSuperAlgebra, StructureError
from .linalg import Echelon, GradedDim, GradedSpace, SparseMatrix, kernel, vec_add_scaled


class BudgetExceeded(Exception):
    def __init__(self, lam3_dim, budget):
        super().__init__("degree-3 chain space dimension %d exceeds budget %d" % (lam3_dim, budget))
        self.lam3_dim = lam3_dim
        self.budget = budget


def lam2_dim_formula(gd: GradedDim) -> GradedDim:
    """Graded dimension of L2 for any g of graded dimension gd."""
    a, b = gd.even, gd.odd
    return GradedDim(comb(a, 2) + comb(b + 1, 2), a * b)


def lam3_dim_formula(gd: GradedDim) -> int:
    a, b = gd.even, gd.odd
    return comb(a, 3) + comb(a, 2) * b + a * comb(b + 1, 2) + comb(b + 2, 3)


def torus_weights(g: LieSuperAlgebra, torus) -> list:
    """Weight of each basis vector of g: its ad-eigenvalues on the torus.

    Raises StructureError unless every torus element is even and acts
    diagonally on the basis.
    """
    par = g.space.parities
    zero, one = g.field.zero, g.field.one
    weights = [[] for _ in range(g.dim)]
    for t, h in enumerate(torus):
        if any(par[k] for k in h):
            raise StructureError("torus element %d is not even" % t)
        for b in range(g.dim):
            img = g.bracket_coords(h, {b: one})
            weights[b].append(img.pop(b, zero))
            if img:
                raise StructureError(
                    "torus element %d does not act diagonally: [h, %s] leaves the line"
                    % (t, g.space.labels[b])
                )
    return [tuple(w) for w in weights]


class CEComplex:
    def __init__(self, g: LieSuperAlgebra, torus=()):
        self.g = g
        self.weights = torus_weights(g, torus)
        # Weights interned as small ids: _buckets[a] lists the basis indices
        # of weight a, _third[a][b] is the id of -(w_a + w_b) or None.
        ids = {}
        self.weight_id = [ids.setdefault(w, len(ids)) for w in self.weights]
        self._buckets = [[] for _ in ids]
        for b, a in enumerate(self.weight_id):
            self._buckets[a].append(b)
        self._third = [
            [ids.get(tuple(-(x + y) for x, y in zip(wa, wb))) for wb in ids] for wa in ids
        ]
        pair_zero = [[not any(x + y for x, y in zip(wa, wb)) for wb in ids] for wa in ids]
        wid = self.weight_id
        par = g.space.parities
        n = g.dim
        pairs = []
        for i in range(n):
            for j in range(i, n):
                if i == j and par[i] == 0:
                    continue
                pairs.append((i, j))
        pairs.sort(key=lambda t: (par[t[0]] + par[t[1]], t))
        self.pairs = pairs
        self.pair_pos = {t: k for k, t in enumerate(pairs)}
        labels = tuple(
            "%s∧%s" % (g.space.labels[i], g.space.labels[j]) for (i, j) in pairs
        )
        parities = tuple((par[i] + par[j]) % 2 for (i, j) in pairs)
        self.lam2 = GradedSpace(labels, parities)
        self.lam2_weight0 = [k for k, (i, j) in enumerate(pairs) if pair_zero[wid[i]][wid[j]]]
        self.lam3_dim = lam3_dim_formula(g.space.graded_dim)

    def wedge(self, t: int, c: int):
        """(index, sign) of e_t ^ e_c in the L2 basis, or None if zero."""
        par = self.g.space.parities
        if t == c:
            if par[t] == 0:
                return None
            return self.pair_pos[(t, t)], 1
        if t < c:
            return self.pair_pos[(t, c)], 1
        sign = 1 if (par[t] and par[c]) else -1
        return self.pair_pos[(c, t)], sign

    def d2_column(self, k: int) -> dict:
        i, j = self.pairs[k]
        return dict(self.g.bracket_basis(i, j))

    def iter_lam3(self):
        """Sorted triples (i, j, k); equalities only at odd indices."""
        par = self.g.space.parities
        n = self.g.dim
        for i in range(n):
            for j in range(i, n):
                if i == j and par[i] == 0:
                    continue
                for k in range(j, n):
                    if j == k and par[j] == 0:
                        continue
                    yield (i, j, k)

    def iter_lam3_weight0(self):
        """The weight-zero triples in iter_lam3 order; all of them for an empty torus."""
        par = self.g.space.parities
        n = self.g.dim
        wid = self.weight_id
        for i in range(n):
            third = self._third[wid[i]]
            for j in range(i, n):
                if i == j and par[i] == 0:
                    continue
                c = third[wid[j]]
                if c is None:
                    continue
                ks = self._buckets[c]
                for k in ks[bisect_left(ks, j):]:
                    if j == k and par[j] == 0:
                        continue
                    yield (i, j, k)

    def lam3_parity(self, t) -> int:
        par = self.g.space.parities
        return (par[t[0]] + par[t[1]] + par[t[2]]) % 2

    def d3_column(self, t) -> dict:
        i, j, k = t
        g = self.g
        par = g.space.parities
        one = g.field.one
        out = {}

        def add_wedge_scaled(tbl: dict, other: int, coeff):
            for s, v in tbl.items():
                w = self.wedge(s, other)
                if w is None:
                    continue
                pos, sgn = w
                val = v * coeff
                if sgn < 0:
                    val = -val
                cur = out.get(pos)
                if cur is None:
                    out[pos] = val
                else:
                    nv = cur + val
                    if nv:
                        out[pos] = nv
                    else:
                        del out[pos]

        add_wedge_scaled(g.bracket_basis(i, j), k, one)
        c = -one if (par[j] and par[k]) else one
        add_wedge_scaled(g.bracket_basis(i, k), j, -c)
        c = -one if (par[i] and ((par[j] + par[k]) % 2)) else one
        add_wedge_scaled(g.bracket_basis(j, k), i, c)
        return out

    def d2_matrix(self) -> SparseMatrix:
        entries = {}
        for k in range(self.lam2.dim):
            for r, v in self.d2_column(k).items():
                entries[(r, k)] = v
        return SparseMatrix(self.g.dim, self.lam2.dim, entries)

    def d3_matrix(self) -> SparseMatrix:
        entries = {}
        for k, t in enumerate(self.iter_lam3()):
            for r, v in self.d3_column(t).items():
                entries[(r, k)] = v
        return SparseMatrix(self.lam2.dim, self.lam3_dim, entries)


class H2Result:
    def __init__(self, dims: GradedDim, basis, stats: dict):
        self.dims = dims
        self.basis = basis  # list of (parity, vector in L2 coordinates)
        self.stats = stats

    def __repr__(self):
        return "<H2 %s>" % (self.dims,)


def ce_h2(g: LieSuperAlgebra, budget=None, torus=(), check_d2d3=True) -> H2Result:
    """H2(g) = ker d2 / im d3 with a canonical cycle basis per parity.

    Only the weight-zero subcomplex of `torus` is built (see the module
    docstring); the basis is in full L2 coordinates either way.  torus is
    an iterable of coordinate vectors of g, read after the budget check.
    budget caps the dimension of the full degree-3 chain space;
    BudgetExceeded is raised before any work.  d2 o d3 = 0 is asserted
    column by column unless check_d2d3 is false.
    """
    lam3_dim = lam3_dim_formula(g.space.graded_dim)
    if budget is not None and lam3_dim > budget:
        raise BudgetExceeded(lam3_dim, budget)
    torus = list(torus)
    cx = CEComplex(g, torus)
    torus_span = Echelon()
    for h in torus:
        torus_span.insert(h)
    field = g.field
    stats = {
        "lam2_dim": cx.lam2.dim,
        "lam3_dim": lam3_dim,
        "lam2_weight0_dim": len(cx.lam2_weight0),
        "torus_rank": torus_span.rank,
        "algebra_dim": [g.space.graded_dim.even, g.space.graded_dim.odd],
    }
    timings = {}
    h2_dims = []
    basis = []
    lam3_weight0_dim = 0
    for p in (0, 1):
        t0 = time.perf_counter()
        cols_p = [k for k in cx.lam2_weight0 if cx.lam2.parities[k] == p]
        pos_p = {k: c for c, k in enumerate(cols_p)}
        entries = {}
        for c, k in enumerate(cols_p):
            for r, v in cx.d2_column(k).items():
                entries[(r, c)] = v
        mat = SparseMatrix(g.dim, len(cols_p), entries)
        space_p = GradedSpace(
            tuple(cx.lam2.labels[k] for k in cols_p), tuple(p for _ in cols_p)
        )
        ker = kernel(mat, space_p, field)
        timings["kernel_parity%d" % p] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ech = Echelon()
        im_rank = 0
        for t in cx.iter_lam3_weight0():
            if cx.lam3_parity(t) != p:
                continue
            lam3_weight0_dim += 1
            col = cx.d3_column(t)
            if not col:
                continue
            if check_d2d3:
                acc = {}
                for k, v in col.items():
                    vec_add_scaled(acc, cx.d2_column(k), v)
                if acc:
                    raise AssertionError("d2 o d3 != 0 at triple %r" % (t,))
            try:
                col = {pos_p[k]: v for k, v in col.items()}
            except KeyError:
                raise AssertionError(
                    "d3 leaves the weight-zero subcomplex at triple %r" % (t,)
                ) from None
            if ech.insert(col):
                im_rank += 1
        timings["boundaries_parity%d" % p] = time.perf_counter() - t0
        t0 = time.perf_counter()
        residues = []
        for row in ker.rows:
            res = ech.reduce(dict(row))
            if res:
                residues.append(dict(res))
                ech.insert(res)
        rep_ech = Echelon()
        for res in residues:
            rep_ech.insert(res)
        reps = rep_ech.rref_rows()
        h2_dims.append(len(reps))
        if len(reps) != ker.dim - im_rank:
            raise AssertionError(
                "rank bookkeeping broke: %d homology classes vs kernel %d minus image %d"
                % (len(reps), ker.dim, im_rank)
            )
        stats["ker_rank_parity%d" % p] = ker.dim
        stats["im_rank_parity%d" % p] = im_rank
        for rep in reps:
            basis.append((p, {cols_p[c]: v for c, v in rep.items()}))
        timings["quotient_parity%d" % p] = time.perf_counter() - t0
    dims = GradedDim(h2_dims[0], h2_dims[1])
    stats["lam3_weight0_dim"] = lam3_weight0_dim
    stats["h2"] = [dims.even, dims.odd]
    stats["timings"] = timings
    return H2Result(dims, basis, stats)
