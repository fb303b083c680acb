"""Second homology of a finite-dimensional Lie superalgebra.

The complex is  L3 --d3--> L2 --d2--> g  with the super exterior powers

    L2 = L²g0 + g0(x)g1 + S²g1        basis: (i, j), i <= j, i = j only odd
    L3 = L³g0 + L²g0(x)g1 + g0(x)S²g1 + S³g1   basis: (i,j,k) sorted likewise

    d2(x^y)   = [x, y]
    d3(x^y^z) = [x,y]^z - (-1)^{|y||z|}[x,z]^y + (-1)^{|x|(|y|+|z|)}[y,z]^x

with x^y = -(-1)^{|x||y|} y^x.  H2 = ker d2 / im d3 is computed by one
elimination for both parities: d2 and d3 preserve parity, so every
canonical row lies in the parity of its pivot column.  The canonical H2
basis is read off L2 / im d3 by linalg.quotient_kernel, as cyclic.hc1
reads HC1 off <R,R>: each class by its canonical representative, in L2
coordinates.  Streaming the d3 columns into one echelon leaves
RREF(im d3), with pivot columns P and the others N.  d2 must kill every
row of it, which is d2 o d3 = 0 on the streamed columns (see the boundary
stream below); if a row fails, the streamed triples are rescanned for the
smallest whose column d2 does not kill.  As im d3 lies in ker d2, every
column of P is a pivot of RREF(ker d2) too, whose rows at its other pivots
are then zero on P and span ker d2 meet span(e_N): a complement of im d3
in ker d2 that depends only on the two subspaces, and the canonical kernel
of d2 on the columns N alone.  ker d2 itself is never spanned: in parity p
its dimension is dim L2_p minus that of the span of d2's columns, and dim
ker - dim im = dim H2 is a bookkeeping check.

Weight-zero reduction.  ce_h2 takes a torus: even elements h_1..h_r whose
adjoint action is diagonal on g's basis, checked exactly.  The weight of
a basis vector is the tuple of its eigenvalues, compared as field
elements, and the weight of a wedge is the sum over its factors.  Both
differentials preserve weight, and with e_h(c) = h ^ c the Cartan
homotopy d e_h + e_h d = ad h holds on chains, so ad h acts as zero on
homology.  On the weight-w block ad h is the scalar w(h); wherever that
is nonzero in the field, the block is acyclic.  So H2 is the homology of
the weight-zero subcomplex, and only that is built: CEComplex lists only
the weight-zero pairs of L2 and streams only the weight-zero triples.  In
characteristic p a weight that is nonzero over Z may vanish, which keeps
more chains and is still exact; weights are field values, so each sum and
negation of weights is reduced mod p before it is compared.  Its H2 basis
is the one of the full complex: the canonical complement of the image
inside the kernel splits by weight, and the blocks of nonzero weight
contribute nothing.  An empty torus gives the full complex.

The boundary stream.  If S generates g, then im d3 = d3(S ^ L2g).  With
i_x = x ^ - and theta_x the adjoint action on chains, the Cartan identities
theta_x = d i_x + i_x d and [theta_s, i_t] = i_[s,t] (Koszul signs
throughout), and theta commuting with d, give for s in S and any 3-chain b
theta_s d3(b) = d3(s ^ d3 b), as d2 d3 = 0: theta_s maps V = d3(S ^ L2g)
into itself.  So if d3(t ^ L2g) lies in V, so does d3([s,t] ^ w), which
is theta_s d3(t ^ w) minus or plus d3(t ^ theta_s w); the t with that
property contain S and are closed under [S, -], so they are all of g
(Chevalley-Eilenberg 1948; Fuks 1986, ch. 1).  S is made of basis
vectors, which are weight vectors, so the weight-zero image is spanned by
the weight-zero triples with a factor in S: the same subspace, the same
RREF and the same canonical H2 basis.  CEComplex.generating_set picks S
greedily from the bracket table by linalg.greedy_generators, the walk that
also picks cyclic.PairSpace's generators of R under left multiplication,
and iter_lam3_weight0 enumerates only those triples, from the weight
buckets; their number lam3_weight0_dim is counted from the buckets' graded
dimensions, not walked.

d3 of a triple (i, j, k) is zero unless one of the brackets [e_i, e_j],
[e_i, e_k], [e_j, e_k] is not, so ce_h2 calls d3_column only on the
streamed triples with a bracket key.  d3_column returns the column as
(L2 position, value) terms, read off the bracket table and a table of
wedges built once in one pass over the sorted L2 pairs, and the image
echelon reduces them term by term (linalg.Echelon.insert_terms): a column
is never formed, and most of them reduce to zero.  The table is the only
record of where e_s ^ e_c lands in L2; the basis labels of L2 are the
pairs themselves.

The row check so certifies J(s, y, z) = 0, for the super Jacobi sum
J(x, y, z) = d2 d3(x ^ y ^ z), on the weight-zero triples with a factor in
S.  With an empty torus that is all of super Jacobi: ad_s is a derivation
for every s in S, the x whose ad_x is a derivation form a subalgebra, and
S generates g.
"""
from __future__ import annotations

import time
from bisect import bisect_left
from itertools import chain
from math import comb

from .lie import LieSuperAlgebra, StructureError
from .linalg import (
    Echelon,
    GradedDim,
    GradedSpace,
    Subspace,
    add_scaled,
    greedy_generators,
    in_field,
    quotient_kernel,
)

_ZERO = {}  # d2_column's zero column, read only


def lam2_dim_formula(gd: GradedDim) -> GradedDim:
    """Graded dimension of L2 for any g of graded dimension gd."""
    a, b = gd.even, gd.odd
    return GradedDim(comb(a, 2) + comb(b + 1, 2), a * b)


def lam3_dim_formula(gd: GradedDim) -> int:
    a, b = gd.even, gd.odd
    return comb(a, 3) + comb(a, 2) * b + a * comb(b + 1, 2) + comb(b + 2, 3)


def torus_weights(g: LieSuperAlgebra, torus) -> list:
    """Weight of each basis vector of g: its ad-eigenvalues on the torus.

    [h, e_b] is g.ad(h, b), read off the table; raises StructureError
    unless every torus element is even and acts diagonally on the basis.
    """
    par = g.space.parities
    weights = [[] for _ in range(g.dim)]
    for t, h in enumerate(torus):
        if any(par[k] for k in h):
            raise StructureError("torus element %d is not even" % t)
        for b in range(g.dim):
            img = g.ad(h, b)
            weights[b].append(img.get(b, g.field.zero))
            if len(img) > (b in img):
                raise StructureError(
                    "torus element %d does not act diagonally: [h, %s] leaves the line"
                    % (t, g.space.labels[b])
                )
    return [tuple(w) for w in weights]


class CEComplex:
    def __init__(self, g: LieSuperAlgebra, torus=()):
        self.g = g
        self.weights = torus_weights(g, torus)
        p = g.field.characteristic
        # Weights interned as small ids: _buckets[a] lists the basis indices
        # of weight a, _third[a][b] is the id of -(w_a + w_b) or None.
        ids = {}
        self.weight_id = [ids.setdefault(w, len(ids)) for w in self.weights]
        self._buckets = [[] for _ in ids]
        for b, a in enumerate(self.weight_id):
            self._buckets[a].append(b)

        def neg_id(w):  # id of -w, reduced into the field, or None
            return ids.get(tuple(-x % p if p else -x for x in w))

        self._third = [[neg_id(tuple(x + y for x, y in zip(wa, wb))) for wb in ids] for wa in ids]
        # the weight-zero pairs: partner j >= i in the bucket of -w_i
        neg = [neg_id(w) for w in ids]
        par = g.space.parities
        pairs = []
        for i, a in enumerate(self.weight_id):
            if neg[a] is None:
                continue
            js = self._buckets[neg[a]]
            for j in js[bisect_left(js, i):]:
                if i == j and par[i] == 0:
                    continue
                pairs.append((i, j))
        pairs.sort(key=lambda t: (par[t[0]] + par[t[1]], t))
        self.pairs = pairs
        self.lam2 = GradedSpace(pairs, ((par[i] + par[j]) % 2 for (i, j) in pairs))
        # ww[c][s] = (position, sign) of e_s ^ e_c for every s with e_s ^ e_c
        # of weight zero, and None at s = c even; any other s is missing
        # (KeyError).  The k-th pair (i, j) is e_i ^ e_j, and
        # e_j ^ e_i = -(-1)^{|i||j|} e_i ^ e_j: where that sign is +1 (i and j
        # odd, an odd self-wedge among them) both directions share one tuple.
        ww = [{} if par[c] else {c: None} for c in range(g.dim)]
        for k, (i, j) in enumerate(pairs):
            ww[j][i] = fwd = (k, 1)
            ww[i][j] = fwd if par[i] and par[j] else (k, -1)
        self._wedge_with = ww

    def d2_column(self, k: int) -> dict:
        """[e_i, e_j] for the k-th pair (i, j), i <= j, as g stores it: not
        a copy, and one shared empty dict wherever the bracket is zero."""
        return self.g.brackets.get(self.pairs[k], _ZERO)

    def generating_set(self) -> list:
        """A greedy generating set S of g, as sorted basis indices, from
        linalg.greedy_generators under the action (s, v) -> g.ad(v, s).

        The basis vectors of nonzero weight are walked first, most bracket
        keys first and ties by index, then every index; e_b is kept only if
        it lies outside the subalgebra the kept ones generate, which is
        their ad_S-closure.  The walk's vectors are homogeneous, and [v,
        e_s] = -(-1)^{|v||s|} [e_s, v], so reading [v, e_s] off the table
        spans what ad_s does.  The walk stops once the closure is g, so S
        generates g exactly, whatever the torus (an empty one included).
        """
        g = self.g
        dim = g.dim
        keys = [0] * dim
        for i, j in g.brackets:
            keys[i] += 1
            if i != j:
                keys[j] += 1
        first = sorted((b for b in range(dim) if any(self.weights[b])), key=lambda b: (-keys[b], b))
        return greedy_generators(
            g.field, dim, chain(first, range(dim)), lambda s, v: g.ad(v, s)
        )

    def lam3_weight0_dim(self) -> int:
        """The number of weight-zero triples, counted from the weight buckets
        without walking them: a sum over the weight multisets {a, b, c} with
        a + b + c = 0 of lam3_dim_formula(B_a) (a = b = c), |L2(B_a)| |B_c|
        (a = b != c, and likewise b = c) or |B_a| |B_b| |B_c|."""
        par = self.g.space.parities
        gds = [GradedDim.from_parities([par[b] for b in bucket]) for bucket in self._buckets]
        count = 0
        for a, third in enumerate(self._third):
            for b in range(a, len(gds)):
                c = third[b]
                if c is None or c < b:
                    continue
                if a == b == c:
                    count += lam3_dim_formula(gds[a])
                elif a == b:
                    count += sum(lam2_dim_formula(gds[a])) * sum(gds[c])
                elif b == c:
                    count += sum(gds[a]) * sum(lam2_dim_formula(gds[b]))
                else:
                    count += sum(gds[a]) * sum(gds[b]) * sum(gds[c])
        return count

    def iter_lam3_weight0(self, generators):
        """The sorted weight-zero triples (i, j, k), equalities only at odd
        indices, with a factor among generators, in decreasing order: where
        neither i nor j is a generator, k is drawn from the generators in its
        weight bucket, so no other triple is visited.  ce_h2 streams these,
        and the decreasing order keeps the image echelon smaller than the
        increasing one does.
        """
        par = self.g.space.parities
        n = self.g.dim
        wid = self.weight_id
        buckets = self._buckets
        in_s = [False] * n
        for s in generators:
            in_s[s] = True
        s_buckets = [[b for b in bucket if in_s[b]] for bucket in buckets]
        for i in reversed(range(n)):
            third = self._third[wid[i]]
            for j in reversed(range(i, n)):
                if i == j and par[i] == 0:
                    continue
                c = third[wid[j]]
                if c is None:
                    continue
                ks = buckets[c] if in_s[i] or in_s[j] else s_buckets[c]
                for k in reversed(ks[bisect_left(ks, j):]):
                    if j == k and par[j] == 0:
                        continue
                    yield (i, j, k)

    def d3_column(self, t) -> list:
        """d3 of the triple t as a list of (L2 position, value) terms whose
        sum is the column: one term per bracket entry whose wedge is not
        zero, so a position may repeat, and over F_p a value is a stored
        coefficient or its negation, not reduced.  KeyError on a wedge of
        nonzero weight.  ce_h2 calls it only on triples with a nonzero
        bracket and reduces the terms into its echelon one by one, so the
        column is never formed."""
        i, j, k = t
        br = self.g.brackets
        par = self.g.space.parities
        ww = self._wedge_with
        terms = []
        # [e_a, e_b] ^ e_c with sign: sign (+1 or -1) and the wedge's own
        # sign fold into one negation
        for a, b, c, sign in (
            (i, j, k, 1),
            (i, k, j, 1 if (par[j] and par[k]) else -1),
            (j, k, i, -1 if (par[i] and ((par[j] + par[k]) % 2)) else 1),
        ):
            tbl = br.get((a, b))
            if tbl is None:
                continue
            wc = ww[c]
            for s, v in tbl.items():
                w = wc[s]
                if w is not None:
                    terms.append((w[0], v if w[1] == sign else -v))
        return terms


class H2Result:
    def __init__(self, dims: GradedDim, basis, stats: dict):
        self.dims = dims
        # (parity, vector keyed by L2 pairs (i, j)), even classes first
        self.basis = basis
        self.stats = stats

    def __repr__(self):
        return "<H2 %s>" % (self.dims,)


def ce_h2(g: LieSuperAlgebra, torus=()) -> H2Result:
    """H2(g) = ker d2 / im d3 with a canonical cycle basis, even classes first.

    The basis is the canonical kernel of d2 on the columns that are not
    pivots of RREF(im d3), from linalg.quotient_kernel, which also checks
    d2 on every row of that RREF (see the module docstring).  Only the
    weight-zero subcomplex of `torus` is built; basis vectors are keyed by
    L2 pairs (i, j) either way.  torus is an iterable of coordinate vectors
    of g.  Only the triples with a factor in CEComplex.generating_set are
    streamed; if d2 o d3 = 0 fails on them, the smallest triple whose column
    d2 does not kill is named.
    """
    torus = list(torus)
    cx = CEComplex(g, torus)
    torus_span = Echelon(g.field)
    for h in torus:
        torus_span.insert(h)
    stats = {
        "lam2_dim": sum(lam2_dim_formula(g.space.graded_dim)),
        "lam3_dim": lam3_dim_formula(g.space.graded_dim),
        "lam2_weight0_dim": cx.lam2.dim,
        "torus_rank": torus_span.rank,
        "algebra_dim": [g.space.graded_dim.even, g.space.graded_dim.odd],
    }
    # three timed phases, each for both parities: the rank of d2 ("kernel"),
    # the stream ("boundaries"), the row check and the kernel on N ("quotient")
    lam2_par = cx.lam2.parities
    timings = {}
    t0 = time.perf_counter()
    # d2 maps L2 of parity p into g of parity p, so dim ker d2 in parity p is
    # dim L2_p minus the graded dimension of the span of d2's columns in g
    d2 = [cx.d2_column(k) for k in range(cx.lam2.dim)]
    kd = cx.lam2.graded_dim - Subspace.from_vectors(g.space, d2, g.field).graded_dim
    timings["kernel_parity01"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    gens = cx.generating_set()
    br = g.brackets

    def streamed():
        for t in cx.iter_lam3_weight0(gens):
            i, j, k = t
            if (i, j) in br or (i, k) in br or (j, k) in br:
                yield t  # else all three brackets vanish: d3 of t is zero

    ech = Echelon(g.field)
    n_streamed = 0
    for t in streamed():
        n_streamed += 1
        try:
            terms = cx.d3_column(t)
        except KeyError:  # a wedge with no weight-zero pair
            raise AssertionError(
                "d3 leaves the weight-zero subcomplex at triple %r" % (t,)
            ) from None
        if terms:
            ech.insert_terms(terms)
    im = GradedDim.from_parities([lam2_par[c] for c in ech.pivots])
    timings["boundaries_parity01"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bad, classes = quotient_kernel(Subspace(cx.lam2, ech), d2)
    if bad is not None:
        # bad is a combination of the streamed columns, so one of them fails
        def d2_d3(t):
            col = {}
            for pos, v in cx.d3_column(t):
                add_scaled(col, d2[pos], v)
            return in_field(col, g.field)

        t = min(t for t in streamed() if d2_d3(t))
        raise AssertionError("d2 o d3 != 0 at triple %r" % (t,))
    # L2 is ordered L²g0, g0(x)g1, S²g1, so the parities interleave: list the
    # even classes first, each parity in pivot order, and each vector's pairs
    # in L2 order, not in the order the elimination left its keys
    rows = sorted(classes.rows, key=lambda row: lam2_par[min(row)])
    basis = [
        (lam2_par[min(row)], {cx.pairs[k]: row[k] for k in sorted(row)}) for row in rows
    ]
    dims = GradedDim.from_parities([p for p, _ in basis])
    if dims != kd - im:
        raise AssertionError("rank bookkeeping broke: %s != %s - %s" % (dims, kd, im))
    timings["quotient_parity01"] = time.perf_counter() - t0
    for p in (0, 1):
        stats["ker_rank_parity%d" % p] = kd[p]
        stats["im_rank_parity%d" % p] = im[p]
    stats["lam3_weight0_dim"] = cx.lam3_weight0_dim()
    stats["generators"] = len(gens)
    stats["lam3_streamed"] = n_streamed
    stats["h2"] = [dims.even, dims.odd]
    stats["timings"] = timings
    return H2Result(dims, basis, stats)
