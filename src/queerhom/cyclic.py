"""First graded cyclic homology of an associative superalgebra.

The pair space <R,R> is the quotient of R(x)R (parity of a(x)b is |a|+|b|)
by the graded antisymmetry and cyclicity relations

    a(x)b + (-1)^{|a||b|} b(x)a
    r(a,b,c) = (-1)^{|a||c|} ab(x)c + (-1)^{|b||a|} bc(x)a + (-1)^{|c||b|} ca(x)b

over homogeneous basis pairs and triples.  lam(a, b) is the class of a(x)b,
kept, like every class, as its canonical representative in R(x)R: its
residue modulo the relation subspace.  HC1(R) is the kernel of the induced
map lam(a,b) -> [a,b], the supercommutator of SuperAlgebra.supercommutator,
spanned by such representatives; its well-definedness on the relation
subspace is re-checked every time.

The relation stream.  Not every triple is needed (Loday, Cyclic Homology,
1992, ch. 1-2).  R must be associative: validate enforces it for algebra
files, and the builtins and their tensor products are.
  - Modulo antisymmetry, a(x)bc is -(-1)^{|a|(|b|+|c|)} bc(x)a, so
    r(a,b,c) is (-1)^{|a||c|} b(a(x)b(x)c) for Hochschild's
    b(a(x)b(x)c) = ab(x)c - a(x)bc + (-1)^{|c|(|a|+|b|)} ca(x)b.
  - b o b = 0 on a(x)x(x)m(x)c writes b(a(x)xm(x)c) as a signed sum of
    b(ax(x)m(x)c), b(a(x)x(x)mc) and b(ca(x)x(x)m), whose middles are m and
    x.  Let S be basis vectors whose words of length >= 1 span R
    (generating_set).  By induction on word length the middle slot may
    range over S, and as r(a,b,c) = r(b,c,a) term by term, signs included,
    so may any slot: with the antisymmetry vectors, the r(a,b,c) with a
    factor in S span the relation subspace.  Each is formed once per
    rotation orbit, from the triples with a <= b and a <= c; where neither
    a nor b is in S, c is drawn from S.
  - When the unit is a multiple of one basis vector e_u, r(u,b,c) is
    bc(x)u and r(u,u,c) a nonzero multiple of c(x)u modulo antisymmetry.
    So every triple containing u gives way to the relations r(u,u,c), one
    for every c, each formed in its rotation with the smallest index
    first: (u,u,c) for c >= u, (c,u,u) for c < u.
The relation subspace, so its canonical rows, is the one every triple
spans; the full scan is kept as a test oracle.

For S = R(x)Q1 the class map is written h(x, y); check_h_relations
verifies the mixing identities between h on S and lam on R, and
build_shift_iso constructs the mutually inverse odd maps between
HC1(S) and HC1(R) on canonical bases: psi directly, and phi, known only on
the h-columns, as its graph in one linalg.Echelon over <S,S> (+) <R,R>.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .algebras import SuperAlgebra, build_q1, tensor
from .linalg import (
    Echelon,
    GradedSpace,
    GradingError,
    Subspace,
    add_scaled,
    greedy_generators,
    in_field,
    linear_apply,
    pooled,
    quotient_kernel,
)
from .lie import StructureError


def generating_set(R: SuperAlgebra) -> list:
    """A greedy set S of basis indices whose words of length >= 1 span R,
    sorted, from linalg.greedy_generators under left multiplication: the
    basis vectors are walked most product keys first, ties by index, and
    e_b is kept only if it lies outside the span of the words in the kept
    ones."""
    keys = [0] * R.dim
    for x, y in R.products:
        keys[x] += 1
        if x != y:
            keys[y] += 1
    order = sorted(range(R.dim), key=lambda b: (-keys[b], b))
    one = R.field.one
    return greedy_generators(R.field, R.dim, order, lambda s, v: R.mul_coords({s: one}, v))


class PairSpace:
    """R(x)R modulo the graded antisymmetry and cyclicity relations.

    The relations are the antisymmetry vectors and the cyclicity relations
    of the module docstring's stream: the triples with a <= b and a <= c
    and a factor in generating_set(R), less those with the unit's index u
    where the unit is a multiple of e_u, and r(u,u,c) for every c in their
    place.  R must be associative; the relation subspace is then the one
    every triple spans.  A triple whose three products are zero is not
    visited: when ab = 0 only the c with bc or ca a product key are.  Each
    product table is scaled once to the keys t*d of the pairs e_t(x)e_z,
    so a relation term is one add_scaled at base z; a relation is summed
    exactly and reduced once.  A one-term relation {k: c} at a k where an
    earlier one-term relation already put e_k in the span is skipped:
    inserting it would change nothing.  The other relations stream into
    Subspace.from_vectors in the same order, each inserted as soon as it
    is formed, so no list of relation vectors is held and the echelon's
    rows become the relation subspace's without a copy.  A relation
    subspace that mixes parities (only a table that breaks the grading
    gives one) is refused with GradingError.
    """

    def __init__(self, R: SuperAlgebra):
        self.R = R
        self.field = R.field
        d = R.dim
        par = R.space.parities
        labels = []
        parities = []
        for a in range(d):
            for b in range(d):
                labels.append("%s⊗%s" % (R.space.labels[a], R.space.labels[b]))
                parities.append((par[a] + par[b]) % 2)
        self.space = GradedSpace(labels, parities)
        field = self.field
        one, p = field.one, field.characteristic

        def relations():
            for a in range(d):
                for b in range(a, d):
                    vec = {a * d + b: one}
                    add_scaled(vec, {b * d + a: one}, -one if (par[a] and par[b]) else one)
                    if p:
                        vec = in_field(vec, field)
                    if vec:
                        yield vec
            # the unit's index u, or None; `rest` and `rest_s` are the indices
            # and the generators other than u
            u = next(iter(R.unit)) if len(R.unit) == 1 else None
            in_s = [False] * d
            for s in generating_set(R):
                in_s[s] = True
            rest = [c for c in range(d) if c != u]
            rest_s = [c for c in rest if in_s[c]]
            # by_left[x][y] = by_right[y][x] = e_x e_y with its keys t scaled
            # to t*d, for each product key: the pair e_t(x)e_z is at t*d + z
            by_left = [{} for _ in range(d)]
            by_right = [{} for _ in range(d)]
            for (x, y), tbl in R.products.items():
                by_left[x][y] = by_right[y][x] = {t * d: v for t, v in tbl.items()}
            for a in range(d):
                a_right = by_right[a]
                for b in range(a, d):
                    ab = by_left[a].get(b)
                    b_left = by_left[b]
                    if b == u:
                        # r(u,u,c) for every c: at (u,u,c) for c >= u, (a,u,u) for a < u
                        cs = range(u, d) if a == u else (u,)
                    elif a == u:
                        break  # every other triple with u gives way to r(u,u,c)
                    elif ab:
                        cs = rest if in_s[a] or in_s[b] else rest_s
                        cs = cs[bisect_left(cs, a):]
                    else:  # only the c with bc or ca nonzero give a term
                        cs = sorted(
                            c for c in {*b_left, *a_right}
                            if c >= a and c != u and (in_s[a] or in_s[b] or in_s[c])
                        )
                    for c in cs:
                        bc = b_left.get(c)
                        ca = a_right.get(c)
                        vec = {}
                        if ab:
                            add_scaled(vec, ab, -one if (par[a] and par[c]) else one, c)
                        if bc:
                            add_scaled(vec, bc, -one if (par[b] and par[a]) else one, a)
                        if ca:
                            add_scaled(vec, ca, -one if (par[c] and par[b]) else one, b)
                        if p:
                            vec = in_field(vec, field)
                        if vec:
                            yield vec

        def spanning(vectors):
            # a one-term relation {k: c} puts e_k in the span, so a later
            # one at k is redundant: inserting it would change nothing
            units = set()
            for vec in vectors:
                if len(vec) == 1:
                    (k,) = vec
                    if k in units:
                        continue
                    units.add(k)
                yield vec

        self.relations = Subspace.from_vectors(self.space, spanning(relations()), field)
        if not self.relations.is_homogeneous():
            raise GradingError("quotient by a non-homogeneous subspace")

    def tensor_vec(self, x: dict, y: dict) -> dict:
        """Coordinates of x(x)y in the ambient R(x)R (no sign: it is a pair,
        not a product).  Each key a*d + b comes from one pair (a, b), and a
        product of nonzero scalars is nonzero, so entries are only reduced."""
        d = self.R.dim
        p = self.field.characteristic
        return {
            a * d + b: xa * yb % p if p else xa * yb
            for a, xa in x.items()
            for b, yb in y.items()
        }

    def lam(self, x: dict, y: dict) -> dict:
        """Class of x(x)y in <R,R>, as its canonical representative in R(x)R."""
        return self.relations.reduce(self.tensor_vec(x, y))

    def class_of(self, ambient_vec: dict) -> dict:
        """Class of a vector of R(x)R, as its canonical representative."""
        return self.relations.reduce(ambient_vec)


class HC1Result:
    def __init__(self, pair: PairSpace, subspace: Subspace):
        self.pair = pair
        self.subspace = subspace
        self.graded_dim = subspace.graded_dim

    def __repr__(self):
        return "<HC1 %s %s>" % (self.pair.R.name, self.graded_dim)


def hc1(R: SuperAlgebra) -> HC1Result:
    """Kernel of the induced commutator map on <R,R>, by
    linalg.quotient_kernel on the relation subspace: a Subspace of R(x)R
    whose rows are the canonical representatives of its basis classes.

    Raises StructureError if the ambient commutator map fails to kill the
    relation subspace (which would make the induced map ill-defined).
    """
    pair = PairSpace(R)
    # comm[key] is the supercommutator of the pair with that ambient key;
    # equal columns are one dict, the many empty ones among them
    pool = {}
    comm = [pooled(pool, R.supercommutator(a, b)) for a in range(R.dim) for b in range(R.dim)]
    bad, classes = quotient_kernel(pair.relations, comm)
    if bad is not None:
        raise StructureError(
            "commutator map is not well-defined on <%s,%s>: relation row "
            "with leading %s has nonzero image" % (R.name, R.name, min(bad))
        )
    return HC1Result(pair, classes)


# ----------------------------------------------------------- h relations

class RelationRow:
    __slots__ = ("check", "inputs", "ok", "note")

    def __init__(self, check, inputs, ok, note=""):
        self.check = check
        self.inputs = inputs
        self.ok = ok
        self.note = note


def check_h_relations(R: SuperAlgebra) -> list:
    """Mixing identities for h on S = R(x)Q1, each reduced to canonical form;
    one RelationRow per identity.  Each side is summed exactly and reduced
    once, by its projection onto <S,S>.

    Row families, over homogeneous basis elements a, b of R:
      swap-odd                h(a(x)1, b(x)nu) + (-1)^{|a||b|} h(b(x)1, a(x)nu) = 0
      odd-pair-vanishes[1]    h(a(x)1, b(x)1) = 0     when a or b is odd
      odd-pair-vanishes[nu]   h(a(x)nu, b(x)nu) = 0   when a or b is odd
      even-commutator-half    h(a(x)1, b(x)1) = (1/2) h([a,b](x)nu, 1(x)nu)    both even
      even-anticommutator-half h(a(x)nu, b(x)nu) = (1/2) h({a,b}(x)nu, 1(x)nu) both even
      unit-nu                 h(a(x)1, 1(x)nu) = 0
    """
    field = R.field
    S = tensor(R, build_q1(field))
    pair = PairSpace(S)
    d = R.dim
    par = R.space.parities
    labels = R.space.labels
    half = field.invert(field.from_int(2))
    one = field.one

    def elem(r_coords: dict, nu: int) -> dict:
        return {r * 2 + nu: c for r, c in r_coords.items()}

    unit_nu = elem(R.unit, 1)
    rows = []

    def residue_row(check, inputs, amb_vec):
        res = pair.class_of(amb_vec)
        note = "" if not res else "residue " + pair.space.describe(res, field)
        rows.append(RelationRow(check, inputs, not res, note))

    for a in range(d):
        for b in range(d):
            xa1 = elem({a: one}, 0)
            xb1 = elem({b: one}, 0)
            xanu = elem({a: one}, 1)
            xbnu = elem({b: one}, 1)
            sgn = -one if (par[a] and par[b]) else one
            amb = pair.tensor_vec(xa1, xbnu)
            add_scaled(amb, pair.tensor_vec(xb1, xanu), sgn)
            residue_row("swap-odd", (labels[a], labels[b]), amb)
            if par[a] or par[b]:
                residue_row(
                    "odd-pair-vanishes[1]", (labels[a], labels[b]), pair.tensor_vec(xa1, xb1)
                )
                residue_row(
                    "odd-pair-vanishes[nu]", (labels[a], labels[b]), pair.tensor_vec(xanu, xbnu)
                )
            else:
                amb = pair.tensor_vec(xa1, xb1)
                comm = R.supercommutator(a, b)
                add_scaled(amb, pair.tensor_vec(elem(comm, 1), unit_nu), -half)
                residue_row("even-commutator-half", (labels[a], labels[b]), amb)
                anti = dict(R.products.get((a, b), {}))
                add_scaled(anti, R.products.get((b, a), {}), one)
                if field.characteristic:
                    anti = in_field(anti, field)
                amb = pair.tensor_vec(xanu, xbnu)
                add_scaled(amb, pair.tensor_vec(elem(anti, 1), unit_nu), -half)
                residue_row("even-anticommutator-half", (labels[a], labels[b]), amb)
        residue_row("unit-nu", (labels[a], "1"), pair.tensor_vec(elem({a: one}, 0), unit_nu))
    return rows


# -------------------------------------------------- the odd shift maps

class OddIsoPair(NamedTuple):
    """Mutually inverse odd maps between HC1(R(x)Q1) and HC1(R).

    phi sends a class written as sum of h(a_i(x)1, b_i(x)nu) to the sum of
    lam(a_i, b_i); psi is the reverse.  build_shift_iso recomputes every
    flag exactly and makes the pair once.
    """

    psi_kills_relations: bool
    psi_image_in_hc1: bool
    phi_solvable: bool
    phi_well_defined: bool
    phi_image_in_hc1: bool
    mutually_inverse: bool
    parity_flip: bool
    failures: list


def build_shift_iso(hc_R: HC1Result, hc_S: HC1Result) -> OddIsoPair:
    """The odd maps between HC1(R) = hc_R and HC1(S) = hc_S, S = R(x)Q1.

    psi sends lam(a, b) to h(a(x)1, b(x)nu).  phi is found as the graph of
    the reverse assignment: every h(a(x)1, b(x)nu) (+) lam(a, b) goes into one
    Echelon, and phi is well defined exactly when no pivot lies in the <R,R>
    part (so a zero h-column with a nonzero lam(a, b) makes it ill-defined).
    Every class is its canonical representative (PairSpace.class_of), in
    R(x)R or S(x)S.  R and S are read from hc_R and hc_S, so neither is
    built again;
    ValueError unless dim S = 2 dim R.
    """
    pair_R = hc_R.pair
    pair_S = hc_S.pair
    R = pair_R.R
    S = pair_S.R
    d = R.dim
    if S.dim != 2 * d:
        raise ValueError("HC1 of %s is not over R(x)Q1 for R = %s" % (S.name, R.name))
    field = R.field
    one = field.one
    failures = []

    # psi on the ambient R(x)R: column a*d + b is h(a(x)1, b(x)nu), the class
    # of (a(x)1)(x)(b(x)nu) in <S,S>; psi must kill I_R.
    h_cols = [
        pair_S.class_of({(2 * a) * S.dim + (2 * b + 1): one}) for a in range(d) for b in range(d)
    ]
    psi_kills_relations = True
    for row in pair_R.relations.rows:
        if linear_apply(h_cols, row, field):
            psi_kills_relations = False
            failures.append("psi does not kill a relation row (leading %d)" % min(row))

    # psi on the canonical HC1(R) basis, whose rows are representatives in R(x)R.
    psi_cols = []
    psi_image_in_hc1 = True
    for row in hc_R.subspace.rows:
        img = linear_apply(h_cols, row, field)
        psi_cols.append(img)
        if not hc_S.subspace.contains(img):
            psi_image_in_hc1 = False
            failures.append("psi image leaves HC1 of the tensor algebra")

    # phi as its graph; both parts are representatives in ambient coordinates,
    # the <R,R> part offset past all of S(x)S, so that <S,S> columns pivot
    # first.
    off = pair_S.space.dim
    graph = Echelon(field)
    for key, h in enumerate(h_cols):
        vec = dict(h)
        for k, v in pair_R.class_of({key: one}).items():
            vec[off + k] = v
        graph.insert(vec)
    phi_well_defined = all(c < off for c in graph.pivots)
    if not phi_well_defined:
        failures.append("phi is ill-defined on a kernel combination of h-columns")

    # phi(y) is minus the <R,R> part of y (+) 0 reduced along the graph; an
    # <S,S> column left in the residue means y is no combination of h-columns.
    phi_cols = []
    phi_solvable = True
    phi_image_in_hc1 = True
    for row in hc_S.subspace.rows:
        res = graph.reduce(row)
        if any(c < off for c in res):
            phi_solvable = False
            failures.append("an HC1 class of the tensor algebra has no h-normal form")
            phi_cols.append(None)
            continue
        img = in_field({c - off: -v for c, v in res.items()}, field)
        phi_cols.append(img)
        if not hc_R.subspace.contains(img):
            phi_image_in_hc1 = False
            failures.append("phi image leaves HC1 of the coordinate algebra")

    # mutual inverse on the canonical bases, via subspace coordinates; phi
    # is solvable and both images lie in HC1, so no coords_of is None.
    mutually_inverse = phi_solvable and phi_image_in_hc1 and psi_image_in_hc1
    if mutually_inverse:
        for i, row in enumerate(hc_R.subspace.rows):
            back = linear_apply(phi_cols, hc_S.subspace.coords_of(psi_cols[i]), field)
            if back != row:
                mutually_inverse = False
                failures.append("phi(psi(x)) != x on basis vector %d" % i)
        for j, row in enumerate(hc_S.subspace.rows):
            back = linear_apply(psi_cols, hc_R.subspace.coords_of(phi_cols[j]), field)
            if back != row:
                mutually_inverse = False
                failures.append("psi(phi(y)) != y on basis vector %d" % j)

    parity_flip = True
    for i, row in enumerate(hc_R.subspace.rows):
        if not psi_cols[i]:
            continue
        p_src = pair_R.space.parity_of_vec(row)
        p_img = pair_S.space.parity_of_vec(psi_cols[i])
        if (p_src + p_img) % 2 != 1:
            parity_flip = False
            failures.append("psi does not flip parity on basis vector %d" % i)
    for j, row in enumerate(hc_S.subspace.rows):
        if phi_cols[j] is None or not phi_cols[j]:
            continue
        p_src = pair_S.space.parity_of_vec(row)
        p_img = pair_R.space.parity_of_vec(phi_cols[j])
        if (p_src + p_img) % 2 != 1:
            parity_flip = False
            failures.append("phi does not flip parity on basis vector %d" % j)
    return OddIsoPair(
        psi_kills_relations, psi_image_in_hc1, phi_solvable, phi_well_defined,
        phi_image_in_hc1, mutually_inverse, parity_flip, failures,
    )
