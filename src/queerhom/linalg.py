"""Sparse exact linear algebra over Z/2-graded spaces.

Vectors are dicts {coordinate index: nonzero scalar}.  All elimination goes
through :class:`Echelon`, an incremental echelon whose rows are kept in
canonical RREF after every insert: each row is monic at its leading
(pivot) column and zero at every other pivot.  So a vector is reduced by
subtracting, for each pivot column in its own support, its value there
times that pivot's row, and nothing else.  A new pivot clears its column
from exactly the rows that are nonzero there, which a column index lists.
Block-diagonal matrices (e.g. weight-graded differentials) are therefore
eliminated blockwise automatically; that is what keeps the large
boundary-rank computations fast without any randomness or parallelism.

Subspaces are stored as the same canonical rows sorted by pivot column, so
subspace equality is literal equality of the stored data, and reduction
modulo a subspace is the same walk over the vector's own support.  A
Subspace is made only by spanning: Subspace.from_vectors streams vectors
into one Echelon and the Subspace keeps that finished echelon's rows and
pivot dict, so each row is held once and is canonical by construction,
with nothing left to re-check.  A class modulo a span has one form: its
canonical representative, the residue Subspace.reduce leaves, which is
zero at the span's pivots and is written in ambient coordinates.
``quotient_kernel`` is the canonical kernel of a map on an ambient space
modulo a finished span: it checks the map on the span's rows, then runs
``kernel`` (the plain null-space basis read off the RREF, one vector per
free column) on the span's non-pivot columns only, numbers that small
basis back to ambient columns and spans it in one Echelon, a Subspace of
the ambient space; cyclic.hc1 reads HC1 and chevalley.ce_h2 reads H2 with
it.  ``linear_apply`` (maps given by columns) is the one linear apply.
``pooled`` makes the equal values of one table being built one shared
dict, keeping value types apart; the bracket and product tables, and
cyclic.hc1's commutator columns, store their values through it.  ``greedy_generators`` is the
one walk that picks a generating set of basis vectors, closing their span
under an action in one Echelon: chevalley.CEComplex.generating_set's for g
under ad, and cyclic.PairSpace's for R under left multiplication.

A linear map known only on a spanning set is solved as its graph in one
Echelon: each input (+) its image is inserted with the image coordinates
offset past the input coordinates, so input columns pivot first; the map
is well defined exactly when no pivot falls among the image coordinates,
and reducing x (+) 0 leaves minus its image there (see
cyclic.build_shift_iso).

Vectors are summed by one accumulator, ``add_scaled``, exactly: over F_p
the values are ints in [0, p) combined in Z, and a vector is reduced mod p
once, by ``in_field``, where it is handed on (in characteristic 0 nothing
needs reducing and that step is skipped).  Every reduction is one walk,
``_residue``, over (column, value) terms, which it reduces as their sum
without forming it.  ``Echelon.insert``, ``Echelon.reduce``,
``Subspace.reduce``, ``contains`` and ``coords_of`` hand it a vector's
items; ``Echelon.insert_terms`` hands it a term list (chevalley.ce_h2 so
hands it each d3 column, and most of those columns die).  The walk inlines
add_scaled's accumulation, and so does the one other loop, ``_store``'s
back-substitution, which reduces every entry it writes, because the rows
it keeps are read by every later reduction.  Each kernel has one loop for
all three fields, with that reduction as a step.  Every division goes
through ``field.invert``, so integer entries over Q never turn into floats,
and stored rows keep an integral rational as an int, so the rows every
reduction reads stay on int arithmetic.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .scalars import GaussianRational, as_int_if_integral


class GradingError(ValueError):
    """Raised when an operation needs parity homogeneity and does not get it."""


class GradedDim(NamedTuple):
    even: int
    odd: int

    @classmethod
    def from_parities(cls, parities) -> "GradedDim":
        """The graded dimension of a basis with this sequence of parities."""
        odd = sum(parities)
        return cls(len(parities) - odd, odd)

    def swap(self) -> "GradedDim":
        return GradedDim(self.odd, self.even)

    def __add__(self, other):
        return GradedDim(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other):
        return GradedDim(self.even - other.even, self.odd - other.odd)

    def __str__(self):
        return "(%d|%d)" % (self.even, self.odd)


class GradedSpace:
    """A finite basis with a parity bit per basis vector."""

    def __init__(self, labels, parities):
        labels = tuple(labels)
        parities = tuple(int(p) for p in parities)
        if len(labels) != len(parities):
            raise ValueError("labels and parities differ in length")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        for p in parities:
            if p not in (0, 1):
                raise GradingError("parity must be 0 or 1, got %r" % (p,))
        self.labels = labels
        self.parities = parities

    @property
    def dim(self):
        return len(self.labels)

    @property
    def graded_dim(self) -> GradedDim:
        return GradedDim.from_parities(self.parities)

    def parity_of_vec(self, vec) -> int:
        """Common parity of a vector's support; GradingError if mixed."""
        par = None
        for c in vec:
            p = self.parities[c]
            if par is None:
                par = p
            elif par != p:
                raise GradingError("vector mixes parities")
        if par is None:
            raise GradingError("zero vector has no parity")
        return par

    def describe(self, vec, field) -> str:
        if not vec:
            return "0"
        bits = []
        for c in sorted(vec):
            bits.append("%s*%s" % (field.format(vec[c]), self.labels[c]))
        return " + ".join(bits)

    def __eq__(self, other):
        return (
            isinstance(other, GradedSpace)
            and self.labels == other.labels
            and self.parities == other.parities
        )

    def __hash__(self):
        return hash((self.labels, self.parities))

    def __repr__(self):
        return "<GradedSpace dim %s>" % (self.graded_dim,)


def in_field(vec: dict, field) -> dict:
    """vec with its values reduced into field and its zeros dropped.

    Over F_p the values may be any ints, as sums and products taken in Z
    leave them, and come out in [1, p); in characteristic 0 only the zeros
    are dropped.  Key order is kept.
    """
    p = field.characteristic
    return {k: r for k, v in vec.items() if (r := v % p if p else v)}


def pooled(pool: dict, vec: dict) -> dict:
    """vec, or the dict pool already holds with the same keys in the same
    order and equal values of the same types, a Q(i) value's part types
    included (1 and Fraction(1) stay apart).

    A table builder keeps one pool while it builds one table and stores
    what this returns, so equal values of that table are one dict object;
    the pool is dropped with the builder.  The stored values are shared
    and read-only: whoever needs another value stores a new dict.
    """
    key = tuple(vec.items())
    hit = pool.setdefault(key, vec)
    if hit is not vec:
        # equal values may differ in type: such a vec gets its own entry,
        # under a key that adds the types
        for a, b in zip(hit.values(), vec.values()):
            t = type(a)
            if t is not type(b) or t is GaussianRational and _kind(a) != _kind(b):
                return pool.setdefault((None, key, tuple(map(_kind, vec.values()))), vec)
    return hit


def _kind(v):
    """The type of a scalar, with a Q(i) value's part types."""
    t = type(v)
    return (t, type(v.re), type(v.im)) if t is GaussianRational else t


def add_scaled(dst: dict, src: dict, c, base=0) -> None:
    """dst[base + k] += c*src[k] for each k of src, in place, summed exactly.

    Nothing is reduced: over F_p the values are summed in Z and the vector
    is reduced once, by in_field, where it is handed on.  An entry whose sum
    is zero is dropped, and so is a new entry whose product is zero (c may
    be 0).
    """
    for k, v in src.items():
        k += base
        cur = dst.get(k)
        if cur is None:
            nv = c * v
            if nv:
                dst[k] = nv
        else:
            nv = cur + c * v
            if nv:
                dst[k] = nv
            else:
                del dst[k]


def linear_apply(columns, vec: dict, field) -> dict:
    """sum vec_i columns[i] over field: the linear map with those columns,
    indexable by the coordinates of vec, applied to vec; summed exactly and
    reduced once."""
    out = {}
    for i, v in vec.items():
        add_scaled(out, columns[i], v)
    return in_field(out, field) if field.characteristic else out


def _residue(terms, rows: dict, field):
    """sum(v * e_c for c, v in terms) reduced over canonical rows {pivot
    column: row}, term by term, without forming it; a column c may repeat.

    Returns (residue, hits), hits the (c, v) terms at pivot columns.  A term
    off the pivots is accumulated as it is; a term at pivot c adds
    -v * (row_c - e_c), its share by linearity, as row_c is monic at c and
    zero at every other pivot, so the residue is zero at every pivot.  Over
    F_p the values are summed in Z and the residue is reduced once.
    """
    out = {}
    hits = []
    for c, v in terms:
        if not v:
            continue
        row = rows.get(c)
        if row is None:
            cur = out.get(c)
            if cur is None:
                out[c] = v
            else:
                nv = cur + v
                if nv:
                    out[c] = nv
                else:
                    del out[c]
            continue
        hits.append((c, v))
        neg = -v
        # add_scaled inlined, the row's value on the left: Fraction * int
        # takes Fraction's fast path, int * Fraction does not.
        for k, x in row.items():
            if k == c:
                continue
            cur = out.get(k)
            if cur is None:
                out[k] = x * neg
            else:
                nv = x * neg + cur
                if nv:
                    out[k] = nv
                else:
                    del out[k]
    if out and field.characteristic:
        out = in_field(out, field)
    return out, hits


def _store(rows: dict, index: dict, row: dict, field):
    """Keep a nonzero residue as a new canonical row, in place.

    row is zero at every stored pivot; it is scaled to be monic at its
    leading column lead, and lead is cleared from every stored row that is
    nonzero there.  index maps each non-pivot column to the set of pivot
    columns whose rows are nonzero at it, and is kept exact.
    """
    p = field.characteristic
    lead = min(row)
    s = field.invert(row[lead])
    for k, v in row.items():
        v *= s
        row[k] = v % p if p else as_int_if_integral(v)
    hits = index.pop(lead, ())
    for c in row:
        if c != lead:
            index.setdefault(c, set()).add(lead)
    for q in hits:
        target = rows[q]
        x = target.pop(lead)
        for c, v in row.items():
            if c == lead:
                continue
            cur = target.get(c)
            nv = -x * v if cur is None else cur - x * v
            nv = nv % p if p else as_int_if_integral(nv)
            if nv:
                if cur is None:
                    index[c].add(q)
                target[c] = nv
            elif cur is not None:
                del target[c]
                index[c].discard(q)
    rows[lead] = row


class Echelon:
    """Incremental echelon over field whose rows are canonical RREF after
    every insert."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}  # pivot column -> row dict (monic, zero at other pivots)
        self._cols = {}  # non-pivot column -> pivot columns of rows nonzero there

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, vec: dict) -> bool:
        """Reduce vec against the stored rows; keep the residue as a new row.
        Returns True when vec enlarged the span; vec itself is not changed."""
        return self.insert_terms(vec.items())

    def insert_terms(self, terms) -> bool:
        """insert of the vector sum(v * e_c for c, v in terms), reduced term
        by term without forming it; a column c may repeat."""
        work, _ = _residue(terms, self.pivots, self.field)
        if not work:
            return False
        _store(self.pivots, self._cols, work, self.field)
        return True

    def reduce(self, vec: dict) -> dict:
        """Residue of vec modulo the current span; zero at every pivot column."""
        return _residue(vec.items(), self.pivots, self.field)[0]

    def rref_rows(self):
        """Canonical rows, sorted by pivot column: copies of the stored rows,
        which later inserts do not change."""
        pivots = self.pivots
        return [dict(pivots[c]) for c in sorted(pivots)]


class Subspace:
    """Canonical row space over field inside a graded ambient space."""

    def __init__(self, space: GradedSpace, ech: Echelon):
        """The span of a finished Echelon, whose rows are canonical RREF by
        construction.  Its pivot dict is kept, not copied, so nothing may be
        inserted into ech afterwards (Subspace.from_vectors, and ce_h2's
        image echelon once its stream ends)."""
        self.space = space
        self.field = ech.field
        self._by_pivot = ech.pivots
        self.pivot_cols = tuple(sorted(ech.pivots))
        self.rows = tuple(ech.pivots[c] for c in self.pivot_cols)

    @classmethod
    def from_vectors(cls, space: GradedSpace, vectors, field) -> "Subspace":
        """The canonical span of any iterable of vectors, each inserted as it
        comes; the finished echelon's rows are handed over, not copied."""
        ech = Echelon(field)
        for v in vectors:
            if v:
                ech.insert(v)
        return cls(space, ech)

    @property
    def dim(self):
        return len(self.rows)

    def is_homogeneous(self) -> bool:
        try:
            for r in self.rows:
                self.space.parity_of_vec(r)
        except GradingError:
            return False
        return True

    @property
    def graded_dim(self) -> GradedDim:
        return GradedDim.from_parities([self.space.parity_of_vec(r) for r in self.rows])

    def reduce(self, vec: dict) -> dict:
        """Residue modulo the subspace; support avoids all pivot columns."""
        return _residue(vec.items(), self._by_pivot, self.field)[0]

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coords_of(self, vec: dict):
        """Coefficients of vec over the canonical rows, or None if outside."""
        out, hits = _residue(vec.items(), self._by_pivot, self.field)
        if out:
            return None
        pivot_cols = self.pivot_cols
        return {bisect_left(pivot_cols, c): v for c, v in hits}

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.space == other.space
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.space.labels, tuple(tuple(sorted(r.items())) for r in self.rows)))

    def __repr__(self):
        return "<Subspace %s of dim-%d ambient>" % (len(self.rows), self.space.dim)


def greedy_generators(field, dim: int, order, act) -> list:
    """A greedy generating set S of a dim-dimensional algebra, as sorted
    basis indices.

    act(s, v) is the action of e_s on the vector v, in field: ad_{e_s}
    for a Lie superalgebra, left multiplication by e_s for an associative
    one.  The indices are walked in order; e_b is kept only if it lies
    outside the closure of the kept ones, the smallest subspace that
    contains S and is closed under act(s, -) for every s in S: the
    subalgebra S generates, or the span of the words in S.  The closure is
    held in one Echelon and closed again after each kept e_b, and the walk
    stops once it is everything, so S generates exactly when order lists
    every index.
    """
    one = field.one
    closure = Echelon(field)
    spanned = []  # vectors whose span is the closure
    gens = []
    for b in order:
        if closure.rank == dim:
            break
        e_b = {b: one}
        if not closure.insert(e_b):
            continue
        gens.append(b)
        # the old closure is closed under the old S; act on it with e_b, and
        # on every new vector with all of S, until the closure is closed
        work = [((b,), v) for v in spanned] + [(tuple(gens), e_b)]
        spanned.append(e_b)
        while work and closure.rank < dim:
            ss, v = work.pop()
            for s in ss:
                w = act(s, v)
                if w and closure.insert(w):
                    spanned.append(w)
                    work.append((tuple(gens), w))
    return sorted(gens)


def kernel(rows, dim: int, field) -> list:
    """A basis of the null space {v : M v = 0} of M on coordinates 0..dim-1.

    rows are the rows of M, in any order.  One vector per free column f of
    M's RREF, in increasing f: 1 at f, 0 at every other free column, and
    minus each canonical row's entry at f at that row's pivot; not
    canonical RREF (quotient_kernel makes it so).
    """
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    pivots = ech.pivots
    one = field.one
    p = field.characteristic
    null = {f: {f: one} for f in range(dim) if f not in pivots}
    for row in ech.rref_rows():
        pc = min(row)
        for c, v in row.items():
            if c != pc:
                null[c][pc] = -v % p if p else -v
    return list(null.values())


def quotient_kernel(span: Subspace, columns):
    """(bad, classes): the kernel of the linear map with these columns
    (indexable by every ambient coordinate) on the ambient space of span
    modulo span.  bad is the first canonical row of span, in pivot order,
    that the map does not kill, so that it is not well defined (classes is
    then None), or None.  classes is the Subspace of span's ambient space
    spanned by the map's kernel on the non-pivot columns N of span: each
    class by its canonical representative on N, the residue modulo span
    (Subspace.reduce) of any vector of the class.
    """
    field = span.field
    for row in span.rows:
        if linear_apply(columns, row, field):
            return row, None
    free = [c for c in range(span.space.dim) if c not in span._by_pivot]
    restricted = {}  # the rows of the map on N, columns numbered along N
    for f, c in enumerate(free):
        for r, v in columns[c].items():
            restricted.setdefault(r, {})[f] = v
    # numbering N back to ambient columns keeps their order, so the rows are
    # canonical in either numbering
    ech = Echelon(field)
    for vec in kernel(restricted.values(), len(free), field):
        ech.insert({free[f]: v for f, v in vec.items()})
    return None, Subspace(span.space, ech)
