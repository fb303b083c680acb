"""Sparse exact linear algebra: echelon forms, kernels, graded quotients."""

import heapq
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from queerhom.linalg import (
    Echelon,
    GradedDim,
    GradedSpace,
    GradingError,
    Subspace,
    add_scaled,
    in_field,
    kernel,
    pooled,
)
from queerhom.scalars import QI, QQ, GaussianRational, parse_field_flag

from oracles import SparseMatrix, rref, summed_terms

F = Fraction


def _random_sparse_rows(rng, nrows, ncols, density=0.4):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = F(rng.randint(-5, 5))
        rows.append({c: v for c, v in row.items() if v})
    return rows


def assert_canonical_rref(rows):
    """rows are canonical RREF, as Echelon.rref_rows returns them and as a
    Subspace holds them: nonzero, sorted by pivot column, monic, and zero at
    every other pivot."""
    rows = list(rows)
    assert all(rows), "zero row"
    pivots = [min(r) for r in rows]
    assert pivots == sorted(set(pivots)), "pivots not strictly increasing"
    for idx, (pc, row) in enumerate(zip(pivots, rows)):
        lead = row[pc]
        # in a field, x * x == x only for 0 and 1
        assert lead and lead * lead == lead, "row %d is not monic" % idx
        others = [c for c in row if c != pc and c in pivots]
        assert not others, "row %d is nonzero at pivot columns %s" % (idx, others)


def _assert_free_column_basis(null, rows, dim, field):
    """kernel's contract: one vector per free column of the RREF of rows,
    in increasing order, 1 at its own free column and 0 at every other."""
    reduced, _ = rref(SparseMatrix.from_rows(rows, dim), field)
    pivots = {min(r) for r in reduced.rows_as_dicts() if r}
    free = [c for c in range(dim) if c not in pivots]
    assert len(null) == len(free)
    for f, vec in zip(free, null):
        assert vec[f] == field.one
        assert [c for c in vec if c not in pivots] == [f]


def test_graded_dim_arithmetic_and_rendering():
    d = GradedDim(3, 2)
    assert d.swap() == GradedDim(2, 3)
    assert d + GradedDim(1, 1) == GradedDim(4, 3)
    assert str(d) == "(3|2)"
    assert d.even + d.odd == 5


def test_graded_space_rejects_bad_input():
    with pytest.raises(ValueError):
        GradedSpace(["a", "b"], [0])
    with pytest.raises(ValueError):
        GradedSpace(["a", "a"], [0, 1])
    with pytest.raises(GradingError):
        GradedSpace(["a"], [2])


def test_add_scaled_drops_cancelled_entries():
    dst = {0: F(1), 1: F(2)}
    add_scaled(dst, {0: F(-1), 2: F(3)}, F(1))
    assert dst == {1: F(2), 2: F(3)}
    # base offsets every key of src: dst[base + k] += c*src[k]
    add_scaled(dst, {0: F(-2), 3: 1}, 1, base=1)
    assert dst == {2: F(3), 4: 1}
    # a zero coefficient adds nothing, and stores no zero entry
    add_scaled(dst, {2: F(5), 7: F(1)}, 0)
    assert dst == {2: F(3), 4: 1}
    # summed exactly: over F_5 nothing is reduced until in_field
    f5 = parse_field_flag("Fp:5")
    dst = {0: 4}
    add_scaled(dst, {0: 3, 1: 2}, 2)
    assert dst == {0: 10, 1: 4}
    assert in_field(dst, f5) == {1: 4}


def test_pool_shares_equal_values_and_keeps_value_types_apart():
    pool = {}
    first = pooled(pool, {0: 1, 2: F(1, 2)})
    assert pooled(pool, {0: 1, 2: F(1, 2)}) is first
    # an int and an equal integral Fraction are equal dict values with equal
    # hashes, yet stay two values of two types
    frac = pooled(pool, {0: F(1), 2: F(1, 2)})
    assert frac is not first and type(frac[0]) is F and type(first[0]) is int
    # the same entries in another key order are another value
    assert pooled(pool, {2: F(1, 2), 0: 1}) is not first
    # a Q(i) value with an int part and one with the equal Fraction part
    g_int = pooled(pool, {0: GaussianRational(1, 2)})
    g_frac = pooled(pool, {0: GaussianRational(F(1), 2)})
    assert g_frac is not g_int and type(g_frac[0].re) is F
    assert pooled(pool, {0: GaussianRational(1, 2)}) is g_int
    # every empty value is one dict
    empty = pooled(pool, {})
    assert pooled(pool, {}) is empty


def test_rref_identity_is_fixed_point():
    m = SparseMatrix.from_rows([{0: F(1)}, {1: F(1)}, {2: F(1)}], 3)
    r, rank = rref(m, QQ)
    assert rank == 3
    assert r == m


def test_rref_proportional_rows_collapse():
    m = SparseMatrix.from_rows([{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}], 2)
    r, rank = rref(m, QQ)
    assert rank == 1
    assert r.rows_as_dicts()[0] == {0: F(1), 1: F(2)}


def test_rref_over_prime_field_scales_to_monic():
    f5 = parse_field_flag("Fp:5")
    m = SparseMatrix.from_rows(
        [{0: f5.from_int(2)}, {1: f5.from_int(3)}], 2
    )
    r, rank = rref(m, f5)
    assert rank == 2
    assert r.rows_as_dicts() == [{0: f5.one}, {1: f5.one}]


def test_rref_rejects_mixed_scalar_types():
    # F_p values are plain ints, so rref refuses what is not a canonical
    # value of the field it is given
    f5 = parse_field_flag("Fp:5")
    for entry in (F(1), F(1, 2), 5, 7, -1, GaussianRational(1, 1)):
        with pytest.raises(ValueError):
            rref(SparseMatrix.from_rows([{0: 1}, {1: entry}], 2), f5)
    for entry in (GaussianRational(1, 1), 0.5):
        with pytest.raises(ValueError):
            rref(SparseMatrix.from_rows([{0: F(1)}, {1: entry}], 2), QQ)
    # a real value of Q(i) is a rational, so only what is no value is refused
    with pytest.raises(ValueError):
        rref(SparseMatrix.from_rows([{0: 1}, {1: 0.5}], 2), QI)
    assert rref(SparseMatrix.from_rows([{0: 1}, {1: QI.i}], 2), QI)[1] == 2
    assert rref(SparseMatrix.from_rows([{0: 4}, {1: 1}], 2), f5)[1] == 2


def test_the_modulus_is_applied_in_every_kernel():
    # 2 * (1, 3) = (2, 6) = (2, 1) in F_5: the two rows are proportional there
    # and independent over Q, so a kernel that forgot the modulus shows rank 2
    f5 = parse_field_flag("Fp:5")
    rows = [{0: 1, 1: 3}, {0: 2, 1: 1}]
    space = GradedSpace(["a", "b"], [0, 0])
    ech = Echelon(f5)
    assert ech.insert(dict(rows[0])) and not ech.insert(dict(rows[1]))
    assert ech.rank == 1 and ech.rref_rows() == [{0: 1, 1: 3}]
    # clearing a new pivot from a stored row: 1 - 3*4 = -11 = 4
    ech3 = Echelon(f5)
    ech3.insert({0: 1, 1: 3, 2: 1})
    ech3.insert({1: 1, 2: 4})
    assert ech3.rref_rows() == [{0: 1, 2: 4}, {1: 1, 2: 4}]
    null = kernel(rows, 2, f5)
    assert null == [{1: 1, 0: 2}]  # 2 + 3*1 = 5
    _assert_free_column_basis(null, rows, 2, f5)
    assert list(Subspace.from_vectors(space, null, f5).rows) == [{0: 1, 1: 3}]  # 1 + 3*3 = 10
    line = Subspace.from_vectors(space, rows[:1], f5)
    assert line.coords_of(rows[1]) == {0: 2}
    diff = dict(rows[1])
    add_scaled(diff, rows[0], -2)
    assert in_field(diff, f5) == {}
    add_scaled(diff, rows[0], 7)
    assert in_field(diff, f5) == {0: 2, 1: 1}
    # over Q the same rows are independent
    ech = Echelon(QQ)
    assert ech.insert(dict(rows[0])) and ech.insert(dict(rows[1]))
    assert kernel(rows, 2, QQ) == []
    assert Subspace.from_vectors(space, rows[:1], QQ).coords_of(rows[1]) is None
    diff = dict(rows[1])
    add_scaled(diff, rows[0], -2)
    assert diff == {1: -5}


def test_rref_is_idempotent_on_random_matrices():
    rng = random.Random(23)
    for _ in range(25):
        rows = _random_sparse_rows(rng, rng.randint(1, 6), rng.randint(1, 6))
        if not any(rows):
            continue
        ncols = 6
        r1, rank1 = rref(SparseMatrix.from_rows(rows, ncols), QQ)
        r2, rank2 = rref(r1, QQ)
        assert (r1, rank1) == (r2, rank2)


def test_echelon_canonical_under_spanning_set_shuffles():
    rng = random.Random(5)
    space = GradedSpace(["e%d" % k for k in range(7)], [0] * 7)
    for _ in range(20):
        vecs = _random_sparse_rows(rng, 4, 7)
        base = Subspace.from_vectors(space, vecs, QQ)
        # random invertible recombinations span the same subspace
        mixed = []
        for _ in range(6):
            out = {}
            for v in vecs:
                add_scaled(out, v, F(rng.randint(-3, 3)))
            mixed.append(out)
        mixed.extend(vecs)
        rng.shuffle(mixed)
        again = Subspace.from_vectors(space, mixed, QQ)
        assert base == again
        assert base.rows == again.rows


def test_rank_nullity_on_random_matrices():
    rng = random.Random(41)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = _random_sparse_rows(rng, rng.randint(1, 8), ncols)
        m = SparseMatrix.from_rows(rows, ncols)
        domain = GradedSpace(["x%d" % k for k in range(ncols)], [0] * ncols)
        _, rank = rref(m, QQ) if m.entries else (m, 0)
        null = kernel(rows, ncols, field=QQ)
        _assert_free_column_basis(null, rows, ncols, QQ)
        ker = Subspace.from_vectors(domain, null, QQ)
        assert ker.dim + rank == ncols
        for vec in null + list(ker.rows):
            assert m.apply(vec, QQ) == {}


def test_kernel_of_zero_and_identity_maps():
    space = GradedSpace(["a", "b", "c", "d"], [0, 0, 1, 1])
    zero = SparseMatrix(4, 4, {})
    null = kernel(zero.rows_as_dicts(), 4, field=QQ)
    assert null == [{c: 1} for c in range(4)]
    assert Subspace.from_vectors(space, null, QQ).graded_dim == GradedDim(2, 2)
    ident = SparseMatrix(4, 4, {(i, i): F(1) for i in range(4)})
    assert kernel(ident.rows_as_dicts(), 4, field=QQ) == []


def test_kernel_of_sum_map_is_the_antidiagonal():
    space = GradedSpace(["x", "y"], [0, 0])
    rows = [{0: F(1), 1: F(1)}]
    null = kernel(rows, 2, field=QQ)
    assert null == [{1: 1, 0: -1}]
    _assert_free_column_basis(null, rows, 2, QQ)
    ker = Subspace.from_vectors(space, null, QQ)
    assert list(ker.rows) == [{0: F(1), 1: F(-1)}]


def test_supertrace_kernel_on_two_by_two_blocks():
    # basis E11, E22 (even), E12, E21 (odd); supertrace is a11 - a22
    space = GradedSpace(["E11", "E22", "E12", "E21"], [0, 0, 1, 1])
    rows = [{0: F(1), 1: F(-1)}]
    null = kernel(rows, 4, field=QQ)
    _assert_free_column_basis(null, rows, 4, QQ)
    assert Subspace.from_vectors(space, null, QQ).graded_dim == GradedDim(1, 2)


def test_reduce_is_the_canonical_representative_of_a_class():
    # a class modulo a subspace is kept as its residue: zero at every pivot,
    # the same for every vector of the class, and in the class
    space = GradedSpace(["a", "b", "c"], [0, 0, 0])
    sub = Subspace.from_vectors(space, [{0: F(1), 1: F(1)}], QQ)
    assert sub.reduce({0: F(1), 1: F(1)}) == {}
    v = {0: F(2), 2: F(5)}
    rep = sub.reduce(v)
    assert not set(rep) & set(sub.pivot_cols)
    assert sub.reduce(rep) == rep
    other = dict(v)
    add_scaled(other, {0: F(1), 1: F(1)}, F(3))
    assert sub.reduce(other) == rep
    diff = dict(rep)
    add_scaled(diff, v, F(-1))
    assert sub.contains(diff)


def test_subspace_membership_and_coordinates():
    space = GradedSpace(["a", "b", "c"], [0] * 3)
    sub = Subspace.from_vectors(space, [{0: F(1), 1: F(2)}, {2: F(1)}], QQ)
    v = {0: F(3), 1: F(6), 2: F(-1)}
    assert sub.contains(v)
    coords = sub.coords_of(v)
    rebuilt = {}
    for idx, c in coords.items():
        add_scaled(rebuilt, sub.rows[idx], c)
    assert rebuilt == v
    assert sub.coords_of({0: F(1)}) is None


def test_graded_dim_dispatch():
    space = GradedSpace(["a", "b"], [0, 1])
    assert space.graded_dim == GradedDim(1, 1)
    sub = Subspace.from_vectors(space, [{1: F(1)}], QQ)
    assert sub.graded_dim == GradedDim(0, 1)


def test_echelon_rank_matches_rref():
    rng = random.Random(31)
    for _ in range(20):
        rows = _random_sparse_rows(rng, 5, 5)
        ech = Echelon(QQ)
        for row in rows:
            if row:
                ech.insert(dict(row))
        m = SparseMatrix.from_rows(rows, 5)
        if m.entries:
            assert ech.rank == rref(m, QQ)[1]


# -------------------------------------------- exact division with int inputs


def test_echelon_insert_scales_an_int_row_to_an_exact_fraction():
    ech = Echelon(QQ)
    assert ech.insert({0: 2, 1: 3})
    row = ech.pivots[0]
    assert row == {0: 1, 1: Fraction(3, 2)}
    assert type(row[1]) is Fraction
    assert ech.rref_rows() == [{0: 1, 1: Fraction(3, 2)}]


def test_echelon_insert_keeps_unit_led_int_rows_as_ints():
    ech = Echelon(QQ)
    ech.insert({0: -1, 2: 4})
    assert all(type(v) is int for v in ech.pivots[0].values())
    assert ech.pivots[0] == {0: 1, 2: -4}


def test_kernel_over_q_keeps_int_entries_exact():
    space = GradedSpace(["x", "y"], [0, 0])
    m = SparseMatrix.from_rows([{0: 2, 1: 3}], 2)
    null = kernel(m.rows_as_dicts(), 2, QQ)
    assert null == [{1: 1, 0: Fraction(-3, 2)}]
    ker = Subspace.from_vectors(space, null, QQ)
    assert list(ker.rows) == [{0: 1, 1: Fraction(-2, 3)}]
    for rows in (null, ker.rows):
        assert all(type(v) in (int, Fraction) for r in rows for v in r.values())
        assert m.apply(rows[0], QQ) == {}


def test_rref_accepts_int_and_fraction_entries_together():
    m = SparseMatrix.from_rows([{0: 2, 1: Fraction(1, 2)}, {1: 1}], 2)
    r, rank = rref(m, QQ)
    assert rank == 2
    assert r.rows_as_dicts() == [{0: 1}, {1: 1}]


def _walk_scalars(obj, seen):
    """Every scalar reachable from dicts, lists and tuples, Q(i) parts included."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _walk_scalars(k, seen)
            _walk_scalars(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _walk_scalars(v, seen)
    elif isinstance(obj, GaussianRational):
        seen.extend((obj.re, obj.im))
    else:
        seen.append(obj)


@pytest.mark.parametrize("flag", ["Q", "Qi"])
def test_no_float_in_hc1_or_h2_results(flag):
    from queerhom.algebras import build_builtin
    from queerhom.chevalley import ce_h2
    from queerhom.cyclic import hc1
    from queerhom.lie import build_psq_lie, build_sq_lie

    field = parse_field_flag(flag)
    seen = []
    for tag in ("grassmann(1)", "square-zero-plane", "monogenic(x^2-2)", "q1"):
        R = build_builtin(tag, field)
        h = hc1(R)
        _walk_scalars(h.subspace.rows, seen)
        _walk_scalars(h.pair.relations.rows, seen)
    for tag in ("grassmann(1)", "square-zero-plane"):
        R = build_builtin(tag, field)
        sq, torus = build_sq_lie(3, R)
        r = ce_h2(sq, torus=torus)
        _walk_scalars([v for _, v in r.basis], seen)
        psq, torus = build_psq_lie(3, R)
        r = ce_h2(psq, torus=torus)
        _walk_scalars([v for _, v in r.basis], seen)
        _walk_scalars(psq.brackets, seen)
    assert seen
    assert not [v for v in seen if isinstance(v, float)]
    assert {type(v) for v in seen} <= {int, Fraction}


# ------------------------------ support-driven reduction against full scans


def _full_scan_reduce(sub, vec):
    """Subspace.reduce as it was: scan every canonical row.  Over F_p the
    sum is taken in Z by add_scaled and reduced once, as the kernel does,
    so a key that cancels mod p midway keeps its place."""
    out = dict(vec)
    for pc, row in zip(sub.pivot_cols, sub.rows):
        val = out.get(pc)
        if val:
            add_scaled(out, row, -val)
    return in_field(out, sub.field)


def _full_scan_coords_of(sub, vec):
    coeffs = {}
    out = dict(vec)
    for idx, (pc, row) in enumerate(zip(sub.pivot_cols, sub.rows)):
        val = out.get(pc)
        if val:
            coeffs[idx] = val
            add_scaled(out, row, -val)
    if in_field(out, sub.field):
        return None
    return coeffs


def _full_scan_rref_rows(ech):
    """Echelon.rref_rows as it was: every row against every later pivot."""
    cols = sorted(ech.pivots)
    rows = {c: dict(ech.pivots[c]) for c in cols}
    for c in reversed(cols):
        row = rows[c]
        for c2 in cols:
            if c2 >= c:
                break
            r2 = rows[c2]
            val = r2.get(c)
            if val:
                add_scaled(r2, row, -val)
                rows[c2] = in_field(r2, ech.field)
    return [rows[c] for c in cols]


def _random_scalar(rng, field):
    if field.kind == "gaussian-rationals":
        return rng.randint(-3, 3) + rng.choice([0, 0, rng.randint(-2, 2)]) * field.i
    return field.from_int(rng.randint(-4, 4))


def _random_vectors(rng, field, count, ncols, density):
    vecs = []
    for _ in range(count):
        vec = {}
        for c in range(ncols):
            if rng.random() < density:
                v = _random_scalar(rng, field)
                if v:
                    vec[c] = v
        vecs.append(vec)
    return vecs


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:5"])
def test_support_driven_reduction_matches_full_scans(flag):
    field = parse_field_flag(flag)
    rng = random.Random(1009)
    for trial in range(60):
        ncols = rng.randint(1, 14)
        density = rng.choice([0.1, 0.25, 0.5])
        space = GradedSpace(["e%d" % k for k in range(ncols)], [0] * ncols)
        ech = Echelon(field)
        for v in _random_vectors(rng, field, rng.randint(0, ncols), ncols, density):
            if v:
                ech.insert(v)
        rows = ech.rref_rows()
        want = _full_scan_rref_rows(ech)
        assert rows == want
        assert_canonical_rref(rows)
        sub = Subspace(space, ech)
        assert sub.rows == tuple(rows)
        probes = _random_vectors(rng, field, 8, ncols, density)
        probes += [dict(r) for r in rows[:3]]
        for v in probes:
            # callers' vectors need not list their support in column order
            keys = list(v)
            rng.shuffle(keys)
            v.update((k, v.pop(k)) for k in keys)
        for v in probes:
            got = sub.reduce(v)
            assert got == _full_scan_reduce(sub, v)
            assert sub.coords_of(v) == _full_scan_coords_of(sub, v)
        for v in probes:
            mixed = {}
            for r in rows:
                add_scaled(mixed, r, _random_scalar(rng, field))
            mixed = in_field(mixed, field)
            assert sub.coords_of(mixed) == _full_scan_coords_of(sub, mixed)
            assert sub.contains(mixed)


@pytest.mark.parametrize(
    "rows",
    [
        [{1: F(1)}, {0: F(1)}],  # pivots out of order
        [{0: F(2), 1: F(1)}],  # not monic
        [{0: F(1), 1: F(3)}, {1: F(1)}],  # nonzero at a later pivot
        [{0: F(1)}, {0: F(1), 1: F(1)}],  # repeated pivot
        [{0: F(1)}, {}],  # zero row
    ],
    ids=["unsorted", "not-monic", "not-reduced", "repeated-pivot", "zero-row"],
)
def test_subspace_rejects_rows_that_are_not_canonical_rref(rows):
    # a Subspace never holds such rows: spanning them gives other rows, and
    # those are canonical
    space = GradedSpace(["a", "b"], [0, 0])
    with pytest.raises(AssertionError):
        assert_canonical_rref(rows)
    sub = Subspace.from_vectors(space, rows, QQ)
    assert sub.rows != tuple(rows)
    assert_canonical_rref(sub.rows)


# ------------------------- canonical echelon against the heap forward echelon


def _heap_walk(pivots, vec, field):
    """The old forward reduction over field: pop the lowest column, subtract
    the monic row stored there, push fill-in.  Returns (residue so far, first
    column without a stored row or None)."""
    p = field.characteristic
    work = dict(vec)
    heap = list(work)
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        val = work.get(c)
        if not val:
            work.pop(c, None)
            continue
        row = pivots.get(c)
        if row is None:
            return work, c
        del work[c]
        for cc, x in row.items():
            if cc == c:
                continue
            cur = work.get(cc)
            if cur is None:
                work[cc] = -val * x % p if p else -val * x
                heapq.heappush(heap, cc)
            else:
                nv = cur - val * x
                if p:
                    nv %= p
                if nv:
                    work[cc] = nv
                else:
                    del work[cc]
    return work, None


class _HeapEchelon:
    """Echelon as it was: forward rows, a heap walk per vector, and
    back-substitution from the highest pivot in rref_rows."""

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def insert(self, vec):
        work, c = _heap_walk(self.pivots, vec, self.field)
        if c is None:
            return False
        s = self.field.invert(work[c])
        self.pivots[c] = in_field({k: v * s for k, v in work.items()}, self.field)
        return True

    def reduce(self, vec):
        out = {}
        work = dict(vec)
        while True:
            work, c = _heap_walk(self.pivots, work, self.field)
            if c is None:
                return out
            out[c] = work.pop(c)

    def rref_rows(self):
        cols = sorted(self.pivots)
        rows = {}
        for c in reversed(cols):
            row = dict(self.pivots[c])
            later = sorted((k for k in row if k != c and k in self.pivots), reverse=True)
            for c2 in later:
                add_scaled(row, rows[c2], -row[c2])
            rows[c] = in_field(row, self.field)
        return [rows[c] for c in cols]


def _column_index(ech):
    """Non-pivot column -> pivot columns of the rows nonzero there."""
    index = {}
    for p, row in ech.pivots.items():
        for c in row:
            if c != p:
                index.setdefault(c, set()).add(p)
    return index


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:5"])
def test_canonical_echelon_matches_the_heap_forward_echelon(flag):
    field = parse_field_flag(flag)
    rng = random.Random(2027)
    for trial in range(40):
        ncols = rng.randint(1, 16)
        density = rng.choice([0.1, 0.2, 0.35, 0.6])
        vecs = [v for v in _random_vectors(rng, field, rng.randint(1, ncols + 4), ncols, density) if v]
        # dependent vectors too, so that some inserts return False
        for _ in range(rng.randint(0, 4)):
            mixed = {}
            for v in rng.sample(vecs, min(len(vecs), 3)):
                add_scaled(mixed, v, _random_scalar(rng, field))
            mixed = in_field(mixed, field)
            if mixed:
                vecs.append(mixed)
        probes = _random_vectors(rng, field, 6, ncols, density)
        for order in range(3):
            rng.shuffle(vecs)
            ech, oracle = Echelon(field), _HeapEchelon(field)
            got, want = [], []
            for v in vecs:
                got.append(ech.insert(v))
                want.append(oracle.insert(v))
                assert ech.rank == oracle.rank
                assert ech.rref_rows() == oracle.rref_rows()
                # the stored rows are canonical after every single insert
                assert_canonical_rref(ech.rref_rows())
                assert len(ech.rref_rows()) == ech.rank
                assert {c: s for c, s in ech._cols.items() if s} == _column_index(ech)
            assert got == want
            assert sorted(ech.pivots) == sorted(oracle.pivots)
            for p in probes + vecs[:2]:
                assert ech.reduce(p) == oracle.reduce(p)


def _random_terms(rng, field, ncols):
    """(column, value) terms as chevalley's d3 stream hands them on: columns
    repeat, values may be zero or cancel, and over F_p they are ints of
    either sign, not reduced."""
    p = field.characteristic
    terms = []
    for _ in range(rng.randint(0, 2 * ncols)):
        c = rng.randrange(ncols)
        v = rng.randint(-2 * p, 2 * p) if p else _random_scalar(rng, field)
        terms.append((c, v))
        if rng.random() < 0.2:
            terms.append((c, -v))  # cancels the term just made
    rng.shuffle(terms)
    return terms


@pytest.mark.parametrize("flag", ["Q", "Qi", "Fp:3", "Fp:5"])
def test_insert_terms_matches_insert_of_the_summed_vector(flag):
    # The oracle inserts the summed vector into forward rows: its residue by
    # _full_scan_reduce, made monic and stored as it is; _full_scan_rref_rows
    # brings those rows to canonical RREF.
    field = parse_field_flag(flag)
    rng = random.Random(4099)
    kept = dropped = 0
    for trial in range(60):
        ncols = rng.randint(1, 12)
        ech, forward = Echelon(field), SimpleNamespace(pivots={}, field=field)
        for _ in range(rng.randint(1, ncols + 6)):
            terms = _random_terms(rng, field, ncols)
            sub = SimpleNamespace(
                pivot_cols=sorted(forward.pivots),
                rows=_full_scan_rref_rows(forward),
                field=field,
            )
            residue = _full_scan_reduce(sub, summed_terms(terms, field))
            got = ech.insert_terms(terms)
            assert got == bool(residue)
            if residue:
                lead = min(residue)
                scale = field.invert(residue[lead])
                monic = {k: v * scale for k, v in residue.items()}
                forward.pivots[lead] = in_field(monic, field)
            kept += got
            dropped += not got
            assert ech.rref_rows() == _full_scan_rref_rows(forward)
            assert_canonical_rref(ech.rref_rows())
            assert {c: s for c, s in ech._cols.items() if s} == _column_index(ech)
    assert kept > 100 and dropped > 100


@pytest.mark.parametrize("flag", ["Fp:3", "Fp:5"])
def test_insert_terms_that_sum_to_a_multiple_of_p_store_nothing(flag):
    field = parse_field_flag(flag)
    p = field.characteristic
    ech = Echelon(field)
    # nonzero in Z, zero in F_p: off the pivots, then at and around one
    assert not ech.insert_terms([(0, 1), (0, p - 1), (1, 2 * p)])
    assert ech.pivots == {} and ech._cols == {}
    assert ech.insert_terms([(0, 1), (2, 1)])
    before = {c: dict(r) for c, r in ech.pivots.items()}, {c: set(s) for c, s in ech._cols.items()}
    assert not ech.insert_terms([(0, p + 1), (2, 1), (2, p), (1, p)])
    assert not ech.insert_terms([(0, 2), (2, p + 2)])
    assert ech.rank == 1
    assert (ech.pivots, ech._cols) == before


def test_later_inserts_do_not_change_earlier_inputs_or_outputs():
    space = GradedSpace(["a", "b", "c", "d"], [0] * 4)
    first = {0: F(1), 1: F(2), 2: F(3)}
    ech = Echelon(QQ)
    ech.insert(first)
    rows_before = ech.rref_rows()
    sub_before = Subspace.from_vectors(space, rows_before, QQ)
    # each of these clears a column from the stored row
    ech.insert({1: F(1), 3: F(1)})
    ech.insert({2: F(1)})
    assert first == {0: F(1), 1: F(2), 2: F(3)}
    assert rows_before == [{0: F(1), 1: F(2), 2: F(3)}]
    assert sub_before.rows == ({0: F(1), 1: F(2), 2: F(3)},)
    assert ech.rref_rows() == [{0: F(1), 3: F(-2)}, {1: F(1), 3: F(1)}, {2: F(1)}]

    rng = random.Random(3)
    space8 = GradedSpace(["x%d" % k for k in range(8)], [0] * 8)
    for _ in range(30):
        ech = Echelon(QQ)
        snapshots = []  # (object handed out or in, a deep copy taken then)
        for v in _random_sparse_rows(rng, 8, 8, density=0.35):
            if not v:
                continue
            ech.insert(v)
            rows = ech.rref_rows()
            assert_canonical_rref(rows)
            sub = Subspace.from_vectors(space8, rows, QQ)
            snapshots.append((v, dict(v)))
            snapshots.append((rows, [dict(r) for r in rows]))
            snapshots.append((sub.rows, tuple(dict(r) for r in sub.rows)))
        for obj, copy in snapshots:
            assert obj == copy


def test_insert_does_not_go_through_the_public_reduce(monkeypatch):
    def refuse(self, vec):
        raise AssertionError("insert called Echelon.reduce")

    monkeypatch.setattr(Echelon, "reduce", refuse)
    ech = Echelon(QQ)
    assert ech.insert({0: 1, 1: 2})
    assert not ech.insert({0: 2, 1: 4})
    assert ech.insert({1: 1})


def test_stored_rows_hold_ints_where_the_value_is_integral():
    ech = Echelon(QQ)
    ech.insert({0: 2, 1: 4, 2: 3})
    ech.insert({1: F(1, 2), 2: 1})
    for row in ech.pivots.values():
        for v in row.values():
            assert type(v) is int or v.denominator != 1
    assert ech.rref_rows() == [{0: 1, 2: F(-5, 2)}, {1: 1, 2: 2}]


def test_explicit_zero_entries_are_ignored():
    space = GradedSpace(["a", "b"], [0, 0])
    sub = Subspace.from_vectors(space, [{0: 1}], QQ)
    assert sub.contains({0: 1, 1: 0})
    assert sub.coords_of({0: 1, 1: 0}) == {0: 1}
    assert sub.reduce({0: 0, 1: 2}) == {1: 2}
    ech = Echelon(QQ)
    assert not ech.insert({0: 0})
    assert ech.insert({0: 0, 1: 3})
    assert ech.pivots == {1: {1: 1}}
