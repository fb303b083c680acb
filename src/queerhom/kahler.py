"""Differential-form oracle for the cyclic homology of commutative coordinates.

For a commutative all-even algebra presented as generators and relations,
the module of differentials modulo exact ones is computed directly:

    Omega^1 = (free module on dg_1..dg_s over R) / (R * d(relations))
    result  = Omega^1 / d(R)

This route never touches the pair-space machinery, so agreement with the
kernel-of-commutator computation is a genuine cross-check.

Supported presentations (by builtin tag):
    monogenic(f)        k[x]/(f)
    truncated-poly(m)   k[x]/(x^m)
    group-algebra(m)    k[t]/(t^m - 1)
    square-zero-plane   k[x,y]/(x,y)^2
"""
from __future__ import annotations

from .algebras import build_monogenic, build_square_zero_plane, parse_poly
from .linalg import Echelon, GradedDim, add_scaled


def _monogenic_quotient_dim(field, coeffs) -> int:
    """dim of (R dx) / (R f' dx + d(R)) for R = k[x]/(f)."""
    R = build_monogenic(field, coeffs)
    d = R.dim
    one = field.one
    fprime = {}
    for e in range(1, len(coeffs)):
        c = field.from_int(e * int(coeffs[e]))
        if c:
            fprime[e - 1] = c
    ech = Echelon(field)
    for r in range(d):
        ech.insert(R.mul_coords({r: one}, dict(fprime)))
    for i in range(1, d):
        ech.insert({i - 1: field.from_int(i)})
    return d - ech.rank


def kahler_hc1_oracle(tag: str, field) -> GradedDim:
    """Graded dimension of Omega^1/dR for a supported commutative builtin."""
    tag = tag.strip()
    name, _, arg = tag.partition("(")
    arg = arg[:-1] if arg.endswith(")") else arg
    if name == "monogenic" and arg:
        coeffs = parse_poly(arg)
        return GradedDim(_monogenic_quotient_dim(field, coeffs), 0)
    if name == "truncated-poly" and arg:
        m = int(arg)
        if m < 1:
            raise ValueError("need m >= 1")
        return GradedDim(_monogenic_quotient_dim(field, (0,) * m + (1,)), 0)
    if name == "group-algebra" and arg:
        m = int(arg)
        if m < 1:
            raise ValueError("need m >= 1")
        coeffs = (-1,) + (0,) * (m - 1) + (1,)
        return GradedDim(_monogenic_quotient_dim(field, coeffs), 0)
    if name == "square-zero-plane" and not arg:
        R = build_square_zero_plane(field)
        one = field.one
        two = field.from_int(2)
        # free module coordinates: index = generator * 3 + R-basis index
        x, y = 1, 2
        rel_diffs = [
            {(0, x): two},            # d(x^2)   = 2x dx
            {(0, y): one, (1, x): one},  # d(xy) = y dx + x dy
            {(1, y): two},            # d(y^2)   = 2y dy
        ]
        ech = Echelon(field)
        for df in rel_diffs:
            for r in range(3):
                vec = {}
                for (gidx, coefidx), c in df.items():
                    prod = R.mul_coords({r: one}, {coefidx: c})
                    add_scaled(vec, prod, one, gidx * 3)
                ech.insert(vec)
        for exact in ({0 * 3 + 0: one}, {1 * 3 + 0: one}):  # dx, dy
            ech.insert(exact)
        return GradedDim(6 - ech.rank, 0)
    raise ValueError("unsupported presentation: %r" % (tag,))
