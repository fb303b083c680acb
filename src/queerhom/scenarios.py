"""Named verification scenarios: the registry and every scenario function.

Each scenario builds its inputs, runs one bundle of exact checks and
returns a Report.  Field or shape preconditions that are not met yield
SKIP rows with an explanatory note (the run still succeeds); genuinely
malformed invocations, a budget for a scenario not in BUDGETED among them,
raise UsageError, which the CLI maps to exit 2.

The three homology scenarios (h2-main, psq-central, slnn-identity) compute
both sides of one identity with independent machinery (Chevalley-Eilenberg
on the Lie side, pair-space elimination on the cyclic side) and report
agreement; nothing is taken on faith from the other side.  They share one
pipeline, _h2_side: budget check, cyclic side, build, graded-dimension
check and ce_h2, in that order, so a budget SKIP computes neither side;
each keeps only its own guards, its cyclic side and its build.
"""
from __future__ import annotations

import time

from .algebras import (
    SuperAlgebra,
    an_vanishing_check,
    build_builtin,
    build_q1,
    commutator_subspace,
    tensor,
)
from .chevalley import ce_h2, lam3_dim_formula
from .cyclic import build_shift_iso, check_h_relations, hc1
from .kahler import kahler_hc1_oracle
from .lie import (
    StructureError,
    VerifiedHomomorphism,
    block_graded_dim,
    build_block_lie,
    build_psq_lie,
    build_q,
    build_sl,
    build_sq_by_characterization,
    build_sq_lie,
    derived_subalgebra,
    induced_lie,
    is_perfect,
    iso_q_to_gl,
    iso_qQ1_to_glnn,
    lie_tensor,
    psq_graded_dim,
    sq_graded_dim,
)
from .linalg import GradedDim
from .loader import LoadError, load_algebra
from .report import SKIP, Report
from .scalars import QQ, ScalarError


class UsageError(ValueError):
    """Bad invocation: unknown scenario, unbuildable algebra, bad flags."""


class ScenarioOptions:
    """What one scenario run is asked for; field None means QQ."""

    def __init__(self, algebra_spec="builtin:base-field", n=3, field=None, budget=None):
        self.algebra_spec = algebra_spec
        self.n = n
        self.field = QQ if field is None else field
        self.budget = budget


def resolve_algebra(opts: ScenarioOptions):
    """(algebra, builtin tag or None).  File algebras carry their own field."""
    spec = opts.algebra_spec
    if spec.startswith("builtin:"):
        tag = spec[len("builtin:"):].strip()
        try:
            return build_builtin(tag, opts.field), tag
        except (ValueError, ScalarError) as e:
            raise UsageError(str(e))
    try:
        return load_algebra(spec), None
    except LoadError as e:
        raise UsageError("algebra file %s:\n%s" % (spec, e))


def _inputs(opts: ScenarioOptions, R: SuperAlgebra, with_n=True):
    out = {"algebra": R.name, "field": R.field.name}
    if with_n:
        out["n"] = opts.n
    return out


def _hom_rows(report: Report, iso, n: int, R: SuperAlgebra):
    """Build iso(n, R) and add its four homomorphism flags; returns the
    homomorphism, or None after one FAIL row when its block table disagrees
    with the formula."""
    try:
        hom = iso(n, R)
    except StructureError as e:
        report.add_flag("block-table-matches-formula", False, str(e))
        return None
    report.add_flag("block-table-matches-formula", True)
    report.add_flag("parity-preserving", hom.parity_preserving)
    report.add_flag(
        "bracket-preserving-all-pairs",
        hom.bracket_preserving,
        "; ".join(hom.failures[:3]),
    )
    report.add_flag("bijective", bool(hom.injective and hom.surjective))
    return hom


def scenario_iso_queer_gl(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("iso-queer-gl", _inputs(opts, R))
    hom = _hom_rows(report, iso_q_to_gl, opts.n, R)
    if hom is None:
        return report
    sq_sub = build_sq_by_characterization(opts.n, R, hom.source)
    sl_sub = build_sl(hom.target)
    image = hom.map_subspace(sq_sub)
    report.add_cmp(
        "trace-subalgebra-maps-onto-traceless",
        "image = traceless subalgebra, dim %s" % (sl_sub.graded_dim,),
        "image = traceless subalgebra, dim %s" % (image.graded_dim,)
        if image == sl_sub
        else "image differs, dim %s" % (image.graded_dim,),
    )
    return report


def scenario_perfectness(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("perfectness", _inputs(opts, R))
    if opts.n < 2:
        report.skip("derived-equals-trace-characterization", "stated for n >= 2 only")
        return report
    q = build_q(opts.n, R)
    sub = build_sq_by_characterization(opts.n, R, q)
    # the one comparison of sq with [q, q], as canonical subspaces
    if sub != derived_subalgebra(q):
        msg = "trace characterization differs from the derived subalgebra"
        report.add_flag("derived-equals-trace-characterization", False, msg)
        return report
    report.add_cmp(
        "derived-equals-trace-characterization",
        sub.graded_dim,
        sub.graded_dim,
        "canonical subspaces compared exactly",
    )
    sq = induced_lie(q, sub, name="sq(%d;%s)" % (opts.n, R.name))
    report.add_flag("derived-subalgebra-is-perfect", is_perfect(sq))
    return report


def scenario_sq1_abelian(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("sq1-abelian", _inputs(opts, R, with_n=False))
    if commutator_subspace(R).dim != 0:
        report.skip("derived-of-sq1-vanishes", "needs supercommutative coordinates")
        return report
    sq, _ = build_sq_lie(1, R)
    report.add_cmp(
        "derived-of-sq1-vanishes",
        GradedDim(0, 0),
        derived_subalgebra(sq).graded_dim,
        "sq1 has dimension %s" % (sq.space.graded_dim,),
    )
    return report


def scenario_loop_iso(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("loop-iso", _inputs(opts, R))
    if commutator_subspace(R).dim != 0:
        report.skip("structure-constants-identical", "needs supercommutative coordinates")
        return report
    n = opts.n
    base = build_builtin("base-field", R.field)
    qk = build_q(n, base)
    gT = lie_tensor(qk, R)
    qR = build_q(n, R)
    dR = R.dim

    def translate(t):
        # w-legs carry (-1)^{|a|}: the bare relabeling fails [u(a), w(b)] for odd a
        kind, i, j, _ = qk.qindex.unpack(t // dR)
        a = t % dR
        if kind == "u":
            return qR.qindex.u(i, j, a), 1
        return qR.qindex.w(i, j, a), -1 if R.space.parities[a] else 1

    cols = [{tk: R.field.from_int(sk)} for tk, sk in map(translate, range(gT.dim))]
    hom = VerifiedHomomorphism(gT, qR, cols, name="%s->%s" % (gT.name, qR.name))
    report.add_flag("relabeling-preserves-parity", hom.parity_preserving)
    # a signed bijection of bases preserves brackets exactly when the
    # relabeled tables are equal
    report.add_flag(
        "structure-constants-identical",
        hom.bracket_preserving and hom.injective and hom.surjective,
        "bracket tables compared exactly under the signed index bijection",
    )
    return report


def scenario_qtogl_sqrt_minus_one(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("qtogl-sqrt-1", _inputs(opts, R))
    if R.field.sqrt_minus_one() is None:
        report.skip(
            "block-map-is-isomorphism",
            "field %s has no square root of -1; rerun with --field Qi" % R.field.name,
        )
        return report
    _hom_rows(report, iso_qQ1_to_glnn, opts.n, R)
    return report


def scenario_pair_relations(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("pair-relations", _inputs(opts, R, with_n=False))
    for row in check_h_relations(R):
        report.add_cmp(
            "%s(%s)" % (row.check, ",".join(row.inputs)),
            "0",
            "0" if row.ok else "nonzero",
            row.note,
        )
    return report


def scenario_hc1_shift(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("hc1-shift", _inputs(opts, R, with_n=False))
    hc_R = hc1(R)
    S = tensor(R, build_q1(R.field))
    hc_S = hc1(S)
    report.add_cmp(
        "brute-force-dims-swap",
        hc_R.graded_dim.swap(),
        hc_S.graded_dim,
        "independent eliminations on both sides",
    )
    iso = build_shift_iso(hc_R, hc_S)
    note = "; ".join(iso.failures[:3])
    report.add_flag(
        "maps-well-defined",
        bool(iso.psi_kills_relations and iso.phi_well_defined and iso.phi_solvable),
        note,
    )
    report.add_flag(
        "images-inside-kernels",
        bool(iso.psi_image_in_hc1 and iso.phi_image_in_hc1),
        note,
    )
    report.add_flag("maps-mutually-inverse", bool(iso.mutually_inverse), note)
    report.add_flag("maps-flip-parity", bool(iso.parity_flip), note)
    return report


KAHLER_TAGS = ("monogenic", "truncated-poly", "group-algebra", "square-zero-plane")


def scenario_kahler_oracle(opts: ScenarioOptions) -> Report:
    R, tag = resolve_algebra(opts)
    report = Report("kahler-oracle", _inputs(opts, R, with_n=False))
    family = tag.partition("(")[0] if tag else None
    if family not in KAHLER_TAGS:
        report.skip(
            "cyclic-equals-differential-forms",
            "unsupported presentation: %r (supported: %s)"
            % (tag or opts.algebra_spec, ", ".join(KAHLER_TAGS)),
        )
        return report
    oracle = kahler_hc1_oracle(tag, R.field)
    computed = hc1(R).graded_dim
    report.add_cmp(
        "cyclic-equals-differential-forms",
        oracle,
        computed,
        "differential-form route vs kernel-of-commutator route",
    )
    return report


def _h2_side(report: Report, check: str, gd: GradedDim, budget, cyclic, build):
    """Both sides of a homology scenario: (expected dims, H2 dims, ranks
    note), or None.

    The budget (None: no cap) is decided on the dimension of the degree-3
    chains, from the graded dimension gd alone, before either side is
    computed; over budget, the SKIP row for check is added and None
    returned.  Otherwise cyclic() returns the expected dims, timed as hc1,
    then build() returns (algebra, torus), the algebra must have graded
    dimension gd, and ce_h2 runs on it with that torus.  In the note, ker
    and im are ranks in the weight-zero subcomplex.
    """
    lam3_dim = lam3_dim_formula(gd)
    if budget is not None and lam3_dim > budget:
        report.skip(
            check, "degree-3 chain space dimension %d exceeds budget %d" % (lam3_dim, budget)
        )
        return None
    t0 = time.perf_counter()
    expected = cyclic()
    report.timings["hc1"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    g, torus = build()
    if g.space.graded_dim != gd:
        raise StructureError(
            "%s has graded dimension %s, the formula gives %s" % (g.name, g.space.graded_dim, gd)
        )
    report.timings["build"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    h2 = ce_h2(g, torus=torus)
    report.timings["h2"] = time.perf_counter() - t0
    for k, v in h2.stats["timings"].items():
        report.timings["h2." + k] = v
    note = (
        "weight-zero subcomplex of a rank-%(torus_rank)d torus: "
        "lam2=%(lam2_weight0_dim)d of %(lam2_dim)d lam3=%(lam3_weight0_dim)d of %(lam3_dim)d "
        "ker=(%(ker_rank_parity0)d|%(ker_rank_parity1)d) "
        "im=(%(im_rank_parity0)d|%(im_rank_parity1)d)" % h2.stats
    )
    return expected, h2.dims, note


def _homology_inputs(opts: ScenarioOptions, R: SuperAlgebra):
    """Inputs of the homology scenarios: unlike _inputs, budget is always
    listed, as "None" when there is none."""
    return {"algebra": R.name, "n": opts.n, "field": R.field.name, "budget": opts.budget}


def scenario_h2_main(opts: ScenarioOptions) -> Report:
    """H2(sq_n(R)) against the parity-shifted first cyclic homology of R."""
    R, _ = resolve_algebra(opts)
    n = opts.n
    report = Report("h2-main", _homology_inputs(opts, R))

    def cyclic():
        return hc1(R).graded_dim.swap()

    check = "h2-equals-shifted-cyclic"
    side = _h2_side(
        report, check, sq_graded_dim(n, R), opts.budget, cyclic, lambda: build_sq_lie(n, R)
    )
    if side is None:
        return report
    expected, dims, note = side
    if n >= 3:
        report.add_cmp(check, expected, dims, note)
    else:
        report.add(
            check,
            SKIP,
            note="exploratory: n=%d is outside the stated range; computed H2=%s, "
            "shifted cyclic side=%s; %s" % (n, dims, expected, note),
        )
    return report


def scenario_psq_central(opts: ScenarioOptions) -> Report:
    """H2 of the central quotient against R + shifted first cyclic homology."""
    R, _ = resolve_algebra(opts)
    n = opts.n
    report = Report("psq-central", _homology_inputs(opts, R))
    check = "h2-equals-coords-plus-shifted-cyclic"
    if commutator_subspace(R).dim != 0:
        report.skip(check, "needs supercommutative coordinates")
        return report
    if n < 3:
        report.skip(check, "stated for n >= 3 only")
        return report

    def cyclic():
        return R.space.graded_dim + hc1(R).graded_dim.swap()

    side = _h2_side(
        report, check, psq_graded_dim(n, R), opts.budget, cyclic, lambda: build_psq_lie(n, R)
    )
    if side is not None:
        report.add_cmp(check, *side)
    return report


def scenario_slnn_identity(opts: ScenarioOptions) -> Report:
    """H2 of the block algebra sl_{n|n}(S) = {X in gl_{n|n}(S) : str X in
    [S,S]}, built inside gl's rule, against the cyclic side.  It is the image
    of sq_n(S(x)Q1) under the square-root-of-minus-one map that qtogl-sqrt-1
    verifies, so a field without a square root of -1 is still a SKIP."""
    S, _ = resolve_algebra(opts)
    n = opts.n
    report = Report("slnn-identity", _homology_inputs(opts, S))
    check = "h2-equals-cyclic"
    if S.field.sqrt_minus_one() is None:
        report.skip(check, "field %s has no square root of -1" % S.field.name)
        return report
    if n < 3:
        report.skip(check, "stated for n >= 3 only")
        return report

    def cyclic():
        hc_S = hc1(S).graded_dim
        T = tensor(S, build_q1(S.field))
        report.add_cmp(
            "shift-chain-consistent",
            hc_S,
            hc1(T).graded_dim.swap(),
            "double parity shift returns the cyclic side",
        )
        return hc_S

    side = _h2_side(
        report, check, block_graded_dim(n, S), opts.budget, cyclic, lambda: build_block_lie(n, S)
    )
    if side is not None:
        report.add_cmp(check, *side)
    return report


def scenario_an_vanishing(opts: ScenarioOptions) -> Report:
    R, _ = resolve_algebra(opts)
    report = Report("an-vanishing", _inputs(opts, R, with_n=False))
    for n in (2, 3):
        check = "quotient-vanishes[n=%d]" % n
        try:
            gd = an_vanishing_check(R, n)
        except ScalarError as e:
            report.skip(check, str(e))
            continue
        report.add_cmp(check, GradedDim(0, 0), gd)
    return report


SCENARIOS = {
    "iso-queer-gl": scenario_iso_queer_gl,
    "perfectness": scenario_perfectness,
    "sq1-abelian": scenario_sq1_abelian,
    "loop-iso": scenario_loop_iso,
    "qtogl-sqrt-1": scenario_qtogl_sqrt_minus_one,
    "pair-relations": scenario_pair_relations,
    "hc1-shift": scenario_hc1_shift,
    "kahler-oracle": scenario_kahler_oracle,
    "h2-main": scenario_h2_main,
    "psq-central": scenario_psq_central,
    "slnn-identity": scenario_slnn_identity,
    "an-vanishing": scenario_an_vanishing,
}


BUDGETED = ("h2-main", "psq-central", "slnn-identity")  # the users of _h2_side


def run_scenario(name: str, opts: ScenarioOptions) -> Report:
    fn = SCENARIOS.get(name)
    if fn is None:
        raise UsageError(
            "unknown scenario %r (known: %s)" % (name, ", ".join(sorted(SCENARIOS)))
        )
    if opts.budget is not None and name not in BUDGETED:
        raise UsageError(
            "scenario %s takes no --budget (only %s do)" % (name, ", ".join(BUDGETED))
        )
    return fn(opts)
