"""Scenarios: each structure is built and verified once, report inputs, the
rows and timing keys of every H2 path, and every F_p value they store is
reduced."""

import pytest

from queerhom import lie, scenarios
from queerhom.algebras import SuperAlgebra
from queerhom.chevalley import CEComplex, H2Result
from queerhom.cli import main
from queerhom.lie import GlRule, LieSuperAlgebra, VerifiedHomomorphism
from queerhom.linalg import Echelon, Subspace
from queerhom.scalars import QQ, parse_field_flag
from queerhom.scenarios import ScenarioOptions, UsageError, run_scenario


def test_no_scenario_builds_a_gl_table(monkeypatch):
    # gl_{m|n}(R) has one form, the rule build_gl returns: the target of
    # build_q's check and of the isomorphisms, and the block algebra's ambient
    names = []
    init = LieSuperAlgebra.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(LieSuperAlgebra, "__init__", recording)
    gls = []
    build_gl = lie.build_gl

    def counting(m, n, R):
        gls.append(build_gl(m, n, R))
        return gls[-1]

    monkeypatch.setattr(lie, "build_gl", counting)
    for name, algebra, n, field in [
        ("iso-queer-gl", "grassmann(1)", 2, QQ),
        ("qtogl-sqrt-1", "grassmann(1)", 3, QI),
        ("slnn-identity", "base-field", 3, QI),
        ("perfectness", "grassmann(1)", 3, QQ),
        ("h2-main", "grassmann(1)", 3, QQ),
    ]:
        names.clear()
        gls.clear()
        report = run_scenario(name, ScenarioOptions("builtin:" + algebra, n=n, field=field))
        assert {r.status for r in report.rows} == {"PASS"}, name
        assert names and not [x for x in names if x.startswith("gl(")], (name, names)
        # build_q reaches gl through build_gl too
        assert gls and all(type(gl) is GlRule for gl in gls), name


def test_perfectness_fails_when_the_derived_subalgebra_disagrees(monkeypatch, capsys):
    derived_subalgebra = lie.derived_subalgebra

    def one_row_short(g):
        der = derived_subalgebra(g)
        return Subspace.from_vectors(der.space, der.rows[:-1], der.field)

    monkeypatch.setattr(lie, "derived_subalgebra", one_row_short)
    code = main(["perfectness", "--algebra", "builtin:grassmann(1)", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] derived-equals-trace-characterization expected=yes computed=no" in out
    assert "trace characterization differs from the derived subalgebra" in out


def test_homology_scenarios_always_list_the_budget_and_the_others_refuse_one():
    opts = ScenarioOptions("builtin:base-field", n=2)
    for name in ("h2-main", "psq-central", "slnn-identity"):
        inputs = run_scenario(name, opts).to_dict()["inputs"]
        assert inputs == {"algebra": "base-field", "n": "2", "field": "Q", "budget": "None"}
    inputs = run_scenario("perfectness", opts).to_dict()["inputs"]
    assert inputs == {"algebra": "base-field", "n": "2", "field": "Q"}
    with_budget = ScenarioOptions("builtin:base-field", n=2, budget=7)
    assert run_scenario("h2-main", with_budget).to_dict()["inputs"]["budget"] == "7"
    with pytest.raises(UsageError, match="perfectness takes no --budget"):
        run_scenario("perfectness", with_budget)


QI = parse_field_flag("Qi")
H2_TIMINGS = [
    "hc1", "build", "h2",
    "h2.kernel_parity01", "h2.boundaries_parity01", "h2.quotient_parity01",
]
SHIFTED = "h2-equals-shifted-cyclic"
COORDS = "h2-equals-coords-plus-shifted-cyclic"
CYCLIC = "h2-equals-cyclic"
SLNN_ROWS = [("shift-chain-consistent", "PASS"), ("block-map-is-isomorphism", "PASS")]


@pytest.mark.parametrize(
    "name, algebra, n, field, budget, rows, timings",
    [
        ("h2-main", "grassmann(1)", 3, QQ, None, [(SHIFTED, "PASS")], H2_TIMINGS),
        ("psq-central", "grassmann(1)", 3, QQ, None, [(COORDS, "PASS")], H2_TIMINGS),
        ("slnn-identity", "base-field", 3, QI, None, SLNN_ROWS + [(CYCLIC, "PASS")], H2_TIMINGS),
        ("h2-main", "grassmann(1)", 2, QQ, None, [(SHIFTED, "SKIP")], H2_TIMINGS),
        ("h2-main", "grassmann(1)", 3, QQ, 10, [(SHIFTED, "SKIP")], []),
        ("psq-central", "grassmann(1)", 3, QQ, 10, [(COORDS, "SKIP")], []),
        ("slnn-identity", "base-field", 3, QI, 10, [(CYCLIC, "SKIP")], []),
        ("psq-central", "matrix(2)", 3, QQ, None, [(COORDS, "SKIP")], []),
        ("psq-central", "grassmann(1)", 2, QQ, None, [(COORDS, "SKIP")], []),
        ("slnn-identity", "base-field", 2, QI, None, [(CYCLIC, "SKIP")], []),
        ("slnn-identity", "base-field", 2, QQ, None, [(CYCLIC, "SKIP")], []),
    ],
    ids=[
        "h2-main-pass", "psq-central-pass", "slnn-identity-pass", "h2-main-exploratory",
        "h2-main-budget", "psq-central-budget", "slnn-identity-budget",
        "psq-central-noncommutative", "psq-central-n2", "slnn-identity-n2", "slnn-identity-no-i",
    ],
)
def test_every_h2_path_pins_its_rows_and_timing_keys(
    name, algebra, n, field, budget, rows, timings
):
    # perfbench reads the h2.* keys of every scenario that runs ce_h2
    opts = ScenarioOptions("builtin:" + algebra, n=n, field=field, budget=budget)
    report = run_scenario(name, opts)
    assert [(r.check, r.status) for r in report.rows] == rows
    assert list(report.timings) == timings


def _stored_scalars(obj):
    """The nonzero scalars an object keeps: table entries, rows, columns and
    basis vectors."""
    if isinstance(obj, SuperAlgebra):
        vecs = list(obj.products.values()) + [obj.unit]
    elif isinstance(obj, LieSuperAlgebra):
        vecs = list(obj.brackets.values())
    elif isinstance(obj, Subspace):
        vecs = list(obj.rows)
    elif isinstance(obj, Echelon):
        vecs = list(obj.pivots.values())
    elif isinstance(obj, VerifiedHomomorphism):
        vecs = obj.columns
    else:
        vecs = [v for _, v in obj.basis]
    return [x for v in vecs for x in v.values()]


@pytest.mark.parametrize("flag", ["Fp:3", "Fp:5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["h2-main", "--algebra", "builtin:grassmann(1)", "--n", "3"],
        ["psq-central", "--algebra", "builtin:grassmann(1)", "--n", "3"],
        ["hc1-shift", "--algebra", "builtin:grassmann(2)"],
        ["loop-iso", "--algebra", "builtin:grassmann(1)", "--n", "2"],
        ["kahler-oracle", "--algebra", "builtin:truncated-poly(4)"],
        ["an-vanishing", "--algebra", "builtin:matrix(2)"],
        ["pair-relations", "--algebra", "builtin:matrix(2)"],
        ["iso-queer-gl", "--algebra", "builtin:matrix(2)", "--n", "2"],
    ],
    ids=[
        "h2-main", "psq-central", "hc1-shift", "loop-iso",
        "kahler-oracle", "an-vanishing", "pair-relations", "iso-queer-gl",
    ],
)
def test_every_stored_prime_field_value_is_a_reduced_int(argv, flag, monkeypatch, capsys):
    # an arithmetic site that forgot the modulus leaves a negative or >= p int
    # in some table, row or basis vector, whichever layer it is in
    made = []
    kinds = (
        SuperAlgebra, LieSuperAlgebra, Subspace, Echelon,
        VerifiedHomomorphism, CEComplex, H2Result,
    )
    for cls in kinds:
        def init(self, *args, _orig=cls.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", init)
    graphs = []  # (Echelons made inside build_shift_iso, dim <S,S>)
    build_shift_iso = scenarios.build_shift_iso

    def recording(hc_R, hc_S):
        start = len(made)
        iso = build_shift_iso(hc_R, hc_S)
        graphs.extend((o, hc_S.pair.space.dim) for o in made[start:] if isinstance(o, Echelon))
        return iso

    monkeypatch.setattr(scenarios, "build_shift_iso", recording)
    assert main(argv + ["--field", flag]) == 0
    assert "PASS" in capsys.readouterr().out
    p = int(flag[3:])
    # by isinstance: q_n(R) is a QueerLie, a LieSuperAlgebra subclass
    seen = {cls for obj in made for cls in kinds if isinstance(obj, cls)}
    assert {SuperAlgebra, Subspace, Echelon} <= seen
    if argv[0] == "hc1-shift":
        # phi's graph: its rows hold phi's values past the <S,S> coordinates
        ((graph, off),) = graphs
        assert any(c >= off for row in graph.pivots.values() for c in row)
    elif argv[0] == "loop-iso":
        assert {LieSuperAlgebra, VerifiedHomomorphism} <= seen
        assert not {CEComplex, H2Result} & seen
        (hom,) = [o for o in made if isinstance(o, VerifiedHomomorphism) and "⊗" in o.source.name]
        # the w-legs of odd coordinates carry the sign -1, stored as p - 1
        assert p - 1 in {x for col in hom.columns for x in col.values()}
    elif argv[0] == "iso-queer-gl":
        assert {LieSuperAlgebra, VerifiedHomomorphism} <= seen
    elif argv[0] in ("h2-main", "psq-central"):
        assert {LieSuperAlgebra, VerifiedHomomorphism, CEComplex, H2Result} <= seen
    values = [x for obj in made if not isinstance(obj, CEComplex) for x in _stored_scalars(obj)]
    # the two smallest inputs store 58-59 and 97-184 values
    assert len(values) > {"kahler-oracle": 50, "an-vanishing": 90}.get(argv[0], 200)
    bad = [x for x in values if type(x) is not int or not 0 < x < p]
    assert not bad, bad[:10]
    # a torus weight may vanish, but is reduced all the same
    weights = [x for obj in made if isinstance(obj, CEComplex) for x in obj.weights]
    assert all(type(x) is int and 0 <= x < p for w in weights for x in w)


@pytest.mark.parametrize("mutate", ["sign-flip", "spurious-key"])
def test_loop_iso_fails_on_a_corrupted_tensor_table(mutate, monkeypatch, capsys):
    lie_tensor = scenarios.lie_tensor

    def corrupted(g, R):
        gT = lie_tensor(g, R)
        if mutate == "sign-flip":
            # a new dict for this key: stored values are shared by every key
            # with an equal value, so flipping one in place would change them all
            key = min(gT.brackets)
            row = gT.brackets[key]
            gT.brackets[key] = {**row, min(row): -row[min(row)]}
        else:
            key = next(
                (i, j) for i in range(gT.dim) for j in range(i + 1, gT.dim)
                if (i, j) not in gT.brackets
            )
            gT.brackets[key] = {0: 1}
        return gT

    monkeypatch.setattr(scenarios, "lie_tensor", corrupted)
    code = main(["loop-iso", "--algebra", "builtin:grassmann(1)", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] structure-constants-identical expected=yes computed=no" in out


def test_kahler_oracle_gates_on_the_stripped_builtin_tag(capsys):
    # build_builtin builds the algebra from the stripped tag, and the
    # scenario's supported-family gate reads the same tag
    code = main(["kahler-oracle", "--algebra", "builtin: truncated-poly(3)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] cyclic-equals-differential-forms" in out
