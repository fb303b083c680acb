"""Scenarios: each structure is built and verified once, and report inputs."""

from queerhom import lie
from queerhom.cli import main
from queerhom.linalg import Subspace
from queerhom.scenarios import ScenarioOptions, run_scenario, scenario_iso_queer_gl


def test_iso_queer_gl_builds_each_gl_once(monkeypatch):
    calls = []
    build_gl = lie.build_gl

    def counting(m, n, R):
        calls.append((m, n, R.name))
        return build_gl(m, n, R)

    monkeypatch.setattr(lie, "build_gl", counting)
    report = scenario_iso_queer_gl(ScenarioOptions("builtin:grassmann(1)", n=2))
    assert report.status == "PASS"
    # gl_{2|2}(R) for the block realization of q_2(R), gl_2(R(x)Q1) as the target
    assert calls == [(2, 2, "grassmann(1)"), (2, 0, "grassmann(1)⊗q1")]


def test_perfectness_fails_when_the_derived_subalgebra_disagrees(monkeypatch, capsys):
    derived_subalgebra = lie.derived_subalgebra

    def one_row_short(g):
        der = derived_subalgebra(g)
        return Subspace(der.space, der.rows[:-1])

    monkeypatch.setattr(lie, "derived_subalgebra", one_row_short)
    code = main(["perfectness", "--algebra", "builtin:grassmann(1)", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] derived-equals-trace-characterization expected=yes computed=no" in out
    assert "trace characterization differs from the derived subalgebra" in out


def test_homology_scenarios_always_list_the_budget_and_the_others_only_when_set():
    opts = ScenarioOptions("builtin:base-field", n=2)
    for name in ("h2-main", "psq-central", "slnn-identity"):
        inputs = run_scenario(name, opts).to_dict()["inputs"]
        assert inputs == {"algebra": "base-field", "n": "2", "field": "Q", "budget": "None"}
    inputs = run_scenario("perfectness", opts).to_dict()["inputs"]
    assert inputs == {"algebra": "base-field", "n": "2", "field": "Q"}
    with_budget = ScenarioOptions("builtin:base-field", n=2, budget=7)
    assert run_scenario("perfectness", with_budget).to_dict()["inputs"]["budget"] == "7"
