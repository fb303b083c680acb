"""Exit codes, report files and determinism of the verify entry point."""

import json
import os
import subprocess
import sys

import pytest

from queerhom.cli import main

Q1_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "algebras", "q1.json")


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- exit 0/1


def test_passing_scenario_exits_zero(capsys):
    code, out, err = run_main(
        ["pair-relations", "--algebra", "builtin:base-field"], capsys
    )
    assert code == 0
    assert out.startswith("scenario pair-relations: PASS")
    assert err == ""


def test_failing_scenario_exits_one(capsys):
    # the nu-side pair rows genuinely fail on odd coordinates
    code, out, err = run_main(
        ["pair-relations", "--algebra", "builtin:grassmann(1)"], capsys
    )
    assert code == 1
    assert "scenario pair-relations: FAIL" in out
    assert "odd-pair-vanishes[nu]" in out
    assert "[FAIL]" in out


def test_skip_rows_do_not_gate(capsys):
    code, out, _ = run_main(
        ["h2-main", "--algebra", "builtin:base-field", "--n", "2", "--budget", "10"],
        capsys,
    )
    assert code == 0
    assert "[SKIP]" in out
    assert "exceeds budget" in out


# ------------------------------------------------------------------- exit 2


@pytest.mark.parametrize(
    "scenario",
    ["iso-queer-gl", "perfectness", "sq1-abelian", "loop-iso", "qtogl-sqrt-1",
     "pair-relations", "hc1-shift", "kahler-oracle", "an-vanishing"],
)
def test_budget_for_a_scenario_without_one_exits_two(scenario, capsys):
    # these scenarios decide no budget, so one given to them would be ignored
    code, out, err = run_main(
        [scenario, "--algebra", "builtin:grassmann(1)", "--n", "2", "--budget", "10"], capsys
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: scenario %s takes no --budget (only h2-main, psq-central, slnn-identity do)\n"
        % scenario
    )


def test_mersenne_prime_field_flag_runs(capsys):
    # 2^61 - 1 once hung in trial division
    code, out, _ = run_main(
        ["hc1-shift", "--algebra", "builtin:grassmann(1)", "--field", "Fp:%d" % (2**61 - 1)],
        capsys,
    )
    assert code == 0
    assert "scenario hc1-shift: PASS" in out


@pytest.mark.parametrize("modulus", ["561", str(2**89 - 1)])
def test_bad_or_undecidable_prime_modulus_exits_two(modulus, capsys):
    code, _, err = run_main(["hc1-shift", "--field", "Fp:" + modulus], capsys)
    assert code == 2
    assert err.startswith("error: modulus")


@pytest.mark.parametrize(
    "prime", ["²", "٣", "9" * 5000], ids=["superscript-2", "arabic-indic-3", "5000-digits"]
)
def test_non_ascii_or_oversized_prime_exits_two(prime, capsys):
    # str.isdigit accepts the first two and int() refuses the last
    code, out, err = run_main(["hc1-shift", "--field", "Fp:" + prime], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad prime in field flag")


def test_unknown_scenario_exits_two(capsys):
    code, out, err = run_main(["does-not-exist"], capsys)
    assert code == 2
    assert "error: unknown scenario" in err


def test_composite_modulus_exits_two(capsys):
    code, _, err = run_main(
        ["pair-relations", "--algebra", "builtin:base-field", "--field", "Fp:4"],
        capsys,
    )
    assert code == 2
    assert "error:" in err and "4" in err


def test_nonpositive_n_exits_two(capsys):
    code, _, err = run_main(
        ["iso-queer-gl", "--algebra", "builtin:base-field", "--n", "0"], capsys
    )
    assert code == 2
    assert "--n" in err


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run_main(
        ["pair-relations", "--algebra", "builtin:septonions"], capsys
    )
    assert code == 2
    assert "error:" in err


def test_unreadable_algebra_file_exits_two(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, _, err = run_main(["pair-relations", "--algebra", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_invalid_algebra_file_lists_violations(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(
        json.dumps(
            {
                "name": "broken",
                "scalars": {"kind": "rationals"},
                "basis": [
                    {"label": "1", "parity": 0},
                    {"label": "e", "parity": 0},
                ],
                "unit": ["1", "0"],
                "products": [
                    {"i": "1", "j": "1", "coefficients": {"1": "1"}},
                    {"i": "1", "j": "e", "coefficients": {"e": "1"}},
                    {"i": "e", "j": "1", "coefficients": {"e": "2"}},
                    {"i": "e", "j": "e", "coefficients": {"1": "1"}},
                ],
            }
        )
    )
    code, _, err = run_main(["pair-relations", "--algebra", str(path)], capsys)
    assert code == 2
    assert "error: algebra file" in err


# ------------------------------------------------------------ file algebras


def test_shipped_q1_file_runs_clean(capsys):
    code, out, _ = run_main(["hc1-shift", "--algebra", Q1_FILE], capsys)
    assert code == 0
    assert "scenario hc1-shift: PASS" in out


# ------------------------------------------------------------------ reports


def test_report_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_main(
        [
            "iso-queer-gl",
            "--algebra",
            "builtin:grassmann(1)",
            "--n",
            "2",
            "--report",
            str(path),
        ],
        capsys,
    )
    assert code == 0
    assert ("report written to %s" % path) in out
    data = json.loads(path.read_text())
    assert data["scenario"] == "iso-queer-gl"
    assert data["status"] == "PASS"
    assert data["version"] == "0.1.0"
    printed_checks = [
        line.split("] ", 1)[1].split(" ", 1)[0]
        for line in out.splitlines()
        if line.lstrip().startswith("[")
    ]
    assert [r["check"] for r in data["rows"]] == printed_checks
    for r in data["rows"]:
        assert r["status"] == "PASS"
    assert "total" in data["timings"]


def test_report_json_is_canonical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_main(
            ["hc1-shift", "--algebra", "builtin:grassmann(1)", "--report", str(path)],
            capsys,
        )
        assert code == 0
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timings")
    db.pop("timings")
    assert da == db
    text = a.read_text()
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def test_stdout_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run_main(
            ["sq1-abelian", "--algebra", "builtin:grassmann(2)"], capsys
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# ------------------------------------------------------------ installed form


def test_module_invocation_works():
    proc = subprocess.run(
        [sys.executable, "-m", "queerhom", "pair-relations",
         "--algebra", "builtin:base-field"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "scenario pair-relations: PASS" in proc.stdout
