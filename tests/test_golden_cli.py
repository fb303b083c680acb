"""Every scenario on four inputs, pinned byte for byte.

golden_cli.json holds, for each invocation, the exit code, stdout, stderr
and the report JSON without its "timings" object, with the report path in
stdout masked.  A change that should move no verdict leaves the file as it
is; a change that moves output on purpose regenerates it with

    PYTHONPATH=src python tests/test_golden_cli.py --regenerate

and says so in CHANGES.md.
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile

import pytest

from queerhom.cli import main
from queerhom.scenarios import SCENARIOS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")
REPORT_MASK = "<REPORT>"

# (algebra, field, n): Q, a small F_p with noncommuting coordinates, Q(i),
# and a commutative F_p algebra with nilpotents.
INPUTS = (
    ("grassmann(1)", "Q", 3),
    ("matrix(2)", "Fp:3", 2),
    ("grassmann(2)", "Qi", 3),
    ("truncated-poly(3)", "Fp:5", 3),
)

CASES = {
    "%s-%s-%s-n%d" % (scenario, algebra, field, n): [
        scenario, "--algebra", "builtin:" + algebra, "--field", field, "--n", str(n)
    ]
    for scenario in sorted(SCENARIOS)
    for algebra, field, n in INPUTS
}


def run_case(argv) -> dict:
    """One in-process CLI invocation as the record golden_cli.json keeps."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--report", path])
        report = None
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                report = json.load(fh)
            report.pop("timings")
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": out.getvalue().replace(path, REPORT_MASK),
        "stderr": err.getvalue().replace(path, REPORT_MASK),
        "report": report,
    }


@functools.lru_cache(maxsize=None)
def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert run_case(CASES[case]) == load_golden()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_golden_cli.py --regenerate")
    golden = {case: run_case(argv) for case, argv in sorted(CASES.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1, ensure_ascii=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(golden), GOLDEN))
