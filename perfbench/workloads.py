"""Benchmark workloads: the CLI invocations each one runs and their pinned verdicts.

Every input is a builtin algebra, so nothing is downloaded.  Each invocation
pins its exit code and every report row as (check, status, expected,
computed); the free-text ``note`` is not pinned, so a change of report
wording is not counted as a failure.  ``ce_h2`` is the number of
``chevalley.ce_h2`` calls that must return (not raise) in the invocation;
the traced run checks its span count against it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple
    exit_code: int
    rows: tuple
    ce_h2: int


H2_ROWS = (("h2-equals-shifted-cyclic", "PASS", "(2|3)", "(2|3)"),)
BUDGET_SKIP_ROWS = (("h2-equals-shifted-cyclic", "SKIP", "", ""),)
HOM_ROWS = (
    ("block-table-matches-formula", "PASS", "yes", "yes"),
    ("parity-preserving", "PASS", "yes", "yes"),
    ("bracket-preserving-all-pairs", "PASS", "yes", "yes"),
    ("bijective", "PASS", "yes", "yes"),
)

# Odd primes for h2-fp, all of about the size of 10007 so that the seed
# changes the field but not the cost; each gives H2 = (2|3).
FP_PRIMES = {
    10007: H2_ROWS,
    10009: H2_ROWS,
    10037: H2_ROWS,
    10039: H2_ROWS,
    10061: H2_ROWS,
    10067: H2_ROWS,
    10069: H2_ROWS,
    10079: H2_ROWS,
}


def _h2_main(field: str) -> Invocation:
    return Invocation(
        "h2-main-grassmann(2)-n4-%s" % field,
        ("h2-main", "--algebra", "builtin:grassmann(2)", "--n", "4", "--field", field),
        0,
        H2_ROWS if field == "Q" else FP_PRIMES[int(field[3:])],
        1,
    )


STRUCTURE = (
    Invocation(
        "qtogl-sqrt-1-grassmann(2)-n4-Qi",
        ("qtogl-sqrt-1", "--algebra", "builtin:grassmann(2)", "--n", "4", "--field", "Qi"),
        0,
        HOM_ROWS,
        0,
    ),
    Invocation(
        "loop-iso-grassmann(3)-n4",
        ("loop-iso", "--algebra", "builtin:grassmann(3)", "--n", "4"),
        0,
        (
            ("relabeling-preserves-parity", "PASS", "yes", "yes"),
            ("structure-constants-identical", "PASS", "yes", "yes"),
        ),
        0,
    ),
    Invocation(
        "perfectness-grassmann(3)-n3",
        ("perfectness", "--algebra", "builtin:grassmann(3)", "--n", "3"),
        0,
        (
            ("derived-equals-trace-characterization", "PASS", "(68|68)", "(68|68)"),
            ("derived-subalgebra-is-perfect", "PASS", "yes", "yes"),
        ),
        0,
    ),
    Invocation(
        "iso-queer-gl-grassmann(3)-n3",
        ("iso-queer-gl", "--algebra", "builtin:grassmann(3)", "--n", "3"),
        0,
        HOM_ROWS
        + (
            (
                "trace-subalgebra-maps-onto-traceless",
                "PASS",
                "image = traceless subalgebra, dim (68|68)",
                "image = traceless subalgebra, dim (68|68)",
            ),
        ),
        0,
    ),
    Invocation(
        "hc1-shift-grassmann(5)",
        ("hc1-shift", "--algebra", "builtin:grassmann(5)"),
        0,
        (
            ("brute-force-dims-swap", "PASS", "(64|65)", "(64|65)"),
            ("maps-well-defined", "PASS", "yes", "yes"),
            ("images-inside-kernels", "PASS", "yes", "yes"),
            ("maps-mutually-inverse", "PASS", "yes", "yes"),
            ("maps-flip-parity", "PASS", "yes", "yes"),
        ),
        0,
    ),
    Invocation(
        "h2-main-grassmann(2)-n6-budget10000",
        ("h2-main", "--algebra", "builtin:grassmann(2)", "--n", "6", "--budget", "10000"),
        0,
        BUDGET_SKIP_ROWS,
        0,
    ),
)

# Why each workload exists, and which layers it is meant to move.
WHY = {
    "h2-q": "H2 of sq_4(grassmann(2)) over Q: ~95% in chevalley.ce_h2 on Fraction scalars",
    "h2-fp": "the same complex over F_p (seeded prime): same chevalley/linalg work, ModP scalars",
    "structure": "six checks without ce_h2: lie build_gl, cyclic pair space, linalg reduce/coords_of",
}


def invocations(workload: str, seed: int):
    """(variant, invocations) for a workload and seed.

    h2-q has no random input: the seed is accepted and ignored.  For h2-fp
    the seed picks the prime; for structure it permutes the order of the
    six invocations.  ``variant`` names what the seed chose that can change
    the program's exact counts (the prime), so counts are compared only
    between runs of the same variant.
    """
    rng = random.Random(seed)
    if workload == "h2-q":
        return "Q", [_h2_main("Q")]
    if workload == "h2-fp":
        p = rng.choice(sorted(FP_PRIMES))
        return "Fp:%d" % p, [_h2_main("Fp:%d" % p)]
    if workload == "structure":
        order = list(STRUCTURE)
        rng.shuffle(order)
        return "all", order
    raise KeyError(workload)
