"""JSON descriptions of associative superalgebras.

Schema (all scalars are strings in the exact-scalar grammar of the field):

    {
      "name": "q1",
      "scalars": {"kind": "rationals"},              # or gaussian-rationals,
                                                     # prime-field + characteristic
      "basis": [{"label": "1", "parity": 0}, {"label": "nu", "parity": 1}],
      "unit": ["1", "0"],                            # one scalar per basis label
      "products": [
        {"i": "1", "j": "1", "coefficients": {"1": "1"}},
        {"i": "nu", "j": "nu", "coefficients": {"1": "1"}}
      ]
    }

Product entries may address basis vectors by label or by integer index;
absent (i, j) combinations multiply to zero.  The loaded algebra is fully
validated (grading, unit, associativity on all triples) before it is
returned; the first 20 violations are reported together.
"""
from __future__ import annotations

import json

from .algebras import SuperAlgebra, validate
from .linalg import GradedSpace, GradingError
from .scalars import ScalarError, field_from_spec

MAX_VIOLATIONS = 20


class LoadError(ValueError):
    def __init__(self, violations):
        self.violations = list(violations)
        shown = self.violations[:MAX_VIOLATIONS]
        extra = len(self.violations) - len(shown)
        msg = "\n".join(shown)
        if extra > 0:
            msg += "\n... and %d more" % extra
        super().__init__(msg)


def _resolve(ref, index, where, violations):
    if isinstance(ref, bool):
        violations.append("%s: bad basis reference %r" % (where, ref))
        return None
    if isinstance(ref, int):
        if 0 <= ref < len(index):
            return ref
        violations.append("%s: basis index %d out of range" % (where, ref))
        return None
    if isinstance(ref, str):
        got = index.get(ref)
        if got is None:
            violations.append("%s: unknown basis label %r" % (where, ref))
        return got
    violations.append("%s: bad basis reference %r" % (where, ref))
    return None


def load_algebra(path: str) -> SuperAlgebra:
    violations = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:  # ValueError: bad JSON, or an int too long to parse
        raise LoadError(["cannot read %s: %s" % (path, e)])
    if not isinstance(data, dict):
        raise LoadError(["top level must be an object"])

    name = data.get("name")
    if not isinstance(name, str) or not name:
        violations.append("missing or empty 'name'")
        name = "unnamed"

    scalars = data.get("scalars")
    field = None
    if not isinstance(scalars, dict) or "kind" not in scalars:
        violations.append("'scalars' must be an object with a 'kind'")
    else:
        try:
            field = field_from_spec(scalars["kind"], scalars.get("characteristic"))
        except (ScalarError, ValueError) as e:  # ValueError: too many digits for int
            violations.append("scalars: %s" % e)
    if field is None:
        raise LoadError(violations)

    basis = data.get("basis")
    labels = []
    parities = []
    if not isinstance(basis, list) or not basis:
        violations.append("'basis' must be a nonempty list")
        raise LoadError(violations)
    for k, entry in enumerate(basis):
        if not isinstance(entry, dict) or "label" not in entry or "parity" not in entry:
            violations.append("basis[%d]: need {label, parity}" % k)
            continue
        lab = entry["label"]
        par = entry["parity"]
        if not isinstance(lab, str) or not lab:
            violations.append("basis[%d]: label must be a nonempty string" % k)
            lab = "?%d" % k
        if par not in (0, 1):
            violations.append("basis[%d]: parity must be 0 or 1, got %r" % (k, par))
            par = 0
        labels.append(lab)
        parities.append(par)
    if len(set(labels)) != len(labels):
        violations.append("duplicate basis labels")
    if violations:
        raise LoadError(violations)
    try:
        space = GradedSpace(labels, parities)
    except (GradingError, ValueError) as e:
        raise LoadError(["basis: %s" % e])
    index = {lab: k for k, lab in enumerate(labels)}
    dim = len(labels)

    unit_list = data.get("unit")
    unit = {}
    if not isinstance(unit_list, list) or len(unit_list) != dim:
        violations.append("'unit' must be a list of %d scalar strings" % dim)
    else:
        for k, txt in enumerate(unit_list):
            try:
                val = field.parse(str(txt))
            except ScalarError as e:
                violations.append("unit[%d]: %s" % (k, e))
                continue
            if val:
                unit[k] = val

    products = {}
    plist = data.get("products", [])
    if not isinstance(plist, list):
        violations.append("'products' must be a list")
        plist = []
    for k, entry in enumerate(plist):
        where = "products[%d]" % k
        if not isinstance(entry, dict):
            violations.append("%s: must be an object" % where)
            continue
        i = _resolve(entry.get("i"), index, where, violations)
        j = _resolve(entry.get("j"), index, where, violations)
        coeffs = entry.get("coefficients")
        if i is None or j is None:
            continue
        if not isinstance(coeffs, dict):
            violations.append("%s: 'coefficients' must be an object" % where)
            continue
        if (i, j) in products:
            violations.append("%s: duplicate entry for (%s, %s)" % (where, labels[i], labels[j]))
            continue
        tbl = {}
        for kref, txt in coeffs.items():
            t = _resolve(kref, index, where, violations)
            if t is None:
                continue
            try:
                val = field.parse(str(txt))
            except ScalarError as e:
                violations.append("%s: coefficient %r: %s" % (where, kref, e))
                continue
            if val:
                tbl[t] = val
        if tbl:
            products[(i, j)] = tbl
    if violations:
        raise LoadError(violations)

    A = SuperAlgebra(field, space, products, unit, name=name)
    rep = validate(A)
    if not rep.ok:
        raise LoadError("%s at %s: %s" % (f.kind, f.where, f.detail) for f in rep.failures)
    return A
