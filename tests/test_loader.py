"""JSON algebra files: addressing modes, scalars, violation reporting."""

import json
import os

import pytest

from queerhom.algebras import validate
from queerhom.cli import main
from queerhom.loader import LoadError, load_algebra
from queerhom.linalg import GradedDim

Q1_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "algebras", "q1.json")


def write(tmp_path, doc):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    return str(path)


def grassmann_doc():
    return {
        "name": "exterior-line",
        "scalars": {"kind": "rationals"},
        "basis": [{"label": "1", "parity": 0}, {"label": "x", "parity": 1}],
        "unit": ["1", "0"],
        "products": [
            {"i": "1", "j": "1", "coefficients": {"1": "1"}},
            {"i": "1", "j": "x", "coefficients": {"x": "1"}},
            {"i": "x", "j": "1", "coefficients": {"x": "1"}},
        ],
    }


def test_shipped_clifford_file_loads_and_validates():
    A = load_algebra(Q1_FILE)
    assert A.name == "q1"
    assert A.space.graded_dim == GradedDim(1, 1)
    assert validate(A).ok
    nu = A.basis_vec(A.space.labels.index("nu"))
    assert A.mul_coords(nu, nu) == A.unit


def test_labels_and_indices_address_the_same_entries(tmp_path):
    by_label = load_algebra(write(tmp_path, grassmann_doc()))
    doc = grassmann_doc()
    # i and j may be integer indices; coefficient keys stay labels since
    # JSON object keys are strings
    doc["products"] = [
        {"i": 0, "j": 0, "coefficients": {"1": "1"}},
        {"i": 0, "j": 1, "coefficients": {"x": "1"}},
        {"i": 1, "j": 0, "coefficients": {"x": "1"}},
    ]
    by_index = load_algebra(write(tmp_path, doc))
    assert by_label.products == by_index.products
    assert by_label.space.parities == by_index.space.parities


def test_gaussian_scalars_parse(tmp_path):
    doc = {
        "name": "gaussian-line",
        "scalars": {"kind": "gaussian-rationals"},
        "basis": [{"label": "1", "parity": 0}],
        "unit": ["1"],
        "products": [{"i": "1", "j": "1", "coefficients": {"1": "1"}}],
    }
    A = load_algebra(write(tmp_path, doc))
    x = {0: A.field.parse("2+3i")}
    assert A.mul_coords(x, x) == {0: A.field.parse("-5+12i")}


def test_prime_field_requires_characteristic(tmp_path):
    doc = grassmann_doc()
    doc["scalars"] = {"kind": "prime-field"}
    with pytest.raises(LoadError):
        load_algebra(write(tmp_path, doc))
    for characteristic in (7, "7"):
        doc["scalars"] = {"kind": "prime-field", "characteristic": characteristic}
        A = load_algebra(write(tmp_path, doc))
        assert A.field.name == "F_7"


@pytest.mark.parametrize(
    "text",
    ["[7]", '{"p": 7}', "1e400", "7.5", "3.0", "true", '"7.0"', '" 7"'],
)
def test_characteristic_that_is_not_an_integer_is_refused(tmp_path, text, capsys):
    # only a JSON integer or a string of digits names a prime; the value is
    # refused as it stands, not truncated, rounded or stripped
    doc = grassmann_doc()
    doc["scalars"] = {"kind": "prime-field", "characteristic": "@"}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(LoadError) as err:
        load_algebra(str(path))
    value = json.loads(text)
    assert err.value.violations == [
        "scalars: characteristic must be an integer or a string of digits, got %r" % (value,)
    ]
    assert main(["pair-relations", "--algebra", str(path)]) == 2
    out, errout = capsys.readouterr()
    assert out == ""
    assert errout.startswith("error: algebra file") and repr(value) in errout


@pytest.mark.parametrize("quote", ["", '"'])
def test_characteristic_too_long_to_parse_is_refused(tmp_path, quote):
    # past Python's digit limit for int parsing (where there is one) json.load
    # raises a plain ValueError on the number, not a JSONDecodeError, and
    # int() raises one on the string
    doc = grassmann_doc()
    doc["scalars"] = {"kind": "prime-field", "characteristic": "@"}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc).replace('"@"', quote + "7" * 5000 + quote))
    with pytest.raises(LoadError):
        load_algebra(str(path))


def test_violations_are_aggregated(tmp_path):
    doc = grassmann_doc()
    doc["products"].append({"i": "ghost", "j": "1", "coefficients": {"1": "1"}})
    doc["products"].append({"i": "1", "j": "x", "coefficients": {"x": "1"}})
    doc["unit"] = ["1"]
    with pytest.raises(LoadError) as err:
        load_algebra(write(tmp_path, doc))
    text = str(err.value)
    assert "unknown basis label 'ghost'" in text
    assert "duplicate entry" in text
    assert "'unit' must be a list of 2 scalar strings" in text
    assert len(err.value.violations) == 3


def test_validation_failures_are_truncated_once(tmp_path):
    # all even, unit e_0, e_i e_j = (i+2j) e_{(ij mod 3)+1} for i, j >= 1:
    # 25 validation failures, of which the message shows the first 20
    labels = ["e%d" % i for i in range(4)]
    products = [
        {"i": 0, "j": j, "coefficients": {labels[j]: "1"}} for j in range(4)
    ] + [{"i": i, "j": 0, "coefficients": {labels[i]: "1"}} for i in range(1, 4)]
    products += [
        {"i": i, "j": j, "coefficients": {labels[i * j % 3 + 1]: str(i + 2 * j)}}
        for i in range(1, 4)
        for j in range(1, 4)
    ]
    doc = {
        "name": "non-associative",
        "scalars": {"kind": "rationals"},
        "basis": [{"label": label, "parity": 0} for label in labels],
        "unit": ["1", "0", "0", "0"],
        "products": products,
    }
    with pytest.raises(LoadError) as err:
        load_algebra(write(tmp_path, doc))
    violations = err.value.violations
    assert len(violations) == 25
    assert not any(v.startswith("...") for v in violations)
    text = str(err.value)
    assert text.endswith("\n... and 5 more")
    assert text.split("\n")[:-1] == violations[:20]


def test_duplicate_labels_rejected(tmp_path):
    doc = grassmann_doc()
    doc["basis"][1]["label"] = "1"
    with pytest.raises(LoadError) as err:
        load_algebra(write(tmp_path, doc))
    assert "duplicate basis labels" in str(err.value)


def test_structural_validation_runs_after_parsing(tmp_path):
    # parity-violating product: odd times even lands on the even unit
    doc = grassmann_doc()
    doc["products"].append({"i": "x", "j": "x", "coefficients": {"x": "1"}})
    with pytest.raises(LoadError):
        load_algebra(write(tmp_path, doc))


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(LoadError):
        load_algebra(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(LoadError):
        load_algebra(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[]")
    with pytest.raises(LoadError) as err:
        load_algebra(str(arr))
    assert "top level" in str(err.value)
