"""Layout guard for src/queerhom, by static reading of its sources.

No name may be imported into a module without being used there, and every
top-level function, class and method must be referenced by name from
src/queerhom outside its own definition.  Whatever only the tests call
belongs in tests/ (see tests/oracles.py), not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "queerhom"

# "module.qualified.name": why it may have no caller in src/.
ALLOWED_UNREFERENCED = {
    "cli.main": "the console-script entry point named in pyproject.toml",
    "cyclic.PairSpace.lam": (
        "the pairing <x, y> that the planned trace map H2(sl_n(S)) -> HC1(S) "
        "(ROADMAP item 3) evaluates"
    ),
}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree, skip=None):
    """Identifiers read as a bare name or an attribute, outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _definitions(modules):
    """(module, qualified name, node) for each top-level function and class
    and each method defined in a top-level class."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield mod, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield mod, "%s.%s" % (node.name, sub.name), sub


def test_every_relative_import_is_used():
    unused = []
    for mod, tree in _modules().items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if bound not in names:
                        source = "." * node.level + (node.module or "")
                        unused.append("%s: from %s import %s" % (mod, source, bound))
    assert unused == []


def test_every_definition_has_a_caller_in_the_package():
    modules = _modules()
    used = {mod: _used_names(tree) for mod, tree in modules.items()}
    unreferenced = []
    for mod, qualname, node in _definitions(modules):
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__"):
            continue  # called by the interpreter, not by name
        key = "%s.%s" % (mod, qualname)
        if key in ALLOWED_UNREFERENCED:
            continue
        elsewhere = any(name in names for m, names in used.items() if m != mod)
        if not elsewhere and name not in _used_names(modules[mod], skip=node):
            unreferenced.append(key)
    assert unreferenced == []


def test_allowlisted_names_still_exist():
    defined = {"%s.%s" % (mod, q) for mod, q, _ in _definitions(_modules())}
    assert set(ALLOWED_UNREFERENCED) <= defined
