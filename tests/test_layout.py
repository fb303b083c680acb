"""Layout guard for src/queerhom, by static reading of its sources.

No name may be imported into a module without being used there, every
top-level function, class and method must be referenced by name from
src/queerhom outside its own definition, and every attribute a module
stores (x.attr = ...) must be read by name somewhere in src/queerhom.
Whatever only the tests call or read belongs in tests/ (see
tests/oracles.py), not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "queerhom"

# "module.qualified.name": why it may have no caller in src/.
ALLOWED_UNREFERENCED = {
    "cli.main": "the console-script entry point named in pyproject.toml",
    "cyclic.PairSpace.lam": (
        "the pairing <x, y> that the planned trace map H2(sl_n(S)) -> HC1(S) "
        "(ROADMAP item 1) evaluates"
    ),
}

# "module.Class.attr" (or "module.attr" outside a class): why it may be
# stored without a reader in src/.
ALLOWED_UNREAD_ATTRIBUTES = {
    "chevalley.H2Result.basis": (
        "the canonical H2 cycle basis: the tests compare it, and the planned "
        "trace map H2(sl_n(S)) -> HC1(S) (ROADMAP item 1) reads it"
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


def _stored_attributes(modules):
    """(key, attribute name) for each attribute assignment target; key is
    "module.Class.attr" inside a top-level class, "module.attr" elsewhere."""
    for mod, tree in modules.items():
        for node in tree.body:
            owner = "%s.%s" % (mod, node.name) if isinstance(node, ast.ClassDef) else mod
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                    yield "%s.%s" % (owner, sub.attr), sub.attr


def _read_attributes(modules):
    return {
        sub.attr
        for tree in modules.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def test_every_stored_attribute_is_read_in_the_package():
    modules = _modules()
    read = _read_attributes(modules)
    unread = sorted(
        {key for key, attr in _stored_attributes(modules) if attr not in read}
        - set(ALLOWED_UNREAD_ATTRIBUTES)
    )
    assert unread == []


def test_allowlisted_attributes_are_still_stored_and_unread():
    modules = _modules()
    read = _read_attributes(modules)
    stored_unread = {key for key, attr in _stored_attributes(modules) if attr not in read}
    assert set(ALLOWED_UNREAD_ATTRIBUTES) <= stored_unread


def _outside_stores(modules):
    """'module:line attribute' for each attribute store that is not
    self.<name> = ... in a method of a top-level class, self being the
    method's first argument."""
    allowed = set()
    for tree in modules.values():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and method.args.args:
                    me = method.args.args[0].arg
                    allowed.update(
                        id(sub)
                        for sub in ast.walk(method)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == me
                    )
    for mod, tree in modules.items():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                if id(sub) not in allowed:
                    yield "%s:%d %s" % (mod, sub.lineno, sub.attr)
            elif isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "setattr":
                yield "%s:%d setattr" % (mod, sub.lineno)


def test_every_attribute_is_set_by_its_own_class():
    # an object is complete when its constructor returns: no module, function
    # or other class stores an attribute on it afterwards
    assert list(_outside_stores(_modules())) == []
