"""Every top-level function and class of the package has a caller in the program."""

import ast
from pathlib import Path

import mkdvsurf

PACKAGE = Path(mkdvsurf.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Reached only from tests, and kept on purpose.
ALLOWED = {
    # the FD forms of a position: the reference of acceptance criterion 4, and
    # the oracle of the planned `metric` check
    ("diffgeo", "fd_forms"),
}


def _package_module(module, level):
    # the package module that `from <module> import ...` names, or None
    if level == 1 and module is None:
        return ""
    if level == 1:
        return module
    if level == 0 and module and module.split(".")[0] == "mkdvsurf":
        return module.partition(".")[2]
    return None


def _references(tree):
    """(module, name) pairs that a file loads: a name imported from a package
    module, or an attribute of a package module it imported."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _package_module(node.module, node.level)
            if base is None:
                continue
            for a in node.names:
                if base == "":
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = (base, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("mkdvsurf.") and a.asname:
                    modules[a.asname] = a.name.partition(".")[2]
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in names:
            refs.add(names[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    return refs


def _own_references(module, tree):
    # names a module loads outside the body of the definition they name
    refs = set()
    for stmt in tree.body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                refs.add((module, node.id))
    return refs


def test_every_top_level_definition_is_reached_from_the_program():
    defined, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.stem, n.name) for n in tree.body
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        reached |= _references(tree) | _own_references(path.stem, tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        reached |= _references(ast.parse(path.read_text()))
    unreached = sorted(defined - reached - ALLOWED)
    assert not unreached, f"defined in src/mkdvsurf but reached only from tests: {unreached}"
    assert ALLOWED <= defined, f"allowlisted but not defined: {sorted(ALLOWED - defined)}"
