"""Layering: pointwise work in tiles, grid-wide reductions in a few callers.

``soliton.tiled`` evaluates a pointwise function in tiles and leaves every
reduction over the grid to its caller, so each caller of ``tiled`` is a
place where the grid is reduced.  These are ``verify``'s check runners
and ``mesh.generate``.  The frame and closed-form modules are pointwise
and do not difference, and ``lagrangian`` builds energies only: it
imports neither the finite-difference oracle nor the soliton.  Every
file the package writes is UTF-8 text with "\\n" line ends, whatever the
platform and its locale.  ``diffgeo._quotient`` is the one place the
difference-quotient arithmetic is used.
"""

import ast
import importlib.util
from pathlib import Path

import mkdvsurf

PACKAGE = Path(mkdvsurf.__file__).parent


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_tiled_is_called_only_where_the_grid_is_reduced():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for unit in ast.parse(path.read_text()).body:
            for node in ast.walk(unit):
                if isinstance(node, ast.Call) and _called_name(node) == "tiled":
                    callers.add((path.stem, getattr(unit, "name", f"line {unit.lineno}")))
    outside_verify = {c for c in callers if c[0] != "verify"}
    assert outside_verify == {("mesh", "generate")}
    assert any(c[0] == "verify" for c in callers)


def test_lagrangian_imports_neither_the_oracle_nor_the_soliton():
    # the package imports its own modules relatively: ``from .x import y``
    # names x, and ``from . import x`` names x among its aliases
    modules = set()
    for node in ast.walk(_tree("lagrangian")):
        if isinstance(node, ast.ImportFrom):
            modules |= {node.module} if node.module else {a.name for a in node.names}
    assert not {"diffgeo", "soliton"} & modules


def test_the_frame_and_closed_form_modules_do_not_difference():
    for module in ("immersion", "deformation"):
        tree = _tree(module)
        imported = {a.asname or a.name for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not {"derivative", "Stencil"} & (imported | used), module


def test_the_quotient_arithmetic_is_reached_only_through_one_helper():
    # ``derivative`` and the divergence-form pass's shared reads both go
    # through ``diffgeo._quotient``, so it is the one difference quotient
    arithmetic = {"_d1_once", "_d2_once", "_richardson"}
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for unit in ast.parse(path.read_text()).body:
            for node in ast.walk(unit):
                name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                        else getattr(node, "attr", None) if isinstance(node, ast.Attribute)
                        else None)
                if name in arithmetic:
                    users.add((path.stem, getattr(unit, "name", f"line {unit.lineno}"), name))
    assert users == {("diffgeo", "_quotient", name) for name in arithmetic}


def _write_mode(call):
    """The mode of an ``open`` call, or None when it cannot be read."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        # open(file, mode) as a builtin, path.open(mode) as a method
        at = 1 if isinstance(call.func, ast.Name) else 0
        mode = call.args[at] if len(call.args) > at else ast.Constant("r")
    return mode.value if isinstance(mode, ast.Constant) else None


def test_every_text_write_names_its_encoding_and_newline():
    writes = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name == "open":
                mode = _write_mode(node)
                if mode is not None and ("b" in mode or not set(mode) & set("wax+")):
                    continue
            elif name != "write_text":
                continue
            kwargs = {k.arg: getattr(k.value, "value", None) for k in node.keywords}
            writes.append((path.stem, node.lineno, kwargs.get("encoding"),
                           kwargs.get("newline")))
    assert {w[0] for w in writes} >= {"cli", "mesh"}
    assert all(w[2:] == ("utf-8", "\n") for w in writes), writes


def test_reachability_holds_with_its_allowlist_as_it_is():
    path = Path(__file__).with_name("test_reachability.py")
    spec = importlib.util.spec_from_file_location("reachability", path)
    reachability = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reachability)
    assert reachability.ALLOWED == {("diffgeo", "fd_forms")}
    reachability.test_every_top_level_definition_is_reached_from_the_program()
