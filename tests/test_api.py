"""Every public top-level function and class of the package has a caller
outside the tests: another package module (the CLI and the acceptance
suite among them) or a demo.

A reference counts only when it resolves to the definition: through an
import of it (directly, or through the package's re-exports), through
attribute access on an imported module, or as a module-level name of the
defining module itself, read outside the definition's own body.  A local
name that merely spells the same word (a nested ``rhs``, a variable
``step``) is not a reference; Python's own symbol tables tell the two
apart.

No function of the package takes an ``out`` parameter: planes are
allocated by the function that makes them, under the one allocator policy
set at import, not lent by callers.
"""

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fluidspan"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# Public names kept without a non-test caller, with the reason.
ALLOWED = {
    ("bootstrap", "calibrate_c_fit"):
        "regenerates harness.FROZEN_C_FIT (test_harness::test_frozen_c_fit_rederives)",
}


def _public_defs(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _target(node, name):
    """What ``name`` imported by ``node`` binds: ("module", m) or (m, attr),
    with m a package module name; None for anything outside the package."""
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level == 0:
            if base != "fluidspan" and not base.startswith("fluidspan."):
                return None
            base = base[len("fluidspan"):].lstrip(".")
        if not base:
            return ("module", name) if name in MODULES else ("__init__", name)
        return (base, name)
    if name == "fluidspan":
        return ("module", "__init__")
    if name.startswith("fluidspan."):
        return ("module", name.split(".")[1])
    return None


def _imports(tree):
    """Local alias -> target of every import in the file, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                target = _target(node, alias.name)
                if target is not None:
                    out[alias.asname or alias.name] = target
    return out


REEXPORTS = _imports(ast.parse((PACKAGE / "__init__.py").read_text()))


def _resolve(target):
    """Follow a name imported from the package itself to its defining module."""
    if target[0] == "__init__":
        return REEXPORTS.get(target[1], target)
    return target


def _references(path, module=None):
    """(module, name) pairs the file at path refers to; ``module`` names the
    package module the file is, None for a demo."""
    source = path.read_text()
    tree = ast.parse(source)
    aliases = _imports(tree)
    own = _public_defs(module) if module else set()
    found = set()

    def note(name, owner):
        if name in aliases and aliases[name][0] != "module":
            found.add(_resolve(aliases[name]))
        elif name in own and name != owner:
            found.add((module, name))

    def walk(table, owner):
        for sym in table.get_symbols():
            if not sym.is_referenced():
                continue
            if table.get_type() == "module" or sym.is_global() or sym.is_imported():
                note(sym.get_name(), owner)
        for child in table.get_children():
            walk(child, owner if owner is not None else child.get_name())

    walk(symtable.symtable(source, str(path), "exec"), None)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, ("",))[0] == "module"):
            found.add(_resolve((aliases[node.value.id][1], node.attr)))
    return found


def test_public_api_has_callers():
    referenced = set()
    for module in MODULES:
        if module != "__init__":  # re-exports are not calls
            referenced |= _references(PACKAGE / f"{module}.py", module)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        referenced |= _references(demo)
    unused = sorted(f"{module}.{name}" for module in MODULES for name in _public_defs(module)
                    if (module, name) not in referenced | set(ALLOWED))
    assert not unused, "public names only tests call: " + ", ".join(unused)
    # an allowlisted name that gains a caller, or is gone, leaves the list
    for module, name in ALLOWED:
        assert name in _public_defs(module) and (module, name) not in referenced


def test_no_out_parameters():
    found = []
    for module in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "out" for p in params):
                    found.append(f"{module}.{getattr(node, 'name', '<lambda>')}:{node.lineno}")
    assert not found, "functions with an out parameter: " + ", ".join(found)
