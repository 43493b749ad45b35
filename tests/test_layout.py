"""The package's layout, read from its source files with ast.

The code generator's text level (the one compile, the line builders on
named locals and the namespaces emitted code is bound to) lives in
daekit.emit, which the other modules reach by its public names. Besides
emit's, only a few private helpers are shared between modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "daekit"

# the zero sweep's numeric steps, which may run off the caller's thread;
# the stage and constraint step the flow loop inlines, and the float
# constraint Newton it falls back on; the clustering and start grid the
# multistart scan shares with find_zeros; the reductions' systems; and
# expr's point code on locals
SHARED = {"_norm1_rows", "_solve_rows", "_solve_constraint_row",
          "_stage_lines", "_constraint_lines", "_first_seen", "_grid_starts",
          "_hessenberg_system", "_implicit_system", "_kernel_code"}


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def daekit_imports(tree):
    """(modules, names): the daekit modules a module imports, by the name
    it binds them to, and the names it imports from daekit modules, with
    the module each comes from."""
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names.add((node.module, alias.name))
    return modules, names


def private_uses(tree):
    """The (module, name) pairs of the private names a module takes from
    other daekit modules: by import, or as an attribute of an imported
    daekit module."""
    modules, names = daekit_imports(tree)
    uses = {(mod, nm) for mod, nm in names if is_private(nm)}
    uses |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in modules and is_private(node.attr)}
    return uses


def test_the_code_generator_is_one_module():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    crossing = sorted((mod, src, nm) for mod, tree in trees.items()
                      for src, nm in private_uses(tree))
    assert [c for c in crossing if c[2] not in SHARED] == []
    compiling = {mod for mod, tree in trees.items() for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in ("compile", "exec")}
    assert compiling == {"emit"}
    modules, names = daekit_imports(trees["emit"])
    assert set(modules.values()) | {mod for mod, _ in names} == {"errors"}
