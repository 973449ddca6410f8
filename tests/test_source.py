"""Source guards: the package holds no code that only the tests use.

Every module of the installed or ``src/`` package is parsed with ``ast``;
nothing is imported or run.
"""

import ast
from pathlib import Path

import ncbroadcast

PACKAGE = Path(ncbroadcast.__file__).parent


def defined_names(tree: ast.Module):
    """The names a module's top level defines: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def loaded_names(tree: ast.Module):
    """Every name a module reads, bare (``x``) or as an attribute (``module.x``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_top_level_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), path.name) for path in sorted(PACKAGE.glob("*.py"))}
    assert "dp.py" in trees
    loaded = {name for tree in trees.values() for name in loaded_names(tree)}
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in defined_names(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in loaded
    ]
    assert unread == [], "defined in the package but read nowhere in it (a test-only helper?)"


def test_only_the_slot_source_and_admission_read_the_cap():
    # _on_blocks hands out every slot and stops at MAX_SLOTS; check_run admits a run under it and
    # SlotCapError names it, so no other cap check can creep back into the slot loop
    tree = ast.parse((PACKAGE / "sim.py").read_text(), "sim.py")
    readers = {
        getattr(node, "name", "<module>")  # a top-level statement outside any def reads as <module>
        for node in tree.body
        if "MAX_SLOTS" in loaded_names(node)
    }
    assert readers == {"check_run", "SlotCapError", "_on_blocks"}
