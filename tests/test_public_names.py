"""Every name a module of the package exports in ``__all__`` has a caller in
the package: a public name that only tests read is a test helper, which
belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dendrosim"

# exported on purpose although nothing in the package reads them (yet)
NO_CALLER_IN_SRC = {
    ("diagnostics", "read_ledger"): "the reader of the ledger format, for users and tests",
    ("snapshots", "write_checkpoint"): "ROADMAP item 5 (checkpoint on failure) calls it",
    ("snapshots", "read_checkpoint"): "ROADMAP item 5 (--resume) calls it",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _definition(tree, name):
    """The module-level statement that binds ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    raise AssertionError(f"{name} is in __all__ but not defined at module level")


def _references(tree, skip):
    """The identifiers that ``tree`` reads as a name or an attribute, outside ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced():
    modules = _modules()
    missing = []
    for module, tree in modules.items():
        for name in _exports(tree):
            own = _definition(tree, name)
            if not any(name in _references(other, own if other is tree else None)
                       for other in modules.values()):
                missing.append((module, name))
    return missing


def test_every_public_name_has_a_caller_in_src():
    # an allowed name leaves the list once it has a caller or is gone
    unreferenced = _unreferenced()
    assert [key for key in unreferenced if key not in NO_CALLER_IN_SRC] == [], \
        "public names that nothing in src/ references"
    assert sorted(unreferenced) == sorted(NO_CALLER_IN_SRC), "stale NO_CALLER_IN_SRC entries"
