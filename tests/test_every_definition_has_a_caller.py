"""Every function, class, method and module-level constant in src/dynctl is referenced.

A definition that no expression in the package reads has no caller in the
library: no command, verify check or sweep reaches it. Such code is either
wired in or deleted together with its tests. A reference is a name or an
attribute being read, or a string constant equal to the name, which is how
getattr-style tables such as reports.CSV_FIELDS reach an attribute. Words in
docstrings and comments are not references. References are matched by name,
not by binding, so a local variable that shares a definition's name hides it.

The exemptions are references that tests compare the library against, and
methods that code outside the package calls.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynctl"

ORACLES = {
    "count_points": "criterion 12 counts H <= B without materializing the points",
    "VerificationReport.lines": "the text criterion 01 reads",
    "second_iterate_family": "the published second-iterate resultant of phi_t, and the over-budget family",
}

OVERRIDES = {
    "_Parser.error": "argparse calls ArgumentParser.error on a usage error",
}


def _definitions(tree: ast.Module):
    """(qualified name, line) of each function, class and non-dunder method,
    and of each module-level assignment target."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    yield prefix + child.name, child.lineno
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, stmt.lineno


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    exempt = {**ORACLES, **OVERRIDES}
    defined = set()
    unreferenced = []
    for filename, tree in trees.items():
        for qualname, lineno in _definitions(tree):
            defined.add(qualname)
            if qualname not in exempt and qualname.rsplit(".", 1)[-1] not in referenced:
                unreferenced.append(f"{filename}:{lineno} {qualname}")
    assert not unreferenced, "defined but read nowhere in src/dynctl: " + ", ".join(unreferenced)
    assert set(exempt) <= defined, "stale exemption: " + ", ".join(set(exempt) - defined)
