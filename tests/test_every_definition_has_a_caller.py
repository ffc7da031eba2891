"""Every function, class and method in src/dynctl is named somewhere besides its definition.

A name that occurs once across the package (as a whole word) has no caller in
the library: no command, verify check or sweep reaches it. Such code is either
wired in or deleted together with its tests. The exemptions are references
that tests compare the library against.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynctl"

ORACLES = {
    "count_points": "criterion 12 counts H <= B without materializing the points",
    "lines": "VerificationReport.lines is the text criterion 01 reads",
    "second_iterate_family": "the published second-iterate resultant of phi_t, and the over-budget family",
}


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_definition_has_a_caller():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    corpus = "\n".join(sources.values())
    defined = set()
    lonely = []
    for filename, text in sources.items():
        for name, lineno in _definitions(ast.parse(text)):
            defined.add(name)
            if name in ORACLES:
                continue
            if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) == 1:
                lonely.append(f"{filename}:{lineno} {name}")
    assert not lonely, "defined but named nowhere else in src/dynctl: " + ", ".join(lonely)
    assert set(ORACLES) <= defined, "stale exemption: " + ", ".join(set(ORACLES) - defined)
