"""Every function, class, method and module-level constant in src/dynctl is referenced.

A definition that no expression in the package reads has no caller in the
library: no command, verify check or sweep reaches it. Such code is either
wired in or deleted together with its tests. A reference is a name or an
attribute being read, or a string constant equal to the name, which is how
getattr-style tables such as reports.CSV_FIELDS reach an attribute. Words in
docstrings and comments are not references. References are matched by name,
not by binding, so a local variable that shares a definition's name hides it.

The exemptions are references that tests compare the library against, and
methods that code outside the package calls. Dataclass fields must be read
too, except those of the reports that cli serializes with asdict.
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


# Dataclasses whose fields are read by dataclasses.asdict, not by name.
SERIALIZED = {
    "DensityReport": "cli serializes the density report with asdict",
    "AvgReport": "cli serializes the avg report with asdict",
    "ThreeParamReport": "cli serializes the avg3 report with asdict",
    "CellTally": "asdict serializes the cells of a ThreeParamReport",
    "FFAvgReport": "cli serializes the ffavg report with asdict",
    "CheckResult": "cli serializes each verify check with asdict",
}


def _dataclass_fields(tree: ast.Module):
    """(class name, field name, line) of each annotated field of each @dataclass."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield node.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    classes = set()
    unread = []
    for filename, tree in trees.items():
        for cls, field, lineno in _dataclass_fields(tree):
            classes.add(cls)
            if cls not in SERIALIZED and field not in referenced:
                unread.append(f"{filename}:{lineno} {cls}.{field}")
    assert not unread, "dataclass field read nowhere in src/dynctl: " + ", ".join(unread)
    assert set(SERIALIZED) <= classes, "stale exemption: " + ", ".join(set(SERIALIZED) - classes)


# Defaulted parameters that no call in src/dynctl passes by name or position.
UNPASSED_DEFAULTS = {
    "main.argv": "tests and the console script call main; the console script passes nothing",
    "ff_family_verification.seed": "cmd_verify passes seed through a keyword dict",
    "cofactor_certificates_check.seed": "cmd_verify passes seed through a keyword dict",
    "random_map.coeff_bound": "tests draw random maps at other coefficient sizes",
    "random_coprime_pair.bound": "tests draw random pairs at other sizes",
}


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, function name, parameter, positional index or None, line)
    of each defaulted parameter of each function and method. The index counts
    from the first argument a caller writes, so self and cls are skipped."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                args = child.args
                positional = args.posonlyargs + args.args
                if in_class and positional and positional[0].arg in ("self", "cls"):
                    positional = positional[1:]
                for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        len(positional) - len(args.defaults)):
                    yield qualname, child.name, arg.arg, i, child.lineno
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield qualname, child.name, arg.arg, None, child.lineno
                yield from walk(child, qualname + ".", False)
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(tree, "", False)


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _calls(tree: ast.Module):
    """(callee name, positional argument count, keyword names) of each call;
    functools.partial(f, ...) counts as a call of f with the arguments after f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args, name = node.args, _callee(node.func)
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        if name is not None:
            yield name, len(args), {kw.arg for kw in node.keywords if kw.arg}


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    defined = set()
    unpassed = []
    for filename, tree in trees.items():
        for qualname, name, param, index, lineno in _defaulted_parameters(tree):
            key = f"{qualname}.{param}"
            defined.add(key)
            passed = any(callee == name and (param in keywords or
                                             (index is not None and n_positional > index))
                         for callee, n_positional, keywords in calls)
            if not passed and key not in UNPASSED_DEFAULTS:
                unpassed.append(f"{filename}:{lineno} {qualname}({param})")
    assert not unpassed, "defaulted but passed by no call in src/dynctl: " + ", ".join(unpassed)
    assert set(UNPASSED_DEFAULTS) <= defined, \
        "stale exemption: " + ", ".join(set(UNPASSED_DEFAULTS) - defined)
