"""Module boundaries of the package."""

import ast
import importlib
from pathlib import Path

import abtrap

PACKAGE = Path(abtrap.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """`module.name` for each underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "abtrap"
        if sibling:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = {p.name: _private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def test_sibling_imports_are_in_the_siblings_all():
    # a module without `__all__` (errors.py) declares no public list to check
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            public = getattr(importlib.import_module(f"abtrap.{node.module}"), "__all__", None)
            if public is not None:
                missing += [
                    f"{path.stem} <- {node.module}.{a.name}"
                    for a in node.names
                    if a.name not in public
                ]
    assert missing == []


def test_package_has_no_assert_statement():
    # `python -O` strips assert, so a check that must hold raises instead
    offenders = [
        f"{p.name}:{node.lineno}"
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
