"""Module boundaries of the package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import abtrap
import abtrap.cli

PACKAGE = Path(abtrap.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_public_name_has_a_reader():
    # a module's `__all__` lists only what a sibling imports, what the package
    # re-exports, or what the benchmark or the console script names
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and path.stem != "__init__":
                imported |= {f"{node.module}.{a.name}" for a in node.names}
    outside = " ".join(
        (ROOT / name).read_text(encoding="utf-8")
        for name in ("bench/spans.py", "bench/run.py", "pyproject.toml")
    )
    unread = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for name in getattr(importlib.import_module(f"abtrap.{path.stem}"), "__all__", ())
        if f"{path.stem}.{name}" not in imported
        and name not in abtrap.__all__
        and not re.search(rf"\b{re.escape(name)}\b", outside)
    ]
    assert unread == []


def test_package_has_no_assert_statement():
    # `python -O` strips assert, so a check that must hold raises instead
    offenders = [
        f"{p.name}:{node.lineno}"
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


@pytest.mark.parametrize("folder", ["src/abtrap", "tests", "bench"])
def test_python_3_10_grammar(folder):
    # pyproject.toml allows 3.10, so syntax new in 3.11 (such as except*) is refused here
    paths = sorted((ROOT / folder).glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_bench_tracer_finds_every_name_it_wraps(bench_tracer):
    # the tracer looks each traced function up by name, with no default
    try:
        bench_tracer.install()
    finally:
        bench_tracer.uninstall()
    # the bench clears the zero cache between passes
    assert callable(abtrap.specfun.bessel_zero.cache_clear)


def test_readme_library_snippet_runs():
    # the README's Library section is the documented public API; run it as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    assert snippet is not None
    scope = {}
    exec(snippet[1], scope)
    assert scope["state"].energy > 0.0
    assert scope["profile"].p_max > 0.0
    assert scope["rep"].satisfied
