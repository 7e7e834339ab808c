"""Source hygiene checks that need neither ruff nor mypy installed.

CI runs the real tools; these AST checks pin the two rules most likely to
drift between CI runs, so a local tier-1 run checks them too:

* no unused imports under ``src/``, ``tests/`` and ``examples/`` (ruff's
  F401).  ``__init__.py`` files re-export their package surface and are
  exempt, as is any import statement carrying ``# noqa``; names listed in
  ``__all__`` or referenced from string annotations count as used.
* every ``def`` in the modules ``mypy.ini`` gates with
  ``disallow_untyped_defs`` is fully annotated.  The gated modules are read
  from ``mypy.ini`` itself, so the config and this check cannot disagree.
"""

from __future__ import annotations

import ast
import configparser
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

Function = (ast.FunctionDef, ast.AsyncFunctionDef)

#: ``(line, name)`` of one finding in a source file.
Finding = Tuple[int, str]


def _string_annotation_names(tree: ast.AST) -> Iterator[str]:
    """Names referenced from quoted annotations (``x: "Dataflow"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotation = node.annotation
        elif isinstance(node, Function):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        else:
            continue
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    parsed = ast.parse(part.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _exported_names(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            for element in getattr(node.value, "elts", ()):
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    yield element.value


def unused_imports(source: str) -> List[Finding]:
    """Every name ``source`` imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_string_annotation_names(tree))
    used.update(_exported_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def untyped_defs(source: str) -> List[Finding]:
    """Every def in ``source`` missing a parameter or return annotation."""
    findings: List[Finding] = []

    def check(function: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool) -> None:
        arguments = function.args
        params = arguments.posonlyargs + arguments.args
        static = any(
            isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
            for decorator in function.decorator_list
        )
        if is_method and not static:
            params = params[1:]  # self / cls
        params = params + arguments.kwonlyargs
        params += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
        missing = [param.arg for param in params if param.annotation is None]
        # mypy lets ``__init__`` omit ``-> None`` once any argument is annotated.
        implicit_none = function.name == "__init__" and len(missing) < len(params)
        if function.returns is None and not implicit_none:
            missing.append("return")
        if missing:
            findings.append((function.lineno, f"{function.name}({', '.join(missing)})"))

    def visit(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, Function):
                check(child, in_class)
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef) or in_class)

    visit(ast.parse(source), False)
    return findings


def gated_modules() -> List[str]:
    """Module patterns ``mypy.ini`` checks with ``disallow_untyped_defs``."""
    config = configparser.ConfigParser()
    config.read(ROOT / "mypy.ini")
    return [
        section[len("mypy-"):]
        for section in config.sections()
        if section.startswith("mypy-")
        and config.getboolean(section, "disallow_untyped_defs", fallback=False)
    ]


def module_files(pattern: str) -> List[Path]:
    """The source files a mypy module pattern (``a.b`` or ``a.*``) covers."""
    if pattern.endswith(".*"):
        return sorted(SRC.joinpath(*pattern[:-2].split(".")).rglob("*.py"))
    base = SRC.joinpath(*pattern.split("."))
    return [path for path in (base.with_suffix(".py"), base / "__init__.py") if path.exists()]


def findings_in(paths: List[Path], checker) -> List[str]:
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in paths
        for line, name in checker(path.read_text(encoding="utf-8"))
    ]


class TestUnusedImports:
    @pytest.mark.parametrize("directory", ["src", "tests", "examples"])
    def test_no_unused_imports(self, directory):
        paths = [
            path
            for path in sorted((ROOT / directory).rglob("*.py"))
            if path.name != "__init__.py"
        ]
        assert paths
        assert findings_in(paths, unused_imports) == []

    def test_the_check_flags_only_the_unused_import(self):
        source = (
            "import json\n"
            "import os  # noqa: F401\n"
            "from typing import TYPE_CHECKING, List\n"
            "if TYPE_CHECKING:\n"
            "    from pathlib import Path\n"
            "def f(p: 'Path') -> List[int]:\n"
            "    return []\n"
        )
        assert unused_imports(source) == [(1, "json")]


class TestGatedModulesAreAnnotated:
    def test_mypy_ini_gates_resolve_to_source_files(self):
        patterns = gated_modules()
        assert {"repro.spe.channels", "repro.spe.sockets"} <= set(patterns)
        assert [pattern for pattern in patterns if not module_files(pattern)] == []

    @pytest.mark.parametrize("pattern", gated_modules())
    def test_every_def_is_fully_annotated(self, pattern):
        assert findings_in(module_files(pattern), untyped_defs) == []

    def test_the_check_flags_partial_annotations(self):
        source = (
            "class C:\n"
            "    def __init__(self, a: int):\n"
            "        pass\n"
            "    def m(self, b) -> None:\n"
            "        def inner(c: int):\n"
            "            pass\n"
            "    @staticmethod\n"
            "    def s(d: int) -> int:\n"
            "        return d\n"
        )
        assert untyped_defs(source) == [(4, "m(b)"), (5, "inner(return)")]
