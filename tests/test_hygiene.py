"""Source hygiene checks that need only the standard library."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import in ``tree`` and never read or listed in ``__all__``."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): sorted(names)
        for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
        if (names := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def builtin_open_calls(tree: ast.Module, opener: str | None = None) -> list[int]:
    """Lines of the calls to the builtin ``open`` in ``tree``, outside the function ``opener``."""
    exempt = {
        id(node)
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name == opener
        for node in ast.walk(function)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open" and id(node) not in exempt
    )


def test_one_file_opener():
    """``data.open_text`` is the only code in ``src/`` that calls the builtin ``open``."""
    found = {
        str(path.relative_to(ROOT)): lines
        for path in sorted(ROOT.glob("src/**/*.py"))
        if (lines := builtin_open_calls(
            ast.parse(path.read_text(encoding="utf-8")),
            "open_text" if path.name == "data.py" else None,
        ))
    }
    assert found == {}


def test_traced_names_exist():
    """Each function the benchmark's tracer rebinds, read from ``bench/tracer.py``
    without importing it, is still a function of the package."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    missing = []
    for name in traced:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"banditrank.{module}"), function, None)):
            missing.append(name)
    assert traced and missing == []
