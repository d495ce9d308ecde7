"""Source and test-settings hygiene checks that need only the standard library."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by an import in ``tree`` and never read or listed in ``__all__``;
    a name that is only assigned to or deleted is not read."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


def test_unused_imports_reads_only_loads():
    tree = ast.parse("import a.b\nfrom c import d, e as f\nfrom g import h, i\n"
                     "__all__ = ['f']\nprint(a.b, d)\nh = None\ndel i\n")
    assert unused_imports(tree) == {"h", "i"}


def python_sources() -> list[Path]:
    """The package's, the tests' and the benchmark's Python files."""
    return sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py"),
                   *ROOT.glob("bench/*.py")])


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): sorted(names)
        for path in python_sources()
        if (names := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_grammar_of_the_oldest_supported_python():
    """Every file under ``src/`` and ``tests/`` and each script of ``bench/`` parses
    with Python 3.10's grammar, the floor that ``pyproject.toml``'s ``requires-python``
    declares. This checks syntax only: a library API newer than 3.10 goes unseen."""
    unparsed = {}
    for path in python_sources():
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        except SyntaxError as exc:
            unparsed[str(path.relative_to(ROOT))] = f"line {exc.lineno}: {exc.msg}"
    assert unparsed == {}


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


def test_no_splitlines_in_src():
    """No code in ``src/`` calls ``splitlines``. File iteration splits only at
    "\\n", but ``str.splitlines`` also splits at "\\r", "\\x1c" to "\\x1e",
    "\\x85", "\\u2028" and other characters that an id may hold."""
    found = {
        str(path.relative_to(ROOT)): lines
        for path in sorted(ROOT.glob("src/**/*.py"))
        if (lines := sorted(
            node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "splitlines"
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


# Public names in ``src/`` that nothing in ``src/`` names, each with its reason.
UNCALLED_BY_DESIGN = {
    "evaluate_policy": "the benchmark traces it and calls it by name",
    "rank_metrics": "the benchmark traces it by name",
    "true_risk": "the benchmark traces it and calls it by name",
    "build_supervised": "the benchmark traces it and calls it by name",
    "snips": "an estimator of the paper, kept for library users (ROADMAP direction 3)",
    "ips": "an estimator of the paper, kept for library users (ROADMAP direction 3)",
    "empirical_average": "an estimator of the paper, kept for library users (ROADMAP direction 3)",
    "train_ea": "the empirical-average learner that acceptance criterion 8 compares",
    "load_world": "the reader of the world.json that the simulate command writes",
    "pair_ids": "the benchmark draws its impression stream from it and splits by its queries",
}


def definitions(trees: list[ast.Module]) -> set[str]:
    """The names of the functions, classes and methods defined in ``trees``."""
    return {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def uncalled(trees: list[ast.Module]) -> set[str]:
    """The functions, classes and methods defined in ``trees`` whose name no
    expression in ``trees`` reads, as a variable or as an attribute."""
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return definitions(trees) - named


def source_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in ROOT.glob("src/**/*.py")]


def test_public_names_have_callers():
    """No public helper in ``src/`` without a caller in ``src/``, but the listed ones."""
    public = {name for name in uncalled(source_trees()) if not name.startswith("_")}
    assert public == set(UNCALLED_BY_DESIGN)


def test_private_names_have_callers():
    """No private helper in ``src/`` without a caller in ``src/``: one left
    behind when its callers went is dead code."""
    trees = source_trees()
    private = {name for name in definitions(trees) if name.startswith("_")
               and not name.startswith("__")}
    assert private and private & uncalled(trees) == set()


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5


def test_passes():
    pass
"""


def test_a_failing_property_reports_its_example_under_the_suite_settings(tmp_path):
    """Under ``pyproject.toml``'s warning filters, a failing hypothesis property prints
    its falsifying example and the run goes on to the next test, with no
    ``INTERNALERROR`` from a warning raised while hypothesis reports the failure."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example: test_fails(" in output
    assert "1 failed, 1 passed" in output and run.returncode == 1
