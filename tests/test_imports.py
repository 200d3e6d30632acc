"""No dead imports in the package: every name a module imports is read
somewhere in that module, unless its import line says `# noqa: F401`."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "aqmlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads; lines
    marked `# noqa: F401` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_package_has_modules():
    assert {"model.py", "training.py", "evaluation.py", "pool.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_noqa_only_where_a_name_is_imported_for_others():
    """The re-exports of `__init__` and `pool.read_klog` (traced by the
    benchmark under `pool`) are the only imports kept for other modules."""
    marked = {m.name for m in MODULES if "# noqa: F401" in m.read_text(encoding="utf-8")}
    assert marked == {"__init__.py", "pool.py"}


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport json  # noqa: F401\nimport a.b\nx = a\n"
    assert unused_imports(src) == [(2, "os")]
