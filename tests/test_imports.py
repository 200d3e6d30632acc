"""No dead imports in the package: every name a module imports is read
somewhere in that module, unless its import line says `# noqa: F401`.  No
dead private definitions either: every private module-level name and every
private method the package defines is read somewhere in it."""

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


def unread_private_definitions(sources):
    """(module, line, name) of each private (`_name`, not a dunder)
    module-level function, class or constant and each private method that
    the modules `sources` (name -> source) define and none of them reads,
    as a name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(t.lineno, t.id) for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [(node.lineno, node.name)]
                if isinstance(node, ast.ClassDef):
                    names += [(item.lineno, item.name) for item in node.body
                              if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                continue
            defined += [(module, line, name) for line, name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [entry for entry in defined if entry[2] not in read]


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


def test_no_unread_private_definition():
    sources = {m.name: m.read_text(encoding="utf-8") for m in MODULES}
    assert unread_private_definitions(sources) == []


def test_the_check_sees_an_unread_private_definition():
    a = ("_USED = 1\n_UNUSED: int = 2\ndef _f():\n    return _USED\nclass C:\n"
         "    def _m(self):\n        pass\n    def _n(self):\n        return self._m()\n"
         "    def __len__(self):\n        return 0\n")
    b = "from a import _f\nx = _f()\n_y, z = 1, 2\n"
    assert unread_private_definitions({"a": a, "b": b}) == [
        ("a", 2, "_UNUSED"), ("a", 8, "_n"), ("b", 3, "_y")]
