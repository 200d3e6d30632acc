"""The benchmark under perfbench/ reaches into the package by name: the
functions its tracer wraps and the model config its workloads build.  A
change that renames or removes one of them fails here, not only in the
benchmark's traced smoke run."""

import ast
import functools
import importlib
import importlib.util
import pathlib
import sys

from aqmlab.model import ModelConfig

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def load(name):
    """perfbench/<name>.py as a module, under a name of its own (registered
    before it runs, as its dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_defined_on_its_owner():
    """The tracer patches `owner.__dict__[attr]`, so an attribute an owner
    only inherits or no longer has would break a traced run."""
    missing = [f"{owner.__name__}.{attr}" for _, _, sites in load("spans").SPANS
               for owner, attr in sites if attr not in owner.__dict__]
    assert missing == []


def test_the_benchmark_model_config_builds():
    settings = load("workloads").MODEL_CONFIG
    assert ModelConfig(**settings).context_window == settings["context_window"]


def aqmlab_references():
    """(file, module, name) for every `aqmlab` name the benchmark files
    reference: each name a `from aqmlab... import` takes, and each `m.name`
    on a module `m` that such an import bound."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "aqmlab":
                for alias in node.names:
                    refs.add((path.name, node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs.add((path.name, modules[node.value.id], node.attr))
    return sorted(refs)


def test_every_aqmlab_name_the_benchmark_references_exists():
    """A name the package no longer has fails here, not in a benchmark run."""
    refs = aqmlab_references()
    # the scan sees both kinds of reference
    assert {("workloads.py", "aqmlab.features", "ACTION_DROP"),
            ("spans.py", "aqmlab.evaluation", "LlmEvery")} <= set(refs)

    def exists(module, name):
        owner = importlib.import_module(module)
        # a package's name may also be a submodule it has not imported
        return hasattr(owner, name) or (hasattr(owner, "__path__") and
                                        importlib.util.find_spec(f"{module}.{name}") is not None)

    assert [ref for ref in refs if not exists(*ref[1:])] == []
