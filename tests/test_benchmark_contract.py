"""The benchmark under perfbench/ reaches into the package by name: the
functions its tracer wraps and the model config its workloads build.  A
change that renames or removes one of them fails here, not only in the
benchmark's traced smoke run."""

import functools
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
