"""The benchmark tracer's names still point at ucrlab functions, and its hooks'
arguments at their parameters: a deleted or renamed function would read 0 in
a traced metric, not fail."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# what each hook reads from its function's bound arguments
HOOK_ARGUMENTS = {
    "ucrcap.ucr_capacity_oracle": {"source", "u_card", "grid_step"},
    "protocol.build_codebook": {"cfg"},
    "serialize.write_json": {"path"},
    "serialize.write_csv": {"path"},
    "serialize.RunManifest.write": {"path"},
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(name: str):
    """The function a tracer name such as "serialize.RunManifest.write" wraps."""
    layer, *path = name.split(".")
    obj = importlib.import_module(f"ucrlab.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("name", sorted(
    {fn for fns in tracer.TIMED.values() for fn in fns} | set(tracer.HOOKS)))
def test_traced_name_is_a_ucrlab_function(name):
    fn = resolve(name)
    assert inspect.isfunction(fn)
    assert fn.__module__ == "ucrlab." + name.split(".")[0]


@pytest.mark.parametrize("name", sorted(tracer.HOOKS))
def test_hooked_function_takes_the_arguments_its_hook_reads(name):
    source = inspect.getsource(tracer.HOOKS[name])
    read = set(re.findall(r'bound\.arguments\["(\w+)"\]', source))
    assert read == HOOK_ARGUMENTS.get(name, set())
    assert read <= set(inspect.signature(resolve(name)).parameters)
