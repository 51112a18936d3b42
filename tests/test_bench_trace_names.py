"""The benchmark's tracer patches radl functions by name from outside the
program (perfbench/tracing.py).  A rename in radl would make a traced run
fail or lose a layer, so the names and the argument it reads are pinned
here, in the program's own suite."""
import importlib.util
import inspect
from pathlib import Path

from radl import cli, evalmetrics, pipeline, scenes

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_table_resolves_against_radl():
    modules = {"cli": cli, "evalmetrics": evalmetrics, "pipeline": pipeline, "scenes": scenes}
    rows = load_tracing().patch_table(modules)
    assert rows
    missing = [
        f"{module.__name__}.{attr}" for module, attr, *_ in rows
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


def test_radl_on_is_positional_argument_4():
    # the tracer counts stack-on forwards from args[4]
    params = list(inspect.signature(pipeline.denoise_forward_cached).parameters)
    assert params[4] == "radl_on"
