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


def test_traced_ops_record_both_sides():
    # the tracer tags a forward by its grid and a backward by the leading
    # axis of its upstream gradient; a backward handed kept rows, or a grid
    # that is not rows-first, would be counted under a side no forward has
    import numpy as np

    from radl.scenes import SceneConfig, make_scene
    from radl.text import EmbedderConfig

    tracing = load_tracing()
    modules = {"cli": cli, "evalmetrics": evalmetrics, "pipeline": pipeline, "scenes": scenes}
    params = pipeline.init_denoiser(0, d=4, image_size=32, t_train=20)
    ec = EmbedderConfig(dim=4, seed=0)
    crowded = SceneConfig(n_instances=(3, 4), min_box=0.15, max_box=0.3)
    pack = [make_scene(0, SceneConfig()), make_scene(1, crowded)]
    encs = [pipeline.encode_layout(s.layout, ec, 32) for s in pack]
    noise = np.random.default_rng(0).standard_normal((2, 3, 32, 32))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, modules):
        pipeline.mse_loss_and_grads(
            params, pack, [5, 15], noise, encs, pipeline.zero_grads(params)
        )
        pipeline.sample(params, pack[1].layout, total_steps=2, radl_steps=1, seeds=[0, 1],
                        embed_cfg=ec)
    ops = [f"attention.{op}" for op in tracing.ATTENTION_OPS] + ["fusion.fuse"]
    for op in ops:
        for direction in ("forward", "backward"):
            for side in tracing.SIDES:
                assert tracer.calls[f"{op}_{direction}.{side}"] > 0, (op, direction, side)
    tags = {key.rsplit(".", 1)[1] for key in tracer.calls if key.startswith(tuple(ops))}
    assert tags == set(tracing.SIDES)
