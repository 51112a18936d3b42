"""Quick in-process property checks across the modules.

A fast smoke version of the pytest suite for `radl selftest`: each check
re-derives its expectation independently (brute force or closed form)
and runs in well under a second.
"""
from __future__ import annotations

import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attention import (
    AttnProjection,
    FeatureGrid,
    KeyValues,
    RowSet,
    attribute_enhancement_forward,
    masked_text_attention_forward,
    scaled_dot_attention_forward,
)
from .evalmetrics import detect
from .fusion import FusionBranch, fuse_forward, fusion_weights
from .layout import BBox, InstanceSpec, LayoutSpec, rasterize_mask, total_mask
from .oracles import attention_oracle, detect_oracle, rel_err, union_oracle
from .pipeline import (
    NoiseSchedule,
    encode_layout,
    init_denoiser,
    mse_loss_and_grads,
    sample,
    zero_grads,
)
from .scenes import BACKGROUND_RGB, PALETTE_RGB, SceneConfig, generate, make_scene
from .text import EmbedderConfig, embed_tokens

Check = tuple[str, bool, str]


def _check_total_mask_union(rng) -> tuple[bool, str]:
    worst = True
    for _ in range(50):
        masks = [rng.random((6, 6)) < 0.4 for _ in range(3)]
        worst = worst and np.array_equal(total_mask(masks, 6, 6), union_oracle(masks, 6, 6))
    return worst, "50 random mask triples"


def _check_attention_oracle(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(10):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        out = scaled_dot_attention_forward(q, k, v)[0]
        worst = max(worst, float(np.max(np.abs(out - attention_oracle(q, k, v)))))
    return worst <= 1e-12, f"max abs err {worst:.2e}"


def _check_in_mask_attention(rng) -> tuple[bool, str]:
    # the masked ops compute and return only the rows their mask keeps; each,
    # scattered to a full grid, must equal the dense scalar oracle with the
    # rows outside the mask zeroed.  Attribute enhancement reads features
    # zero outside its rows, and its oracle takes every row as a key.
    worst = 0.0
    masks = [np.zeros((4, 4), dtype=bool), np.ones((4, 4), dtype=bool)]
    masks += [rng.random((4, 4)) < 0.3 for _ in range(4)]
    every = RowSet.every(4, 4)
    for m in masks:
        feat = FeatureGrid(rng.standard_normal((1, 16, 8)), every)
        x = feat.values[0]
        emb = rng.standard_normal((3, 8))
        qlp = rng.standard_normal((16, 8))
        proj = AttnProjection.init(rng, 8)
        keep, rows = m.reshape(-1, 1), RowSet.of(m)
        got_text = masked_text_attention_forward(feat, KeyValues.project(emb, proj), proj, rows)[0]
        got_text = rows.put(got_text.values)
        want_text = keep * attention_oracle(x @ proj.wq, emb @ proj.wk, emb @ proj.wv)
        x = keep * x
        got_ae = attribute_enhancement_forward(FeatureGrid(x[None], every), qlp, proj, rows)[0]
        got_ae = rows.put(got_ae.values)
        want_ae = keep * attention_oracle(qlp, x @ proj.wk, x @ proj.wv)
        worst = max(
            worst,
            float(np.max(np.abs(got_text - want_text))),
            float(np.max(np.abs(got_ae - want_ae))),
        )
    # a packed set: grids 0, 2 and 3 of a stack of 4 keep a random, the
    # empty and the full mask's rows, padded to the longest; grid 1 keeps none
    grids, packed = [0, 2, 3], [masks[2], masks[0], masks[1]]
    rows = RowSet.pack([RowSet.of(m) for m in packed], grids, 4)
    stack = rng.standard_normal((4, 16, 8)) * rows.mask[..., None]
    qlp, proj = rng.standard_normal((16, 8)), AttnProjection.init(rng, 8)
    want_ae = np.zeros_like(stack)
    for g, m in zip(grids, packed):
        want_ae[g] = m.reshape(-1, 1) * attention_oracle(qlp, stack[g] @ proj.wk, stack[g] @ proj.wv)
    got_ae = attribute_enhancement_forward(FeatureGrid(stack, every), qlp, proj, rows)[0]
    got_ae = rows.put(got_ae.values)
    worst = max(worst, float(np.max(np.abs(got_ae - want_ae))))
    ok = worst <= 1e-12
    return ok, f"{len(masks)} masks and a packed stack of 4, max abs err {worst:.2e}"


def _check_softmax_rows(rng) -> tuple[bool, str]:
    _, cache = scaled_dot_attention_forward(
        rng.standard_normal((6, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    )
    err = float(np.max(np.abs(cache.attn.sum(axis=1) - 1.0)))
    return err <= 1e-12, f"max dev {err:.2e}"


def _check_fusion(rng) -> tuple[bool, str]:
    bg, draw = rng.standard_normal((2, 1, 16, 4))
    rows = RowSet.of(rng.random((4, 4)) < 0.5)
    branches = [
        FusionBranch(FeatureGrid(bg, RowSet.every(4, 4))),
        FusionBranch(FeatureGrid(rows.take(draw), rows)),
    ]
    masks, logits = [b.feat.rows.mask for b in branches], np.array([0.3, -0.7])
    out, cache = fuse_forward(branches, fusion_weights(masks, logits))
    sums_ok = bool(np.all(np.abs(cache.weights.sum(axis=0) - 1.0) <= 1e-12))
    out_shifted = fuse_forward(branches, fusion_weights(masks, logits + 1.234))[0]
    out, out_shifted = out.values, out_shifted.values
    shift_err = float(np.max(np.abs(out - out_shifted)))
    ok = sums_ok and shift_err <= 1e-12
    return ok, f"shift dev {shift_err:.2e}"


def _check_rasterize_area(rng) -> tuple[bool, str]:
    ok = True
    for _ in range(30):
        x1, y1 = rng.uniform(0, 0.8, 2)
        x2 = rng.uniform(x1 + 0.05, 1.0)
        y2 = rng.uniform(y1 + 0.05, 1.0)
        box = BBox(float(x1), float(y1), float(x2), float(y2))
        m = rasterize_mask(box, 16, 16)
        ok = ok and abs(m.mean() - box.area) <= 4.0 / 16
    return ok, "30 random boxes at 16x16"


def _check_embedder(rng) -> tuple[bool, str]:
    cfg = EmbedderConfig(dim=8, seed=0)
    a = embed_tokens(["red", "square"], cfg).values
    b = embed_tokens(["red", "square"], cfg).values
    norms = np.linalg.norm(a, axis=1)
    ok = np.array_equal(a, b) and bool(np.all(np.abs(norms - 1.0) <= 1e-12))
    return ok, "2 tokens"


def _check_schedule_and_trace(rng) -> tuple[bool, str]:
    sched = NoiseSchedule.make(6)
    mono = bool(np.all(np.diff(sched.betas) > 0) and np.all(np.diff(sched.alpha_bars) < 0))
    params = init_denoiser(0, d=4, image_size=8, t_train=12)
    scene = make_scene(3, SceneConfig(image_size=8, n_instances=(1, 1)))
    _, trace = sample(
        params, scene.layout, total_steps=6, radl_steps=3,
        seeds=[1], embed_cfg=EmbedderConfig(dim=4, seed=0),
    )
    ok = mono and trace == [True] * 3 + [False] * 3
    return ok, f"trace {trace}"


def _check_batched_sampling(rng) -> tuple[bool, str]:
    params = init_denoiser(0, d=4, image_size=8, t_train=12)
    layout = LayoutSpec(
        prompt="a red square resting on a blue square",
        instances=(
            InstanceSpec("red square", BBox(0.125, 0.125, 0.5, 0.5)),
            InstanceSpec("blue square", BBox(0.375, 0.5, 0.875, 0.875)),
        ),
    )
    seeds = [int(s) for s in rng.integers(0, 2**31, 2)]
    kwargs = dict(total_steps=6, radl_steps=3, embed_cfg=EmbedderConfig(dim=4, seed=0))
    batched, _ = sample(params, layout, seeds=seeds, **kwargs)
    ok = all(
        np.array_equal(batched[k], sample(params, layout, seeds=[seed], **kwargs)[0][0])
        for k, seed in enumerate(seeds)
    )
    return ok, f"seeds {seeds}, 2 instances, byte equality"


def _check_packed_train_step(rng) -> tuple[bool, str]:
    # one packed forward and backward over three layouts (2, 1 and 0
    # instances) must give the loss and gradients of three lone passes
    params = init_denoiser(0, d=4, image_size=8, t_train=12)
    embed_cfg = EmbedderConfig(dim=4, seed=0)

    def first_scene(n: int):
        cfg = SceneConfig(image_size=8, n_instances=(n, n), min_box=0.3, max_box=0.5)
        return generate(0, 1, cfg)[0]

    scenes = [first_scene(2), first_scene(1)]
    scenes.append(replace(scenes[0], layout=LayoutSpec(prompt="a plain gray background")))
    ts = [int(t) for t in rng.integers(1, 13, len(scenes))]
    noise = rng.standard_normal((len(scenes), 3, 8, 8))
    encs = [encode_layout(sc.layout, embed_cfg, params.image_size) for sc in scenes]

    g = zero_grads(params)
    loss = mse_loss_and_grads(params, scenes, ts, noise, encs, g)
    g_ref, loss_ref = zero_grads(params), 0.0
    for scene, t, n, enc in zip(scenes, ts, noise, encs):
        loss_ref += mse_loss_and_grads(params, [scene], [t], n[None], [enc], g_ref)

    worst = max([rel_err(loss, loss_ref)] + [rel_err(g[k], g_ref[k]) for k in g])
    return worst <= 1e-12, f"3 scenes (2, 1, 0 instances), max rel err {worst:.2e}"


def _check_detect_oracle(rng) -> tuple[bool, str]:
    # noise of two exact palette colors and the background, so that the
    # detector sees regions of every size and shape
    names = sorted(PALETTE_RGB)
    centers = np.array([PALETTE_RGB[n] for n in names] + [BACKGROUND_RGB])
    ok, count = True, 0
    for h, w in ((32, 32), (16, 24), (1, 32), (32, 1)):
        labels = rng.choice([*rng.choice(len(names), 2, replace=False), len(names)], (h, w))
        image = centers[labels].transpose(2, 0, 1)
        want = detect_oracle(image, tuple(names))
        ok = ok and detect(image, tuple(names)) == want
        count += len(want)
    return ok, f"4 noise images, {count} regions, list equality"


CHECKS = (  # (name, check); a check returns (passed, detail)
    ("total_mask union vs brute force", _check_total_mask_union),
    ("attention vs scalar oracle", _check_attention_oracle),
    ("in-mask attention vs scalar oracle", _check_in_mask_attention),
    ("attention rows sum to one", _check_softmax_rows),
    ("fusion weight sum and logit-shift invariance", _check_fusion),
    ("rasterized area tracks box area", _check_rasterize_area),
    ("embedder deterministic unit rows", _check_embedder),
    ("schedule monotone and activation trace", _check_schedule_and_trace),
    ("batched sampling equals serial", _check_batched_sampling),
    ("packed train step equals per-sample steps", _check_packed_train_step),
    ("detect vs flood-fill oracle", _check_detect_oracle),
)


def run_selftest(seed: int = 0) -> list[Check]:
    """(name, passed, detail) of every check, in order; a check that raises
    fails, its detail naming the exception and where it was raised."""
    rng = np.random.default_rng(seed)
    results = []
    for name, check in CHECKS:
        try:
            ok, detail = check(rng)
        except Exception as e:  # a broken program fails its check, it is no input error
            at = traceback.extract_tb(e.__traceback__)[-1]
            ok = False
            detail = f"raised {type(e).__name__}: {e} ({Path(at.filename).name}:{at.lineno})"
        results.append((name, bool(ok), detail))
    return results
