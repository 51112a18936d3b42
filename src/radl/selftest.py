"""Quick in-process property checks across the modules.

A fast smoke version of the pytest suite for `radl selftest`: each check
re-derives its expectation independently (brute force or closed form)
and runs in well under a second.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .attention import (
    AttnProjection,
    FeatureGrid,
    attribute_enhancement,
    masked_text_attention,
    scaled_dot_attention,
    scaled_dot_attention_forward,
)
from .fusion import BACKGROUND, INSTANCE, FusionBranch, fuse, fuse_forward
from .layout import BBox, InstanceSpec, LayoutSpec, MaskGrid, rasterize_mask, total_mask
from .pipeline import (
    NoiseSchedule,
    encode_layout,
    init_denoiser,
    mse_loss_and_grads,
    sample,
    zero_grads,
)
from .scenes import SceneConfig, generate, make_scene
from .text import EmbedderConfig, EmbeddingSeq, embed_tokens

Check = tuple[str, bool, str]


def _check_total_mask_union(rng) -> Check:
    worst = True
    for _ in range(50):
        masks = [MaskGrid((rng.random((6, 6)) < 0.4).astype(float)) for _ in range(3)]
        got = total_mask(masks).values
        want = np.zeros((6, 6))
        for r in range(6):
            for c in range(6):
                want[r, c] = 1.0 if sum(m.values[r, c] for m in masks) > 0 else 0.0
        worst = worst and np.array_equal(got, want)
    return ("total_mask union vs brute force", worst, "50 random mask triples")


def _scalar_attention(q, k, v) -> np.ndarray:
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = [float(q[i] @ k[j]) / np.sqrt(q.shape[1]) for j in range(k.shape[0])]
        m = max(logits)
        e = [np.exp(l - m) for l in logits]
        z = sum(e)
        for j in range(k.shape[0]):
            out[i] += (e[j] / z) * v[j]
    return out


def _check_attention_oracle(rng) -> Check:
    worst = 0.0
    for _ in range(10):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        out = scaled_dot_attention(q, k, v)
        worst = max(worst, float(np.max(np.abs(out - _scalar_attention(q, k, v)))))
    return ("attention vs scalar oracle", worst <= 1e-12, f"max abs err {worst:.2e}")


def _check_in_mask_attention(rng) -> Check:
    # the masked ops compute only the rows their mask keeps; each must equal
    # the dense scalar oracle with the rows outside the mask zeroed
    worst = 0.0
    masks = [np.zeros((4, 4)), np.ones((4, 4))]
    masks += [(rng.random((4, 4)) < 0.3).astype(float) for _ in range(4)]
    for m in masks:
        feat = FeatureGrid(4, 4, rng.standard_normal((16, 8)))
        emb = rng.standard_normal((3, 8))
        qlp = rng.standard_normal((16, 8))
        proj = AttnProjection.init(rng, 8)
        keep = m.reshape(-1, 1)
        got_text = masked_text_attention(feat, EmbeddingSeq(emb), proj, MaskGrid(m)).values
        want_text = keep * _scalar_attention(feat.values @ proj.wq, emb @ proj.wk, emb @ proj.wv)
        got_ae = attribute_enhancement(feat, qlp, proj, MaskGrid(m)).values
        want_ae = keep * _scalar_attention(qlp, feat.values @ proj.wk, feat.values @ proj.wv)
        worst = max(
            worst,
            float(np.max(np.abs(got_text - want_text))),
            float(np.max(np.abs(got_ae - want_ae))),
        )
    ok = worst <= 1e-12
    return ("in-mask attention vs scalar oracle", ok, f"{len(masks)} masks, max abs err {worst:.2e}")


def _check_softmax_rows(rng) -> Check:
    _, cache = scaled_dot_attention_forward(
        rng.standard_normal((6, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    )
    err = float(np.max(np.abs(cache.attn.sum(axis=1) - 1.0)))
    return ("attention rows sum to one", err <= 1e-12, f"max dev {err:.2e}")


def _check_fusion(rng) -> Check:
    ones = MaskGrid(np.ones((4, 4)))
    branches = [
        FusionBranch(BACKGROUND, FeatureGrid(4, 4, rng.standard_normal((16, 4))), ones, 0.3),
        FusionBranch(INSTANCE, FeatureGrid(4, 4, rng.standard_normal((16, 4))),
                     MaskGrid((rng.random((4, 4)) < 0.5).astype(float)), -0.7),
    ]
    _, cache = fuse_forward(branches)
    sums_ok = bool(np.all(np.abs(cache.weights.sum(axis=0) - 1.0) <= 1e-12))
    shifted = [FusionBranch(b.kind, b.feat, b.mask, b.logit + 1.234) for b in branches]
    shift_err = float(np.max(np.abs(fuse(branches).values - fuse(shifted).values)))
    ok = sums_ok and shift_err <= 1e-12
    return ("fusion weight sum and logit-shift invariance", ok, f"shift dev {shift_err:.2e}")


def _check_rasterize_area(rng) -> Check:
    ok = True
    for _ in range(30):
        x1, y1 = rng.uniform(0, 0.8, 2)
        x2 = rng.uniform(x1 + 0.05, 1.0)
        y2 = rng.uniform(y1 + 0.05, 1.0)
        box = BBox(float(x1), float(y1), float(x2), float(y2))
        m = rasterize_mask(box, 16, 16)
        ok = ok and abs(m.values.mean() - box.area) <= 4.0 / 16
    return ("rasterized area tracks box area", ok, "30 random boxes at 16x16")


def _check_embedder(rng) -> Check:
    cfg = EmbedderConfig(dim=8, seed=0)
    a = embed_tokens(["red", "square"], cfg).values
    b = embed_tokens(["red", "square"], cfg).values
    norms = np.linalg.norm(a, axis=1)
    ok = np.array_equal(a, b) and bool(np.all(np.abs(norms - 1.0) <= 1e-12))
    return ("embedder deterministic unit rows", ok, "2 tokens")


def _check_schedule_and_trace(rng) -> Check:
    sched = NoiseSchedule.make(6)
    mono = bool(np.all(np.diff(sched.betas) > 0) and np.all(np.diff(sched.alpha_bars) < 0))
    params = init_denoiser(0, d=4, image_size=8, t_train=12)
    scene = make_scene(3, SceneConfig(image_size=8, n_instances=(1, 1)))
    _, trace = sample(
        params, scene.layout, sched=sched, total_steps=6, radl_steps=3,
        rng_seed=1, embed_cfg=EmbedderConfig(dim=4, seed=0),
    )
    ok = mono and trace == [True] * 3 + [False] * 3
    return ("schedule monotone and activation trace", ok, f"trace {trace}")


def _check_batched_sampling(rng) -> Check:
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
    batched, _ = sample(params, layout, rng_seed=seeds, **kwargs)
    ok = all(
        np.array_equal(batched[k], sample(params, layout, rng_seed=seed, **kwargs)[0])
        for k, seed in enumerate(seeds)
    )
    return ("batched sampling equals serial", ok, f"seeds {seeds}, 2 instances, byte equality")


def _check_packed_train_step(rng) -> Check:
    # one packed forward and backward over three layouts (2, 1 and 0
    # instances) must give the loss and gradients of three lone passes
    params = init_denoiser(0, d=4, image_size=8, t_train=12)
    embed_cfg = EmbedderConfig(dim=4, seed=0)
    sched = NoiseSchedule.make(12)

    def first_scene(n: int):
        cfg = SceneConfig(image_size=8, n_instances=(n, n), min_box=0.3, max_box=0.5)
        return generate(0, 1, cfg)[0]

    scenes = [first_scene(2), first_scene(1)]
    scenes.append(replace(scenes[0], layout=LayoutSpec(prompt="a plain gray background")))
    ts = [int(t) for t in rng.integers(1, 13, len(scenes))]
    noise = rng.standard_normal((len(scenes), 3, 8, 8))
    sides = (params.fine_side, params.coarse_side)
    encs = [encode_layout(sc.layout, embed_cfg, sides) for sc in scenes]

    g = zero_grads(params)
    loss = mse_loss_and_grads(params, scenes, ts, noise, encs, True, g, sched)
    g_ref, loss_ref = zero_grads(params), 0.0
    for scene, t, n, enc in zip(scenes, ts, noise, encs):
        loss_ref += mse_loss_and_grads(params, [scene], [t], n[None], [enc], True, g_ref, sched)

    def rel(a, b) -> float:
        return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300))

    worst = max([rel(np.array(loss), np.array(loss_ref))] + [rel(g[k], g_ref[k]) for k in g])
    return ("packed train step equals per-sample steps", worst <= 1e-12,
            f"3 scenes (2, 1, 0 instances), max rel err {worst:.2e}")


def run_selftest(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = [
        _check_total_mask_union,
        _check_attention_oracle,
        _check_in_mask_attention,
        _check_softmax_rows,
        _check_fusion,
        _check_rasterize_area,
        _check_embedder,
        _check_schedule_and_trace,
        _check_batched_sampling,
        _check_packed_train_step,
    ]
    return [(name, bool(ok), detail) for name, ok, detail in (fn(rng) for fn in checks)]
