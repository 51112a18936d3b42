"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The steering experiment (criteria 5 and 6) trains three model variants
once, in the background while the rest of the suite runs (the `steering`
fixture, conftest.py), and evaluates held-out layouts; its learning rate
is an experiment parameter, everything else runs at package defaults.
All runs are seeded, so results are exact on a given platform.
"""
import time

import numpy as np

from radl.attention import (
    AttnProjection,
    FeatureGrid,
    KeyValues,
    RowSet,
    attribute_enhancement_backward,
    attribute_enhancement_forward,
    instance_attention_backward,
    instance_attention_forward,
    masked_text_attention_backward,
    masked_text_attention_forward,
    relation_attention_backward,
    relation_attention_forward,
    scaled_dot_attention_backward,
    scaled_dot_attention_forward,
)
from radl.evalmetrics import (
    Detection,
    detect,
    iou,
    load_hsv_table,
    match_instances,
    mean_iou,
    relation_acc,
    rgb_to_hsv,
    success_rate,
)
from radl.fusion import FusionBranch, fuse_forward, fusion_weights
from radl.layout import BBox, InstanceSpec, LayoutSpec, Relation, rasterize_mask, total_mask
from radl.oracles import attention_oracle, central_diff, rel_err
from radl.pipeline import (
    denoise_forward_cached,
    encode_layout,
    gradcheck,
    init_denoiser,
    prepare_stack,
    sample,
)
from radl.scenes import PALETTE, SceneConfig, generate, make_scene
from radl.text import EmbedderConfig

EC = EmbedderConfig(dim=8, seed=0)
SCENE_CFG = SceneConfig()


def announce(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# --- criterion 1: attention oracle suite --------------------------------------

def test_criterion_1_attention_oracle():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        n_q = int(rng.integers(1, 9))
        n_k = int(rng.integers(1, 9))
        q = rng.standard_normal((n_q, 8))
        k = rng.standard_normal((n_k, 8))
        v = rng.standard_normal((n_k, 8))
        out = scaled_dot_attention_forward(q, k, v)[0]
        worst = max(worst, rel_err(out, attention_oracle(q, k, v)))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    announce(1, ok, f"100 oracle cases, max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


# --- criterion 2: gradient suite -----------------------------------------------

def _op_backward_errors(rng):
    """Max FD relative error over every backward op on one seeded case.
    The ops run on stacks of one grid; backwards take the upstream gradient
    rows-first, (h*w, K, d), and give the feature gradient of the rows the
    mask keeps, as a masked forward gives its output; `put` makes both full."""
    errs = []
    d = 4
    feat = FeatureGrid(rng.standard_normal((1, 6, d)), RowSet.every(2, 3))
    emb_vals = rng.standard_normal((3, d))
    proj = AttnProjection.init(rng, d)
    mask = rng.random((2, 3)) < 0.6
    d_out = rng.standard_normal((1, 6, d))
    rows, d_rows = RowSet.of(mask), d_out.swapaxes(0, 1)
    every = RowSet.every(2, 3)

    q = rng.standard_normal((3, d))
    k = rng.standard_normal((4, d))
    v = rng.standard_normal((4, d))
    d_small = rng.standard_normal((3, d))
    _, cache = scaled_dot_attention_forward(q, k, v)
    dq, dk, dv = scaled_dot_attention_backward(d_small, cache)
    for arr, an in ((q, dq), (k, dk), (v, dv)):
        num = central_diff(lambda: scaled_dot_attention_forward(q, k, v)[0], arr, d_small)
        errs.append(rel_err(an, num))

    from radl.text import EmbeddingSeq

    emb = EmbeddingSeq(emb_vals)

    def keys():  # projected on every call: the checks below perturb emb and proj
        return KeyValues.project(emb.values, proj)

    out, cache = masked_text_attention_forward(feat, keys(), proj, rows)
    grads = masked_text_attention_backward(d_rows, cache)

    def run_mta():
        return rows.put(masked_text_attention_forward(feat, keys(), proj, rows)[0].values)

    for arr, an in ((feat.values, rows.put(grads["feat"])), (emb.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        errs.append(rel_err(an, central_diff(run_mta, arr, d_out)))

    qlp = rng.standard_normal((6, d))
    out, cache = attribute_enhancement_forward(feat, qlp, proj, every)
    grads = attribute_enhancement_backward(d_rows, cache)

    def run_ae():
        return attribute_enhancement_forward(feat, qlp, proj, every)[0].values

    for arr, an in ((qlp, grads["qlp"]), (feat.values, every.put(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        errs.append(rel_err(an, central_diff(run_ae, arr, d_out)))

    out, cache = instance_attention_forward(feat, keys(), proj, rows)
    grads = instance_attention_backward(d_rows, cache)

    def run_ia():
        return rows.put(instance_attention_forward(feat, keys(), proj, rows)[0].values)

    errs.append(rel_err(rows.put(grads["feat"]), central_diff(run_ia, feat.values, d_out)))

    out, cache = relation_attention_forward(feat, keys(), proj, rows)
    grads = relation_attention_backward(d_rows, cache)

    def run_rel():
        return rows.put(relation_attention_forward(feat, keys(), proj, rows)[0].values)

    errs.append(rel_err(grads["emb"], central_diff(run_rel, emb.values, d_out)))

    bg, draw = rng.standard_normal((2, 1, 6, d))
    branches = [
        FusionBranch(FeatureGrid(bg, RowSet.every(2, 3))),
        FusionBranch(FeatureGrid(rows.take(draw), rows)),
    ]
    from radl.fusion import fuse_backward

    weights = fusion_weights([b.feat.rows.mask for b in branches], [0.2, -0.4])
    _, cache = fuse_forward(branches, weights)
    d_feats, d_logits = fuse_backward(d_rows, cache)
    num = central_diff(
        lambda: fuse_forward(branches, weights)[0].values, branches[0].feat.values, d_out
    )
    errs.append(rel_err(d_feats[0].swapaxes(0, 1), num))
    return max(errs)


def test_criterion_2_gradient_suite():
    start = time.time()
    cfg8 = SceneConfig(image_size=8, min_box=0.3, max_box=0.6)
    params = init_denoiser(0, d=8, image_size=8, t_train=50)
    worst_e2e = 0.0
    scenes = generate(40, 20, cfg8)
    for i, scene in enumerate(scenes):
        t = 1 + (11 * i) % 50
        report = gradcheck(params, scene, t=t, rng_seed=i, embed_cfg=EC)
        worst_e2e = max(worst_e2e, max(report.max_rel_err.values()))
    worst_ops = 0.0
    for i in range(20):
        worst_ops = max(worst_ops, _op_backward_errors(np.random.default_rng(2000 + i)))
    elapsed = time.time() - start
    ok = worst_e2e < 1e-4 and worst_ops < 1e-4 and elapsed < 120.0
    announce(2, ok, f"20 scenes end-to-end max {worst_e2e:.2e}, per-op max {worst_ops:.2e}, {elapsed:.1f}s")
    assert worst_e2e < 1e-4
    assert worst_ops < 1e-4
    assert elapsed < 120.0


# --- criterion 3: mask and fusion invariants ------------------------------------

def test_criterion_3_mask_fusion_invariants():
    rng = np.random.default_rng(3003)
    for _ in range(1000):
        n = int(rng.integers(0, 5))
        masks = []
        for _ in range(n):
            x1, y1 = rng.uniform(0, 0.8, 2)
            box = BBox(float(x1), float(y1), float(rng.uniform(x1 + 0.05, 1)), float(rng.uniform(y1 + 0.05, 1)))
            masks.append(rasterize_mask(box, 8, 8))
        got = total_mask(masks, height=8, width=8)
        want = np.sum(masks, axis=0) > 0 if masks else np.zeros((8, 8), dtype=bool)
        assert np.array_equal(got, want)

    worst_sum = 0.0
    worst_shift = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        bg = FeatureGrid(rng.standard_normal((1, 16, 4)), RowSet.every(4, 4))
        branches, logits = [FusionBranch(bg)], [float(rng.standard_normal())]
        for _ in range(2):
            draw = rng.standard_normal((1, 16, 4))
            rows = RowSet.of(rng.random((4, 4)) < 0.5)
            branches.append(FusionBranch(FeatureGrid(rows.take(draw), rows)))
            logits.append(float(rng.standard_normal()))
        masks = [b.feat.rows.mask for b in branches]
        out, cache = fuse_forward(branches, fusion_weights(masks, logits))
        worst_sum = max(worst_sum, float(np.max(np.abs(cache.weights.sum(axis=0) - 1.0))))
        shifted = [z + 0.917 for z in logits]
        out_shifted = fuse_forward(branches, fusion_weights(masks, shifted))[0]
        out, out_shifted = out.values, out_shifted.values
        worst_shift = max(worst_shift, rel_err(out, out_shifted))
    ok = worst_sum <= 1e-12 and worst_shift <= 1e-12
    announce(3, ok, f"1000 unions exact; weight-sum dev {worst_sum:.2e}, shift dev {worst_shift:.2e}")
    assert worst_sum <= 1e-12
    assert worst_shift <= 1e-12


# --- criterion 4: schedule conformance -------------------------------------------

def test_criterion_4_schedule_conformance():
    params = init_denoiser(0, d=8, image_size=32, t_train=200)
    scene = make_scene(0, SCENE_CFG)
    _, trace = sample(params, scene.layout, total_steps=60, radl_steps=30, seeds=[0], embed_cfg=EC)
    trace_ok = trace == [True] * 30 + [False] * 30

    other = make_scene(2, SCENE_CFG)
    x = np.random.default_rng(1).standard_normal((1, 3, 32, 32))
    a, b = (
        denoise_forward_cached(
            params, x, [77], prepare_stack([encode_layout(sc.layout, EC, 32)], params, "full"),
            False,
        )[0]
        for sc in (scene, other)
    )
    invariant_ok = np.array_equal(a, b)
    ok = trace_ok and invariant_ok
    announce(4, ok, f"trace 30 on + 30 off: {trace_ok}; off-path layout-invariant: {invariant_ok}")
    assert trace_ok
    assert invariant_ok


# --- criteria 5 and 6: steering experiment ---------------------------------------

def test_criterion_5_steering(steering):
    # recorded from the first verified run (seed 0, 64 held-out layouts):
    # full mIoU 0.624, text-attn-only mIoU 0.311, full attribute accuracy 1.000
    full = steering["full"].report
    ablation = steering["text_attn_only"].report
    ok = (
        full.miou >= ablation.miou
        and full.miou >= 0.5
        and full.attribute_acc >= 0.7
    )
    announce(
        5, ok,
        f"full mIoU {full.miou:.3f} vs text-attn-only {ablation.miou:.3f}; "
        f"full attr {full.attribute_acc:.3f}",
    )
    assert full.miou >= ablation.miou
    assert full.miou >= 0.5
    assert full.attribute_acc >= 0.7


def test_criterion_6_relation_branch(steering):
    full_pairs = steering["full"].pairs[:32]
    norel_pairs = steering["no_relation"].pairs[:32]
    assert all(layout.relations for _, layout in full_pairs)

    def rel_score(pairs):
        scores = []
        for img, layout in pairs:
            dets = detect(img, PALETTE)
            scores.append(relation_acc(dets, match_instances(dets, layout), layout.relations))
        return float(np.mean(scores))

    full_rel = rel_score(full_pairs)
    norel_rel = rel_score(norel_pairs)
    ok = full_rel >= norel_rel
    announce(6, ok, f"relation acc full {full_rel:.3f} vs no-relation ablation {norel_rel:.3f}")
    assert full_rel >= norel_rel


# --- criterion 7: metric unit suite ------------------------------------------------

def test_criterion_7_metric_units():
    checks = []
    checks.append(iou(BBox(0.1, 0.2, 0.6, 0.8), BBox(0.1, 0.2, 0.6, 0.8)) == 1.0)
    checks.append(iou(BBox(0, 0, 0.3, 0.3), BBox(0.5, 0.5, 0.9, 0.9)) == 0.0)
    checks.append(iou(BBox(0, 0, 1, 1), BBox(0.5, 0, 1.0, 1.0)) == 0.5)

    scene = make_scene(0, SCENE_CFG)
    dets = detect(scene.image, PALETTE)
    hsv, table = rgb_to_hsv(scene.image), load_hsv_table()
    rate, flags = success_rate(dets, match_instances(dets, scene.layout), scene.layout, hsv, table)
    checks.append(rate == 1.0 and all(flags))
    rate_missing, flags_missing = success_rate(
        dets[:1], match_instances(dets[:1], scene.layout), scene.layout, hsv, table
    )
    checks.append(rate_missing == 0.0 and not all(flags_missing))

    checks.append(mean_iou([], match_instances([], scene.layout)) == 0.0)
    layout = LayoutSpec(
        prompt="p",
        instances=(
            InstanceSpec("red square", BBox(0.1, 0.1, 0.4, 0.4)),
            InstanceSpec("blue square", BBox(0.1, 0.6, 0.4, 0.9)),
        ),
    )
    det_pair = [
        Detection(layout.instances[0].bbox, "red", 10),
        Detection(layout.instances[1].bbox, "blue", 10),
    ]
    pair_matched = match_instances(det_pair, layout)
    checks.append(relation_acc(det_pair, pair_matched, [Relation(0, "above", 1)]) == 1.0)
    checks.append(relation_acc(det_pair, pair_matched, [Relation(0, "below", 1)]) == 0.0)
    one_matched = match_instances(det_pair[:1], layout)
    checks.append(relation_acc(det_pair[:1], one_matched, [Relation(0, "above", 1)]) == 0.0)

    ok = all(checks)
    announce(7, ok, f"{sum(checks)}/{len(checks)} exact metric checks")
    assert all(checks)


# --- criterion 8: determinism -------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    import json as json_mod

    from radl.cli import main
    from radl.layout import serialize_layout
    from radl.scenes import write_corpus

    cfg8 = SceneConfig(image_size=8, min_box=0.3, max_box=0.5)
    write_corpus(tmp_path / "corpus.jsonl", generate(0, 4, cfg8))
    cfg = {
        "d": 4, "image_size": 8, "t_train": 12, "t_sample": 6, "radl_steps": 3,
        "train_steps": 6, "batch_size": 2, "warmup": 2, "seed": 0,
        "checkpoint": str(tmp_path / "m.ckpt"), "corpus": str(tmp_path / "corpus.jsonl"),
        "out": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json_mod.dumps(cfg), encoding="utf-8")
    layout_path = tmp_path / "layout.json"
    layout_path.write_text(serialize_layout(generate(0, 1, cfg8)[0].layout), encoding="utf-8")

    assert main(["--config", str(cfg_path), "train"]) == 0
    ckpt1 = (tmp_path / "m.ckpt").read_bytes()
    assert main(["--config", str(cfg_path), "gen", str(layout_path)]) == 0
    img1 = (tmp_path / "out" / "img_000.ppm").read_bytes()

    assert main(["--config", str(cfg_path), "train"]) == 0
    ckpt2 = (tmp_path / "m.ckpt").read_bytes()
    assert main(["--config", str(cfg_path), "gen", str(layout_path)]) == 0
    img2 = (tmp_path / "out" / "img_000.ppm").read_bytes()

    ok = ckpt1 == ckpt2 and img1 == img2
    announce(8, ok, f"checkpoint identical: {ckpt1 == ckpt2}; image identical: {img1 == img2}")
    assert ckpt1 == ckpt2
    assert img1 == img2
