"""The layout-steering experiment: train one arm of the attention stack on a
scene corpus and score its samples of held-out layouts.

An arm is a model variant (`pipeline.VARIANTS`).  Every arm starts from the
same init and trains on the same corpus and schedule, so arms differ only
in the active mechanism.
"""
from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evalmetrics import MetricsReport, evaluate_images, load_hsv_table
from .layout import LayoutSpec
from .pipeline import TrainResult, init_denoiser, sample, train
from .scenes import SyntheticScene
from .text import EmbedderConfig


@dataclass
class ArmResult:
    result: TrainResult  # holds the trained params
    pairs: list[tuple[np.ndarray, LayoutSpec]]  # (sampled image, held-out layout)
    report: MetricsReport


def run_arm(
    arm: str,
    train_scenes: list[SyntheticScene],
    held_out: list[SyntheticScene],
    steps: int = 2000,
    lr: float = 5e-3,
    seed: int = 0,
    batch_size: int = 8,
) -> ArmResult:
    """Train a d=8, 32x32 model (mirror mode, 100 warmup steps) and sample
    held-out layout i with seed 777 + i (60 steps, stack on for 30)."""
    ec = EmbedderConfig(dim=8, seed=0)
    params = init_denoiser(seed, d=8, image_size=32, t_train=200)
    result = train(
        params, train_scenes, steps=steps, lr=lr, warmup_steps=100, rng_seed=seed,
        batch_size=batch_size, embed_cfg=ec, variant=arm, radl_train_mode="mirror",
    )
    pairs = []
    for i, scene in enumerate(held_out):
        images, _ = sample(
            params, scene.layout, total_steps=60, radl_steps=30,
            seeds=[777 + i], embed_cfg=ec, variant=arm,
        )
        pairs.append((images[0], scene.layout))
    return ArmResult(result, pairs, evaluate_images(pairs, load_hsv_table()))


def run_arms(arms: list[str], *args, **kwargs) -> dict[str, ArmResult]:
    """`run_arm(arm, *args, **kwargs)` for every arm, the arms in parallel in
    one worker process each; an arm that raises raises here.  Each result
    equals that of a serial run bit for bit."""
    arms = list(dict.fromkeys(arms))  # an arm named twice runs once
    with ProcessPoolExecutor(len(arms), mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {arm: pool.submit(run_arm, arm, *args, **kwargs) for arm in arms}
        return {arm: future.result() for arm, future in futures.items()}
