import numpy as np
import pytest

from radl.pipeline import params_to_dict
from radl.scenes import generate
from radl.steering import run_arm, run_arms

TINY = dict(steps=3, lr=5e-3, seed=0, batch_size=2)


def test_run_arms_equals_serial_run_arm():
    train_scenes, held_out = generate(0, 4), generate(100_000, 2)
    arms = ["full", "text_attn_only", "no_relation"]
    parallel = run_arms(arms, train_scenes, held_out, **TINY)
    assert list(parallel) == arms
    for arm in arms:
        serial = run_arm(arm, train_scenes, held_out, **TINY)
        got = parallel[arm]
        assert got.report == serial.report
        assert got.result.losses == serial.result.losses
        for name, values in params_to_dict(serial.result.params).items():
            assert np.array_equal(params_to_dict(got.result.params)[name], values), name
        assert all(np.array_equal(a, b) for (a, _), (b, _) in zip(got.pairs, serial.pairs))


def test_run_arms_failing_arm_raises():
    # the worker's exception reaches the caller; no arm is rerun in series
    with pytest.raises(ValueError, match="no_such_arm"):
        run_arms(["full", "no_such_arm"], generate(0, 2), generate(100_000, 1), **TINY)
