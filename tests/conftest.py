"""The steering experiment runs beside the rest of the suite.

Criteria 5 and 6 (test_acceptance.py) compare three arms whose training
takes most of the suite's time.  Once collection has selected a test that
uses the `steering` fixture, the arms start in the background, each in its
own worker process (`steering.run_arms`), and the tests that use them move
to the end of the run.  A session that ends before they finish stops the
workers, also one ended by SIGTERM.
"""
import multiprocessing
import signal
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from radl.scenes import generate
from radl.steering import run_arms

# the experiment's learning rate is its own parameter; the package default
# stays at the reference value 1e-4 (see the repository notes on desk-scale
# trainability)
STEERING_LR = 5e-3
STEERING_STEPS = 2000
STEERING_SEED = 0

# (the thread that waits on the arms, its future, the SIGTERM handler before them)
_ARMS = pytest.StashKey()


def _run_steering_arms():
    return run_arms(
        ["full", "text_attn_only", "no_relation"], generate(0, 256), generate(100_000, 64),
        steps=STEERING_STEPS, lr=STEERING_LR, seed=STEERING_SEED, batch_size=8,
    )


@pytest.hookimpl(trylast=True)  # after -k, -m and --deselect have deselected
def pytest_collection_modifyitems(config, items):
    def uses_arms(item):
        return "steering" in getattr(item, "fixturenames", ())

    if config.option.collectonly or not any(map(uses_arms, items)):
        return
    items.sort(key=uses_arms)  # stable: the users last, each side in order
    runner = ThreadPoolExecutor(1)
    # SIGTERM unwinds the session as Ctrl-C does, so that pytest_unconfigure
    # still stops the workers
    handler = signal.signal(signal.SIGTERM, _interrupt)
    config.stash[_ARMS] = runner, runner.submit(_run_steering_arms), handler


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


@pytest.fixture(scope="session")
def steering(request):
    """The trained arms by name; an arm that raised raises here."""
    return request.config.stash[_ARMS][1].result()


def pytest_unconfigure(config):
    runner, future, handler = config.stash.get(_ARMS, (None, None, None))
    if runner is None:
        return
    signal.signal(signal.SIGTERM, handler)
    # a session that failed or was interrupted before the arms finished:
    # ending the workers breaks their pool, which ends run_arms
    while not future.done():
        for child in multiprocessing.active_children():
            child.terminate()
        wait([future], timeout=0.5)
    runner.shutdown()
