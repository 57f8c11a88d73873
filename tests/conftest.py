import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_worker_processes_left():
    """Fail a test that returns while child processes it started still run."""
    before = set(multiprocessing.active_children())
    yield
    leaked = [p for p in multiprocessing.active_children() if p not in before]
    if leaked:
        pytest.fail(f"test left worker processes running: {leaked}")
