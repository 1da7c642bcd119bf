import threading
import time

import pytest

from rmtlab import pool
from rmtlab.pool import ordered_map, usable_cores

NAME = "rmtlab-test-pool"


def pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith(NAME)]


def test_usable_cores_counts_the_affinity_set(monkeypatch):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert usable_cores() == 3


@pytest.mark.parametrize("cpu_count, cores", [(6, 6), (None, 1)])
def test_usable_cores_without_an_affinity_call_counts_the_machine(monkeypatch, cpu_count,
                                                                 cores):
    # macOS and Windows have no os.sched_getaffinity
    monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pool.os, "cpu_count", lambda: cpu_count)
    assert usable_cores() == cores


def test_one_worker_runs_inline_and_lazily():
    seen = []

    def fn(x):
        seen.append((x, threading.current_thread().name))
        return x * x

    results = ordered_map(fn, range(5), 1, NAME)
    assert seen == []
    assert next(results) == 0
    assert seen == [(0, threading.current_thread().name)]
    assert list(results) == [1, 4, 9, 16]
    assert not pool_threads()


@pytest.mark.parametrize("workers", [2, 3])
def test_results_keep_input_order_with_bounded_tasks_in_flight(workers):
    state = {"read": 0, "taken": 0, "in_flight": []}

    def items():
        for x in range(20):
            state["read"] += 1
            state["in_flight"].append(state["read"] - state["taken"])
            yield x

    def fn(x):
        time.sleep(0.001 * ((x * 7) % 5))  # later items often finish first
        return x, threading.current_thread().name

    out = []
    for x, name in ordered_map(fn, items(), workers, NAME):
        state["taken"] += 1
        out.append(x)
        assert name.startswith(NAME)
    assert out == list(range(20))
    assert max(state["in_flight"]) == workers
    assert not pool_threads()


def test_closing_early_cancels_pending_calls_and_joins_the_threads():
    started = []

    def fn(x):
        started.append(x)
        time.sleep(0.01)
        return x

    results = ordered_map(fn, range(1000), 2, NAME)
    assert next(results) == 0
    assert pool_threads()
    results.close()
    assert not pool_threads()
    # only the two calls in flight when the map was closed ever started
    assert set(started) <= {0, 1}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("source", ["task", "items"])
def test_an_error_reaches_the_caller_unchanged_and_leaves_no_thread(workers, source):
    error = KeyError("boom")

    def items():
        for x in range(10):
            if source == "items" and x == 4:
                raise error
            yield x

    def fn(x):
        if source == "task" and x == 4:
            raise error
        return x

    out = []
    with pytest.raises(KeyError) as raised:
        for x in ordered_map(fn, items(), workers, NAME):
            out.append(x)
    assert raised.value is error
    if source == "task":
        assert out == [0, 1, 2, 3]
    else:
        # a result is taken once the workers - 1 items after it are read
        assert out == list(range(5 - workers))
    assert not pool_threads()
