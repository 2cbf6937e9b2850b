"""Tests for the demo thread-pool executor and Tracker.primitive scopes."""

import os
import threading

import pytest

from repro.pram import Tracker, default_workers, run_parallel

CORES = os.cpu_count() or 1


class TestRunParallel:
    def test_preserves_order(self):
        assert run_parallel([3, 1, 2], lambda x: x * 10) == [30, 10, 20]

    def test_empty(self):
        assert run_parallel([], lambda x: x) == []

    def test_small_input_fallback(self):
        # under the pool threshold the plain loop is used; results identical
        assert run_parallel([1, 2], lambda x: -x, workers=8) == [-1, -2]

    def test_single_worker(self):
        assert run_parallel(list(range(10)), lambda x: x + 1, workers=1) == list(
            range(1, 11)
        )

    def test_actually_concurrent(self):
        # two tasks that each wait for the other to start can only finish
        # if they run concurrently
        barrier = threading.Barrier(2, timeout=5)

        def task(_):
            barrier.wait()
            return True

        assert run_parallel([0, 1, 2, 3], task, workers=2) == [True] * 4

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_exceptions_propagate(self):
        def boom(x):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            run_parallel(list(range(8)), boom, workers=2)


# ``REPRO_WORKERS`` parsing rejects garbage loudly (a silent fallback
# would bench the wrong width) and caps at the physical core count


def test_default_workers_unset(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == min(8, CORES)


def test_default_workers_valid(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "1")
    assert default_workers() == 1


def test_default_workers_caps_at_cores(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "9999")
    assert default_workers() == CORES


@pytest.mark.parametrize("bad", ["abc", "2.5", " ", "0x4"])
def test_default_workers_rejects_non_integer(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        default_workers()


@pytest.mark.parametrize("bad", ["0", "-3"])
def test_default_workers_rejects_non_positive(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        default_workers()


class TestPrimitiveScope:
    def test_span_charged_as_bound(self):
        t = Tracker()
        with t.primitive(5):
            t.op(100)  # 100 sequential ops inside
        assert t.work == 100
        assert t.span == 5

    def test_work_always_measured(self):
        t = Tracker()
        with t.primitive(2):
            t.op(7)
            t.op(3)
        assert t.work == 10

    def test_nested_primitives_outer_wins(self):
        t = Tracker()
        with t.primitive(4):
            with t.primitive(100):
                t.op(50)
        assert t.span == 4
        assert t.work == 50

    def test_sequential_composition_of_primitives(self):
        t = Tracker()
        for _ in range(3):
            with t.primitive(7):
                t.op(9)
        assert t.span == 21
        assert t.work == 27

    def test_primitive_inside_parallel_branch(self):
        t = Tracker(fork_overhead=False)

        def branch(w):
            with t.primitive(w):
                t.op(1000)

        t.parallel_for([2, 6], branch)
        assert t.span == 6  # max of the branch bounds
        assert t.work == 2000

    def test_primitive_restores_on_exception(self):
        t = Tracker()
        try:
            with t.primitive(3):
                t.op(5)
                raise ValueError("x")
        except ValueError:
            pass
        assert t.span == 3
        assert t.work == 5
