"""Tests for the micro-batching executor: coalescing and backpressure."""

import asyncio
import os
import sys

import pytest

from repro.core.export import save_psms
from repro.serve.batching import MicroBatcher, QueueFullError, simulate_one
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.traces.functional import FunctionalTrace
from repro.traces.io import functional_trace_to_json
from repro.traces.variables import bool_in

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from core.test_export import fig2_psm  # noqa: E402

VARIABLES = [bool_in("on"), bool_in("start")]


def make_window(seed: int, instants: int = 16) -> dict:
    """A serialised fig2-compatible trace window."""
    on = [(i + seed) % 3 != 0 for i in range(instants)]
    start = [(i + seed) % 4 == 1 for i in range(instants)]
    trace = FunctionalTrace(
        VARIABLES,
        {"on": [int(v) for v in on], "start": [int(v) for v in start]},
        name=f"w{seed}",
    )
    return functional_trace_to_json(trace)


@pytest.fixture
def registry(tmp_path):
    save_psms([fig2_psm()], tmp_path / "fig2.json", variables=VARIABLES)
    return ModelRegistry(tmp_path)


def make_batcher(registry, metrics=None, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("max_queue", 8)
    kwargs.setdefault("max_batch", 8)
    return MicroBatcher(registry, metrics=metrics, **kwargs)


def run(coro):
    """Run one async scenario to completion on a fresh loop."""
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submits_form_one_batch(self, registry):
        metrics = MetricsRegistry()

        async def scenario():
            batcher = make_batcher(registry, metrics)
            # manual draining so the batch composition is deterministic
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let every submit enqueue its job
            assert await batcher.drain_once("fig2") == 3
            results = await asyncio.gather(*tasks)
            await batcher.aclose()
            return results

        results = run(scenario())
        assert [r["batch_size"] for r in results] == [3, 3, 3]
        size = metrics.histogram("psmgen_batch_size", "")
        assert size.count() == 1
        assert size.bucket_count(2) == 0  # the one batch was larger than 2
        assert size.bucket_count(4) == 1

    def test_batch_bounded_by_max_batch(self, registry):
        async def scenario():
            batcher = make_batcher(registry, max_batch=2, max_queue=8)
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(5)
            ]
            await asyncio.sleep(0)
            sizes = []
            while any(not t.done() for t in tasks):
                sizes.append(await batcher.drain_once("fig2"))
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            await batcher.aclose()
            return sizes

        assert run(scenario()) == [2, 2, 1]

    def test_results_match_direct_simulation(self, registry):
        window = make_window(7)
        expected = simulate_one(registry.get("fig2"), window)

        async def scenario():
            batcher = make_batcher(registry)
            result = await batcher.submit("fig2", window)
            await batcher.aclose()
            return result

        result = run(scenario())
        assert result["estimated"] == expected["estimated"]
        assert result["energy"] == expected["energy"]
        assert result["instants"] == expected["instants"]
        assert result["batch_size"] == 1

    def test_drainer_serves_without_manual_drain(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            results = await asyncio.gather(
                *[batcher.submit("fig2", make_window(i)) for i in range(4)]
            )
            await batcher.aclose()
            return results

        results = run(scenario())
        assert len(results) == 4
        assert all(r["instants"] == 16 for r in results)


class TestBackpressure:
    def test_queue_overflow_raises_queue_full(self, registry):
        metrics = MetricsRegistry()

        async def scenario():
            batcher = make_batcher(registry, metrics, max_queue=2)
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(4)
            ]
            await asyncio.sleep(0)
            failures = []
            for task in tasks:
                if task.done() and task.exception() is not None:
                    failures.append(task.exception())
                    continue
            while await batcher.drain_once("fig2"):
                await asyncio.sleep(0)
            await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.aclose()
            return failures

        failures = run(scenario())
        assert len(failures) == 2
        assert all(isinstance(f, QueueFullError) for f in failures)
        assert all(f.retry_after >= 1 for f in failures)
        rejected = metrics.counter("psmgen_rejected_total", "", ("reason",))
        assert rejected.value(reason="queue_full") == 2

    def test_retry_after_is_bounded(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            batcher._batch_ewma["fig2"] = 1e9  # pathological smoothing
            return batcher.retry_after("fig2")

        assert 1 <= run(scenario()) <= 30


class TestErrors:
    def test_simulation_error_propagates_to_submitter(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            try:
                with pytest.raises(Exception):
                    await batcher.submit("fig2", {"bogus": True})
            finally:
                await batcher.aclose()

        run(scenario())

    def test_bad_window_fails_only_its_own_job(self, registry):
        good = make_window(5)
        bad = make_window(6)
        del bad["columns"]["start"]
        expected = simulate_one(registry.get("fig2"), good)

        async def scenario():
            batcher = make_batcher(registry)
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", window))
                for window in (good, bad)
            ]
            await asyncio.sleep(0)  # both jobs land in one batch
            assert await batcher.drain_once("fig2") == 2
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await batcher.aclose()
            return results

        served, failed = run(scenario())
        assert served["estimated"] == expected["estimated"]
        assert served["batch_size"] == 2
        assert isinstance(failed, ValueError)
        assert "missing columns for variables: ['start']" in str(failed)

    def test_close_fails_pending_jobs(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            batcher._ensure_drainer = lambda *args: None
            task = asyncio.create_task(
                batcher.submit("fig2", make_window(0))
            )
            await asyncio.sleep(0)
            await batcher.aclose()
            with pytest.raises(RuntimeError):
                await task

        run(scenario())


class TestProcessMode:
    def test_process_mode_matches_thread_mode(self, registry):
        window = make_window(3)
        expected = simulate_one(registry.get("fig2"), window)

        async def scenario():
            batcher = make_batcher(registry, jobs=2)
            if batcher.mode != "process":
                await batcher.aclose()
                pytest.skip("process pool unavailable in this environment")
            try:
                return await batcher.submit("fig2", window)
            finally:
                await batcher.aclose()

        result = run(scenario())
        assert result["estimated"] == expected["estimated"]
        assert result["energy"] == expected["energy"]


class TestQueueDepthMetrics:
    """Queue depth + batch occupancy exposed for the cluster router."""

    def test_occupancy_histogram_records_fill_fraction(self, registry):
        metrics = MetricsRegistry()

        async def scenario():
            batcher = make_batcher(registry, metrics, max_batch=4)
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(2)
            ]
            await asyncio.sleep(0)
            await batcher.drain_once("fig2")  # 2 of 4 slots -> 0.5
            await asyncio.gather(*tasks)
            await batcher.aclose()

        run(scenario())
        occupancy = metrics.histogram("psmgen_batch_occupancy", "")
        assert occupancy.count() == 1
        assert occupancy.bucket_count(0.5) == 1
        assert occupancy.bucket_count(0.375) == 0

    def test_pending_gauge_tracks_queue(self, registry):
        metrics = MetricsRegistry()

        async def scenario():
            batcher = make_batcher(registry, metrics)
            batcher._ensure_drainer = lambda *args: None
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(3)
            ]
            await asyncio.sleep(0)
            queued = batcher.pending()
            gauge = metrics.gauge("psmgen_pending_total", "").value()
            await batcher.drain_once("fig2")
            await asyncio.gather(*tasks)
            drained = batcher.pending()
            await batcher.aclose()
            return queued, gauge, drained

        queued, gauge, drained = run(scenario())
        assert queued == 3
        assert gauge == 3.0
        assert drained == 0


class TestDrain:
    """Graceful-shutdown support: wait out queued micro-batches."""

    def test_drain_idle_batcher_is_immediate(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            drained = await batcher.drain(0.001)
            await batcher.aclose()
            return drained

        assert run(scenario()) is True

    def test_drain_waits_for_queued_jobs(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            tasks = [
                asyncio.create_task(batcher.submit("fig2", make_window(i)))
                for i in range(4)
            ]
            await asyncio.sleep(0)
            drained = await batcher.drain(5.0)
            results = await asyncio.gather(*tasks)
            await batcher.aclose()
            return drained, results

        drained, results = run(scenario())
        assert drained is True
        assert len(results) == 4

    def test_drain_deadline_reports_failure(self, registry):
        async def scenario():
            batcher = make_batcher(registry)
            batcher._ensure_drainer = lambda *args: None  # nobody drains
            task = asyncio.create_task(
                batcher.submit("fig2", make_window(0))
            )
            await asyncio.sleep(0)
            drained = await batcher.drain(0.05)
            pending = batcher.pending()
            await batcher.aclose()
            with pytest.raises(RuntimeError):
                await task
            return drained, pending

        drained, pending = run(scenario())
        assert drained is False
        assert pending == 1
