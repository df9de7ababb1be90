"""Tests for the HTTP front of one serving worker."""

import asyncio
import json
import os
import sys

from repro.core.attributes import PowerAttributes
from repro.core.export import save_psms
from repro.core.psm import ConstantPower
from repro.serve.batching import simulate_one
from repro.serve.loadgen import _Lane
from repro.serve.metrics import MetricsRegistry, parse_prometheus, sum_samples
from repro.serve.registry import ModelRegistry
from repro.serve.server import create_server

sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))
from core.test_export import fig2_psm  # noqa: E402
from serve.test_batching import VARIABLES, make_window  # noqa: E402


def tripled_fig2():
    """fig2 with every state's power tripled: a distinct bundle."""
    psm = fig2_psm()
    for state in psm.states:
        a = state.attributes
        state.attributes = PowerAttributes(a.mu * 3.0, a.sigma, a.n)
        state.power_model = ConstantPower(a.mu * 3.0)
    return psm


class TestHotSwapLabel:
    def test_response_names_the_bundle_that_ran(self, tmp_path):
        path = tmp_path / "fig2.json"
        save_psms([fig2_psm()], path, variables=VARIABLES)
        window = make_window(5)
        body = json.dumps({"model": "fig2", "trace": window}).encode()
        server = create_server(tmp_path, freshness_interval=60.0)
        old = server.registry.get("fig2")

        async def scenario():
            # manual draining decides exactly when the batch runs
            server.batcher._ensure_drainer = lambda *args: None
            task = asyncio.create_task(server._handle_estimate(body))
            while not server.batcher.pending():  # queued, old bundle
                await asyncio.sleep(0)
            save_psms([tripled_fig2()], path, variables=VARIABLES)
            stat = os.stat(path)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
            # the freshness interval lapses before the batch executes
            server.registry.freshness_interval = 0.0
            assert await server.batcher.drain_once("fig2") == 1
            result = await task
            await server.batcher.aclose()
            return result

        status, payload, _ = asyncio.run(scenario())
        new = ModelRegistry(tmp_path).get("fig2")
        assert status == 200
        assert new.version != old.version
        expected = simulate_one(new, window)["estimated"]
        assert expected != simulate_one(old, window)["estimated"]
        assert payload["version"] == new.version
        assert payload["estimated"] == expected


class TestRequestTiming:
    def test_keep_alive_idle_time_is_not_latency(self, tmp_path):
        save_psms([fig2_psm()], tmp_path / "fig2.json", variables=VARIABLES)
        metrics = MetricsRegistry()

        async def scenario():
            server = create_server(tmp_path, metrics=metrics)
            await server.start()
            lane = _Lane("127.0.0.1", server.port, timeout=10.0)
            try:
                for pause in (0.2, 0.0):
                    status, _, _ = await lane.request(
                        "GET", "/healthz", b"", "application/json"
                    )
                    assert status == 200
                    await asyncio.sleep(pause)
            finally:
                await lane.close()
                # let the handler see EOF before shutdown cancels it
                for _ in range(200):
                    if not server._writers:
                        break
                    await asyncio.sleep(0.005)
                await server.stop()

        asyncio.run(scenario())
        samples = parse_prometheus(metrics.render())
        assert sum_samples(samples, "psmgen_request_seconds_count") == 2
        # both requests on one connection; the 0.2 s pause between them
        # is idle time, not latency
        assert sum_samples(samples, "psmgen_request_seconds_sum") < 0.1
