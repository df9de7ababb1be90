"""Serving-path tests of the binary ``.npt`` estimate input.

``POST /v1/estimate`` accepts the packed binary trace container
(``application/x-psmgen-npt`` or magic-sniffed) and feeds it to the
compiled batch kernel through zero-copy buffer views.  These tests
round-trip real windows through both the JSON and binary routes and
check bit-for-bit agreement, exercise the error paths (missing model
parameter, corrupt container), verify the registry's compile counters
surface in ``GET /v1/models`` and ``/metrics``, and cover the loadgen
client's warm-up window exclusion against a live server.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.bench import fit_benchmark
from repro.core.export import save_psms
from repro.serve.loadgen import http_request_json, run_loadgen
from repro.serve.metrics import find_sample, parse_prometheus
from repro.serve.server import NPT_CONTENT_TYPE, create_server
from repro.traces.io import functional_trace_to_json, save_functional_bin

MODEL = "MultSum"
WINDOW = 64


class ServerHandle:
    """An in-process server running on its own event-loop thread."""

    def __init__(self, models_dir, **kwargs):
        self.loop = asyncio.new_event_loop()
        self.server = None
        self._started = threading.Event()
        self._models_dir = models_dir
        self._kwargs = kwargs
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.server = create_server(self._models_dir, port=0, **self._kwargs)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self):
        self.thread.start()
        assert self._started.wait(30), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()

    @property
    def port(self):
        return self.server.port


async def _http_request_bytes(
    host, port, method, path, body, content_type, timeout=60.0
):
    """One raw-body HTTP/1.1 request (binary counterpart of the JSON helper)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await asyncio.wait_for(writer.drain(), timeout)
        status_line = await reader.readline()
        status = int(status_line.decode("latin-1").split(" ", 2)[1])
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await reader.readexactly(length) if length else b""
        return status, headers, data
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def post_npt(port, path, body, content_type=NPT_CONTENT_TYPE):
    return asyncio.run(
        _http_request_bytes(
            "127.0.0.1", port, "POST", path, body, content_type
        )
    )


def post_json(port, body):
    return asyncio.run(
        http_request_json(
            "127.0.0.1", port, "POST", "/v1/estimate", body, timeout=60.0
        )
    )


def get(port, path):
    return asyncio.run(
        http_request_json("127.0.0.1", port, "GET", path, timeout=30.0)
    )


@pytest.fixture(scope="module")
def serving_dir(tmp_path_factory):
    """Exported bundle plus JSON windows and their ``.npt`` encodings."""
    root = tmp_path_factory.mktemp("npt_bundles")
    fitted = fit_benchmark(MODEL)
    trace = fitted.short_ref.trace
    save_psms(
        fitted.flow.psms,
        root / f"{MODEL}.json",
        stage_reports=fitted.flow.report.stages,
        variables=trace.variables,
    )
    windows = []
    for index, start in enumerate(range(0, len(trace), WINDOW)):
        window = trace.slice(start, min(start + WINDOW - 1, len(trace) - 1))
        npt_path = root / f"window{index}.npt"
        save_functional_bin(window, npt_path)
        windows.append(
            (functional_trace_to_json(window), npt_path.read_bytes())
        )
    assert len(windows) >= 2
    return root, windows


class TestNptEstimate:
    def test_binary_route_bit_identical_to_json_route(self, serving_dir):
        root, windows = serving_dir
        with ServerHandle(root) as handle:
            port = handle.port
            for window_json, npt_bytes in windows[:3]:
                status, _h, raw_json = post_json(
                    port, {"model": MODEL, "trace": window_json}
                )
                assert status == 200
                status, _h, raw_npt = post_npt(
                    port, f"/v1/estimate?model={MODEL}", npt_bytes
                )
                assert status == 200
                via_json = json.loads(raw_json)
                via_npt = json.loads(raw_npt)
                assert via_npt["estimated"] == via_json["estimated"]
                assert via_npt["energy"] == via_json["energy"]
                assert via_npt["wsp"] == via_json["wsp"]
                assert via_npt["engine"] == "compiled"
                assert via_json["engine"] == "compiled"

    def test_magic_sniff_without_content_type(self, serving_dir):
        root, windows = serving_dir
        _window_json, npt_bytes = windows[0]
        with ServerHandle(root) as handle:
            status, _h, raw = post_npt(
                handle.port,
                f"/v1/estimate?model={MODEL}",
                npt_bytes,
                content_type="application/octet-stream",
            )
        assert status == 200
        assert json.loads(raw)["model"] == MODEL

    def test_binary_without_model_param_is_400(self, serving_dir):
        root, windows = serving_dir
        _window_json, npt_bytes = windows[0]
        with ServerHandle(root) as handle:
            status, _h, raw = post_npt(
                handle.port, "/v1/estimate", npt_bytes
            )
        assert status == 400
        assert "model" in json.loads(raw)["error"]

    def test_corrupt_container_is_400(self, serving_dir):
        root, windows = serving_dir
        _window_json, npt_bytes = windows[0]
        with ServerHandle(root) as handle:
            status, _h, _raw = post_npt(
                handle.port,
                f"/v1/estimate?model={MODEL}",
                npt_bytes[: len(npt_bytes) // 2],
            )
        assert status == 400

    def test_compile_counters_in_models_and_metrics(self, serving_dir):
        root, windows = serving_dir
        window_json, npt_bytes = windows[0]
        with ServerHandle(root) as handle:
            port = handle.port
            for _ in range(2):
                status, _h, _raw = post_npt(
                    port, f"/v1/estimate?model={MODEL}", npt_bytes
                )
                assert status == 200
            status, _h, models_raw = get(port, "/v1/models")
            assert status == 200
            status, _h, metrics_raw = get(port, "/metrics")
            assert status == 200

        payload = json.loads(models_raw)
        # first request lowers the bundle, the second reuses the cache
        assert payload["compile_misses"] == 1
        assert payload["compile_hits"] >= 1
        assert payload["compile_wall_s"] > 0.0
        rows = {row["name"]: row for row in payload["models"]}
        assert rows[MODEL]["compiled"] is True
        assert rows[MODEL]["compile_wall_s"] > 0.0

        samples = parse_prometheus(metrics_raw.decode("utf-8"))
        assert (
            find_sample(samples, "psmgen_model_compile_misses_total") == 1
        )
        assert find_sample(samples, "psmgen_model_compile_hits_total") >= 1

    def test_object_engine_server_still_serves_npt(self, serving_dir):
        root, windows = serving_dir
        window_json, npt_bytes = windows[0]
        with ServerHandle(root, engine="object") as handle:
            port = handle.port
            status, _h, raw_npt = post_npt(
                port, f"/v1/estimate?model={MODEL}", npt_bytes
            )
            status_json, _h, raw_json = post_json(
                port, {"model": MODEL, "trace": window_json}
            )
        assert status == 200 and status_json == 200
        via_npt = json.loads(raw_npt)
        via_json = json.loads(raw_json)
        assert via_npt["engine"] == "object"
        assert via_npt["estimated"] == via_json["estimated"]


class TestLoadgenWarmup:
    def test_warmup_requests_excluded_from_stats(self, serving_dir):
        root, windows = serving_dir
        window_json, _npt_bytes = windows[0]
        with ServerHandle(root) as handle:
            port = handle.port
            report = run_loadgen(
                "127.0.0.1",
                port,
                MODEL,
                [window_json],
                rps=40.0,
                duration_s=0.3,
                concurrency=4,
                warmup=3,
            )
            status, _h, metrics_raw = get(port, "/metrics")
            assert status == 200

        assert report["warmup_requests"] == 3
        assert report["warmup_errors"] == 0
        assert report["completed"] == report["requests"]
        assert report["status_counts"] == {"200": report["completed"]}
        # the warm-up requests really hit the server, they are just not
        # part of the latency statistics
        samples = parse_prometheus(metrics_raw.decode("utf-8"))
        served = find_sample(
            samples, "psmgen_requests_total",
            endpoint="estimate", status="200",
        )
        assert served == report["completed"] + 3
