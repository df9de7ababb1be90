"""End-to-end acceptance test of the PSM serving layer.

Exports PSM bundles for two benchmark IPs, runs the asyncio server
in-process (on a background event-loop thread), fires >= 32 concurrent
``/v1/estimate`` requests across both models over real TCP and checks:

* every served estimate is **bit-for-bit** equal to an offline
  ``load_psms`` -> ``labeler_from_psms`` -> ``MultiPsmSimulator`` run of
  the same window (the ``psmgen estimate`` code path);
* at least one micro-batch coalesced two or more requests, visible in
  ``/metrics``;
* a server with an overflowing queue answers 429 with ``Retry-After``.
"""

import asyncio
import threading

import pytest

from repro.bench import fit_benchmark
from repro.core.export import labeler_from_psms, load_psms, save_psms
from repro.core.simulation import MultiPsmSimulator
from repro.serve.loadgen import http_request_json
from repro.serve.metrics import find_sample, parse_prometheus
from repro.serve.server import create_server
from repro.traces.io import functional_trace_from_json, functional_trace_to_json

MODELS = ("MultSum", "RAM")
WINDOW = 64
REQUESTS_PER_MODEL = 16  # 32 total across the two models


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

    @property
    def port(self):
        return self.server.port


def post_estimate(port, body, timeout=60.0):
    """One synchronous POST /v1/estimate from the test thread."""
    return asyncio.run(
        http_request_json(
            "127.0.0.1", port, "POST", "/v1/estimate", body, timeout=timeout
        )
    )


def get(port, path):
    """One synchronous GET from the test thread."""
    return asyncio.run(
        http_request_json("127.0.0.1", port, "GET", path, timeout=30.0)
    )


@pytest.fixture(scope="module")
def serving_dir(tmp_path_factory):
    """Exported bundles plus per-model request windows and baselines."""
    root = tmp_path_factory.mktemp("bundles")
    windows = {}
    for name in MODELS:
        fitted = fit_benchmark(name)
        trace = fitted.short_ref.trace
        save_psms(
            fitted.flow.psms,
            root / f"{name}.json",
            stage_reports=fitted.flow.report.stages,
            variables=trace.variables,
        )
        windows[name] = [
            functional_trace_to_json(
                trace.slice(start, min(start + WINDOW - 1, len(trace) - 1))
            )
            for start in range(0, len(trace), WINDOW)
        ]
        assert len(windows[name]) >= 2
    return root, windows


def offline_estimate(bundle_path, window):
    """The ``psmgen estimate`` code path on one serialised window."""
    psms = load_psms(bundle_path)
    labeler = labeler_from_psms(psms)
    simulator = MultiPsmSimulator(psms, labeler)
    return simulator.run(functional_trace_from_json(window))


class TestServeEndToEnd:
    def test_concurrent_estimates_bitwise_and_batched(self, serving_dir):
        root, windows = serving_dir
        bodies = []
        for name in MODELS:
            for index in range(REQUESTS_PER_MODEL):
                window = windows[name][index % len(windows[name])]
                bodies.append((name, window))
        assert len(bodies) >= 32

        with ServerHandle(root, max_queue=64, max_batch=8) as handle:
            port = handle.port

            async def fire():
                return await asyncio.gather(
                    *[
                        http_request_json(
                            "127.0.0.1",
                            port,
                            "POST",
                            "/v1/estimate",
                            {"model": name, "trace": window},
                            timeout=120.0,
                        )
                        for name, window in bodies
                    ]
                )

            responses = asyncio.run(fire())
            status, _headers, metrics_body = get(port, "/metrics")
            assert status == 200
            status, _headers, models_body = get(port, "/v1/models")
            assert status == 200

        import json

        assert all(status == 200 for status, _h, _b in responses)
        max_batch_seen = 0
        for (name, window), (_s, _h, raw) in zip(bodies, responses):
            payload = json.loads(raw)
            reference = offline_estimate(root / f"{name}.json", window)
            # (a) bit-for-bit equality with the offline estimate path
            assert payload["estimated"] == [
                float(v) for v in reference.estimated.values
            ]
            assert payload["energy"] == reference.energy
            assert payload["wsp"] == reference.wsp
            assert (
                payload["wrong_state_fraction"]
                == reference.wrong_state_fraction
            )
            assert payload["model"] == name
            max_batch_seen = max(max_batch_seen, payload["batch_size"])

        # (b) at least one batch coalesced >= 2 requests, and /metrics
        # shows it: the le="1" bucket undercounts the total batches.
        assert max_batch_seen >= 2
        samples = parse_prometheus(metrics_body.decode("utf-8"))
        singletons = find_sample(samples, "psmgen_batch_size_bucket", le="1")
        batches = samples["psmgen_batch_size_count"][""]
        assert batches >= 1
        assert singletons < batches
        assert (
            find_sample(
                samples, "psmgen_requests_total",
                endpoint="estimate", status="200",
            )
            >= 32
        )

        # the registry lists both models with their content digests
        rows = {
            row["name"]: row
            for row in json.loads(models_body)["models"]
        }
        for name in MODELS:
            assert rows[name]["version"]
            assert rows[name]["quarantined"] is False

    def test_queue_overflow_answers_429_with_retry_after(self, serving_dir):
        root, windows = serving_dir
        name = MODELS[0]
        bodies = [
            {"model": name, "trace": windows[name][i % len(windows[name])]}
            for i in range(16)
        ]
        with ServerHandle(root, max_queue=1, max_batch=1) as handle:
            port = handle.port

            async def fire():
                return await asyncio.gather(
                    *[
                        http_request_json(
                            "127.0.0.1",
                            port,
                            "POST",
                            "/v1/estimate",
                            body,
                            timeout=120.0,
                        )
                        for body in bodies
                    ]
                )

            responses = asyncio.run(fire())

        statuses = [status for status, _h, _b in responses]
        assert 200 in statuses  # the server kept serving under overload
        rejected = [
            (status, headers)
            for status, headers, _b in responses
            if status == 429
        ]
        assert rejected, f"no 429 among statuses {statuses}"
        for _status, headers in rejected:
            assert int(headers["retry-after"]) >= 1

    def test_unknown_and_malformed_requests(self, serving_dir):
        root, windows = serving_dir
        with ServerHandle(root) as handle:
            port = handle.port
            status, _h, _b = post_estimate(
                port, {"model": "nope", "trace": windows[MODELS[0]][0]}
            )
            assert status == 404
            status, _h, _b = post_estimate(port, {"model": MODELS[0]})
            assert status == 400
            status, _h, _b = get(port, "/healthz")
            assert status == 200
            status, _h, _b = get(port, "/nope")
            assert status == 404

    def test_out_of_range_values_answer_400(self, serving_dir):
        import json

        root, windows = serving_dir
        name = MODELS[0]
        window = windows[name][0]
        spec = window["variables"][0]
        with ServerHandle(root) as handle:
            for bad in (2 ** spec["width"], -5):
                column = list(window["columns"][spec["name"]])
                column[1] = bad
                trace = {
                    **window,
                    "columns": {**window["columns"], spec["name"]: column},
                }
                status, _h, raw = post_estimate(
                    handle.port, {"model": name, "trace": trace}
                )
                assert status == 400
                assert "out of range" in json.loads(raw)["error"]
            status, _h, _b = post_estimate(
                handle.port, {"model": name, "trace": window}
            )
            assert status == 200

    def test_vectors_input_resolved_from_bundle_variables(self, serving_dir):
        root, windows = serving_dir
        name = MODELS[0]
        window = windows[name][0]
        vectors = [
            {
                var: values[index]
                for var, values in window["columns"].items()
            }
            for index in range(len(next(iter(window["columns"].values()))))
        ]
        with ServerHandle(root) as handle:
            port = handle.port
            status, _h, raw = post_estimate(
                port, {"model": name, "vectors": vectors}
            )
        import json

        assert status == 200
        payload = json.loads(raw)
        reference = offline_estimate(root / f"{name}.json", window)
        assert payload["estimated"] == [
            float(v) for v in reference.estimated.values
        ]

    def test_warm_endpoint_loads_and_compiles(self, serving_dir):
        import json

        root, _windows = serving_dir
        with ServerHandle(root) as handle:
            port = handle.port
            status, _h, raw = post_estimate(
                port,
                {"models": list(MODELS) + ["nope"]},
            )
            # POSTing to /v1/estimate with no model is a 400; the warm
            # route is its own endpoint.
            assert status == 400
            status, _h, raw = asyncio.run(
                http_request_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/warm",
                    {"models": list(MODELS) + ["nope"]},
                    timeout=60.0,
                )
            )
            assert status == 200
            payload = json.loads(raw)
            assert payload["warmed"] == len(MODELS)
            assert sorted(payload["models"]) == sorted(MODELS)
            assert "nope" in payload["skipped"]
            # Warmed models are registry cache hits from the first
            # routed request on; the counters prove the replay ran.
            status, _h, raw = get(port, "/metrics")
            samples = parse_prometheus(raw.decode("utf-8"))
            assert find_sample(samples, "psmgen_warm_replayed_total") == (
                len(MODELS)
            )
            assert (
                find_sample(samples, "psmgen_warm_seconds_total") > 0.0
            )

    def test_warm_endpoint_rejects_bad_bodies(self, serving_dir):
        root, _windows = serving_dir
        with ServerHandle(root) as handle:
            port = handle.port
            for body in ({"models": "alpha"}, {"models": [1, 2]}, []):
                status, _h, _b = asyncio.run(
                    http_request_json(
                        "127.0.0.1",
                        port,
                        "POST",
                        "/v1/warm",
                        body,
                        timeout=30.0,
                    )
                )
                assert status == 400
            status, _h, _b = get(port, "/v1/warm")
            assert status == 405
