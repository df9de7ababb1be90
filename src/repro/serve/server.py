"""Asyncio HTTP/1.1 JSON API serving PSM power estimation.

A hand-rolled, dependency-free HTTP server on ``asyncio.start_server``
(the container bakes in no web framework, and the protocol surface we
need is tiny).  Endpoints:

``POST /v1/estimate``
    ``{"model": name, "trace": {...}}`` (the
    :func:`~repro.traces.io.functional_trace_to_json` form) **or**
    ``{"model": name, "vectors": [{var: value, ...}, ...]}`` using the
    variable declarations embedded in the bundle, **or** a raw binary
    ``.npt`` trace container (``Content-Type:
    application/x-psmgen-npt`` or the ``PSMT`` magic) addressed as
    ``POST /v1/estimate?model=<name>`` — the binary body feeds the
    compiled kernel zero-copy through
    :meth:`~repro.traces.io.BinaryTraceReader.from_bytes`.  Responds
    with the per-instant power plus WSP/desync metrics
    (:meth:`~repro.core.simulation.EstimationResult.to_json`), the
    coalesced batch size, the executing engine and the simulation wall
    time.
``GET /v1/models``
    Registry contents: loaded entries (name, version digest, shape),
    unloaded bundles, quarantined files with their validation error.
``GET /healthz``
    Liveness plus basic registry counts.
``GET /metrics``
    Prometheus text exposition (see DESIGN.md for the catalogue).

Error mapping: bad input -> 400, unknown model -> 404, queue full ->
429 with ``Retry-After``, request timeout -> 504, quarantined model ->
503, anything unexpected -> 500.  Connections are HTTP/1.1 keep-alive
by default — sustained clients (the loadgen's persistent lanes) reuse
them request after request — while ``Connection: close`` clients get
the old one-request discipline.

Shutdown is graceful (DESIGN.md §3.7): :meth:`PsmServer.shutdown`
closes the listener, lets in-flight requests and queued micro-batches
finish inside a drain deadline, then force-closes what is left.  The
``psmgen serve`` CLI wires SIGTERM/SIGINT to it, and the cluster
router relies on it to drain workers without dropping requests.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Set, Tuple
from urllib.parse import parse_qs

from ..core.export import ExportSchemaError
from ..traces.io import BINARY_MAGIC, BinaryTraceReader
from .batching import MicroBatcher, QueueFullError
from .metrics import MetricsRegistry
from .registry import (
    ModelRegistry,
    QuarantinedModelError,
    UnknownModelError,
)
from .wire import (  # noqa: F401  (MAX_BODY_BYTES/REASONS re-exported)
    MAX_BODY_BYTES,
    REASONS,
    BadRequestError,
    encode_body,
    read_request,
    write_response,
)

#: Content type selecting the binary ``.npt`` estimate input.
NPT_CONTENT_TYPE = "application/x-psmgen-npt"

#: Response header naming the worker that served an estimate; the
#: cluster router preserves it so clients (and the loadgen's
#: per-worker percentiles) can attribute every response.
WORKER_HEADER = "X-Psm-Worker"


def _endpoint_label(method: str, path: str) -> str:
    """Normalised endpoint label for metrics (bounded cardinality)."""
    if path == "/healthz":
        return "healthz"
    if path == "/metrics":
        return "metrics"
    if path == "/v1/models":
        return "models"
    if path == "/v1/estimate":
        return "estimate"
    if path == "/v1/warm":
        return "warm"
    return "other"


class PsmServer:
    """The estimation service: registry + micro-batcher behind HTTP."""

    def __init__(
        self,
        registry: ModelRegistry,
        batcher: MicroBatcher,
        metrics: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 30.0,
        worker_id: Optional[str] = None,
    ) -> None:
        self.registry = registry
        self.batcher = batcher
        self.metrics = metrics
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.worker_id = worker_id
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._inflight = 0
        self._writers: Set[asyncio.StreamWriter] = set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._requests = metrics.counter(
            "psmgen_requests_total",
            "HTTP requests served, by endpoint and status.",
            labelnames=("endpoint", "status"),
        )
        self._latency = metrics.histogram(
            "psmgen_request_seconds",
            "End-to-end request latency.",
            labelnames=("endpoint",),
        )
        self._warm_replayed = metrics.counter(
            "psmgen_warm_replayed_total",
            "Models replayed into the local caches via POST /v1/warm.",
        )
        self._warm_wall = metrics.counter(
            "psmgen_warm_seconds_total",
            "Wall-clock seconds spent replaying /v1/warm model lists.",
        )

    @property
    def draining(self) -> bool:
        """True once shutdown began: no new connections are accepted."""
        return self._draining

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (port 0 = ephemeral)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting connections and release the executors."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.aclose()

    async def shutdown(self, drain_deadline: float = 10.0) -> bool:
        """Drain gracefully: stop accepting, finish in-flight, stop.

        The sequence the ``psmgen serve`` signal handlers and the
        cluster's worker-drain path both run:

        1. close the listening socket — no new connections;
        2. wait (up to ``drain_deadline`` seconds) for every dispatched
           request and every queued micro-batch to complete — responses
           written while draining carry ``Connection: close`` so
           keep-alive clients re-connect elsewhere;
        3. force-close whatever connections remain (idle keep-alive
           peers, or requests that outlived the deadline), then release
           the executors.

        Returns ``True`` when the drain completed inside the deadline
        (nothing was cut off), ``False`` when the deadline expired
        first.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(float(drain_deadline), 0.0)
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        drained = await self.batcher.drain(
            max(deadline - loop.time(), 0.0)
        )
        if not self._idle.is_set():
            try:
                await asyncio.wait_for(
                    self._idle.wait(), max(deadline - loop.time(), 0.001)
                )
            except asyncio.TimeoutError:
                drained = False
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        await self.batcher.aclose()
        return drained

    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve requests on one connection until the client is done.

        HTTP/1.1 keep-alive: the connection is reused for further
        requests unless the client sends ``Connection: close`` (or
        speaks HTTP/1.0), which spares both sides the per-request
        connect/accept/teardown cost under sustained load.
        """
        loop = asyncio.get_running_loop()
        endpoint = "other"
        self._writers.add(writer)
        try:
            while True:
                try:
                    method, path, query, content_type, body, keep = (
                        await read_request(reader)
                    )
                except BadRequestError as exc:
                    await self._respond(
                        writer, 400, {"error": str(exc)}, "other",
                        loop.time(),
                    )
                    return
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    asyncio.LimitOverrunError,
                ):
                    return  # client went away / closed between requests
                # Timed from the parsed request, so keep-alive idle time
                # waiting for it is not counted as request latency.
                start = loop.time()
                endpoint = _endpoint_label(method, path)
                self._inflight += 1
                self._idle.clear()
                try:
                    status, payload, headers = await self._dispatch(
                        method, path, query, content_type, body
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                keep = keep and not self._draining
                await self._respond(
                    writer, status, payload, endpoint, start, headers,
                    close=not keep,
                )
                if not keep:
                    return
        except asyncio.CancelledError:
            # Loop teardown cancelled us mid-read (idle keep-alive
            # connection at shutdown).  Exit normally so the streams
            # protocol callback doesn't log the cancellation as an
            # unhandled error.
            return
        except Exception as exc:  # last-resort 500, never kill the loop
            try:
                await self._respond(
                    writer,
                    500,
                    {"error": f"internal error: {exc!r}"},
                    endpoint,
                    loop.time(),
                )
            except Exception:
                pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # Teardown can cancel a handler already closing its
                # connection; end normally here too, as above.
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        endpoint: str,
        start: float,
        headers: Tuple[Tuple[str, str], ...] = (),
        close: bool = True,
    ) -> None:
        """Write one response and record the request metrics."""
        body, content_type = encode_body(payload)
        if self.worker_id is not None:
            headers = (*headers, (WORKER_HEADER, self.worker_id))
        await write_response(
            writer, status, body, content_type, headers, close=close
        )
        loop = asyncio.get_running_loop()
        self._requests.inc(endpoint=endpoint, status=str(status))
        self._latency.observe(loop.time() - start, endpoint=endpoint)

    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        content_type: str,
        body: bytes,
    ):
        """Route one request; returns ``(status, payload, headers)``."""
        if method == "GET" and path == "/healthz":
            return (
                200,
                {
                    "status": "draining" if self._draining else "ok",
                    "models_loaded": len(self.registry.loaded_models()),
                    "models_available": len(self.registry.discover()),
                    "mode": self.batcher.mode,
                    "engine": self.batcher.engine,
                },
                (),
            )
        if method == "GET" and path == "/v1/models":
            return (
                200,
                {
                    "models": self.registry.list_models(),
                    **self.registry.compile_stats(),
                },
                (),
            )
        if method == "GET" and path == "/metrics":
            return 200, self.metrics.render(), ()
        if path == "/v1/estimate":
            if method != "POST":
                return 405, {"error": "use POST"}, ()
            return await self._handle_estimate(body, query, content_type)
        if path == "/v1/warm":
            if method != "POST":
                return 405, {"error": "use POST"}, ()
            return await self._handle_warm(body)
        return 404, {"error": f"no such endpoint {path!r}"}, ()

    async def _handle_warm(self, body: bytes):
        """The ``POST /v1/warm`` route: replay models into the caches.

        The cluster supervisor's arc pre-warm protocol (DESIGN.md §3.9):
        before a joining worker is published into the hash ring, the
        supervisor posts the model names on the arcs it is about to own
        and this handler loads each bundle into the registry (labeler +
        simulator construction) and lowers it to compiled form, so the
        worker's first real request hits warm caches.  Unknown or
        quarantined bundles are reported per name, never fatal — a bad
        deploy must not keep a worker out of the ring.
        """
        try:
            data = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}, ()
        models = data.get("models") if isinstance(data, dict) else None
        if not isinstance(models, list) or not all(
            isinstance(name, str) and name for name in models
        ):
            return (
                400,
                {"error": "body must carry a 'models' list of names"},
                (),
            )
        loop = asyncio.get_running_loop()
        start = loop.time()
        warmed: list = []
        skipped = {}
        for name in models:
            try:
                entry = await asyncio.to_thread(self.registry.get, name)
                if self.batcher.engine != "object":
                    await asyncio.to_thread(
                        self.registry.compiled_for, entry
                    )
                warmed.append(name)
            except (UnknownModelError, QuarantinedModelError) as exc:
                skipped[name] = str(exc)
            except ExportSchemaError as exc:
                skipped[name] = str(exc)
        wall = loop.time() - start
        if warmed:
            self._warm_replayed.inc(len(warmed))
        self._warm_wall.inc(wall)
        return (
            200,
            {
                "warmed": len(warmed),
                "models": warmed,
                "skipped": skipped,
                "wall_s": round(wall, 6),
            },
            (),
        )

    def _trace_json_from_request(self, data: dict) -> Tuple[str, dict]:
        """Extract ``(model, trace_json)`` from an estimate body.

        Accepts either a full ``"trace"`` document or raw ``"vectors"``
        resolved against the bundle's embedded variable declarations.
        """
        model = data.get("model")
        if not isinstance(model, str) or not model:
            raise BadRequestError("body must carry a 'model' name")
        trace = data.get("trace")
        if trace is not None:
            if not isinstance(trace, dict):
                raise BadRequestError("'trace' must be an object")
            return model, trace
        vectors = data.get("vectors")
        if vectors is None:
            raise BadRequestError("body needs 'trace' or 'vectors'")
        if not isinstance(vectors, list) or not vectors:
            raise BadRequestError("'vectors' must be a non-empty list")
        entry = self.registry.get(model)
        if not entry.variables:
            raise BadRequestError(
                f"bundle {model!r} embeds no variable declarations; "
                "send a full 'trace' document instead of 'vectors'"
            )
        columns = {}
        for spec in entry.variables:
            try:
                columns[spec.name] = [
                    int(vector[spec.name]) for vector in vectors
                ]
            except (KeyError, TypeError, ValueError):
                raise BadRequestError(
                    f"every vector must map variable {spec.name!r} "
                    "to an integer"
                )
        return model, {
            "name": data.get("name", "request"),
            "variables": [
                {
                    "name": v.name,
                    "width": v.width,
                    "direction": v.direction,
                    "kind": v.kind,
                }
                for v in entry.variables
            ],
            "columns": columns,
        }

    async def _handle_estimate(
        self, body: bytes, query: str = "", content_type: str = ""
    ):
        """The ``POST /v1/estimate`` route body (JSON or binary)."""
        is_npt = (
            content_type == NPT_CONTENT_TYPE
            or body[: len(BINARY_MAGIC)] == BINARY_MAGIC
        )
        if not is_npt:
            try:
                data = json.loads(body.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                return 400, {"error": f"invalid JSON body: {exc}"}, ()
            if not isinstance(data, dict):
                return 400, {"error": "body must be a JSON object"}, ()
        try:
            if is_npt:
                params = parse_qs(query)
                model = (params.get("model") or [""])[0]
                if not model:
                    raise BadRequestError(
                        "binary estimate needs a ?model=<name> "
                        "query parameter"
                    )
                # Validate the container header before queueing; the
                # body bytes travel to the kernel untouched.
                reader = BinaryTraceReader.from_bytes(body)
                if not reader.variables:
                    raise BadRequestError(
                        "binary trace carries no functional columns"
                    )
                submission = self.batcher.submit(model, npt_bytes=body)
            else:
                model, trace_json = self._trace_json_from_request(data)
                submission = self.batcher.submit(model, trace_json)
            payload = await asyncio.wait_for(
                submission,
                timeout=self.request_timeout,
            )
        except BadRequestError as exc:
            return 400, {"error": str(exc)}, ()
        except UnknownModelError as exc:
            return 404, {"error": str(exc)}, ()
        except QuarantinedModelError as exc:
            return 503, {"error": str(exc)}, ()
        except QueueFullError as exc:
            return (
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                (("Retry-After", str(exc.retry_after)),),
            )
        except asyncio.TimeoutError:
            return (
                504,
                {
                    "error": (
                        "estimate did not complete within "
                        f"{self.request_timeout}s"
                    )
                },
                (),
            )
        except (ExportSchemaError, ValueError, KeyError) as exc:
            # trace decode / simulation input errors surface here
            return 400, {"error": f"bad estimate input: {exc}"}, ()
        # Labelled with the version the batcher stamped from the bundle
        # it ran, never from an earlier lookup a hot swap may outdate.
        version = payload.pop("version")
        return 200, {"model": model, "version": version, **payload}, ()


def create_server(
    models_dir,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    max_queue: int = 64,
    max_batch: int = 8,
    cap: int = 8,
    request_timeout: float = 30.0,
    metrics: Optional[MetricsRegistry] = None,
    engine: str = "auto",
    freshness_interval: float = 0.25,
    worker_id: Optional[str] = None,
) -> PsmServer:
    """Wire registry + batcher + metrics into a ready-to-start server.

    The one-call constructor used by ``psmgen serve`` and the test
    suite; ``port=0`` binds an ephemeral port (read ``server.port``
    after :meth:`PsmServer.start`).  ``freshness_interval`` rate-limits
    the registry's per-lookup hot-reload stat — replaced bundle files
    are still picked up, just at most that many seconds late.
    ``worker_id`` tags every response with ``X-Psm-Worker`` (set by the
    cluster supervisor so responses stay attributable through the
    router).
    """
    metrics = metrics or MetricsRegistry()
    registry = ModelRegistry(
        models_dir,
        cap=cap,
        metrics=metrics,
        freshness_interval=freshness_interval,
    )
    batcher = MicroBatcher(
        registry,
        metrics=metrics,
        jobs=jobs,
        max_queue=max_queue,
        max_batch=max_batch,
        engine=engine,
    )
    return PsmServer(
        registry,
        batcher,
        metrics,
        host=host,
        port=port,
        request_timeout=request_timeout,
        worker_id=worker_id,
    )
