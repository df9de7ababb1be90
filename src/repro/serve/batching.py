"""Micro-batching executor: coalesce concurrent estimates per model.

Concurrent ``/v1/estimate`` requests targeting the same model are
coalesced into one batch and simulated back-to-back in a single executor
submission, amortising the scheduling and (in process mode) the
cross-process dispatch over up to ``max_batch`` requests.  By default a
batch executes on the compiled engine (DESIGN.md §3.5): every lane is
integer-coded up front and swept through the model's shared segment
tables in one kernel call, which is bit-identical to — and an order of
magnitude faster than — stepping the object-graph
:class:`~repro.core.simulation.MultiPsmSimulator` per trace
(``engine="object"`` keeps that oracle path selectable).

Execution modes follow :func:`repro.parallel.make_pool`: with
``jobs > 1`` (and process support) batches run on a persistent
``ProcessPoolExecutor`` whose workers load-and-cache bundles from disk
by ``(path, version)``; otherwise batches run on a small thread pool
against the registry's cached simulator (numpy releases the GIL for the
vectorised fills).  Per-model batches are serialised either way, so the
shared simulator caches are never raced.

Backpressure is explicit: each model has a bounded queue of pending
jobs; when it is full, :meth:`MicroBatcher.submit` raises
:class:`QueueFullError` carrying a ``retry_after`` estimate derived from
the queue depth and a smoothed batch duration — the server maps this to
``429`` + ``Retry-After`` instead of buffering unboundedly.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.export import labeler_from_psms, load_psms
from ..core.simulation import MultiPsmSimulator
from ..parallel import make_pool, resolve_jobs
from ..traces.io import BinaryTraceReader, functional_trace_from_json
from .metrics import MetricsRegistry
from .registry import ModelEntry, ModelRegistry

#: Backends a batch may execute on (``auto`` resolves to compiled).
ENGINES = ("auto", "compiled", "object")


class QueueFullError(RuntimeError):
    """The per-model pending queue is at capacity (backpressure).

    ``retry_after`` is the whole-second hint the server returns in the
    ``Retry-After`` header.
    """

    def __init__(self, model: str, depth: int, retry_after: int) -> None:
        super().__init__(
            f"estimate queue for model {model!r} is full ({depth} pending)"
        )
        self.model = model
        self.depth = depth
        self.retry_after = max(int(retry_after), 1)


@dataclass
class _Job:
    """One pending estimate: its tagged input and the awaiting future.

    ``payload`` is ``("json", trace_document)`` for the JSON wire form
    or ``("npt", container_bytes)`` for a binary ``.npt`` body (decoded
    zero-copy at execution time).
    """

    payload: Tuple[str, object]
    future: "asyncio.Future"


def _decode_payload(payload: Tuple[str, object]):
    """One job's trace (JSON rebuild or zero-copy ``.npt`` view), or the
    exception decoding it raised: that request's error, not the batch's."""
    kind, data = payload
    try:
        if kind == "npt":
            return BinaryTraceReader.from_bytes(data).view_functional()
        return functional_trace_from_json(data)
    except Exception as exc:
        return exc


def simulate_one(entry_or_simulator, trace_json: dict, engine: str = "auto") -> dict:
    """Simulate one trace window; the shared unit of work of every mode.

    Returns the ``EstimationResult.to_json`` payload plus the
    simulation wall time and the backend that produced it.  Accepts
    either a registry entry or a bare simulator so in-process and
    worker-process callers share one code path (and therefore
    bit-identical results).
    """
    simulator = getattr(entry_or_simulator, "simulator", entry_or_simulator)
    trace = functional_trace_from_json(trace_json)
    start = time.perf_counter()
    result = simulator.run(trace, engine=engine)
    wall = time.perf_counter() - start
    payload = result.to_json()
    payload["sim_seconds"] = wall
    payload["engine"] = "object" if engine == "object" else "compiled"
    return payload


def _execute_batch(
    simulator: MultiPsmSimulator,
    payloads: List[Tuple[str, object]],
    engine: str,
) -> List[object]:
    """Run one coalesced batch; the shared body of both execution modes.

    On the compiled engine the whole batch goes through one kernel
    sweep over the simulator's shared segment tables: every lane is
    integer-coded up front, then walked back-to-back, so each table
    edge resolved for one request is reused by all the others.  Each
    payload reports its amortised share of the batch kernel wall time
    as ``sim_seconds`` plus the whole-batch figure.  A payload that
    fails to decode gets its exception in its slot; the rest still run.
    """
    decoded = [_decode_payload(payload) for payload in payloads]
    traces = [t for t in decoded if not isinstance(t, Exception)]
    if not traces:
        return decoded
    start = time.perf_counter()
    if engine == "object":
        results = []
        walls = []
        for trace in traces:
            one = time.perf_counter()
            results.append(simulator.run(trace, engine="object"))
            walls.append(time.perf_counter() - one)
        batch_wall = time.perf_counter() - start
    else:
        machine = simulator._compiled()
        for trace in traces:
            machine._coded(trace)
        results = [machine.run(trace) for trace in traces]
        batch_wall = time.perf_counter() - start
        walls = [batch_wall / len(traces)] * len(traces)
    out: List[dict] = []
    for result, wall in zip(results, walls):
        payload = result.to_json()
        payload["sim_seconds"] = wall
        payload["batch_sim_seconds"] = batch_wall
        payload["engine"] = "object" if engine == "object" else "compiled"
        out.append(payload)
    served = iter(out)
    return [t if isinstance(t, Exception) else next(served) for t in decoded]


def _simulate_batch_inline(
    entry: ModelEntry,
    payloads: List[Tuple[str, object]],
    engine: str = "auto",
) -> List[object]:
    """Thread-mode batch body: reuse the registry's cached simulator."""
    return _execute_batch(entry.simulator, payloads, engine)


#: Per-worker-process bundle cache: ``(path, version) -> simulator``.
_WORKER_MODELS: Dict[Tuple[str, str], MultiPsmSimulator] = {}

#: Worker-side cache cap: serving workers hold at most this many models.
_WORKER_CACHE_CAP = 8


def _simulate_batch_worker(
    path: str,
    version: str,
    payloads: List[Tuple[str, object]],
    engine: str = "auto",
) -> List[object]:
    """Process-mode batch body: load-and-cache the bundle, then simulate.

    Workers rebuild the simulator from the bundle *file* (nothing heavy
    crosses the process boundary) and cache it by ``(path, version)``,
    so a hot-reloaded bundle is picked up while steady-state batches pay
    zero reload cost.  The compiled machine lives on the cached
    simulator, so its tables survive across batches too.
    """
    key = (path, version)
    simulator = _WORKER_MODELS.get(key)
    if simulator is None:
        psms = load_psms(path)
        labeler = labeler_from_psms(psms)
        simulator = MultiPsmSimulator(psms, labeler)
        while len(_WORKER_MODELS) >= _WORKER_CACHE_CAP:
            _WORKER_MODELS.pop(next(iter(_WORKER_MODELS)))
        _WORKER_MODELS[key] = simulator
    return _execute_batch(simulator, payloads, engine)


class MicroBatcher:
    """Coalesces concurrent per-model estimate requests into batches.

    One lazily-started drainer task per model pulls up to ``max_batch``
    pending jobs at a time and executes them as a single submission;
    while a batch is in flight, newly arriving requests accumulate in
    the (bounded) queue and form the next batch — that is where the
    coalescing comes from.
    """

    #: Thread-mode batches whose recent wall EWMA sits under this many
    #: seconds run inline on the event loop instead of hopping to the
    #: executor — the handoff costs more than the compiled kernel.
    INLINE_WALL_S = 0.002

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[MetricsRegistry] = None,
        jobs: int = 1,
        max_queue: int = 64,
        max_batch: int = 8,
        engine: str = "auto",
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine: {engine!r}")
        self.registry = registry
        self.engine = engine
        self.max_queue = max(int(max_queue), 1)
        self.max_batch = max(int(max_batch), 1)
        self._pool = make_pool(jobs)
        self._threads: Optional[ThreadPoolExecutor] = None
        if self._pool is None:
            self._threads = ThreadPoolExecutor(
                max_workers=min(resolve_jobs(jobs), 4),
                thread_name_prefix="psm-batch",
            )
        self._queues: Dict[str, Deque[_Job]] = {}
        self._wakeups: Dict[str, asyncio.Event] = {}
        self._drainers: Dict[str, asyncio.Task] = {}
        self._batch_ewma: Dict[str, float] = {}
        self._executing = 0
        self._settled: Optional[asyncio.Event] = None
        metrics = metrics or MetricsRegistry()
        self._batch_size = metrics.histogram(
            "psmgen_batch_size",
            "Requests coalesced per simulation batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        )
        self._batch_occupancy = metrics.histogram(
            "psmgen_batch_occupancy",
            "Fill ratio of each simulation batch (size / max_batch); "
            "sustained occupancy near 1.0 means the worker is "
            "saturated — the cluster router's replica trigger and "
            "operators both read this.",
            buckets=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
        )
        self._batch_seconds = metrics.histogram(
            "psmgen_batch_seconds",
            "Wall time of one batch submission.",
            labelnames=("model",),
        )
        self._queue_depth = metrics.gauge(
            "psmgen_queue_depth",
            "Pending estimate requests per model.",
            labelnames=("model",),
        )
        self._pending_total = metrics.gauge(
            "psmgen_pending_total",
            "Pending estimate requests across all models plus "
            "batches currently executing.",
        )
        self._rejected = metrics.counter(
            "psmgen_rejected_total",
            "Requests rejected before execution.",
            labelnames=("reason",),
        )
        self._instants = metrics.counter(
            "psmgen_simulated_instants_total",
            "Trace instants simulated, per model.",
            labelnames=("model",),
        )

    @property
    def mode(self) -> str:
        """``"process"`` or ``"thread"`` — the active execution mode."""
        return "process" if self._pool is not None else "thread"

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Queued jobs plus batches currently executing."""
        return sum(len(q) for q in self._queues.values()) + self._executing

    def _note_settled(self) -> None:
        self._pending_total.set(self.pending())
        if self._settled is not None and self.pending() == 0:
            self._settled.set()

    async def drain(self, deadline_s: float) -> bool:
        """Wait until every queued job has executed; True if it did.

        The graceful-shutdown path: the server has already stopped
        accepting work, so the queues only shrink.  Waits at most
        ``deadline_s`` seconds; a ``False`` return means jobs were
        still pending (the caller will fail them via :meth:`aclose`).
        """
        if self.pending() == 0:
            return True
        self._settled = asyncio.Event()
        try:
            await asyncio.wait_for(
                self._settled.wait(), max(float(deadline_s), 0.001)
            )
            return True
        except asyncio.TimeoutError:
            return self.pending() == 0
        finally:
            self._settled = None

    # ------------------------------------------------------------------
    def retry_after(self, model: str) -> int:
        """Whole-second backoff hint for a full queue."""
        depth = len(self._queues.get(model, ()))
        ewma = self._batch_ewma.get(model, 0.05)
        batches_ahead = (depth + self.max_batch - 1) // self.max_batch
        return min(max(1, round(batches_ahead * ewma + 0.5)), 30)

    async def submit(
        self,
        model: str,
        trace_json: Optional[dict] = None,
        npt_bytes: Optional[bytes] = None,
    ) -> dict:
        """Queue one estimate and await its result payload.

        The input is either a JSON trace document (``trace_json``) or a
        binary ``.npt`` container body (``npt_bytes``), exactly one of
        the two.  Raises :class:`QueueFullError` immediately when the
        model's queue is at capacity, and propagates registry errors
        (unknown / quarantined model) and simulation errors from the
        executor.
        """
        if (trace_json is None) == (npt_bytes is None):
            raise ValueError("exactly one of trace_json/npt_bytes")
        entry = self.registry.get(model)  # validates + warms the cache
        queue = self._queues.setdefault(model, deque())
        if len(queue) >= self.max_queue:
            self._rejected.inc(reason="queue_full")
            raise QueueFullError(
                model, len(queue), self.retry_after(model)
            )
        loop = asyncio.get_running_loop()
        payload = (
            ("npt", npt_bytes)
            if npt_bytes is not None
            else ("json", trace_json)
        )
        job = _Job(payload, loop.create_future())
        queue.append(job)
        self._queue_depth.set(len(queue), model=model)
        self._pending_total.set(self.pending())
        self._ensure_drainer(model, entry)
        return await job.future

    # ------------------------------------------------------------------
    def _ensure_drainer(self, model: str, entry: ModelEntry) -> None:
        event = self._wakeups.setdefault(model, asyncio.Event())
        event.set()
        task = self._drainers.get(model)
        if task is None or task.done():
            self._drainers[model] = asyncio.get_running_loop().create_task(
                self._drain_loop(model), name=f"psm-drain-{model}"
            )

    async def _drain_loop(self, model: str) -> None:
        """Forever: wait for work, then execute one batch at a time."""
        event = self._wakeups[model]
        queue = self._queues[model]
        while True:
            if not queue:
                event.clear()
                await event.wait()
                continue
            await self.drain_once(model)

    async def drain_once(self, model: str) -> int:
        """Execute one batch (<= ``max_batch`` pending jobs); its size.

        Exposed for deterministic tests; the drainer loop calls it
        repeatedly.
        """
        queue = self._queues.get(model)
        if not queue:
            return 0
        batch = [
            queue.popleft()
            for _ in range(min(len(queue), self.max_batch))
        ]
        self._executing += 1
        self._queue_depth.set(len(queue), model=model)
        self._batch_size.observe(len(batch))
        self._batch_occupancy.observe(len(batch) / self.max_batch)
        payloads = [job.payload for job in batch]
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            entry = self.registry.get(model)
            if self.engine != "object":
                # Per-digest compiled cache (ticks the compile counters;
                # in thread mode the batch then runs on this machine).
                self.registry.compiled_for(entry)
            if self._pool is not None:
                results = await loop.run_in_executor(
                    self._pool,
                    _simulate_batch_worker,
                    str(entry.path),
                    entry.version,
                    payloads,
                    self.engine,
                )
            elif (
                self._batch_ewma.get(model, 1.0) < self.INLINE_WALL_S
            ):
                # Sub-millisecond batches (the compiled kernel on short
                # windows) lose more latency to the thread handoff than
                # to the simulation itself; run them on the loop.  The
                # EWMA keeps genuinely slow models on the executor so a
                # long batch can never stall unrelated connections.
                results = _simulate_batch_inline(
                    entry, payloads, self.engine
                )
            else:
                results = await loop.run_in_executor(
                    self._threads,
                    _simulate_batch_inline,
                    entry,
                    payloads,
                    self.engine,
                )
        except Exception as exc:  # registry or simulation failure
            for job in batch:
                if not job.future.done():
                    job.future.set_exception(exc)
            return len(batch)
        finally:
            self._executing -= 1
            self._note_settled()
        wall = time.perf_counter() - start
        self._batch_seconds.observe(wall, model=model)
        previous = self._batch_ewma.get(model, wall)
        self._batch_ewma[model] = 0.7 * previous + 0.3 * wall
        for job, payload in zip(batch, results):
            if isinstance(payload, Exception):  # this job's input failed
                if not job.future.done():
                    job.future.set_exception(payload)
                continue
            payload["batch_size"] = len(batch)
            # The bundle this batch actually ran: a hot swap may have
            # reloaded the model since the request was queued.
            payload["version"] = entry.version
            self._instants.inc(payload.get("instants", 0), model=model)
            if not job.future.done():  # the waiter may have timed out
                job.future.set_result(payload)
        return len(batch)

    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Cancel drainers, fail pending jobs, shut the executors down."""
        for task in self._drainers.values():
            task.cancel()
        for task in self._drainers.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._drainers.clear()
        for model, queue in self._queues.items():
            while queue:
                job = queue.popleft()
                if not job.future.done():
                    job.future.set_exception(
                        RuntimeError("server shutting down")
                    )
            self._queue_depth.set(0, model=model)
        self._pending_total.set(0)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
