"""Workload ``serve``: closed-loop estimates against one ``psmgen serve``.

Set-up fits the four IP bundles (plus a second fit of the republished
IP), cuts held-out 500-cycle windows, starts the server with its
defaults (``--workers 1 --jobs 1``) and warms it with every window in
both encodings.  The client is this process: one keep-alive
connection that sends its next request only when the previous one has
been answered.  A round sends every window ``REPEATS`` times in
each encoding (JSON and ``.npt``), in an order drawn by seed, in
``SLICES`` slices; before every
``PUBLISH_EVERY``-th slice the client republishes the ``REPUBLISHED``
bundle, alternating between its two fits, so the registry reloads and
recompiles under traffic.  Between slices, with nothing in flight, the
host calibration runs and the slice's responses are checked.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import common
from repro.core.export import labeler_from_psms, load_bundle, publish_psms
from repro.core.pipeline import PsmFlow
from repro.core.psm import reset_state_ids
from repro.core.simulation import MultiPsmSimulator
from repro.power.estimator import run_power_simulation
from repro.serve.wire import encode_body
from repro.testbench import BENCHMARKS
from repro.traces.io import (
    BinaryTraceReader,
    functional_trace_from_json,
    functional_trace_to_json,
    save_functional_bin,
)

IPS = ("RAM", "MultSum", "AES", "Camellia")
WINDOW = 500
WINDOWS_PER_IP = 24
REPEATS = 2
ROUND_REQUESTS = len(IPS) * WINDOWS_PER_IP * 2 * REPEATS
SLICES = 4
#: Slices between two republishes of the ``REPUBLISHED`` bundle.
PUBLISH_EVERY = 2
#: Idle seconds after a publish before the next slice: longer than the
#: server's default registry freshness interval (0.25 s), so the first
#: request after a publish is the one that reloads.  A request in flight
#: when that interval lapses can be answered by the new bundle under the
#: old version's name, a server fault (``CHANGES.md``, FOUND) that the
#: version check reports when it happens; it happened in 3 of 5 runs
#: without this wait, so the share of failed requests would differ
#: between identical runs.  README, "Left out".
PUBLISH_SETTLE_S = 0.3
#: Keep-alive client connections.  With two, a request's decode on the
#: server's event loop contends for the GIL with the other request's
#: kernel on the executor thread: per-round p95 then read 8-14 ms around
#: a 5 ms median from run to run, against 3.4-4.0 ms around 2.6 ms with one.
CONNECTIONS = 1
REPUBLISHED = "MultSum"
#: The bundles are fitted on each IP's default verification suite, the
#: second ``REPUBLISHED`` fit on this seed of it, whatever the workload
#: seed: over five seeds a per-seed fit moved throughput by up to 12 %
#: (the models differ in size), which would measure the seed.
ALT_TRAIN_SEED = 1
NPT_TYPE = "application/x-psmgen-npt"
START_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``psmgen serve`` child process on an ephemeral port."""

    def __init__(self, models_dir: Path, log_path: Path) -> None:
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--models-dir", str(models_dir), "--port", "0"],
            cwd=str(common.ROOT),
            env=common.program_env(),
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        self.port = self._await_banner()

    def _await_banner(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if line.startswith("serving "):
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("psmgen serve did not report its port")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Connection:
    """A keep-alive HTTP/1.1 client connection (parsed here, not by the program)."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, target: str, body: bytes = b"",
                      content_type: str = "application/json") -> Tuple[int, bytes]:
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus exposition -> series name (labels dropped) -> summed value."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        if name == "psmgen_request_seconds_sum" or name == "psmgen_request_seconds_count":
            if 'endpoint="estimate"' not in name_part:
                continue
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


class Serve:
    name = "serve"
    #: Set-ups per run (README, "Timing"): three, at 4-5 s each.
    setups = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"serve/{seed}")
        self.eval_seeds = {ip: self.rng.randrange(1, 1 << 30) for ip in IPS}
        # the same requests every round, in an order drawn by seed
        self.plan = [
            ((ip, k), kind)
            for ip in IPS for k in range(WINDOWS_PER_IP)
            for kind in ("json", "npt") for _ in range(REPEATS)
        ]
        self.rng.shuffle(self.plan)
        self.work = common.WORK / f"serve-{seed}-{id(self)}"
        self.loop = asyncio.new_event_loop()
        self.server: Optional[ServerProcess] = None
        self.conns: List[Connection] = []
        self.inflight = 0
        self.publishes = 0

    # -- set-up ----------------------------------------------------------
    def _fit(self, ip: str, seed: Optional[int] = None):
        spec = BENCHMARKS[ip]
        reset_state_ids()
        stimulus = spec.short_ts() if seed is None else spec.short_ts(seed=seed)
        train = run_power_simulation(spec.module_class(), stimulus)
        flow = PsmFlow(spec.flow_config()).fit([train.trace], [train.power])
        return flow.psms, train.trace.variables

    def setup(self) -> None:
        self.close()
        if self.work.exists():
            shutil.rmtree(self.work)
        models = self.work / "models"
        models.mkdir(parents=True)
        (self.work / "alt").mkdir()
        # versions[ip]: every (psms, digest, path) a response may name
        self.versions: Dict[str, list] = {}
        self.variables = {}
        for ip in IPS:
            psms, variables = self._fit(ip)
            self.variables[ip] = variables
            path = models / f"{ip}.json"
            self.versions[ip] = [(psms, publish_psms(psms, path, variables=variables), path)]
        alt_psms, _ = self._fit(REPUBLISHED, ALT_TRAIN_SEED)
        alt_path = self.work / "alt" / f"{REPUBLISHED}.json"
        alt_digest = publish_psms(alt_psms, alt_path, variables=self.variables[REPUBLISHED])
        self.versions[REPUBLISHED].append((alt_psms, alt_digest, alt_path))
        self.bundle_path = models / f"{REPUBLISHED}.json"
        # held-out windows, both encodings, reference power, offline estimates
        self.cells: Dict[tuple, dict] = {}
        simulators = {}
        for ip in IPS:
            for _, digest, path in self.versions[ip]:
                bundle = load_bundle(path)
                simulators[(ip, digest)] = MultiPsmSimulator(
                    bundle.psms, labeler_from_psms(bundle.psms)
                )
        npt_path = self.work / "window.npt"
        for ip in IPS:
            spec = BENCHMARKS[ip]
            ref = run_power_simulation(
                spec.module_class(),
                spec.long_ts(WINDOW * WINDOWS_PER_IP, seed=self.eval_seeds[ip]),
            )
            for k in range(WINDOWS_PER_IP):
                window = ref.trace.slice(k * WINDOW, (k + 1) * WINDOW - 1)
                doc = functional_trace_to_json(window)
                json_body = json.dumps({"model": ip, "trace": doc}).encode("utf-8")
                save_functional_bin(window, npt_path)
                decoded = functional_trace_from_json(doc)
                expected = {}
                for _, digest, _ in self.versions[ip]:
                    result = simulators[(ip, digest)].run(decoded)
                    expected[digest] = (
                        [float(x) for x in result.estimated.values],
                        result.reliable.tolist(),
                    )
                self.cells[(ip, k)] = {
                    "json": json_body,
                    "npt": npt_path.read_bytes(),
                    "reference": ref.power.values[k * WINDOW:(k + 1) * WINDOW].tolist(),
                    "expected": expected,
                }
        self.server = ServerProcess(models, self.work / "serve.log")
        self.conns = self.loop.run_until_complete(self._open_connections())
        warm = [(cell, kind) for cell in self.cells for kind in ("json", "npt")]
        responses = self.loop.run_until_complete(self._slice(warm))
        problems = [p for item, resp in zip(warm, responses)
                    for p in self._check(item, resp)[0]]
        if problems:
            raise RuntimeError(f"warm-up responses failed their checks: {problems[:3]}")

    def close(self) -> None:
        try:
            if self.conns:
                conns, self.conns = self.conns, []
                self.loop.run_until_complete(self._close_connections(conns))
        finally:
            if self.server is not None:
                self.server.stop()
                self.server = None

    def shutdown(self) -> None:
        self.close()
        self.loop.close()
        shutil.rmtree(self.work, ignore_errors=True)

    async def _open_connections(self) -> List[Connection]:
        return list(await asyncio.gather(
            *(Connection.open(self.server.port) for _ in range(CONNECTIONS))
        ))

    @staticmethod
    async def _close_connections(conns: List[Connection]) -> None:
        await asyncio.gather(*(conn.close() for conn in conns))

    # -- the closed loop ---------------------------------------------------
    def _send(self, conn: Connection, item):
        (ip, k), kind = item
        cell = self.cells[(ip, k)]
        if kind == "json":
            return conn.request("POST", "/v1/estimate", cell["json"])
        return conn.request("POST", f"/v1/estimate?model={ip}", cell["npt"], NPT_TYPE)

    async def _slice(self, items) -> List[tuple]:
        """Send ``items`` over the connections in a closed loop."""
        results: List[tuple] = [None] * len(items)
        cursor = iter(range(len(items)))

        async def lane(conn: Connection) -> None:
            for index in cursor:
                self.inflight += 1
                start = time.perf_counter()
                try:
                    status, body = await self._send(conn, items[index])
                finally:
                    self.inflight -= 1
                results[index] = (status, body, start, time.perf_counter())

        await asyncio.gather(*(lane(conn) for conn in self.conns))
        return results

    def _check(self, item, response) -> Tuple[List[str], Optional[float], Optional[dict]]:
        """Problems of one response, its MRE over reliable instants, its payload."""
        (ip, k), kind = item
        status, body, _, _ = response
        if status != 200:
            return [f"{ip}[{k}] {kind}: HTTP {status}"], None, None
        payload = json.loads(body)
        cell = self.cells[(ip, k)]
        expected = cell["expected"].get(payload.get("version"))
        if expected is None:
            return [f"{ip}[{k}] {kind}: unknown version {payload.get('version')!r}"], None, payload
        estimated, reliable = expected
        if payload.get("estimated") != estimated:
            return [f"{ip}[{k}] {kind}: estimate differs from the offline one"], None, payload
        est = [e for e, ok in zip(estimated, reliable) if ok]
        ref = [r for r, ok in zip(cell["reference"], reliable) if ok]
        return [], (checks.mre_percent(est, ref) if ref else None), payload

    def _publish(self) -> None:
        psms = self.versions[REPUBLISHED][self.publishes % 2][0]
        publish_psms(psms, self.bundle_path, variables=self.variables[REPUBLISHED])
        self.publishes += 1

    def run_round(self, clock, outcome, tracer) -> Dict[str, list]:
        """One whole round: ``ROUND_REQUESTS`` requests in slices."""
        latencies, walls, payloads, coverage = [], [], [], []
        client_cpu = 0.0
        cell_mre: Dict[tuple, float] = {}
        size = ROUND_REQUESTS // SLICES
        for index, first in enumerate(range(0, ROUND_REQUESTS, size)):
            if index % PUBLISH_EVERY == 0:
                self._publish()
            settle = time.perf_counter() + PUBLISH_SETTLE_S
            clock.calibrate(self.inflight)
            time.sleep(max(settle - time.perf_counter(), 0.0))
            items = self.plan[first:first + size]
            # the client collects while idle, never inside a slice, so
            # its own garbage collection stays out of the latencies
            gc.collect()
            gc.disable()
            try:
                start, cpu = time.perf_counter(), time.process_time()
                with tracer.span("op") as sid:
                    responses = self.loop.run_until_complete(self._slice(items))
                walls.append(time.perf_counter() - start)
            finally:
                gc.enable()
            client_cpu += time.process_time() - cpu
            if sid is not None:
                for _, _, lo, hi in responses:
                    tracer.record("request", lo - tracer.t0, hi - tracer.t0, sid)
                coverage.append(tracer.coverage(sid))
            for item, response in zip(items, responses):
                latencies.append(response[3] - response[2])
                problems, mre, payload = self._check(item, response)
                if mre is not None:
                    cell_mre.setdefault(item[0], mre)
                if payload is not None:
                    payloads.append(payload)
                outcome.record(f"{item[0][0]}[{item[0][1]}] {item[1]}", problems)
        per_ip = [
            statistics.fmean(v for (ip, _), v in cell_mre.items() if ip == name)
            for name in IPS if any(ip == name for ip, _ in cell_mre)
        ]
        return {"lat": latencies, "walls": walls, "coverage": coverage,
                "payloads": payloads, "client_cpu": client_cpu, "mre": statistics.fmean(per_ip) if per_ip else math.inf}

    @staticmethod
    def end_to_end(rounds: List[Dict[str, list]]) -> Dict[str, tuple]:
        """Per-round figures (a round of 384 requests leaves 19 samples
        beyond its p95), reported as their medians over the run's rounds."""
        def median(fn):
            return statistics.median(fn(r) for r in rounds)

        return {
            "op_s": (median(lambda r: statistics.fmean(r["lat"])), "s"),
            "rps": (median(lambda r: len(r["lat"]) / sum(r["walls"])), "1/s"),
            "p50_ms": (1000.0 * median(lambda r: common.percentile(r["lat"], 50)), "ms"),
            "p95_ms": (1000.0 * median(lambda r: common.percentile(r["lat"], 95)), "ms"),
            "mre_pct": (rounds[0]["mre"], "%"),
        }

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.server.pid)

    @staticmethod
    def round_seconds(round_result) -> float:
        return sum(round_result["walls"])

    # -- traced-run figures read from outside ------------------------------
    def begin_traced(self) -> None:
        self.scraped = self.scrape()

    def layer_figures(self, traced: Dict[str, list], tracer) -> Dict[str, float]:
        """Server series and CPU over the traced round, plus the wire and
        kernel calls repeated here on its bodies."""
        before, after = self.scraped, self.scrape()
        requests = len(traced["lat"])

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        figures = {
            "server.cpu_ms_per_req": 1000.0 * delta("cpu_s") / requests,
            "server.request_ms": 1000.0 * delta("psmgen_request_seconds_sum")
            / delta("psmgen_request_seconds_count"),
            "batch.size_mean": delta("psmgen_batch_size_sum") / delta("psmgen_batch_size_count"),
            "registry.reloads": delta("psmgen_model_cache_misses_total"),
            "registry.compile_misses": delta("psmgen_model_compile_misses_total"),
            "client.cpu_ms_per_req": 1000.0 * traced["client_cpu"] / requests,
        }
        figures.update(self.wire_and_kernel(traced["payloads"]))
        return figures

    def scrape(self) -> Dict[str, float]:
        async def get():
            conn = await Connection.open(self.server.port)
            try:
                return await conn.request("GET", "/metrics")
            finally:
                await conn.close()

        status, body = self.loop.run_until_complete(get())
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        series = parse_metrics(body.decode("utf-8"))
        series["cpu_s"] = common.proc_cpu_seconds(self.server.pid)
        return series

    def wire_and_kernel(self, payloads: List[dict]) -> Dict[str, float]:
        """Repeat the server's decode, encode and kernel calls on a round's bodies."""
        json_ms, npt_ms, encode_ms = [], [], []
        traces = []
        for (ip, k), kind in self.plan:
            body = self.cells[(ip, k)][kind]
            start = time.perf_counter()
            if kind == "json":
                trace = functional_trace_from_json(json.loads(body)["trace"])
                json_ms.append(time.perf_counter() - start)
            else:
                trace = BinaryTraceReader.from_bytes(body).view_functional()
                npt_ms.append(time.perf_counter() - start)
            traces.append((ip, trace))
        for payload in payloads:
            start = time.perf_counter()
            encode_body(payload)
            encode_ms.append(time.perf_counter() - start)
        simulators = {}
        cold, warm = [], []
        for ip in IPS:
            psms = self.versions[ip][0][0]
            simulators[ip] = MultiPsmSimulator(psms, labeler_from_psms(psms))
            probe = BinaryTraceReader.from_bytes(self.cells[(ip, 0)]["npt"]).view_functional()
            for sink in (cold, warm):
                start = time.perf_counter()
                simulators[ip].run(probe)
                sink.append(time.perf_counter() - start)
        for ip, trace in traces:
            simulators[ip].run(trace)
        return {
            "wire.json_decode_ms": 1000.0 * statistics.fmean(json_ms),
            "wire.npt_decode_ms": 1000.0 * statistics.fmean(npt_ms),
            "wire.encode_ms": 1000.0 * statistics.fmean(encode_ms),
            "kernel.cold_ms": 1000.0 * statistics.fmean(cold),
            "kernel.warm_ms": 1000.0 * statistics.fmean(warm),
        }
