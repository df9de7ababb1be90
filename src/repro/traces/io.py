"""Serialisation of functional and power traces.

Traces are exchanged as plain CSV (one column per variable, one row per
instant) with a JSON sidecar describing the variables, or as a single JSON
document.  The CSV form is what the command-line tool consumes so traces
produced by external simulators can be fed to the flow.

For long training traces there is additionally a packed binary container
(``.npt``): a JSON header describing the variables followed by raw
little-endian column blocks, so million-cycle training pairs load as
single ``numpy`` reads — optionally memory-mapped or streamed in chunks —
instead of one Python ``csv`` row at a time.  CSV remains the
compatibility path; ``psmgen convert`` translates between the two and the
round trip is exact.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .functional import ArrayTrace, FunctionalTrace
from .power import PowerTrace
from .variables import VariableSpec

PathLike = Union[str, Path]

#: Magic prefix of the packed binary trace container.
BINARY_MAGIC = b"PSMT\x01\n"

#: Schema identifier stored in the binary container's JSON header.
BINARY_FORMAT = "psmgen-trace/v1"

#: Data blocks are aligned to this many bytes so memory-mapped column
#: views start on cache-line boundaries.
_BINARY_ALIGN = 64


def save_functional_csv(trace: FunctionalTrace, path: PathLike) -> None:
    """Write a functional trace as CSV plus a ``.vars.json`` sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace.variable_names)
        for row in trace.rows():
            writer.writerow([row[name] for name in trace.variable_names])
    sidecar = path.with_suffix(path.suffix + ".vars.json")
    spec = [
        {
            "name": v.name,
            "width": v.width,
            "direction": v.direction,
            "kind": v.kind,
        }
        for v in trace.variables
    ]
    sidecar.write_text(json.dumps({"name": trace.name, "variables": spec}))


def load_functional_csv(path: PathLike) -> FunctionalTrace:
    """Read a functional trace written by :func:`save_functional_csv`.

    Rows are transposed into whole columns and range-checked through the
    vectorised :meth:`FunctionalTrace.extend_columns` fast path (numpy
    parses decimal strings directly) instead of one ``int()`` call per
    cell.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".vars.json")
    meta = json.loads(sidecar.read_text())
    variables = [VariableSpec(**v) for v in meta["variables"]]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != [v.name for v in variables]:
            raise ValueError("CSV header does not match variable sidecar")
        rows = list(reader)
    trace = FunctionalTrace(variables, name=meta.get("name", "trace"))
    if rows:
        width = len(header)
        for k, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"CSV row {k + 2} has {len(row)} fields; "
                    f"expected {width}"
                )
        trace.extend_columns(dict(zip(header, zip(*rows))))
    return trace


def functional_trace_to_json(trace: FunctionalTrace) -> dict:
    """One-document JSON form of a functional trace.

    The wire format of the estimation server (``POST /v1/estimate``):
    variable declarations plus column vectors, self-contained — no
    ``.vars.json`` sidecar needed.  Round-trips exactly through
    :func:`functional_trace_from_json`.
    """
    return {
        "name": trace.name,
        "variables": [
            {
                "name": v.name,
                "width": v.width,
                "direction": v.direction,
                "kind": v.kind,
            }
            for v in trace.variables
        ],
        "columns": {
            v.name: [int(x) for x in trace.column(v.name)]
            for v in trace.variables
        },
    }


def functional_trace_from_json(data: dict) -> FunctionalTrace:
    """Rebuild a functional trace from :func:`functional_trace_to_json`."""
    variables = [VariableSpec(**v) for v in data["variables"]]
    return FunctionalTrace(
        variables, data["columns"], name=data.get("name", "trace")
    )


def save_power_csv(trace: PowerTrace, path: PathLike) -> None:
    """Write a power trace as a one-column CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["power"])
        for value in trace.values:
            writer.writerow([repr(float(value))])


def load_power_csv(path: PathLike) -> PowerTrace:
    """Read a power trace written by :func:`save_power_csv`.

    The single column is parsed as one numpy array instead of one
    ``float()`` call per row; ``repr`` round-tripping keeps every value
    bit-exact.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "power":
        raise ValueError("expected single 'power' column")
    body = [line for line in lines[1:] if line]
    values = (
        np.asarray(body, dtype=np.float64)
        if body
        else np.zeros(0, dtype=np.float64)
    )
    return PowerTrace(values, name=path.stem)


def save_training_pair(
    functional: FunctionalTrace,
    power: PowerTrace,
    prefix: PathLike,
) -> Tuple[Path, Path]:
    """Persist a matching (functional, power) training pair.

    Returns the two file paths ``<prefix>.func.csv`` / ``<prefix>.power.csv``.
    """
    if len(functional) != len(power):
        raise ValueError("functional and power traces must have equal length")
    prefix = Path(prefix)
    func_path = prefix.with_suffix(".func.csv")
    power_path = prefix.with_suffix(".power.csv")
    save_functional_csv(functional, func_path)
    save_power_csv(power, power_path)
    return func_path, power_path


def load_training_pair(prefix: PathLike) -> Tuple[FunctionalTrace, PowerTrace]:
    """Load a pair written by :func:`save_training_pair`."""
    prefix = Path(prefix)
    functional = load_functional_csv(prefix.with_suffix(".func.csv"))
    power = load_power_csv(prefix.with_suffix(".power.csv"))
    if len(functional) != len(power):
        raise ValueError("functional and power traces must have equal length")
    return functional, power


# ----------------------------------------------------------------------
# packed binary container (.npt)
# ----------------------------------------------------------------------


def _limb_count(width: int) -> int:
    """uint64 limbs needed for an unsigned value of ``width`` bits."""
    return (width + 63) // 64


def _align_up(offset: int) -> int:
    return (offset + _BINARY_ALIGN - 1) & ~(_BINARY_ALIGN - 1)


def _pack_wide(values: Sequence[int], limbs: int) -> np.ndarray:
    """Pack arbitrary-width unsigned ints into an ``(n, limbs)`` matrix.

    Limb ``l`` of row ``k`` holds bits ``[64 * l, 64 * (l + 1))`` of
    ``values[k]`` (little-endian limb order).
    """
    obj = np.empty(len(values), dtype=object)
    obj[:] = list(values)
    mask = (1 << 64) - 1
    out = np.empty((len(values), limbs), dtype=np.uint64)
    for limb in range(limbs):
        out[:, limb] = ((obj >> (64 * limb)) & mask).astype(np.uint64)
    return out


def _unpack_wide(matrix: np.ndarray) -> List[int]:
    """Inverse of :func:`_pack_wide`: rows back to Python ints."""
    total = np.zeros(len(matrix), dtype=object)
    for limb in range(matrix.shape[1]):
        total += matrix[:, limb].astype(object) << (64 * limb)
    return total.tolist()


def _variable_spec_json(variables: Sequence[VariableSpec]) -> List[dict]:
    return [
        {
            "name": v.name,
            "width": v.width,
            "direction": v.direction,
            "kind": v.kind,
        }
        for v in variables
    ]


def _write_container(
    path: Path,
    name: str,
    length: int,
    variables: Sequence[VariableSpec],
    column_blocks: Sequence[np.ndarray],
    power_values: Optional[np.ndarray],
) -> None:
    """Serialise header + aligned raw blocks to ``path``."""
    records: List[dict] = []
    blocks: List[Tuple[int, bytes]] = []
    offset = 0

    def add_block(record: dict, raw: bytes) -> None:
        nonlocal offset
        offset = _align_up(offset)
        record["offset"] = offset
        record["nbytes"] = len(raw)
        records.append(record)
        blocks.append((offset, raw))
        offset += len(raw)

    for var, block in zip(variables, column_blocks):
        if block.dtype == np.int64:
            record = {"name": var.name, "dtype": "<i8", "limbs": 0}
            raw = np.ascontiguousarray(block, dtype="<i8").tobytes()
        else:
            record = {
                "name": var.name,
                "dtype": "<u8",
                "limbs": int(block.shape[1]),
            }
            raw = np.ascontiguousarray(block, dtype="<u8").tobytes()
        add_block(record, raw)
    power_record: Optional[dict] = None
    if power_values is not None:
        power_record = {"dtype": "<f8", "limbs": 0}
        add_block(
            power_record,
            np.ascontiguousarray(power_values, dtype="<f8").tobytes(),
        )
        records.pop()  # the power block is described separately

    header = {
        "format": BINARY_FORMAT,
        "name": name,
        "length": length,
        "variables": _variable_spec_json(variables),
        "columns": records,
        "power": power_record,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    data_start = _align_up(len(BINARY_MAGIC) + 8 + len(header_bytes))
    with path.open("wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        position = len(BINARY_MAGIC) + 8 + len(header_bytes)
        for block_offset, raw in blocks:
            target = data_start + block_offset
            fh.write(b"\x00" * (target - position))
            fh.write(raw)
            position = target + len(raw)


def _functional_blocks(
    trace: FunctionalTrace,
) -> List[np.ndarray]:
    """One raw block per variable: int64 vector or uint64 limb matrix."""
    blocks: List[np.ndarray] = []
    for var in trace.variables:
        if var.width <= 62:
            blocks.append(
                np.asarray(trace.column(var.name), dtype=np.int64)
            )
        else:
            blocks.append(
                _pack_wide(
                    list(trace.column(var.name)), _limb_count(var.width)
                )
            )
    return blocks


def save_functional_bin(trace: FunctionalTrace, path: PathLike) -> None:
    """Write a functional trace as a packed binary container."""
    _write_container(
        Path(path),
        trace.name,
        len(trace),
        trace.variables,
        _functional_blocks(trace),
        None,
    )


def save_power_bin(trace: PowerTrace, path: PathLike) -> None:
    """Write a power trace as a packed binary container."""
    _write_container(
        Path(path), trace.name, len(trace), [], [], trace.values
    )


def save_training_bin(
    functional: FunctionalTrace, power: PowerTrace, path: PathLike
) -> Path:
    """Persist a (functional, power) training pair as one ``.npt`` file."""
    if len(functional) != len(power):
        raise ValueError("functional and power traces must have equal length")
    path = Path(path)
    _write_container(
        path,
        functional.name,
        len(functional),
        functional.variables,
        _functional_blocks(functional),
        power.values,
    )
    return path


class BinaryTraceReader:
    """Random-access reader of the packed binary trace container.

    Parses the JSON header once; column and power data are then read on
    demand — fully, in ``[start, start + count)`` windows for chunked
    streaming, or as read-only memory maps that never materialise the
    file in RAM.  :meth:`from_bytes` reads the same container straight
    out of an in-memory buffer (e.g. an HTTP request body) with
    ``np.frombuffer`` views instead of file reads.
    """

    def __init__(self, path: PathLike) -> None:
        self.path: Optional[Path] = Path(path)
        self._buffer: Optional[bytes] = None
        with self.path.open("rb") as fh:
            magic = fh.read(len(BINARY_MAGIC))
            if magic != BINARY_MAGIC:
                raise ValueError(f"{self.path}: not a psmgen binary trace")
            (header_len,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(header_len).decode("utf-8"))
        self._init_header(header, header_len)

    @classmethod
    def from_bytes(cls, data) -> "BinaryTraceReader":
        """Reader over an in-memory container (zero-copy column views)."""
        reader = cls.__new__(cls)
        reader.path = None
        reader._buffer = (
            data if isinstance(data, bytes) else bytes(data)
        )
        prefix = len(BINARY_MAGIC)
        if reader._buffer[:prefix] != BINARY_MAGIC:
            raise ValueError("buffer is not a psmgen binary trace")
        if len(reader._buffer) < prefix + 8:
            raise ValueError("truncated binary trace buffer")
        (header_len,) = struct.unpack_from("<Q", reader._buffer, prefix)
        header_end = prefix + 8 + header_len
        if len(reader._buffer) < header_end:
            raise ValueError("truncated binary trace buffer")
        header = json.loads(
            reader._buffer[prefix + 8 : header_end].decode("utf-8")
        )
        reader._init_header(header, header_len)
        return reader

    def _init_header(self, header: dict, header_len: int) -> None:
        source = self.path if self.path is not None else "<bytes>"
        if header.get("format") != BINARY_FORMAT:
            raise ValueError(
                f"{source}: unsupported format {header.get('format')!r}"
            )
        self._header = header
        self._data_start = _align_up(
            len(BINARY_MAGIC) + 8 + header_len
        )
        self.name: str = header.get("name", "trace")
        self.length: int = int(header["length"])
        self.variables: List[VariableSpec] = [
            VariableSpec(**v) for v in header["variables"]
        ]
        self._columns: Dict[str, dict] = {
            record["name"]: record for record in header["columns"]
        }

    # ------------------------------------------------------------------
    @property
    def has_power(self) -> bool:
        """True when the container carries a power block."""
        return self._header.get("power") is not None

    def __len__(self) -> int:
        return self.length

    def _window(self, start: int, count: Optional[int]) -> Tuple[int, int]:
        if count is None:
            count = self.length - start
        if start < 0 or count < 0 or start + count > self.length:
            raise IndexError(
                f"window [{start}, {start + count}) out of range "
                f"[0, {self.length})"
            )
        return start, count

    def _read_block(
        self, record: dict, start: int, count: int
    ) -> np.ndarray:
        dtype = np.dtype(record["dtype"])
        limbs = record["limbs"]
        row_items = limbs if limbs else 1
        offset = (
            self._data_start
            + record["offset"]
            + start * row_items * dtype.itemsize
        )
        if self._buffer is not None:
            end = offset + count * row_items * dtype.itemsize
            if end > len(self._buffer):
                raise ValueError("<bytes>: truncated data block")
            flat = np.frombuffer(
                self._buffer,
                dtype=dtype,
                count=count * row_items,
                offset=offset,
            )
        else:
            with self.path.open("rb") as fh:
                fh.seek(offset)
                flat = np.fromfile(
                    fh, dtype=dtype, count=count * row_items
                )
            if len(flat) != count * row_items:
                raise ValueError(f"{self.path}: truncated data block")
        if limbs:
            return flat.reshape(count, limbs)
        return flat

    def _memmap_block(self, record: dict) -> np.ndarray:
        """Zero-copy view of a whole block (memmap or buffer view)."""
        if self._buffer is not None:
            return self._read_block(record, 0, self.length)
        dtype = np.dtype(record["dtype"])
        limbs = record["limbs"]
        shape = (self.length, limbs) if limbs else (self.length,)
        return np.memmap(
            self.path,
            dtype=dtype,
            mode="r",
            offset=self._data_start + record["offset"],
            shape=shape,
        )

    # ------------------------------------------------------------------
    def column_values(
        self, name: str, start: int = 0, count: Optional[int] = None
    ) -> List[int]:
        """Values of one variable over ``[start, start + count)``."""
        start, count = self._window(start, count)
        record = self._columns[name]
        block = self._read_block(record, start, count)
        if record["limbs"]:
            return _unpack_wide(block)
        return block.astype(np.int64).tolist()

    def memmap_column(self, name: str) -> np.ndarray:
        """Read-only memory map of one narrow column (int64).

        Wide (limb-packed) columns map as their ``(n, limbs)`` uint64
        matrix; use :func:`_unpack_wide` on slices of interest.
        """
        return self._memmap_block(self._columns[name])

    def read_functional(
        self, start: int = 0, count: Optional[int] = None
    ) -> FunctionalTrace:
        """The functional trace restricted to ``[start, start + count)``."""
        if not self.variables:
            raise ValueError(f"{self.path}: container has no functional data")
        start, count = self._window(start, count)
        columns = {
            v.name: self.column_values(v.name, start, count)
            for v in self.variables
        }
        return FunctionalTrace(self.variables, columns, name=self.name)

    def view_functional(self) -> ArrayTrace:
        """Zero-copy :class:`ArrayTrace` view of the whole container.

        Narrow columns feed the estimation kernels as int64 views
        straight over the container bytes (memory map for file-backed
        readers, ``np.frombuffer`` for in-memory ones); wide
        (limb-packed) columns are unpacked to object arrays, since
        arbitrary-width ints have no flat view.
        """
        if not self.variables:
            source = self.path if self.path is not None else "<bytes>"
            raise ValueError(f"{source}: container has no functional data")
        columns: Dict[str, np.ndarray] = {}
        for var in self.variables:
            record = self._columns[var.name]
            block = self._memmap_block(record)
            if record["limbs"]:
                wide = np.empty(self.length, dtype=object)
                wide[:] = _unpack_wide(block)
                block = wide
            columns[var.name] = block
        return ArrayTrace(self.variables, columns, name=self.name)

    def read_power(
        self, start: int = 0, count: Optional[int] = None
    ) -> np.ndarray:
        """Raw power values over ``[start, start + count)``."""
        if not self.has_power:
            raise ValueError(f"{self.path}: container has no power data")
        start, count = self._window(start, count)
        return self._read_block(self._header["power"], start, count)

    def memmap_power(self) -> np.ndarray:
        """Read-only memory map of the whole power block."""
        if not self.has_power:
            raise ValueError(f"{self.path}: container has no power data")
        return self._memmap_block(self._header["power"])

    def chunks(
        self, size: int
    ) -> Iterator[Tuple[int, FunctionalTrace, Optional[np.ndarray]]]:
        """Stream the container in windows of ``size`` instants.

        Yields ``(start, functional_slice, power_slice_or_None)`` — the
        loader for training runs whose traces do not fit in memory at
        once.
        """
        for start, count in window_bounds(self.length, size):
            functional = self.read_functional(start, count)
            power = (
                self.read_power(start, count) if self.has_power else None
            )
            yield start, functional, power


def window_bounds(length: int, size: int) -> Iterator[Tuple[int, int]]:
    """``(start, count)`` pairs tiling ``[0, length)`` in ``size`` steps.

    The final window is partial when ``size`` does not divide ``length``;
    a zero-length trace yields no windows.  The single window arithmetic
    shared by :meth:`BinaryTraceReader.chunks` and the streaming window
    sources.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    for start in range(0, length, size):
        yield start, min(size, length - start)


def load_functional_bin(path: PathLike) -> FunctionalTrace:
    """Read a functional trace written by :func:`save_functional_bin`."""
    return BinaryTraceReader(path).read_functional()


def load_power_bin(path: PathLike) -> PowerTrace:
    """Read a power trace written by :func:`save_power_bin`."""
    reader = BinaryTraceReader(path)
    return PowerTrace(reader.read_power(), name=reader.name)


def load_training_bin(
    path: PathLike,
) -> Tuple[FunctionalTrace, PowerTrace]:
    """Load a training pair written by :func:`save_training_bin`."""
    reader = BinaryTraceReader(path)
    functional = reader.read_functional()
    power = PowerTrace(reader.read_power(), name=reader.name)
    if len(functional) != len(power):
        raise ValueError("functional and power traces must have equal length")
    return functional, power
