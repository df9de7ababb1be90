"""Functional traces (paper Definition 2).

A functional trace of a model ``M`` is a finite sequence ``<phi_1 ... phi_n>``
where ``phi_i = eval(V, t_i)`` is the evaluation of the observed variables
``V`` (primary inputs and outputs of ``M``) at simulation instant ``t_i``.

The trace is stored column-wise as one :class:`numpy.ndarray` per variable so
the assertion miner can evaluate candidate atomic propositions with
vectorised operations over the whole trace.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from .variables import VariableSpec


class FunctionalTrace:
    """Column-oriented store of variable values over simulation instants.

    Parameters
    ----------
    variables:
        Ordered variable specifications.
    columns:
        Optional mapping ``name -> sequence of values``; all columns must
        share the same length and every value must fit its variable's
        width (checked as in :meth:`extend_columns`).  When omitted an
        empty trace is created and rows can be appended with
        :meth:`append`.
    name:
        Optional label (used in reports and serialised files).
    """

    def __init__(
        self,
        variables: Sequence[VariableSpec],
        columns: Optional[Mapping[str, Sequence[int]]] = None,
        name: str = "trace",
    ) -> None:
        if not variables:
            raise ValueError("a functional trace needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in trace")
        self.name = name
        self._variables: List[VariableSpec] = list(variables)
        self._index: Dict[str, VariableSpec] = {v.name: v for v in variables}
        self._columns: Dict[str, List[int]] = {v.name: [] for v in variables}
        self._frozen: Dict[str, np.ndarray] = {}
        self._hd_cache: Dict[tuple, np.ndarray] = {}
        self._derived: Dict[object, object] = {}
        if columns is not None:
            missing = [v.name for v in variables if v.name not in columns]
            if missing:
                raise ValueError(f"missing columns for variables: {missing}")
            self.extend_columns(columns)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, row: Mapping[str, int]) -> None:
        """Append one simulation instant; ``row`` maps name -> value."""
        self._frozen.clear()
        self._hd_cache.clear()
        self._derived.clear()
        for var in self._variables:
            if var.name not in row:
                raise KeyError(f"row is missing variable {var.name!r}")
            self._columns[var.name].append(var.validate_value(row[var.name]))

    def extend(self, rows: Iterable[Mapping[str, int]]) -> None:
        """Append several simulation instants in one bulk operation.

        The rows are validated column-wise into staging lists first and
        committed together, so a bad row leaves the trace unchanged and
        the frozen column cache is invalidated once per call instead of
        once per row.
        """
        staged: Dict[str, List[int]] = {v.name: [] for v in self._variables}
        for row in rows:
            for var in self._variables:
                if var.name not in row:
                    raise KeyError(f"row is missing variable {var.name!r}")
                staged[var.name].append(var.validate_value(row[var.name]))
        if not staged[self._variables[0].name]:
            return
        self._frozen.clear()
        self._hd_cache.clear()
        self._derived.clear()
        for name, values in staged.items():
            self._columns[name].extend(values)

    def extend_columns(self, columns: Mapping[str, Sequence]) -> None:
        """Append whole columns at once, validating them vectorised.

        ``columns`` maps every variable name to an equal-length sequence
        of values — ints, decimal strings (as read from CSV) or a numpy
        array.  Narrow variables (width <= 62) are range-checked as one
        int64 array instead of one ``validate_value`` call per row, which
        is what makes million-cycle trace ingestion Python-loop free;
        wide (cipher-bus) variables keep the per-value path.  Validation
        is staged: a bad value leaves the trace unchanged.
        """
        missing = [v.name for v in self._variables if v.name not in columns]
        if missing:
            raise KeyError(f"columns missing for variables: {missing}")
        staged: Dict[str, List[int]] = {}
        lengths = set()
        for var in self._variables:
            values = columns[var.name]
            staged[var.name] = self._validate_column(var, values)
            lengths.add(len(staged[var.name]))
        if len(lengths) > 1:
            raise ValueError("all columns must have the same length")
        if not lengths or lengths == {0}:
            return
        self._frozen.clear()
        self._hd_cache.clear()
        self._derived.clear()
        for name, values in staged.items():
            self._columns[name].extend(values)

    @staticmethod
    def _validate_column(var: VariableSpec, values: Sequence) -> List[int]:
        """Range-check one column into a list of Python ints.

        Narrow variables (width <= 62) are checked as one int64 array;
        wide ones convert every value once and test only the column's
        extremes.  Either way the first offending value, in column
        order, raises the canonical :meth:`VariableSpec.validate_value`
        error.
        """
        if var.width <= 62:
            try:
                arr = np.asarray(values, dtype=np.int64)
            except (OverflowError, ValueError, TypeError):
                # Out-of-int64 or non-numeric values: the scalar path
                # produces the canonical per-value error message.
                return [var.validate_value(x) for x in values]
            if arr.ndim != 1:
                raise ValueError(f"column {var.name!r} must be 1-D")
            bad = np.nonzero((arr < 0) | (arr > var.max_value))[0]
            if len(bad):
                var.validate_value(int(arr[bad[0]]))
            return arr.tolist()
        ints = list(map(int, values))
        if ints and (min(ints) < 0 or max(ints) > var.max_value):
            for value in ints:
                var.validate_value(value)
        return ints

    @classmethod
    def from_checked_columns(
        cls,
        variables: Sequence[VariableSpec],
        columns: Mapping[str, List[int]],
        name: str = "trace",
    ) -> "FunctionalTrace":
        """Adopt columns already passed through :meth:`_validate_column`.

        The lists become the trace's storage as they are — no copy, no
        second range check — so the caller must not mutate them after.
        """
        trace = cls(variables, name=name)
        if len({len(columns[v.name]) for v in variables}) > 1:
            raise ValueError("all columns must have the same length")
        trace._columns = {v.name: columns[v.name] for v in variables}
        return trace

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> List[VariableSpec]:
        """The ordered variable specifications."""
        return list(self._variables)

    @property
    def variable_names(self) -> List[str]:
        """The ordered variable names."""
        return [v.name for v in self._variables]

    @property
    def inputs(self) -> List[VariableSpec]:
        """Specifications of the primary-input variables."""
        return [v for v in self._variables if v.is_input]

    @property
    def outputs(self) -> List[VariableSpec]:
        """Specifications of the primary-output variables."""
        return [v for v in self._variables if v.is_output]

    def spec(self, name: str) -> VariableSpec:
        """The :class:`VariableSpec` for ``name``."""
        return self._index[name]

    def __len__(self) -> int:
        return len(self._columns[self._variables[0].name])

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> np.ndarray:
        """All values of variable ``name`` as an immutable array.

        Variables up to 62 bits use an int64 array; wider variables (the
        ciphers' 128-bit buses) fall back to an object array of Python
        ints, which numpy comparison/xor ufuncs still handle.
        """
        if name not in self._frozen:
            if self._index[name].width <= 62:
                arr = np.asarray(self._columns[name], dtype=np.int64)
            else:
                arr = np.empty(len(self._columns[name]), dtype=object)
                arr[:] = self._columns[name]
            arr.setflags(write=False)
            self._frozen[name] = arr
        return self._frozen[name]

    def at(self, instant: int) -> Dict[str, int]:
        """The variable assignment at a given simulation instant."""
        n = len(self)
        if instant < 0 or instant >= n:
            raise IndexError(f"instant {instant} out of range [0, {n})")
        return {
            v.name: self._columns[v.name][instant] for v in self._variables
        }

    def rows(self) -> Iterator[Dict[str, int]]:
        """Iterate over instants as variable assignments."""
        for i in range(len(self)):
            yield self.at(i)

    def input_vector(self, instant: int) -> Dict[str, int]:
        """Values of only the input variables at ``instant``."""
        row = self.at(instant)
        return {v.name: row[v.name] for v in self.inputs}

    def slice(self, start: int, stop: int) -> "FunctionalTrace":
        """A copy of the trace restricted to instants ``[start, stop]``.

        Both bounds are inclusive, matching the interval convention used by
        the paper's power attributes.  The sliced columns were validated
        when they entered this trace, so they are adopted unchecked.
        """
        if start < 0 or stop >= len(self) or start > stop:
            raise IndexError(f"bad interval [{start}, {stop}] for len {len(self)}")
        cols = {
            v.name: self._columns[v.name][start : stop + 1]
            for v in self._variables
        }
        return FunctionalTrace.from_checked_columns(
            self._variables, cols, name=f"{self.name}[{start}:{stop}]"
        )

    def concat(self, other: "FunctionalTrace") -> "FunctionalTrace":
        """A new trace that plays ``self`` followed by ``other``."""
        if self.variable_names != other.variable_names:
            raise ValueError("traces have different variable sets")
        cols = {
            name: self._columns[name] + other._columns[name]
            for name in self.variable_names
        }
        return FunctionalTrace(
            self._variables, cols, name=f"{self.name}+{other.name}"
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def cache_get(self, key):
        """Look up derived data attached to this trace (or ``None``).

        Consumers (the proposition labeler, the compiled simulators)
        memoise whole-trace derivations here; the cache is invalidated
        whenever the trace mutates, exactly like the frozen-column and
        Hamming-distance caches.
        """
        return self._derived.get(key)

    def cache_set(self, key, value) -> None:
        """Attach derived data to this trace (see :meth:`cache_get`)."""
        self._derived[key] = value

    def hamming_distances(
        self, names: Optional[Sequence[str]] = None
    ) -> np.ndarray:
        """Hamming distance between consecutive instants.

        ``result[i]`` is the number of bits that changed between instants
        ``i-1`` and ``i`` over the selected variables; ``result[0]`` is 0.
        This is the predictor used by the data-dependent linear-regression
        refinement (paper Sec. IV).  The default observes all variables —
        PIs and POs — matching the paper's RAM discussion, where the
        regression "relates the RAM's internal switching activity with the
        power consumption by observing the behaviours of PIs and POs".
        """
        if names is None:
            names = [v.name for v in self._variables]
        key = tuple(names)
        cached = self._hd_cache.get(key)
        if cached is not None:
            return cached
        n = len(self)
        total = np.zeros(n, dtype=np.int64)
        for name in names:
            col = self.column(name)
            if col.dtype == object:
                # Wide (cipher-bus) columns hold Python ints; int.bit_count
                # is a single CPython opcode per value.
                values = self._columns[name]
                pops = [0] * n
                for i in range(1, n):
                    pops[i] = (values[i] ^ values[i - 1]).bit_count()
                total += np.asarray(pops, dtype=np.int64)
            else:
                diff = np.zeros(n, dtype=np.int64)
                diff[1:] = col[1:] ^ col[:-1]
                total += popcount(diff)
        total.setflags(write=False)
        self._hd_cache[key] = total
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FunctionalTrace({self.name!r}, vars={len(self._variables)}, "
            f"len={len(self)})"
        )


class ArrayTrace:
    """Read-only trace view over pre-built numpy columns (zero-copy).

    Implements the subset of the :class:`FunctionalTrace` protocol the
    labeler and the simulators consume — ``variables`` / ``column`` /
    ``hamming_distances`` / ``__len__`` / the derived-data cache — while
    borrowing the caller's arrays instead of copying them into Python
    lists.  This is the serving layer's ``.npt`` fast path: columns
    decoded by :class:`~repro.traces.io.BinaryTraceReader` (memmap or
    ``frombuffer`` views) feed the compiled kernels without a row-wise
    rebuild.

    Narrow columns must already be ``int64``; wide (>62-bit) columns are
    object arrays of Python ints.  Values are trusted, not re-validated:
    the binary container's writer validated them once.
    """

    def __init__(
        self,
        variables: Sequence[VariableSpec],
        columns: Mapping[str, np.ndarray],
        name: str = "trace",
    ) -> None:
        if not variables:
            raise ValueError("a trace needs at least one variable")
        self.name = name
        self._variables: List[VariableSpec] = list(variables)
        self._index: Dict[str, VariableSpec] = {v.name: v for v in variables}
        self._frozen: Dict[str, np.ndarray] = {}
        lengths = set()
        for var in self._variables:
            if var.name not in columns:
                raise KeyError(f"missing column for variable {var.name!r}")
            arr = columns[var.name]
            if not isinstance(arr, np.ndarray) or arr.ndim != 1:
                raise ValueError(f"column {var.name!r} must be a 1-D array")
            if var.width <= 62 and arr.dtype != np.int64:
                arr = arr.astype(np.int64)  # normalise, copies only if needed
            if arr.flags.writeable:
                try:
                    arr.setflags(write=False)
                except ValueError:
                    arr = arr.copy()
                    arr.setflags(write=False)
            lengths.add(len(arr))
            self._frozen[var.name] = arr
        if len(lengths) > 1:
            raise ValueError("all columns must have the same length")
        self._n = lengths.pop() if lengths else 0
        self._hd_cache: Dict[tuple, np.ndarray] = {}
        self._derived: Dict[object, object] = {}

    # -- FunctionalTrace protocol subset -------------------------------
    @property
    def variables(self) -> List[VariableSpec]:
        return list(self._variables)

    @property
    def variable_names(self) -> List[str]:
        return [v.name for v in self._variables]

    def spec(self, name: str) -> VariableSpec:
        """The :class:`VariableSpec` for ``name``."""
        return self._index[name]

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> np.ndarray:
        """All values of variable ``name`` — the borrowed array itself."""
        return self._frozen[name]

    def cache_get(self, key):
        """Derived-data cache (never invalidated: the view is immutable)."""
        return self._derived.get(key)

    def cache_set(self, key, value) -> None:
        """Attach derived data to this view (see :meth:`cache_get`)."""
        self._derived[key] = value

    def hamming_distances(
        self, names: Optional[Sequence[str]] = None
    ) -> np.ndarray:
        """Same definition (and bit-identical result) as the list-backed
        trace: per-instant popcount of the XOR between consecutive rows."""
        if names is None:
            names = [v.name for v in self._variables]
        key = tuple(names)
        cached = self._hd_cache.get(key)
        if cached is not None:
            return cached
        n = self._n
        total = np.zeros(n, dtype=np.int64)
        for name in names:
            col = self.column(name)
            if col.dtype == object:
                values = col
                pops = [0] * n
                for i in range(1, n):
                    pops[i] = (values[i] ^ values[i - 1]).bit_count()
                total += np.asarray(pops, dtype=np.int64)
            else:
                diff = np.zeros(n, dtype=np.int64)
                diff[1:] = col[1:] ^ col[:-1]
                total += popcount(diff)
        total.setflags(write=False)
        self._hd_cache[key] = total
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ArrayTrace({self.name!r}, vars={len(self._variables)}, "
            f"len={self._n})"
        )


def popcount(values: np.ndarray) -> np.ndarray:
    """Vectorised population count of non-negative int64 values."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(values).astype(np.int64)
    out = np.zeros_like(values)
    work = values.copy()
    while np.any(work):
        out += work & 1
        work >>= 1
    return out
