"""Cycle-based simulation of HDL modules.

The :class:`Simulator` drives a :class:`~repro.hdl.module.Module` with a
stimulus (a sequence of primary-input assignments), producing:

* a :class:`~repro.traces.FunctionalTrace` over the module's PIs and POs —
  the paper's functional trace; and
* an :class:`ActivityRecord` with the per-cycle, per-component switching
  activity — the raw material the power estimator turns into the paper's
  power trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from ..traces.functional import FunctionalTrace
from ..traces.variables import VariableSpec
from .module import Module


class ActivityRecord:
    """Per-cycle switching activity, grouped by module component."""

    def __init__(self, components: Iterable[str]) -> None:
        self._columns: Dict[str, List[float]] = {c: [] for c in components}
        self._length = 0
        # Frozen-array cache, mirroring FunctionalTrace: the power
        # estimator reads every column several times, and re-converting
        # the per-cycle lists on each read dominated its runtime.
        self._frozen: Dict[str, np.ndarray] = {}
        self._total: Optional[np.ndarray] = None

    @classmethod
    def from_records(
        cls,
        components: Iterable[str],
        records: Sequence[Mapping[str, float]],
    ) -> "ActivityRecord":
        """Build a whole record from per-cycle activity mappings at once.

        Equivalent to :meth:`append` of every record in turn: the columns
        are ``components`` followed by components that first report
        activity mid-run, in first-seen order, with zeros elsewhere.
        """
        record = cls(())
        names = dict.fromkeys(chain(components, chain.from_iterable(records)))
        record._columns = {
            name: [float(r.get(name, 0.0)) for r in records] for name in names
        }
        record._length = len(records)
        return record

    @property
    def components(self) -> List[str]:
        """Component (power-domain) names."""
        return list(self._columns)

    def __len__(self) -> int:
        return self._length

    def append(self, activity: Mapping[str, float]) -> None:
        """Record one cycle of activity (missing components count 0)."""
        self._frozen.clear()
        self._total = None
        for component in activity:
            if component not in self._columns:
                # A component can first report activity mid-simulation
                # (e.g. combinational-only domains); backfill with zeros.
                self._columns[component] = [0.0] * self._length
        for component, column in self._columns.items():
            column.append(float(activity.get(component, 0.0)))
        self._length += 1

    def column(self, component: str) -> np.ndarray:
        """Activity of one component across all cycles (immutable array)."""
        cached = self._frozen.get(component)
        if cached is None:
            cached = np.asarray(self._columns[component], dtype=np.float64)
            cached.setflags(write=False)
            self._frozen[component] = cached
        return cached

    def total(self) -> np.ndarray:
        """Total activity per cycle, summed over components (immutable)."""
        if self._total is None:
            if not self._columns:
                total = np.zeros(self._length)
            else:
                total = np.sum(
                    [self.column(c) for c in self._columns], axis=0
                )
            total.setflags(write=False)
            self._total = total
        return self._total


@dataclass
class SimulationResult:
    """Everything produced by one simulation run."""

    trace: FunctionalTrace
    activity: ActivityRecord
    cycles: int
    wall_time: float = field(default=0.0)


class Simulator:
    """Drives a module cycle by cycle and records traces.

    Parameters
    ----------
    module:
        The device under test.
    record_activity:
        When False, activity collection is skipped (used to time the bare
        functional simulation for the Table III overhead measurement).
    """

    def __init__(self, module: Module, record_activity: bool = True) -> None:
        self.module = module
        self.record_activity = record_activity

    def run(
        self,
        stimulus: Iterable[Mapping[str, int]],
        reset: bool = True,
        name: Optional[str] = None,
        observer=None,
        include_probes: bool = False,
    ) -> SimulationResult:
        """Simulate the module over a stimulus sequence.

        The run is columnar: every input column is range-checked once up
        front, each cycle appends its outputs, probes and activity to
        per-variable and per-cycle lists, and the functional trace and
        the activity record are built once from whole columns after the
        last cycle.  A bad stimulus value therefore raises before the
        first cycle, wherever it sits.

        Parameters
        ----------
        stimulus:
            Iterable of primary-input assignments, one per clock cycle.
        reset:
            Apply a synchronous reset before the first cycle.
        name:
            Label for the produced functional trace.
        observer:
            Optional callable ``observer(cycle, row)`` invoked after each
            cycle with the full PI+PO assignment; used by the co-simulation
            kernel to feed an attached PSM monitor.
        include_probes:
            Record the module's declared internal probes as additional
            trace variables (hierarchical power modelling).

        Raises
        ------
        KeyError
            If a stimulus row lacks a primary input.
        ValueError
            If an input or output value does not fit its variable's width.
        """
        module = self.module
        if reset:
            module.reset()
            module.collect_activity()  # discard reset activity
        components = module.components
        start = time.perf_counter()
        rows = list(stimulus)
        inputs = module.input_specs()
        recorded_specs = module.output_specs() + (
            module.probe_specs() if include_probes else []
        )
        columns = _input_columns(inputs, rows)
        names = [spec.name for spec in inputs]
        stimuli = (
            zip(*[columns[name] for name in names])
            if names
            else repeat((), len(rows))
        )
        recorded = [(spec.name, []) for spec in recorded_specs]
        records: List[Dict[str, float]] = []
        step = module.step
        probe_values = module.probe_values
        collect = module.collect_activity if self.record_activity else None
        for cycle, values in enumerate(stimuli):
            assignment = dict(zip(names, values))
            row = step(assignment)
            if include_probes:
                row = {**row, **probe_values()}
            for var, column in recorded:
                column.append(row[var])
            if collect is not None:
                records.append(collect())
            if observer is not None:
                observer(cycle, {**assignment, **row})
        for spec, (_, column) in zip(recorded_specs, recorded):
            columns[spec.name] = FunctionalTrace._validate_column(spec, column)
        trace = FunctionalTrace.from_checked_columns(
            inputs + recorded_specs, columns, name=name or module.NAME
        )
        activity = ActivityRecord.from_records(components, records)
        wall = time.perf_counter() - start
        return SimulationResult(
            trace=trace, activity=activity, cycles=len(rows), wall_time=wall
        )


def _input_columns(
    specs: Sequence[VariableSpec], rows: Sequence[Mapping[str, int]]
) -> Dict[str, List[int]]:
    """Every primary-input column of a stimulus, range-checked once."""
    columns: Dict[str, List[int]] = {}
    for spec in specs:
        try:
            raw = [row[spec.name] for row in rows]
        except KeyError:
            raise KeyError(f"missing input {spec.name!r}") from None
        columns[spec.name] = FunctionalTrace._validate_column(spec, raw)
    return columns
