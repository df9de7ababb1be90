"""Base class for clocked hardware modules.

A :class:`Module` is the unit the whole flow observes: the simulator applies
primary-input values, calls :meth:`Module.step` once per clock cycle, records
primary-output values into the functional trace, and collects per-component
switching activity for the power estimator.

Modules model the *RTL Verilog descriptions* of the paper's benchmarks; the
functional trace only ever exposes PIs and POs, so the methodology remains
black-box exactly as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..traces.variables import VariableSpec
from .signal import Register


class Module:
    """Abstract clocked module with activity accounting.

    Subclasses declare ``INPUTS`` and ``OUTPUTS`` (sequences of
    :class:`VariableSpec`), create registers with :meth:`reg` in
    ``__init__`` and implement :meth:`step`.
    """

    #: Human-readable module name (subclasses override).
    NAME = "module"
    #: Primary-input specifications.
    INPUTS: Sequence[VariableSpec] = ()
    #: Primary-output specifications.
    OUTPUTS: Sequence[VariableSpec] = ()
    #: Internal probe points exposed to hierarchical power modelling
    #: (paper Sec. VII future work): sub-component boundary signals that
    #: a white-box characterisation may observe.  Each spec must name a
    #: register of the module; probes are *not* part of the PI/PO
    #: interface and do not count toward Table I widths.
    PROBES: Sequence[VariableSpec] = ()

    def __init__(self) -> None:
        self._registers: Dict[str, Register] = {}
        # One toggle counter per power domain, shared by the domain's
        # registers (declaration order = component order).
        self._domain_toggles: Dict[str, List[int]] = {}
        self._extra_activity: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # structural declaration
    # ------------------------------------------------------------------
    def reg(
        self, name: str, width: int, init: int = 0, component: str = "core"
    ) -> Register:
        """Declare a register; called from subclass ``__init__``."""
        if name in self._registers:
            raise ValueError(f"duplicate register name {name!r}")
        counter = self._domain_toggles.setdefault(component, [0])
        register = Register(name, width, init, component, counter)
        self._registers[name] = register
        return register

    @property
    def registers(self) -> Dict[str, Register]:
        """All declared registers, by name."""
        return dict(self._registers)

    @property
    def components(self) -> List[str]:
        """Names of the sub-components (power domains) of the module."""
        names = list(self._domain_toggles)
        for name in self._extra_activity:
            if name not in names:
                names.append(name)
        return names

    def state_bits(self) -> int:
        """Total number of memory elements (Table I column)."""
        return sum(r.width for r in self._registers.values())

    # ------------------------------------------------------------------
    # behaviour (subclass responsibility)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Synchronous reset: all registers back to their init values."""
        for register in self._registers.values():
            register.reset()
        self._extra_activity.clear()

    def step(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Advance one clock cycle; return the primary-output values."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # activity accounting
    # ------------------------------------------------------------------
    def add_activity(self, component: str, toggles: float) -> None:
        """Report combinational switching (e.g. datapath glitching).

        Registers record their own toggles; this hook lets a module add an
        estimate for activity that has no storage element, such as a RAM
        bitline discharge or an S-box evaluation network.
        """
        self._extra_activity[component] = (
            self._extra_activity.get(component, 0.0) + float(toggles)
        )

    def collect_activity(self) -> Dict[str, float]:
        """Per-component switching activity accumulated over the last cycle.

        Clears the accumulators so each simulation cycle starts fresh.
        Register toggles are exact integer sums per domain, so converting
        the domain total once equals adding them one by one as floats;
        the :meth:`add_activity` extras are added after, in call order.
        """
        activity: Dict[str, float] = {}
        for component, counter in self._domain_toggles.items():
            toggles = counter[0]
            if toggles:
                activity[component] = float(toggles)
                counter[0] = 0
        for component, toggles in self._extra_activity.items():
            if toggles:
                activity[component] = activity.get(component, 0.0) + toggles
        self._extra_activity = {}
        return activity

    # ------------------------------------------------------------------
    # interface helpers
    # ------------------------------------------------------------------
    @classmethod
    def input_specs(cls) -> List[VariableSpec]:
        """Primary-input variable specifications."""
        return list(cls.INPUTS)

    @classmethod
    def output_specs(cls) -> List[VariableSpec]:
        """Primary-output variable specifications."""
        return list(cls.OUTPUTS)

    @classmethod
    def trace_specs(cls) -> List[VariableSpec]:
        """All variables observed by a functional trace (PIs then POs)."""
        return list(cls.INPUTS) + list(cls.OUTPUTS)

    @classmethod
    def probe_specs(cls) -> List[VariableSpec]:
        """Internal probe specifications (hierarchical modelling)."""
        return list(cls.PROBES)

    def probe_values(self) -> Dict[str, int]:
        """Current values of the declared probe registers."""
        return {
            spec.name: self._registers[spec.name].value
            for spec in self.PROBES
        }

    @classmethod
    def input_bits(cls) -> int:
        """Total PI width in bits (Table I column)."""
        return sum(v.width for v in cls.INPUTS)

    @classmethod
    def output_bits(cls) -> int:
        """Total PO width in bits (Table I column)."""
        return sum(v.width for v in cls.OUTPUTS)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.NAME!r}>"
