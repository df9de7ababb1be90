"""Registers and bit-level helpers for the cycle-based HDL kernel.

The kernel substitutes the RTL/gate-level simulator used by the paper: IPs
are modelled as clocked modules whose sequential state lives in
:class:`Register` objects.  Every register load records the number of bits
that toggled, which is exactly the switching activity ``alpha(t)`` the
power estimator (the PrimeTime PX substitute) integrates per cycle.
"""

from __future__ import annotations

from typing import List, Optional


def mask_for(width: int) -> int:
    """Bit mask for an unsigned value of ``width`` bits."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return (1 << width) - 1


def popcount_int(value: int) -> int:
    """Number of set bits of a non-negative integer."""
    if value < 0:
        raise ValueError("popcount of negative value")
    return value.bit_count()


def hamming(a: int, b: int) -> int:
    """Hamming distance between two non-negative integers."""
    return popcount_int(a ^ b)


class Register:
    """A clocked storage element with toggle accounting.

    Parameters
    ----------
    name:
        Instance name, unique within the owning module.
    width:
        Bit width of the stored value.
    init:
        Reset value.
    component:
        Name of the sub-component (power domain) this register belongs to;
        activity is aggregated per component so hierarchical IPs such as
        Camellia can expose per-subcomponent power behaviour.
    counter:
        One-slot list the register adds its toggles to.  A standalone
        register owns a private one; :meth:`repro.hdl.module.Module.reg`
        passes the counter of the register's power domain, shared by every
        register of that domain, so the module reads one integer per
        domain per cycle instead of one per register.
    """

    def __init__(
        self,
        name: str,
        width: int,
        init: int = 0,
        component: str = "core",
        counter: Optional[List[int]] = None,
    ) -> None:
        self.name = name
        self.width = width
        self.component = component
        self._mask = mask_for(width)
        self._init = init & self._mask
        self.value = self._init
        self._counter = [0] if counter is None else counter

    def load(self, value: int) -> None:
        """Clock a new value in, accumulating the toggled-bit count."""
        value = int(value) & self._mask
        self._counter[0] += (self.value ^ value).bit_count()
        self.value = value

    def reset(self) -> None:
        """Return to the reset value without recording activity.

        Clears the toggle counter — the whole domain's when it is shared,
        which is why a module resets all its registers together.
        """
        self.value = self._init
        self._counter[0] = 0

    def collect_toggles(self) -> int:
        """Return and clear the toggles accumulated since the last call.

        For a module-owned register this is its whole power domain's
        count; modules read it through
        :meth:`repro.hdl.module.Module.collect_activity`.
        """
        toggles = self._counter[0]
        self._counter[0] = 0
        return toggles

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Register({self.name!r}, width={self.width}, value={self.value})"


class Wire:
    """A named combinational value, useful for VCD dumping.

    Wires carry no state between cycles and record no activity by
    themselves; modules may report their switching through
    :meth:`repro.hdl.module.Module.add_activity`.
    """

    def __init__(self, name: str, width: int) -> None:
        self.name = name
        self.width = width
        self._mask = mask_for(width)
        self.value = 0

    def drive(self, value: int) -> int:
        """Set the wire value (masked to the declared width)."""
        self.value = int(value) & self._mask
        return self.value
