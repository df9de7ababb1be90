"""Power traces (paper Definition 2).

A power trace is a finite sequence ``<delta_1 ... delta_n>`` where
``delta_i`` is the dynamic energy consumption of the model at simulation
instant ``t_i`` according to

    delta_i = 1/2 * Vdd^2 * f * C * alpha(t_i)

with ``C`` the total switched capacitance, ``Vdd`` the supply voltage,
``f`` the clock frequency and ``alpha(t_i)`` the switching activity.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


class PowerTrace:
    """A sequence of per-instant dynamic power values.

    Values are stored as an immutable float64 array.  All statistics used by
    the paper (mean / standard deviation over an inclusive interval, the
    *power attributes* of a PSM state) are provided as methods.
    """

    def __init__(self, values: Sequence[float], name: str = "power") -> None:
        self.name = name
        if isinstance(values, np.ndarray):
            arr = np.array(values, dtype=np.float64, copy=True)
        else:
            arr = np.asarray(list(values), dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("power trace must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("power values must be finite")
        if np.any(arr < 0):
            raise ValueError("dynamic power values must be non-negative")
        arr.setflags(write=False)
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        """The raw per-instant power values."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, instant: int) -> float:
        return float(self._values[instant])

    def __iter__(self) -> Iterable[float]:
        return iter(self._values)

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Values over the inclusive interval ``[start, stop]``."""
        self._check_interval(start, stop)
        return self._values[start : stop + 1]

    def attributes(self, start: int, stop: int) -> Tuple[float, float, int]:
        """Power attributes ``(mu, sigma, n)`` over ``[start, stop]``.

        ``n = stop - start + 1`` is the number of instants, ``mu`` the mean
        of the power values in the interval and ``sigma`` their (population)
        standard deviation, exactly as used by ``getPowerAttributes`` in the
        paper's Fig. 4 procedure.  Both come from one pairwise
        ``np.add.reduce`` each — the operations ``np.mean``/``np.std``
        perform, in the same order, so the values are bit-equal — without
        their per-call dispatch.
        """
        seg = self.segment(start, stop)
        n = stop - start + 1
        mu = np.add.reduce(seg) / n
        deviations = seg - mu
        sigma = math.sqrt(np.add.reduce(deviations * deviations) / n)
        return float(mu), sigma, n

    def mean(self) -> float:
        """Mean power over the whole trace."""
        return float(np.mean(self._values)) if len(self) else 0.0

    def slice(self, start: int, stop: int) -> "PowerTrace":
        """A copy restricted to the inclusive interval ``[start, stop]``."""
        return PowerTrace(
            self.segment(start, stop), name=f"{self.name}[{start}:{stop}]"
        )

    def concat(self, other: "PowerTrace") -> "PowerTrace":
        """A new trace that plays ``self`` followed by ``other``."""
        return PowerTrace(
            np.concatenate([self._values, other._values]),
            name=f"{self.name}+{other.name}",
        )

    def with_noise(
        self, sigma: float, seed: Optional[int] = None
    ) -> "PowerTrace":
        """A copy with additive Gaussian noise (clipped at zero).

        Used by tests and ablations to model measurement noise of the
        reference power simulator.
        """
        rng = np.random.default_rng(seed)
        noisy = np.clip(
            self._values + rng.normal(0.0, sigma, size=len(self)), 0.0, None
        )
        return PowerTrace(noisy, name=f"{self.name}+noise")

    def _check_interval(self, start: int, stop: int) -> None:
        if start < 0 or stop >= len(self) or start > stop:
            raise IndexError(
                f"bad interval [{start}, {stop}] for trace of length {len(self)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PowerTrace({self.name!r}, len={len(self)})"
