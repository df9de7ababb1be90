"""Power state machines (paper Definition 3).

A PSM is the 7-tuple ``<I, O, S, S0, E, lambda, omega>``: ``I`` the input
alphabet (here, the mined propositions evaluated over the IP's PIs/POs),
``O`` the output alphabet (power values), ``S`` the states, ``S0`` the
initial states, ``E`` the enabling functions guarding transitions,
``lambda`` the transition function and ``omega`` the output function
producing the power consumption of each state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .attributes import Interval, PowerAttributes
from .propositions import Proposition
from .temporal import TemporalAssertion

_state_ids = itertools.count()


def next_state_id() -> int:
    """Globally unique state identifier (unique across all PSMs).

    Global uniqueness is what lets ``join`` merge states of different PSMs
    and the HMM enumerate the states of a whole PSM set.
    """
    return next(_state_ids)


def reset_state_ids() -> None:
    """Restart the id sequence (test isolation only)."""
    global _state_ids
    _state_ids = itertools.count()


def ensure_state_ids_above(psms: Sequence["PSM"]) -> None:
    """Advance the id sequence past every sid present in ``psms``.

    Called after deserialising a PSM set (checkpoint resume): states
    created afterwards — e.g. states merged by ``simplify``/``join`` —
    must not collide with the restored ids, and a resumed run must hand
    out the same ids a live run would.
    """
    global _state_ids
    top = max((s.sid for p in psms for s in p.states), default=-1)
    current = next(_state_ids)
    _state_ids = itertools.count(max(current, top + 1))


class PowerModel:
    """Output function ``omega`` of one state."""

    def estimate(self, hamming_distance: float) -> float:
        """Power estimate given the current input Hamming distance."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPower(PowerModel):
    """Constant output: the mean ``mu`` of the training samples."""

    value: float

    def estimate(self, hamming_distance: float) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.value:.4g}"


@dataclass(frozen=True)
class RegressionPower(PowerModel):
    """Data-dependent output: linear regression on input Hamming distance.

    Installed by the optimisation step (paper Sec. IV) on states whose
    standard deviation is too high and whose power correlates linearly
    with the Hamming distance of consecutive input values.
    """

    slope: float
    intercept: float
    correlation: float

    def estimate(self, hamming_distance: float) -> float:
        return self.intercept + self.slope * float(hamming_distance)

    def __str__(self) -> str:
        return (
            f"{self.intercept:.4g} + {self.slope:.4g}*HD "
            f"(r={self.correlation:.2f})"
        )


@dataclass
class PowerState:
    """One state of a PSM.

    Characterised (paper Sec. III-B / IV) by a temporal assertion, the
    power attributes ``(mu, sigma, n)``, the training intervals the
    attributes were measured on, and the output function (constant by
    default, regression-based for data-dependent states).
    """

    assertion: TemporalAssertion
    attributes: PowerAttributes
    intervals: List[Interval] = field(default_factory=list)
    sid: int = field(default_factory=next_state_id)
    power_model: Optional[PowerModel] = None

    def __post_init__(self) -> None:
        if self.power_model is None:
            self.power_model = ConstantPower(self.attributes.mu)

    @property
    def mu(self) -> float:
        """Mean training power of the state."""
        return self.attributes.mu

    @property
    def sigma(self) -> float:
        """Standard deviation of the training power."""
        return self.attributes.sigma

    @property
    def n(self) -> int:
        """Number of training instants."""
        return self.attributes.n

    @property
    def is_data_dependent(self) -> bool:
        """True when a regression model replaced the constant output."""
        return isinstance(self.power_model, RegressionPower)

    def output(self, hamming_distance: float = 0.0) -> float:
        """The output function ``omega`` of Definition 3."""
        return self.power_model.estimate(hamming_distance)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"s{self.sid}: {self.assertion} {self.attributes} "
            f"omega={self.power_model}"
        )

    def __hash__(self) -> int:
        return hash(self.sid)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerState) and other.sid == self.sid


@dataclass(frozen=True)
class Transition:
    """A guarded transition; the enabling function is a proposition."""

    src: int
    dst: int
    enabling: Proposition

    def __str__(self) -> str:
        return f"s{self.src} --[{self.enabling}]--> s{self.dst}"


class PSM:
    """A power state machine over globally-identified states."""

    def __init__(self, name: str = "psm") -> None:
        self.name = name
        self._states: Dict[int, PowerState] = {}
        self._transitions: List[Transition] = []
        self._transition_set: Set[Transition] = set()
        self._by_src: Dict[int, List[Transition]] = {}
        self._by_dst: Dict[int, List[Transition]] = {}
        self._initial: List[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(self, state: PowerState, initial: bool = False) -> PowerState:
        """Add a state (optionally marking it initial)."""
        if state.sid in self._states:
            raise ValueError(f"duplicate state id {state.sid}")
        self._states[state.sid] = state
        if initial:
            self._initial.append(state.sid)
        return state

    def add_transition(self, transition: Transition) -> Transition:
        """Add a transition between existing states (duplicates ignored)."""
        if transition.src not in self._states:
            raise ValueError(f"unknown source state {transition.src}")
        if transition.dst not in self._states:
            raise ValueError(f"unknown destination state {transition.dst}")
        if transition not in self._transition_set:
            self._transitions.append(transition)
            self._transition_set.add(transition)
            self._by_src.setdefault(transition.src, []).append(transition)
            self._by_dst.setdefault(transition.dst, []).append(transition)
        return transition

    @classmethod
    def chain(cls, states: Sequence[PowerState], name: str = "psm") -> "PSM":
        """The chain over ``states``: the first is initial, and each one is
        left for the next through its assertion's exit proposition.

        The transitions are laid down in one pass: a chain has one per
        source state, so there are no duplicates to filter edge by edge.
        """
        psm = cls(name=name)
        for index, state in enumerate(states):
            psm.add_state(state, initial=index == 0)
        transitions = [
            Transition(prev.sid, nxt.sid, prev.assertion.exit_proposition())
            for prev, nxt in zip(states, states[1:])
        ]
        psm._set_transitions(transitions, set(transitions))
        return psm

    def copy(self) -> "PSM":
        """A new PSM sharing this one's states (the containers are new)."""
        duplicate = PSM(name=self.name)
        duplicate._states = dict(self._states)
        duplicate._initial = list(self._initial)
        duplicate._set_transitions(
            list(self._transitions), set(self._transition_set)
        )
        return duplicate

    def put_state(self, state: PowerState) -> None:
        """Swap in ``state`` for the state with its id, keeping order."""
        if state.sid not in self._states:
            raise ValueError(f"unknown state {state.sid}")
        self._states[state.sid] = state

    def mark_initial(self, sid: int) -> None:
        """Add a state to the initial set ``S0``."""
        if sid not in self._states:
            raise ValueError(f"unknown state {sid}")
        if sid not in self._initial:
            self._initial.append(sid)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def states(self) -> List[PowerState]:
        """All states, in insertion order."""
        return list(self._states.values())

    @property
    def state_ids(self) -> List[int]:
        """All state ids, in insertion order."""
        return list(self._states)

    @property
    def transitions(self) -> List[Transition]:
        """All transitions."""
        return list(self._transitions)

    @property
    def initial_states(self) -> List[PowerState]:
        """The initial set ``S0``."""
        return [self._states[sid] for sid in self._initial]

    def state(self, sid: int) -> PowerState:
        """Look a state up by id."""
        return self._states[sid]

    def has_state(self, sid: int) -> bool:
        """True when ``sid`` belongs to this PSM."""
        return sid in self._states

    def __len__(self) -> int:
        return len(self._states)

    def successors(self, sid: int) -> List[Transition]:
        """Transitions leaving ``sid``."""
        return list(self._by_src.get(sid, ()))

    def predecessors(self, sid: int) -> List[Transition]:
        """Transitions entering ``sid``."""
        return list(self._by_dst.get(sid, ()))

    def is_chain(self) -> bool:
        """True for the generator's output shape: a linear chain."""
        return all(len(out) <= 1 for out in self._by_src.values()) and all(
            len(into) <= 1 for into in self._by_dst.values()
        )

    def is_deterministic(self) -> bool:
        """False when some state has two transitions with equal guards
        toward different states (possible after ``join``)."""
        for sid in self._states:
            seen: Dict[Proposition, Set[int]] = {}
            for transition in self.successors(sid):
                seen.setdefault(transition.enabling, set()).add(transition.dst)
            if any(len(dsts) > 1 for dsts in seen.values()):
                return False
        return True

    # ------------------------------------------------------------------
    # bulk edits used by simplify / join
    # ------------------------------------------------------------------
    def replace_states(
        self,
        removed: Sequence[int],
        replacement: PowerState,
        initial: bool = False,
        internal: str = "drop",
    ) -> None:
        """Substitute ``removed`` states with ``replacement``.

        Transitions crossing the boundary are re-targeted at the
        replacement, preserving their enabling functions (paper Sec. IV).
        Transitions *among* removed states are dropped when
        ``internal == "drop"`` (``simplify``: the sequence assertion
        absorbs them) or turned into self-loops when
        ``internal == "selfloop"`` (``join``: one merged state may be its
        own predecessor/successor).
        """
        if internal not in ("drop", "selfloop"):
            raise ValueError(f"unknown internal mode {internal!r}")
        removed_set = set(removed)
        if not removed_set <= set(self._states):
            raise ValueError("cannot remove states not in this PSM")
        self._states = {
            sid: state
            for sid, state in self._states.items()
            if sid not in removed_set
        }
        self._states[replacement.sid] = replacement
        rewired: List[Transition] = []
        rewired_set: Set[Transition] = set()
        for transition in self._transitions:
            src_in = transition.src in removed_set
            dst_in = transition.dst in removed_set
            if src_in and dst_in and internal == "drop":
                continue
            src = replacement.sid if src_in else transition.src
            dst = replacement.sid if dst_in else transition.dst
            new_t = Transition(src, dst, transition.enabling)
            if new_t not in rewired_set:
                rewired.append(new_t)
                rewired_set.add(new_t)
        self._set_transitions(rewired, rewired_set)
        was_initial = any(sid in removed_set for sid in self._initial)
        self._initial = [s for s in self._initial if s not in removed_set]
        if (initial or was_initial) and replacement.sid not in self._initial:
            self._initial.append(replacement.sid)

    def _set_transitions(
        self, transitions: List[Transition], transition_set: Set[Transition]
    ) -> None:
        """Replace the transition collection and rebuild the indices."""
        self._transitions = transitions
        self._transition_set = transition_set
        self._by_src = {}
        self._by_dst = {}
        for transition in transitions:
            self._by_src.setdefault(transition.src, []).append(transition)
            self._by_dst.setdefault(transition.dst, []).append(transition)

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        for transition in self._transitions:
            if transition.src not in self._states:
                raise ValueError(f"dangling source in {transition}")
            if transition.dst not in self._states:
                raise ValueError(f"dangling destination in {transition}")
        for sid in self._initial:
            if sid not in self._states:
                raise ValueError(f"initial state {sid} not in PSM")
        ids = [s.sid for s in self._states.values()]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate state ids")

    def describe(self) -> str:
        """Multi-line human-readable dump."""
        lines = [f"PSM {self.name}: {len(self)} states, "
                 f"{len(self._transitions)} transitions"]
        for state in self.states:
            marker = "*" if state.sid in self._initial else " "
            lines.append(f" {marker} {state.describe()}")
        for transition in self._transitions:
            lines.append(f"   {transition}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PSM({self.name!r}, states={len(self)}, "
            f"transitions={len(self._transitions)})"
        )


def total_states(psms: Sequence[PSM]) -> int:
    """Total state count over a PSM set (Table II column)."""
    return sum(len(p) for p in psms)


def total_transitions(psms: Sequence[PSM]) -> int:
    """Total transition count over a PSM set (Table II column)."""
    return sum(len(p.transitions) for p in psms)


def find_state(psms: Sequence[PSM], sid: int) -> Tuple[PSM, PowerState]:
    """Locate a state id inside a PSM set."""
    for psm in psms:
        if psm.has_state(sid):
            return psm, psm.state(sid)
    raise KeyError(f"state {sid} not found in PSM set")


def state_universe(psms: Sequence[PSM]) -> Mapping[int, PowerState]:
    """All states of a PSM set, by id (the HMM's hidden-state set Q)."""
    universe: Dict[int, PowerState] = {}
    for psm in psms:
        for state in psm.states:
            universe[state.sid] = state
    return universe
