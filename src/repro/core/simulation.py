"""PSM simulation (paper Sec. III-C and Sec. V).

Two simulators are provided:

* :class:`SinglePsmSimulator` — the basic chain-PSM simulation of
  Sec. III-C: the PSM follows its (unique) outgoing transitions, and when
  an unexpected behaviour appears it stays put, losing synchronisation
  until the expected propositions reappear.

* :class:`MultiPsmSimulator` — the full HMM-driven concurrent simulation
  of Sec. V over the optimised PSM set: states may carry sequence or
  choice assertions, the machine may be non-deterministic, choices are
  resolved by HMM filtering, wrong predictions revert and ban the
  offending transition, and a resynchronisation procedure re-enters the
  model after unknown behaviours.

Both consume the *proposition view* of the simulated functional trace,
obtained by replaying the mined proposition universe through a
:class:`~repro.core.mining.PropositionLabeler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..traces.functional import FunctionalTrace
from ..traces.power import PowerTrace
from .hmm import PsmHmm
from .mining import PropositionLabeler
from .propositions import Proposition
from .psm import PSM, ConstantPower, PowerState
from .temporal import (
    NextAssertion,
    TemporalAssertion,
    UntilAssertion,
    entry_index,
)

#: Tracker verdicts for one simulation instant.
STAY = "stay"
EXIT = "exit"
VIOLATION = "violation"


class _AlternativeTracker:
    """Progress through one simple/sequence assertion."""

    __slots__ = ("assertion", "parts", "index")

    def __init__(
        self,
        assertion: TemporalAssertion,
        parts: Tuple[TemporalAssertion, ...],
        index: int,
    ) -> None:
        self.assertion = assertion
        self.parts = parts
        self.index = index

    def advance(self, prop: Optional[Proposition]) -> str:
        """Consume one further instant; returns STAY / EXIT / VIOLATION."""
        if prop is None:
            return VIOLATION
        part = self.parts[self.index]
        if isinstance(part, UntilAssertion):
            if prop == part.left:
                return STAY
            if prop == part.right:
                return self._cascade()
            return VIOLATION
        if isinstance(part, NextAssertion):
            if prop == part.right:
                return self._cascade()
            return VIOLATION
        raise TypeError(f"unexpected part type {type(part).__name__}")

    def _cascade(self) -> str:
        """The current part's exit proposition was observed.

        The instant belongs to the following part's body when one exists
        (the cascade of a sequence assertion), otherwise the state exits.
        """
        if self.index + 1 < len(self.parts):
            self.index += 1
            return STAY
        return EXIT


class StateTracker:
    """NFA-style tracking of a state's (possibly choice) assertion.

    A choice assertion may have several alternatives compatible with the
    observed propositions; all are tracked, violated ones are dropped, and
    the state exits when no alternative can stay but one exits.  Entry
    reads the assertion's :class:`~repro.core.temporal.EntryIndex`, so
    only the alternatives the observed proposition can start are built.
    """

    def __init__(self, state: PowerState) -> None:
        self.state = state
        self._index = entry_index(state.assertion)
        self._active: List[_AlternativeTracker] = []

    def can_enter(self, prop: Optional[Proposition]) -> bool:
        """True when the state's assertion may start with ``prop``."""
        return prop is not None and prop in self._index.starts

    def enter(self, prop: Proposition) -> bool:
        """Begin tracking at the entry instant."""
        return self._begin(self._index.starts.get(prop, ()))

    def can_enter_anywhere(self, prop: Optional[Proposition]) -> bool:
        """True when ``prop`` matches any internal part boundary.

        Used by resynchronisation: a sequence state may be re-entered in
        the middle of its cascade when the simulation lost track of where
        the IP is.
        """
        return prop is not None and prop in self._index.boundaries

    def enter_anywhere(self, prop: Proposition) -> bool:
        """Begin tracking at whichever part boundary matches ``prop``."""
        return self._begin(self._index.boundaries.get(prop, ()))

    def _begin(self, pairs: Sequence[Tuple[int, int]]) -> bool:
        """Track the ``(alternative, part)`` positions of ``pairs``."""
        alternatives = self._index.alternatives
        parts = self._index.parts
        self._active = [
            _AlternativeTracker(alternatives[alt], parts[alt], index)
            for alt, index in pairs
        ]
        return bool(self._active)

    def stable_on(self, prop: Optional[Proposition]) -> bool:
        """True when a repeat of ``prop`` is guaranteed to STAY unchanged.

        Holds when every active alternative sits in an *until* part whose
        body is ``prop`` — the streaming monitor's fast path: the tracker
        state cannot change while the proposition repeats.
        """
        if prop is None or not self._active:
            return False
        for tracker in self._active:
            part = tracker.parts[tracker.index]
            if not isinstance(part, UntilAssertion) or part.left != prop:
                return False
        return True

    def advance(self, prop: Optional[Proposition]) -> Tuple[str, Optional[TemporalAssertion]]:
        """Consume one instant.

        Returns ``(verdict, satisfied_alternative)``; the alternative is
        the assertion whose satisfaction caused an EXIT verdict.
        """
        if not self._active:
            return VIOLATION, None
        stays: List[_AlternativeTracker] = []
        exited: Optional[_AlternativeTracker] = None
        for tracker in self._active:
            verdict = tracker.advance(prop)
            if verdict == STAY:
                stays.append(tracker)
            elif verdict == EXIT and exited is None:
                exited = tracker
        if stays:
            self._active = stays
            return STAY, None
        if exited is not None:
            return EXIT, exited.assertion
        return VIOLATION, None


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class EstimationResult:
    """Output of one PSM simulation over a functional trace."""

    estimated: PowerTrace
    reliable: np.ndarray
    predictions: int = 0
    wrong_predictions: int = 0
    desync_instants: int = 0
    unknown_instants: int = 0
    reverted_instants: int = 0
    state_sequence: List[Optional[int]] = field(default_factory=list)

    @property
    def wsp(self) -> float:
        """Wrong-state-prediction percentage (Table III column)."""
        if self.predictions == 0:
            return 0.0
        return 100.0 * self.wrong_predictions / self.predictions

    @property
    def energy(self) -> float:
        """Total estimated energy: the per-instant power values summed."""
        return float(np.sum(self.estimated.values))

    def to_json(self, include_trace: bool = True) -> dict:
        """JSON-compatible summary of the estimation.

        The payload of the serving layer's ``/v1/estimate`` responses;
        ``include_trace=False`` drops the per-instant power vector for
        callers that only want the aggregate figures.  Floats survive
        ``json`` round trips bit-for-bit (``repr`` serialisation), so a
        served estimate can be compared exactly against an offline one.
        """
        n = len(self.estimated)
        payload = {
            "instants": n,
            "energy": self.energy,
            "mean_power": float(self.estimated.values.mean()) if n else 0.0,
            "wsp": self.wsp,
            "wrong_state_fraction": self.wrong_state_fraction,
            "desync_instants": self.desync_instants,
            "unknown_instants": self.unknown_instants,
            "reverted_instants": self.reverted_instants,
            "predictions": self.predictions,
            "wrong_predictions": self.wrong_predictions,
            "reliable_fraction": (
                float(np.mean(self.reliable)) if n else 1.0
            ),
        }
        if include_trace:
            payload["estimated"] = self.estimated.values.tolist()
        return payload

    @property
    def desync_fraction(self) -> float:
        """Fraction of instants spent desynchronised."""
        total = len(self.estimated)
        return self.desync_instants / total if total else 0.0

    @property
    def wrong_state_fraction(self) -> float:
        """Percentage of instants with no valid state prediction.

        The per-instant reading of the paper's wrong-state-prediction
        figure: the fraction of simulation instants the model spent
        desynchronised (no state's assertion explained the observed
        behaviour), during which its power output is not reliable.
        Instants that were mispredicted but recovered by the revert
        machinery are re-attributed and tracked separately in
        ``reverted_instants``.
        """
        total = len(self.estimated)
        if not total:
            return 0.0
        return 100.0 * self.desync_instants / total


# ----------------------------------------------------------------------
# shared vectorised helpers
# ----------------------------------------------------------------------
def _fill_power(
    estimated: np.ndarray,
    start: int,
    stop: int,
    state: PowerState,
    distances: Optional[np.ndarray],
) -> None:
    """Vectorised ``estimated[t] = state.output(distances[t])`` over a run.

    Elementwise float64 arithmetic, so the result is bit-identical to the
    per-instant scalar path.
    """
    model = state.power_model
    if isinstance(model, ConstantPower) or distances is None:
        estimated[start:stop] = state.output(0.0)
    else:
        estimated[start:stop] = (
            model.intercept + model.slope * distances[start:stop]
        )


def _needs_distances(states) -> bool:
    """True when any state's output function reads the Hamming distance."""
    return any(state.is_data_dependent for state in states)


# ----------------------------------------------------------------------
# single-PSM simulation (Sec. III-C)
# ----------------------------------------------------------------------
class SinglePsmSimulator:
    """Basic simulation of one chain PSM against a functional trace.

    The default :meth:`run` consumes the run-length-encoded proposition
    view: a k-cycle stretch of a stable *until* body (or of a proposition
    the machine cannot resynchronise on) costs O(1) instead of O(k), with
    the power accumulation vectorised over the segment.  ``rle=False``
    selects the historical per-instant path; both produce the exact same
    :class:`EstimationResult`.
    """

    def __init__(self, psm: PSM, labeler: PropositionLabeler) -> None:
        if not psm.initial_states:
            raise ValueError("the PSM has no initial state")
        self.psm = psm
        self.labeler = labeler
        self._compiled_machine = None

    def _compiled(self):
        """The compiled (table-driven) form of this simulator, cached."""
        if self._compiled_machine is None:
            from .compiled import CompiledSingle

            self._compiled_machine = CompiledSingle(self)
        return self._compiled_machine

    def run(
        self,
        trace: FunctionalTrace,
        rle: bool = True,
        engine: str = "auto",
    ) -> EstimationResult:
        """Estimate the power of ``trace`` by stepping the PSM.

        ``engine`` selects the execution backend: ``"compiled"`` runs
        the lazily-compiled segment tables (DESIGN.md §3.5),
        ``"object"`` forces the interpreting simulator (the
        bit-exactness oracle), and ``"auto"`` (default) compiles when
        the RLE path is requested.  All backends produce the exact same
        :class:`EstimationResult`.
        """
        if engine not in ("auto", "compiled", "object"):
            raise ValueError(f"unknown engine: {engine!r}")
        if engine == "compiled" or (engine == "auto" and rle):
            return self._compiled().run(trace)
        if rle:
            return self._run_rle(trace)
        return self._run_instantwise(trace)

    def _run_rle(self, trace: FunctionalTrace) -> EstimationResult:
        """Segment-driven simulation (the RLE fast path)."""
        runs = self.labeler.label_segments(trace)
        n = runs.n
        distances = (
            trace.hamming_distances()
            if _needs_distances(self.psm.states)
            else None
        )
        estimated = np.zeros(n)
        reliable = np.ones(n, dtype=bool)
        sequence: List[Optional[int]] = []
        desync = 0
        unknown = runs.unknown_instants

        current = self.psm.initial_states[0]
        tracker = StateTracker(current)
        synced = bool(runs.props) and tracker.enter(runs.props[0]) if n else False
        for start, length, prop in runs:
            stop = start + length
            t = start
            while t < stop:
                was_synced = synced
                if t > 0 and synced:
                    verdict, _ = tracker.advance(prop)
                    if verdict == EXIT:
                        successors = [
                            tr
                            for tr in self.psm.successors(current.sid)
                            if tr.enabling == prop
                        ]
                        moved = False
                        for transition in successors:
                            nxt = self.psm.state(transition.dst)
                            candidate = StateTracker(nxt)
                            if candidate.enter(prop):
                                current = nxt
                                tracker = candidate
                                moved = True
                                break
                        if not moved:
                            synced = False
                    elif verdict == VIOLATION:
                        synced = False
                elif t > 0 and not synced:
                    # Try to regain the expected behaviour of the current
                    # state (the chain PSM cannot jump, Sec. III-C).
                    candidate = StateTracker(current)
                    if prop is not None and candidate.enter(prop):
                        tracker = candidate
                        synced = True
                if not synced:
                    desync += 1
                    reliable[t] = False
                estimated[t] = current.output(
                    distances[t] if distances is not None else 0.0
                )
                sequence.append(current.sid if synced else None)
                t += 1
                if t >= stop:
                    break
                if synced and tracker.stable_on(prop):
                    # Stable until body: the tracker cannot change while
                    # the proposition repeats — consume the whole segment.
                    _fill_power(estimated, t, stop, current, distances)
                    sequence.extend([current.sid] * (stop - t))
                    t = stop
                elif not synced and not was_synced:
                    # Re-entry depends only on (state, proposition) and
                    # just failed on this very proposition: the rest of
                    # the segment stays desynchronised.
                    desync += stop - t
                    reliable[t:stop] = False
                    _fill_power(estimated, t, stop, current, distances)
                    sequence.extend([None] * (stop - t))
                    t = stop
        return EstimationResult(
            estimated=PowerTrace(
                np.clip(estimated, 0.0, None), name=f"{trace.name}.psm"
            ),
            reliable=reliable,
            predictions=0,
            wrong_predictions=0,
            desync_instants=desync,
            unknown_instants=unknown,
            state_sequence=sequence,
        )

    def _run_instantwise(self, trace: FunctionalTrace) -> EstimationResult:
        """Reference per-instant simulation (semantics oracle for the RLE path)."""
        props = self.labeler.label(trace)
        distances = trace.hamming_distances()
        n = len(trace)
        estimated = np.zeros(n)
        reliable = np.ones(n, dtype=bool)
        sequence: List[Optional[int]] = []
        desync = 0
        unknown = sum(1 for p in props if p is None)

        current = self.psm.initial_states[0]
        tracker = StateTracker(current)
        synced = bool(props) and tracker.enter(props[0]) if n else False
        for t in range(n):
            prop = props[t]
            if t > 0 and synced:
                verdict, _ = tracker.advance(prop)
                if verdict == EXIT:
                    successors = [
                        tr
                        for tr in self.psm.successors(current.sid)
                        if tr.enabling == prop
                    ]
                    moved = False
                    for transition in successors:
                        nxt = self.psm.state(transition.dst)
                        candidate = StateTracker(nxt)
                        if candidate.enter(prop):
                            current = nxt
                            tracker = candidate
                            moved = True
                            break
                    if not moved:
                        synced = False
                elif verdict == VIOLATION:
                    synced = False
            elif t > 0 and not synced:
                # Try to regain the expected behaviour of the current
                # state (the chain PSM cannot jump, Sec. III-C).
                candidate = StateTracker(current)
                if prop is not None and candidate.enter(prop):
                    tracker = candidate
                    synced = True
            if not synced:
                desync += 1
                reliable[t] = False
            estimated[t] = current.output(distances[t])
            sequence.append(current.sid if synced else None)
        return EstimationResult(
            estimated=PowerTrace(
                np.clip(estimated, 0.0, None), name=f"{trace.name}.psm"
            ),
            reliable=reliable,
            predictions=0,
            wrong_predictions=0,
            desync_instants=desync,
            unknown_instants=unknown,
            state_sequence=sequence,
        )


# ----------------------------------------------------------------------
# multi-PSM simulation with HMM (Sec. V)
# ----------------------------------------------------------------------
class MultiPsmSimulator:
    """HMM-driven simulation of the optimised PSM set (paper Sec. V).

    The simulator walks the PSM set state by state:

    * inside a state, the :class:`StateTracker` checks that the observed
      propositions keep satisfying (one of) the state's assertion(s);
    * when the exit proposition is observed, the outgoing transitions with
      a matching enabling function are the candidate next states and the
      HMM filtering picks the most probable one;
    * a violation inside a state entered through a non-deterministic
      choice is a *wrong state prediction*: the corresponding ``A`` entry
      is zeroed, the simulation reverts to the choice point and replays
      the consumed propositions on the remaining candidates,
      re-attributing their power to the corrected state;
    * when no candidate works, the behaviour is unknown: the machine stays
      in the last valid state, flagging its estimates unreliable, until a
      proposition that can enter some known state resynchronises it.
    """

    def __init__(
        self,
        psms: Sequence[PSM],
        labeler: PropositionLabeler,
        hmm: Optional[PsmHmm] = None,
    ) -> None:
        self.psms = list(psms)
        self.labeler = labeler
        self.hmm = hmm or PsmHmm(psms)
        self._all_states: List[PowerState] = [
            self.hmm.state(sid) for sid in self.hmm.state_ids
        ]
        self._psm_by_sid = {}
        for psm in self.psms:
            for state in psm.states:
                self._psm_by_sid[state.sid] = psm
        # Entry candidates are recomputed often during resynchronisation;
        # cache them per proposition.
        self._entry_cache: dict = {}
        self._anywhere_cache: dict = {}
        self._compiled_machine = None

    def _compiled(self):
        """The compiled (table-driven) form of this simulator, cached."""
        if self._compiled_machine is None:
            from .compiled import CompiledMulti

            self._compiled_machine = CompiledMulti(self)
        return self._compiled_machine

    # ------------------------------------------------------------------
    def _entry_candidates(self, prop: Proposition) -> List[int]:
        """States whose assertion can start with ``prop``."""
        cached = self._entry_cache.get(prop)
        if cached is None:
            cached = [
                state.sid
                for state in self._all_states
                if StateTracker(state).can_enter(prop)
            ]
            self._entry_cache[prop] = cached
        return cached

    def _anywhere_candidates(self, prop: Proposition) -> List[int]:
        """States re-enterable at an internal part boundary on ``prop``."""
        cached = self._anywhere_cache.get(prop)
        if cached is None:
            cached = [
                state.sid
                for state in self._all_states
                if StateTracker(state).can_enter_anywhere(prop)
            ]
            self._anywhere_cache[prop] = cached
        return cached

    def _successor_candidates(
        self, sid: int, prop: Proposition, banned
    ) -> List[int]:
        """Viable next states from ``sid`` on exit proposition ``prop``.

        A successor is viable when its transition guard matches, the path
        has not been banned during this run (a previously-wrong
        prediction), and its assertion can start with the observed
        proposition.
        """
        hmm = self.hmm
        psm = self._psm_by_sid[sid]
        seen: List[int] = []
        for transition in psm.successors(sid):
            if transition.enabling != prop or transition.dst in seen:
                continue
            if (sid, transition.dst) in banned:
                continue  # banned as a wrong prediction this run
            if hmm.A[hmm.index_of(sid), hmm.index_of(transition.dst)] <= 0:
                continue
            if StateTracker(hmm.state(transition.dst)).can_enter(prop):
                seen.append(transition.dst)
        return seen

    # ------------------------------------------------------------------
    def run(
        self,
        trace: FunctionalTrace,
        rle: bool = True,
        engine: str = "auto",
    ) -> EstimationResult:
        """Estimate the power of ``trace`` with the full PSM set.

        The default path is driven by the run-length-encoded proposition
        view (stable until bodies and unresynchronisable stretches cost
        O(1) per segment); ``rle=False`` selects the historical
        per-instant path.  ``engine`` picks the backend: ``"compiled"``
        runs the lazily-compiled segment tables (DESIGN.md §3.5),
        ``"object"`` forces this interpreting simulator, and ``"auto"``
        (default) compiles when RLE is requested.  All paths produce the
        exact same result.
        """
        if engine not in ("auto", "compiled", "object"):
            raise ValueError(f"unknown engine: {engine!r}")
        if engine == "compiled" or (engine == "auto" and rle):
            return self._compiled().run(trace)
        if rle:
            return self._run_rle(trace)
        return self._run_instantwise(trace)

    def _run_rle(self, trace: FunctionalTrace) -> EstimationResult:
        """Segment-driven simulation (the RLE fast path)."""
        hmm = self.hmm
        runs = self.labeler.label_segments(trace)
        props = runs.instant_props()
        run_end = runs.run_ends()
        n = runs.n
        distances = (
            trace.hamming_distances()
            if _needs_distances(self._all_states)
            else np.zeros(n)
        )
        estimated = np.zeros(n)
        reliable = np.ones(n, dtype=bool)
        sequence: List[Optional[int]] = []
        predictions = 0
        wrong = 0
        desync = 0
        reverted = 0
        unknown = runs.unknown_instants

        current: Optional[PowerState] = None
        tracker: Optional[StateTracker] = None
        last_valid: Optional[PowerState] = None
        # Choice context for wrong-prediction revert: the entry instant,
        # the predecessor state (None for initial/resync entries), the
        # untried candidates, and whether the entry was an actual choice.
        entry_t = 0
        entry_prev: Optional[int] = None
        entry_remaining: List[int] = []
        entry_was_choice = False
        # Paths proven wrong during *this* run (the paper's per-simulation
        # zeroing of A entries); the shared HMM is never mutated, so
        # repeated estimates are independent and reproducible.
        banned: set = set()

        def enter(sid, t, prev, remaining, was_choice, anywhere=False):
            nonlocal current, tracker, entry_t, entry_prev
            nonlocal entry_remaining, entry_was_choice, last_valid
            nonlocal predictions
            current = hmm.state(sid)
            tracker = StateTracker(current)
            if anywhere:
                tracker.enter_anywhere(props[t])
            else:
                tracker.enter(props[t])
            entry_t = t
            entry_prev = prev
            entry_remaining = remaining
            entry_was_choice = was_choice
            last_valid = current
            if was_choice:
                predictions += 1

        t = 0
        while t < n:
            prop = props[t]
            # Process the instant against the current state; violations
            # can trigger a revert that re-processes the same instant.
            guard = 0
            while current is not None and t > entry_t:
                guard += 1
                if guard > len(self._all_states) + 2:
                    current = None
                    break
                verdict, _satisfied = tracker.advance(prop)
                if verdict == STAY:
                    break
                if verdict == EXIT:
                    candidates = self._successor_candidates(
                        current.sid, prop, banned
                    )
                    if candidates:
                        belief = hmm.belief_for_state(current.sid)
                        best = hmm.best_candidate(belief, candidates)
                        enter(
                            best,
                            t,
                            current.sid,
                            [c for c in candidates if c != best],
                            len(candidates) > 1,
                        )
                    else:
                        current = None
                    break
                # VIOLATION: the state predicted at the last choice point
                # was wrong (counted once per choice).
                if entry_was_choice:
                    wrong += 1
                    entry_was_choice = False
                recovered = self._revert(
                    t,
                    props,
                    distances,
                    estimated,
                    current.sid,
                    entry_t,
                    entry_prev,
                    entry_remaining,
                    banned,
                )
                if recovered is None:
                    current = None
                    break
                state, new_tracker, remaining = recovered
                reverted += t - entry_t  # instants re-attributed
                current = state
                tracker = new_tracker
                entry_remaining = remaining
                last_valid = current
                # Loop again: re-advance the corrected state on prop[t].
            if current is None:
                resynced = self._resync(prop, last_valid)
                if resynced is not None:
                    sid, anywhere = resynced
                    enter(sid, t, None, [], False, anywhere=anywhere)
                else:
                    # Resynchronisation depends only on (prop, last_valid)
                    # and neither changes while the proposition repeats:
                    # the whole remaining segment stays desynchronised.
                    stop = int(run_end[t])
                    desync += stop - t
                    reliable[t:stop] = False
                    if last_valid is not None:
                        _fill_power(
                            estimated, t, stop, last_valid, distances
                        )
                    else:
                        estimated[t:stop] = 0.0
                    sequence.extend([None] * (stop - t))
                    t = stop
                    continue
            estimated[t] = current.output(distances[t])
            sequence.append(current.sid)
            # Run-length fast path: an until body repeats its proposition
            # for long stretches; consume the rest of the segment (which
            # by the RLE invariant never spans a proposition change).
            if tracker.stable_on(prop):
                stop = int(run_end[t])
                if stop > t + 1:
                    _fill_power(estimated, t + 1, stop, current, distances)
                    sequence.extend([current.sid] * (stop - t - 1))
                    t = stop
                    continue
            t += 1
        return EstimationResult(
            estimated=PowerTrace(
                np.clip(estimated, 0.0, None), name=f"{trace.name}.psm"
            ),
            reliable=reliable,
            predictions=predictions,
            wrong_predictions=wrong,
            desync_instants=desync,
            unknown_instants=unknown,
            reverted_instants=reverted,
            state_sequence=sequence,
        )

    def _run_instantwise(self, trace: FunctionalTrace) -> EstimationResult:
        """Reference per-instant simulation (semantics oracle for the RLE path)."""
        hmm = self.hmm
        props = self.labeler.label(trace)
        distances = trace.hamming_distances()
        n = len(trace)
        estimated = np.zeros(n)
        reliable = np.ones(n, dtype=bool)
        sequence: List[Optional[int]] = []
        predictions = 0
        wrong = 0
        desync = 0
        reverted = 0
        unknown = sum(1 for p in props if p is None)

        current: Optional[PowerState] = None
        tracker: Optional[StateTracker] = None
        last_valid: Optional[PowerState] = None
        # Choice context for wrong-prediction revert: the entry instant,
        # the predecessor state (None for initial/resync entries), the
        # untried candidates, and whether the entry was an actual choice.
        entry_t = 0
        entry_prev: Optional[int] = None
        entry_remaining: List[int] = []
        entry_was_choice = False
        # Paths proven wrong during *this* run (the paper's per-simulation
        # zeroing of A entries); the shared HMM is never mutated, so
        # repeated estimates are independent and reproducible.
        banned: set = set()

        def enter(sid, t, prev, remaining, was_choice, anywhere=False):
            nonlocal current, tracker, entry_t, entry_prev
            nonlocal entry_remaining, entry_was_choice, last_valid
            nonlocal predictions
            current = hmm.state(sid)
            tracker = StateTracker(current)
            if anywhere:
                tracker.enter_anywhere(props[t])
            else:
                tracker.enter(props[t])
            entry_t = t
            entry_prev = prev
            entry_remaining = remaining
            entry_was_choice = was_choice
            last_valid = current
            if was_choice:
                predictions += 1

        t = 0
        while t < n:
            prop = props[t]
            # Process the instant against the current state; violations
            # can trigger a revert that re-processes the same instant.
            guard = 0
            while current is not None and t > entry_t:
                guard += 1
                if guard > len(self._all_states) + 2:
                    current = None
                    break
                verdict, _satisfied = tracker.advance(prop)
                if verdict == STAY:
                    break
                if verdict == EXIT:
                    candidates = self._successor_candidates(
                        current.sid, prop, banned
                    )
                    if candidates:
                        belief = hmm.belief_for_state(current.sid)
                        best = hmm.best_candidate(belief, candidates)
                        enter(
                            best,
                            t,
                            current.sid,
                            [c for c in candidates if c != best],
                            len(candidates) > 1,
                        )
                    else:
                        current = None
                    break
                # VIOLATION: the state predicted at the last choice point
                # was wrong (counted once per choice).
                if entry_was_choice:
                    wrong += 1
                    entry_was_choice = False
                recovered = self._revert(
                    t,
                    props,
                    distances,
                    estimated,
                    current.sid,
                    entry_t,
                    entry_prev,
                    entry_remaining,
                    banned,
                )
                if recovered is None:
                    current = None
                    break
                state, new_tracker, remaining = recovered
                reverted += t - entry_t  # instants re-attributed
                current = state
                tracker = new_tracker
                entry_remaining = remaining
                last_valid = current
                # Loop again: re-advance the corrected state on prop[t].
            if current is None:
                resynced = self._resync(prop, last_valid)
                if resynced is not None:
                    sid, anywhere = resynced
                    enter(sid, t, None, [], False, anywhere=anywhere)
                else:
                    desync += 1
                    reliable[t] = False
                    estimated[t] = (
                        last_valid.output(distances[t]) if last_valid else 0.0
                    )
                    sequence.append(None)
                    t += 1
                    continue
            estimated[t] = current.output(distances[t])
            sequence.append(current.sid)
            # Run-length fast path: an until body repeats its proposition
            # for long stretches; consume the whole run vectorised.
            if tracker.stable_on(prop):
                stop = t + 1
                while stop < n and props[stop] is prop:
                    stop += 1
                if stop > t + 1:
                    model = current.power_model
                    if isinstance(model, ConstantPower):
                        estimated[t + 1 : stop] = model.value
                    else:
                        estimated[t + 1 : stop] = (
                            model.intercept
                            + model.slope * distances[t + 1 : stop]
                        )
                    sequence.extend([current.sid] * (stop - t - 1))
                    t = stop
                    continue
            t += 1
        return EstimationResult(
            estimated=PowerTrace(
                np.clip(estimated, 0.0, None), name=f"{trace.name}.psm"
            ),
            reliable=reliable,
            predictions=predictions,
            wrong_predictions=wrong,
            desync_instants=desync,
            unknown_instants=unknown,
            reverted_instants=reverted,
            state_sequence=sequence,
        )

    # ------------------------------------------------------------------
    def _revert(
        self,
        t: int,
        props: Sequence[Optional[Proposition]],
        distances: np.ndarray,
        estimated: np.ndarray,
        wrong_sid: int,
        entry_t: int,
        entry_prev: Optional[int],
        entry_remaining: List[int],
        banned,
    ):
        """Wrong-state-prediction recovery (paper Sec. V).

        Bans the path that led to the wrong state (for the remainder of
        this run), then replays the propositions consumed since the
        choice point (``entry_t`` up to ``t - 1``) on each remaining
        candidate; the first candidate that accepts the replay becomes
        the corrected current state, the replayed instants' power is
        re-attributed to it, and the caller re-processes instant ``t``.
        Returns ``(state, tracker, remaining)`` or ``None`` when every
        alternative fails.
        """
        hmm = self.hmm
        if entry_prev is not None:
            banned.add((entry_prev, wrong_sid))
        remaining = list(entry_remaining)
        while remaining:
            belief = (
                hmm.belief_for_state(entry_prev)
                if entry_prev is not None
                else hmm.initial_belief()
            )
            sid = hmm.best_candidate(belief, remaining)
            remaining.remove(sid)
            state = hmm.state(sid)
            tracker = StateTracker(state)
            if props[entry_t] is None or not tracker.enter(props[entry_t]):
                continue
            ok = True
            for k in range(entry_t + 1, t):
                verdict, _ = tracker.advance(props[k])
                if verdict != STAY:
                    ok = False
                    break
            if not ok:
                continue
            for k in range(entry_t, t):
                estimated[k] = state.output(distances[k])
            return state, tracker, remaining
        return None

    def _resync(
        self, prop: Optional[Proposition], last_valid: Optional[PowerState]
    ):
        """Most probable re-entry ``(state id, anywhere)`` for ``prop``.

        Prefers states whose assertion starts with ``prop``; when none
        exists, falls back on re-entering a sequence state at an internal
        part boundary.  Returns ``None`` when the proposition is unknown
        to the whole model.
        """
        if prop is None:
            return None
        anywhere = False
        candidates = self._entry_candidates(prop)
        if not candidates:
            candidates = self._anywhere_candidates(prop)
            anywhere = True
        if not candidates:
            return None
        hmm = self.hmm
        if last_valid is not None:
            belief = hmm.belief_for_state(last_valid.sid)
            scores = hmm.score_candidates(belief, candidates)
        else:
            # Initial entry: the prior pi applies directly (no transition
            # has been taken yet, so no propagation through A).
            prior = hmm.initial_belief()
            scores = [
                (sid, float(prior[hmm.index_of(sid)])) for sid in candidates
            ]
        if all(score <= 0 for _, score in scores):
            # Dead-end local belief: fall back on the global prior, then
            # on state frequency (sample counts) as a final tie-breaker.
            prior = hmm.initial_belief()
            scores = [
                (sid, float(prior[hmm.index_of(sid)])) for sid in candidates
            ]
        if all(score <= 0 for _, score in scores):
            scores = [
                (sid, float(hmm.state(sid).n)) for sid in candidates
            ]
        best_sid, best_score = scores[0]
        for sid, score in scores[1:]:
            if score > best_score:
                best_sid, best_score = sid, score
        return best_sid, anywhere
