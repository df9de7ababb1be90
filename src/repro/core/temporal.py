"""Temporal assertions over propositions (paper Sec. III).

The methodology mines assertions built from the LTL operators **next** and
**until**:

* the *next* pattern ``p X q`` — ``(state = p) -> next (state = q)``;
* the *until* pattern ``p U q`` — ``(state = p) until (state = q)``.

The optimisation procedures introduce two composite forms:

* :class:`SequenceAssertion` ``{a1; a2; ...}`` (from ``simplify``): the
  member assertions are satisfied one after the other in cascade;
* :class:`ChoiceAssertion` ``{a1 || a2 || ...}`` (from ``join``): exactly
  one of the member assertions is satisfied each time the state is entered.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .propositions import Proposition, PropositionTrace


class TemporalAssertion:
    """Base class for the assertions characterising PSM states."""

    def propositions(self) -> Tuple[Proposition, ...]:
        """All propositions mentioned by the assertion."""
        raise NotImplementedError

    def first_proposition(self) -> Proposition:
        """The proposition expected when the assertion starts holding."""
        raise NotImplementedError

    def exit_proposition(self) -> Proposition:
        """The proposition whose activation terminates the assertion."""
        raise NotImplementedError

    def match(self, trace: PropositionTrace, start: int) -> Optional[int]:
        """Check the assertion against ``trace`` starting at ``start``.

        Returns the last instant (inclusive) where the assertion's *body*
        holds — i.e. the instant after which the exit proposition is
        observed — or ``None`` when the assertion is violated.
        """
        raise NotImplementedError


class UntilAssertion(TemporalAssertion):
    """``left U right``: ``left`` holds until ``right`` becomes true."""

    __slots__ = ("left", "right")

    def __init__(self, left: Proposition, right: Proposition) -> None:
        self.left = left
        self.right = right

    def propositions(self) -> Tuple[Proposition, ...]:
        return (self.left, self.right)

    def first_proposition(self) -> Proposition:
        return self.left

    def exit_proposition(self) -> Proposition:
        return self.right

    def match(self, trace: PropositionTrace, start: int) -> Optional[int]:
        if trace.at(start) != self.left:
            return None
        instant = start
        while trace.at(instant + 1) == self.left:
            instant += 1
        if trace.at(instant + 1) == self.right:
            return instant
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UntilAssertion)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("U", self.left, self.right))

    def __str__(self) -> str:
        return f"{self.left} U {self.right}"

    def __repr__(self) -> str:
        return f"UntilAssertion({self.left!r}, {self.right!r})"


class NextAssertion(TemporalAssertion):
    """``left X right``: after ``left``, at the next instant, ``right``."""

    __slots__ = ("left", "right")

    def __init__(self, left: Proposition, right: Proposition) -> None:
        self.left = left
        self.right = right

    def propositions(self) -> Tuple[Proposition, ...]:
        return (self.left, self.right)

    def first_proposition(self) -> Proposition:
        return self.left

    def exit_proposition(self) -> Proposition:
        return self.right

    def match(self, trace: PropositionTrace, start: int) -> Optional[int]:
        if trace.at(start) != self.left:
            return None
        if trace.at(start + 1) == self.right:
            return start
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NextAssertion)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("X", self.left, self.right))

    def __str__(self) -> str:
        return f"{self.left} X {self.right}"

    def __repr__(self) -> str:
        return f"NextAssertion({self.left!r}, {self.right!r})"


class SequenceAssertion(TemporalAssertion):
    """``{a1; a2; ...}``: member assertions satisfied in cascade.

    Produced by ``simplify`` when adjacent mergeable states are collapsed
    into a single power state (paper Sec. IV).
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[TemporalAssertion]) -> None:
        flattened: List[TemporalAssertion] = []
        for part in parts:
            if isinstance(part, SequenceAssertion):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise ValueError("a sequence assertion needs at least two parts")
        if any(isinstance(p, ChoiceAssertion) for p in flattened):
            raise ValueError("sequence parts must be simple assertions")
        self.parts: Tuple[TemporalAssertion, ...] = tuple(flattened)

    def propositions(self) -> Tuple[Proposition, ...]:
        props: List[Proposition] = []
        for part in self.parts:
            for prop in part.propositions():
                if prop not in props:
                    props.append(prop)
        return tuple(props)

    def first_proposition(self) -> Proposition:
        return self.parts[0].first_proposition()

    def exit_proposition(self) -> Proposition:
        return self.parts[-1].exit_proposition()

    def match(self, trace: PropositionTrace, start: int) -> Optional[int]:
        instant = start
        for part in self.parts:
            stop = part.match(trace, instant)
            if stop is None:
                return None
            instant = stop + 1
        return instant - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SequenceAssertion) and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash(("SEQ", self.parts))

    def __str__(self) -> str:
        return "{" + "; ".join(str(p) for p in self.parts) + "}"

    def __repr__(self) -> str:
        return f"SequenceAssertion({list(self.parts)!r})"


class ChoiceAssertion(TemporalAssertion):
    """``{a1 || a2 || ...}``: one member is satisfied per state entry.

    Produced by ``join`` when non-adjacent mergeable states are collapsed
    (paper Sec. IV).  Members may repeat: multiplicities feed the HMM's
    observation matrix ``B`` (Sec. V).
    """

    __slots__ = ("parts", "_alternatives", "_entry_index")

    def __init__(self, parts: Sequence[TemporalAssertion]) -> None:
        flattened: List[TemporalAssertion] = []
        for part in parts:
            if isinstance(part, ChoiceAssertion):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise ValueError("a choice assertion needs at least two parts")
        self.parts: Tuple[TemporalAssertion, ...] = tuple(flattened)
        self._alternatives: Optional[Tuple[TemporalAssertion, ...]] = None
        self._entry_index: Optional[EntryIndex] = None

    def alternatives(self) -> Tuple[TemporalAssertion, ...]:
        """Distinct member assertions, preserving first-seen order.

        Memoised: simulators rebuild state trackers every entry.  The
        dedup hashes each member once (``dict.fromkeys`` keeps the first
        of equal members), linear in the member list.
        """
        if self._alternatives is None:
            self._alternatives = tuple(dict.fromkeys(self.parts))
        return self._alternatives

    def entry_index(self) -> "EntryIndex":
        """The alternatives indexed by the propositions that start them.

        Memoised next to :meth:`alternatives`: a tracker entering the
        state looks up the observed proposition instead of scanning every
        alternative of a wide joined choice.
        """
        if self._entry_index is None:
            self._entry_index = EntryIndex(self.alternatives())
        return self._entry_index

    def multiplicity(self, assertion: TemporalAssertion) -> int:
        """How many merged states carried ``assertion``."""
        return sum(1 for part in self.parts if part == assertion)

    def propositions(self) -> Tuple[Proposition, ...]:
        props: List[Proposition] = []
        for part in self.parts:
            for prop in part.propositions():
                if prop not in props:
                    props.append(prop)
        return tuple(props)

    def first_proposition(self) -> Proposition:
        raise ValueError("a choice assertion has no unique first proposition")

    def exit_proposition(self) -> Proposition:
        raise ValueError("a choice assertion has no unique exit proposition")

    def match(self, trace: PropositionTrace, start: int) -> Optional[int]:
        for part in self.alternatives():
            stop = part.match(trace, start)
            if stop is not None:
                return stop
        return None

    def matching_alternative(
        self, trace: PropositionTrace, start: int
    ) -> Optional[TemporalAssertion]:
        """The member assertion satisfied at ``start``, if any."""
        for part in self.alternatives():
            if part.match(trace, start) is not None:
                return part
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChoiceAssertion) and sorted(
            map(str, self.parts)
        ) == sorted(map(str, other.parts))

    def __hash__(self) -> int:
        return hash(("CHOICE", tuple(sorted(map(str, self.parts)))))

    def __str__(self) -> str:
        return "{" + " || ".join(str(p) for p in self.parts) + "}"

    def __repr__(self) -> str:
        return f"ChoiceAssertion({list(self.parts)!r})"


class EntryIndex:
    """Where a state's alternatives can start, keyed by proposition.

    ``alternatives`` are a state's distinct simple/sequence assertions
    (one for a plain state) and ``parts`` their part cascades.
    ``starts[p]`` lists, in alternative order, the ``(alternative, 0)``
    pairs whose first part starts with ``p``; ``boundaries[p]`` lists,
    per alternative, the first ``(alternative, part)`` boundary whose
    part starts with ``p`` (resynchronising into a cascade).  Positions
    index ``alternatives``; propositions that start nothing are absent.
    """

    __slots__ = ("alternatives", "parts", "starts", "boundaries")

    def __init__(self, alternatives: Sequence[TemporalAssertion]) -> None:
        self.alternatives: Tuple[TemporalAssertion, ...] = tuple(alternatives)
        self.parts = tuple(
            alt.parts if isinstance(alt, SequenceAssertion) else (alt,)
            for alt in self.alternatives
        )
        starts: Dict[Proposition, List[Tuple[int, int]]] = {}
        boundaries: Dict[Proposition, List[Tuple[int, int]]] = {}
        for position, parts in enumerate(self.parts):
            starts.setdefault(parts[0].first_proposition(), []).append(
                (position, 0)
            )
            seen = set()
            for index, part in enumerate(parts):
                prop = part.first_proposition()
                if prop not in seen:
                    seen.add(prop)
                    boundaries.setdefault(prop, []).append((position, index))
        self.starts: Dict[Proposition, Tuple[Tuple[int, int], ...]] = {
            prop: tuple(pairs) for prop, pairs in starts.items()
        }
        self.boundaries: Dict[Proposition, Tuple[Tuple[int, int], ...]] = {
            prop: tuple(pairs) for prop, pairs in boundaries.items()
        }


def entry_index(assertion: TemporalAssertion) -> EntryIndex:
    """The :class:`EntryIndex` of a state's assertion.

    Memoised on choice assertions; a plain or sequence assertion has a
    single alternative and is indexed afresh.
    """
    if isinstance(assertion, ChoiceAssertion):
        return assertion.entry_index()
    return EntryIndex((assertion,))


def base_assertions(assertion: TemporalAssertion) -> Tuple[TemporalAssertion, ...]:
    """The observable assertion symbols carried by a state's assertion.

    A plain or sequence assertion observes itself; a choice assertion
    observes each of its member assertions (with multiplicity).
    """
    if isinstance(assertion, ChoiceAssertion):
        return tuple(assertion.parts)
    return (assertion,)
