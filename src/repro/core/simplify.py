"""The ``simplify`` procedure (paper Sec. IV, Fig. 6a).

``simplify`` shortens the chain PSMs produced by the generator: sequences
of *adjacent* states that are mergeable from the power point of view are
iteratively collapsed into a single state whose assertion is the cascade
``{p_i; p_i+1; ...}`` and whose power attributes are recomputed over the
union ``[start_new, stop_new]`` of the merged intervals in the reference
power trace.

The implementation walks the chain once, greedily extending a run of
mergeable neighbours and backtracking one position after each merge (a
merge can enable a merge with the previous state), which keeps the
procedure linear in the chain length up to the number of merges — the
fixpoint the paper's "iteratively executes till no new mergeable state is
found" demands.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..traces.power import PowerTrace
from .attributes import Interval, PowerAttributes
from .mergeability import MergePolicy
from .psm import PSM, PowerState
from .temporal import SequenceAssertion


def coalesce_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Fuse contiguous same-trace intervals (``stop + 1 == next.start``)."""
    result: List[Interval] = []
    for interval in intervals:
        if (
            result
            and result[-1].trace_id == interval.trace_id
            and result[-1].stop + 1 == interval.start
        ):
            result[-1] = Interval(
                interval.trace_id, result[-1].start, interval.stop
            )
        else:
            result.append(interval)
    return result


def merge_adjacent(
    first: PowerState,
    second: PowerState,
    power_traces: Mapping[int, PowerTrace],
) -> PowerState:
    """Build the replacement state for two adjacent mergeable states.

    The new assertion is ``{a_first; a_second}`` (flattened when either is
    already a sequence); the new attributes are measured over the combined
    interval of the reference power trace, per the paper's
    ``start_new = start_i``, ``stop_new = stop_{i+j}`` rule.
    """
    assertion = SequenceAssertion([first.assertion, second.assertion])
    intervals = coalesce_intervals(
        list(first.intervals) + list(second.intervals)
    )
    attributes = PowerAttributes.from_intervals(intervals, power_traces)
    return PowerState(
        assertion=assertion, attributes=attributes, intervals=intervals
    )


def chain_states(psm: PSM) -> List[PowerState]:
    """States of a chain PSM in chain order (initial state first)."""
    if not psm.initial_states:
        return psm.states
    order: List[PowerState] = []
    seen = set()
    current: Optional[int] = psm.initial_states[0].sid
    while current is not None and current not in seen:
        order.append(psm.state(current))
        seen.add(current)
        successors = psm.successors(current)
        current = successors[0].dst if successors else None
    for state in psm.states:  # disconnected leftovers, defensive
        if state.sid not in seen:
            order.append(state)
    return order


def simplify(
    psm: PSM,
    power_traces: Mapping[int, PowerTrace],
    policy: Optional[MergePolicy] = None,
) -> PSM:
    """Merge adjacent mergeable states of a chain PSM to fixpoint.

    Returns a new chain PSM (the input is left untouched).  Only chain
    PSMs — the generator's output shape — are supported; ``simplify``
    runs before ``join`` in the flow, exactly as in the paper.
    """
    if not psm.is_chain():
        raise ValueError("simplify expects a chain PSM")
    policy = policy or MergePolicy()
    states = chain_states(psm)
    result: List[PowerState] = []
    for state in states:
        result.append(state)
        # Backtrack: merge the tail pair as long as it is mergeable.
        while len(result) >= 2 and policy.mergeable(result[-2], result[-1]):
            second = result.pop()
            first = result.pop()
            result.append(merge_adjacent(first, second, power_traces))
    return PSM.chain(result, psm.name)


def simplify_all(
    psms: Sequence[PSM],
    power_traces: Mapping[int, PowerTrace],
    policy: Optional[MergePolicy] = None,
) -> List[PSM]:
    """Apply :func:`simplify` to every PSM of a set."""
    return [simplify(psm, power_traces, policy) for psm in psms]
