"""The ``join`` procedure (paper Sec. IV, Fig. 6b).

``join`` collapses mergeable states that are *not* required to be
adjacent and that may belong to *different* PSMs of the set.  The merged
state's assertion is the concurrent form ``{p_i || p_j || ...}``; its
``start``/``stop`` become the collection of the merged states' intervals;
its power attributes pool the samples of every merged state.  The merged
state inherits the predecessors and the successors of all merged states
(a pair of adjacent merged states yields a self-loop), which can make the
result non-deterministic — the HMM of Section V handles the choice at
simulation time.

Implementation: states are clustered greedily into groups of pairwise
power-mergeable states (each state joins the first group whose pooled
attributes it is mergeable with), then groups are re-merged to fixpoint —
the iterate-until-no-merge behaviour of the paper at O(S x G) cost
instead of O(S^3), which matters for the long-TS traces.  Connected
groups form the output PSMs: when a group spans several input PSMs those
PSMs fuse into one, reducing the set's cardinality.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..traces.power import PowerTrace
from .attributes import PowerAttributes
from .mergeability import MergePolicy
from .psm import PSM, PowerState, Transition
from .temporal import ChoiceAssertion, base_assertions


def merge_states(
    states: Sequence[PowerState],
    power_traces: Mapping[int, PowerTrace],
) -> PowerState:
    """Build the replacement for a set of join-mergeable states.

    Assertions are flattened into one choice; repeated member assertions
    are kept with their multiplicity, which later feeds the HMM's
    observation matrix ``B``.
    """
    if len(states) < 2:
        raise ValueError("join merges at least two states")
    parts = []
    for state in states:
        parts.extend(base_assertions(state.assertion))
    assertion = ChoiceAssertion(parts)
    intervals = [iv for state in states for iv in state.intervals]
    attributes = PowerAttributes.pooled([s.attributes for s in states])
    return PowerState(
        assertion=assertion, attributes=attributes, intervals=intervals
    )


class _Group:
    """A cluster of power-mergeable states.

    Membership is decided against the group's *leader* (its first, most
    sampled member) rather than against pooled statistics: pooling
    heterogeneous members inflates the group's variance, which would make
    the t-tests progressively blind and let one group absorb everything.
    ``leader_index`` is the leader's position in the clustering input,
    which keys the row engine's cached decision row.
    """

    __slots__ = ("members", "leader", "leader_index", "data_dependent")

    def __init__(self, state: PowerState, leader_index: int = -1) -> None:
        self.members: List[PowerState] = [state]
        self.leader: PowerAttributes = state.attributes
        self.leader_index = leader_index
        # Cached: the greedy pass probes this on every candidate group,
        # so rescanning the member list each time is O(S^2) on long
        # tiled traces.
        self.data_dependent: bool = state.is_data_dependent

    def absorb_state(self, state: PowerState) -> None:
        self.members.append(state)
        if state.is_data_dependent:
            self.data_dependent = True

    def absorb_group(self, other: "_Group") -> None:
        self.members.extend(other.members)
        if other.data_dependent:
            self.data_dependent = True


def _cluster(
    states: Sequence[PowerState],
    policy: MergePolicy,
    engine: str = "rows",
) -> List[_Group]:
    """Leader-based clustering followed by group merging to fixpoint.

    States are visited by decreasing sample count so group leaders carry
    the most reliable statistics.  Every comparison is a leader against
    a candidate state or a candidate group's leader, and leaders are
    always founding states' attributes, never pooled — so
    ``engine="rows"`` decides them from one row per distinct leader
    triplet, computed on first probe over all deduplicated candidate
    triplets
    (:meth:`~repro.core.mergeability.MergePolicy.mergeability_lookup`)
    and cached: ``G x U`` lanes for ``G`` groups and ``U`` distinct
    triplets instead of the ``U x U`` table.  ``engine="scalar"`` is the
    retained oracle.
    """
    if engine not in ("rows", "scalar"):
        raise ValueError(
            f"unknown engine {engine!r}; use 'rows' or 'scalar'"
        )
    if engine == "rows":
        unique, inverse = policy.mergeability_lookup(
            [s.attributes for s in states]
        )
        row_of = inverse.tolist()
        candidates = np.arange(len(unique))
        lanes = policy._lane_columns(unique)
        leader_rows: Dict[int, List[bool]] = {}

        def decide(group: _Group, index: int, attrs: PowerAttributes) -> bool:
            leader = row_of[group.leader_index]
            row = leader_rows.get(leader)
            if row is None:
                # Plain lists: the loops probe single entries, and
                # Python-level list indexing beats numpy scalar indexing.
                row = leader_rows[leader] = policy._decide_pairs(
                    lanes, np.full(len(unique), leader), candidates
                ).tolist()
            return row[row_of[index]]

    else:

        def decide(group: _Group, index: int, attrs: PowerAttributes) -> bool:
            return policy.mergeable_attributes(group.leader, attrs)

    order = sorted(range(len(states)), key=lambda k: -states[k].n)
    groups: List[_Group] = []
    for index in order:
        state = states[index]
        placed = False
        if not state.is_data_dependent:
            for group in groups:
                if group.data_dependent:
                    continue
                if decide(group, index, state.attributes):
                    group.absorb_state(state)
                    placed = True
                    break
        if not placed:
            groups.append(_Group(state, leader_index=index))
    # Re-merge whole groups (leader vs leader) until fixpoint.
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            if groups[i] is None or groups[i].data_dependent:
                continue
            for j in range(i + 1, len(groups)):
                if groups[j] is None or groups[j].data_dependent:
                    continue
                if decide(
                    groups[i], groups[j].leader_index, groups[j].leader
                ):
                    groups[i].absorb_group(groups[j])
                    groups[j] = None
                    changed = True
        groups = [g for g in groups if g is not None]
    return groups


def join(
    psms: Sequence[PSM],
    power_traces: Mapping[int, PowerTrace],
    policy: Optional[MergePolicy] = None,
    engine: str = "rows",
) -> List[PSM]:
    """Merge mergeable state sets across a PSM set.

    Returns the reduced set ``P'``.  The input PSMs are not modified.
    ``engine`` selects the clustering backend (see :func:`_cluster`).
    """
    policy = policy or MergePolicy()
    all_states: List[PowerState] = []
    initial_ids: Set[int] = set()
    for psm in psms:
        all_states.extend(psm.states)
        initial_ids.update(s.sid for s in psm.initial_states)

    groups = _cluster(all_states, policy, engine=engine)

    # Build the replacement state of each group and the old->new id map.
    replacement: Dict[int, PowerState] = {}
    group_state: List[PowerState] = []
    for group in groups:
        if len(group.members) == 1:
            new_state = group.members[0]
        else:
            new_state = merge_states(group.members, power_traces)
        group_state.append(new_state)
        for member in group.members:
            replacement[member.sid] = new_state

    # Union-find over groups to identify the fused output machines.
    parent = list(range(len(groups)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    group_index = {
        state.sid: k
        for k, group in enumerate(groups)
        for state in group.members
    }
    edges: List[Tuple[int, int, object]] = []
    for psm in psms:
        sids = [s.sid for s in psm.states]
        for a, b in zip(sids, sids[1:]):
            union(group_index[a], group_index[b])
        for transition in psm.transitions:
            union(group_index[transition.src], group_index[transition.dst])
            edges.append(
                (
                    replacement[transition.src].sid,
                    replacement[transition.dst].sid,
                    transition.enabling,
                )
            )

    # One output PSM per connected component.
    components: Dict[int, List[int]] = {}
    for k in range(len(groups)):
        components.setdefault(find(k), []).append(k)
    output: List[PSM] = []
    state_to_psm: Dict[int, PSM] = {}
    for index, members in enumerate(sorted(components.values())):
        psm = PSM(name=f"joined_{index}")
        for k in members:
            state = group_state[k]
            is_initial = any(
                m.sid in initial_ids for m in groups[k].members
            )
            psm.add_state(state, initial=is_initial)
            state_to_psm[state.sid] = psm
        output.append(psm)
    seen_edges: Set[Tuple[int, int, object]] = set()
    for src, dst, enabling in edges:
        key = (src, dst, enabling)
        if key in seen_edges:
            continue
        seen_edges.add(key)
        state_to_psm[src].add_transition(Transition(src, dst, enabling))
    for psm in output:
        psm.validate()
    return output
