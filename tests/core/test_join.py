"""Tests for the join procedure (paper Sec. IV, Fig. 6b)."""

import pytest

from repro.core.generator import generate_psm, generate_psms
from repro.core.join import join, merge_states
from repro.core.mergeability import MergePolicy
from repro.core.propositions import Proposition, PropositionTrace, VarEqualsConst
from repro.core.psm import total_states
from repro.core.temporal import ChoiceAssertion, UntilAssertion
from repro.traces.power import PowerTrace


def props(n):
    return [
        Proposition(f"p_{i}", [VarEqualsConst("x", i)]) for i in range(n)
    ]


POLICY = MergePolicy(max_cv=None)


def make_psms():
    """Two chain PSMs from two traces sharing an idle power level."""
    p = props(4)
    # trace 0: idle(1.0) -> busy(9.0) -> idle(1.0)
    seq0 = [p[0]] * 4 + [p[1]] * 4 + [p[0]] * 4 + [p[2]]
    pw0 = [1.0, 1.02, 0.98, 1.0, 9.0, 9.1, 8.9, 9.0, 1.0, 1.01, 0.99, 1.0, 1.0]
    # trace 1: idle(1.0) -> sleep-ish(1.0) via a different proposition
    seq1 = [p[0]] * 4 + [p[3]] * 4 + [p[2]]
    pw1 = [1.0, 1.01, 0.99, 1.0, 1.0, 1.02, 0.98, 1.0, 1.0]
    gammas = [
        PropositionTrace(seq0, trace_id=0),
        PropositionTrace(seq1, trace_id=1),
    ]
    deltas = [PowerTrace(pw0), PowerTrace(pw1)]
    return p, generate_psms(gammas, deltas), {0: deltas[0], 1: deltas[1]}


class TestMergeStates:
    def test_choice_assertion_members(self):
        p, psms, powers = make_psms()
        idle_a = psms[0].states[0]
        idle_b = psms[0].states[2]
        merged = merge_states([idle_a, idle_b], powers)
        assert isinstance(merged.assertion, ChoiceAssertion)
        assert idle_a.assertion in merged.assertion.parts
        assert idle_b.assertion in merged.assertion.parts
        assert merged.n == idle_a.n + idle_b.n

    def test_choice_assertion_multiplicity_of_identical_members(self):
        p, psms, powers = make_psms()
        from repro.core.attributes import Interval, PowerAttributes
        from repro.core.psm import PowerState

        assertion = UntilAssertion(p[0], p[1])
        twin_a = PowerState(
            assertion=assertion,
            attributes=PowerAttributes(1.0, 0.01, 4),
            intervals=[Interval(0, 0, 3)],
        )
        twin_b = PowerState(
            assertion=assertion,
            attributes=PowerAttributes(1.0, 0.01, 4),
            intervals=[Interval(1, 0, 3)],
        )
        merged = merge_states([twin_a, twin_b], powers)
        assert merged.assertion.multiplicity(assertion) == 2
        assert len(merged.assertion.alternatives()) == 1

    def test_intervals_collected(self):
        p, psms, powers = make_psms()
        merged = merge_states(
            [psms[0].states[0], psms[0].states[2]], powers
        )
        assert len(merged.intervals) == 2

    def test_single_state_rejected(self):
        p, psms, powers = make_psms()
        with pytest.raises(ValueError):
            merge_states([psms[0].states[0]], powers)


class TestJoin:
    def test_cross_psm_merge_reduces_set(self):
        p, psms, powers = make_psms()
        joined = join(psms, powers, POLICY)
        # the idle states of both PSMs merge -> the two machines fuse
        assert len(joined) == 1

    def test_busy_state_survives(self):
        p, psms, powers = make_psms()
        joined = join(psms, powers, POLICY)
        mus = sorted(s.mu for s in joined[0].states)
        assert mus[-1] == pytest.approx(8.99, abs=0.1)

    def test_state_count_reduced(self):
        p, psms, powers = make_psms()
        before = total_states(psms)
        joined = join(psms, powers, POLICY)
        assert total_states(joined) < before

    def test_initial_states_preserved(self):
        p, psms, powers = make_psms()
        joined = join(psms, powers, POLICY)
        assert len(joined[0].initial_states) >= 1

    def test_transitions_rewired_to_merged_state(self):
        p, psms, powers = make_psms()
        joined = join(psms, powers, POLICY)
        machine = joined[0]
        machine.validate()
        # every transition endpoint exists
        for transition in machine.transitions:
            assert machine.has_state(transition.src)
            assert machine.has_state(transition.dst)

    def test_adjacent_merge_becomes_self_loop(self):
        p = props(3)
        # idle -> idle2 (same power, adjacent, different props)
        seq = [p[0]] * 4 + [p[1]] * 4 + [p[2]]
        power = PowerTrace([1.0, 1.01, 0.99, 1.0] * 2 + [1.0])
        psm = generate_psm(PropositionTrace(seq), power)
        joined = join([psm], {0: power}, POLICY)
        machine = joined[0]
        assert len(machine) == 1
        loops = [
            t for t in machine.transitions if t.src == t.dst
        ]
        assert len(loops) == 1
        assert loops[0].enabling is p[1]

    def test_input_psms_not_modified(self):
        p, psms, powers = make_psms()
        before = [len(m) for m in psms]
        join(psms, powers, POLICY)
        assert [len(m) for m in psms] == before

    def test_unmergeable_set_unchanged(self):
        p = props(2)
        seq = [p[0]] * 4 + [p[1]]
        power = PowerTrace([1.0] * 5)
        psm = generate_psm(PropositionTrace(seq), power)
        joined = join([psm], {0: power}, POLICY)
        assert total_states(joined) == 1

    def test_nondeterminism_possible_after_join(self):
        """Merging states with identical assertions and guards yields a
        non-deterministic machine (the case Sec. IV calls out)."""
        p = props(3)
        # two occurrences of the same until behaviour with the same exit,
        # but different successors' power so the successors stay distinct
        seq = (
            [p[0]] * 4 + [p[1]] * 4 + [p[0]] * 4 + [p[2]] * 4 + [p[1]]
        )
        power = PowerTrace(
            [1.0, 1.01, 0.99, 1.0]
            + [5.0, 5.02, 4.98, 5.0]
            + [1.0, 1.02, 0.98, 1.01]
            + [9.0, 9.05, 8.95, 9.0]
            + [5.0]
        )
        psm = generate_psm(PropositionTrace(seq), power)
        joined = join([psm], {0: power}, POLICY)
        machine = joined[0]
        # the two p_0-idle states merged; their exits lead to the 5.0
        # and 9.0 states under different guards (p_1 vs p_2), so the
        # machine may or may not be deterministic; validate structure.
        machine.validate()
        assert total_states(joined) == 3


def join_snapshot(psms):
    """Sid-normalized structural view of a joined PSM set."""
    out = []
    for psm in sorted(psms, key=lambda m: min(s.sid for s in m.states)):
        states = sorted(psm.states, key=lambda s: s.sid)
        sid_map = {s.sid: k for k, s in enumerate(states)}
        out.append(
            (
                [
                    (
                        sid_map[s.sid],
                        repr(s.assertion),
                        s.attributes.mu,
                        s.attributes.sigma,
                        s.attributes.n,
                        tuple(
                            (iv.trace_id, iv.start, iv.stop)
                            for iv in s.intervals
                        ),
                    )
                    for s in states
                ],
                sorted(
                    (sid_map[t.src], sid_map[t.dst], repr(t.enabling))
                    for t in psm.transitions
                ),
                sorted(sid_map[s.sid] for s in psm.initial_states),
            )
        )
    return out


class TestJoinEngines:
    """The row engine must reproduce the scalar oracle bit for bit."""

    def test_engines_identical_on_shared_idle(self):
        p, psms, power = make_psms()
        rows = join_snapshot(join(psms, power, POLICY, engine="rows"))
        scalar = join_snapshot(join(psms, power, POLICY, engine="scalar"))
        assert rows == scalar

    def test_engines_identical_on_randomized_chains(self):
        import numpy as np

        rng = np.random.default_rng(314)
        alphabet = props(4)
        for _ in range(15):
            length = int(rng.integers(8, 120))
            indices = []
            while len(indices) < length:
                indices.extend(
                    [int(rng.integers(0, 4))] * int(rng.integers(1, 6))
                )
            gamma = PropositionTrace.from_indices(
                np.asarray(indices[:length], dtype=np.int32), alphabet, 0
            )
            # a few power levels with noise so some states merge
            delta = PowerTrace(
                rng.normal(0, 0.02, length)
                + np.asarray(indices[:length]) * 2.0
                + 1.0
            )
            psms = [generate_psm(gamma, delta)]
            rows = join_snapshot(
                join(psms, {0: delta}, POLICY, engine="rows")
            )
            scalar = join_snapshot(
                join(psms, {0: delta}, POLICY, engine="scalar")
            )
            assert rows == scalar

    def test_default_engine_matches_scalar(self):
        p, psms, power = make_psms()
        default = join_snapshot(join(psms, power, POLICY))
        scalar = join_snapshot(join(psms, power, POLICY, engine="scalar"))
        assert default == scalar

    def test_long_join_memory_is_bounded(self):
        # Thousands of near-unique states over a handful of power
        # levels: the leader rows cost G x U lanes, where a U x U
        # decision table would take hundreds of MiB here.
        import tracemalloc

        import numpy as np

        rng = np.random.default_rng(99)
        alphabet = props(6)
        indices = []
        while len(indices) < 11000:
            indices.extend([int(rng.integers(0, 6))] * int(rng.integers(1, 6)))
        indices = np.asarray(indices[:11000], dtype=np.int32)
        gamma = PropositionTrace.from_indices(indices, alphabet, 0)
        delta = PowerTrace(
            (1.0 + 2.0 * (indices % 3)) * rng.normal(1.0, 0.02, len(indices))
        )
        psms = [generate_psm(gamma, delta)]
        states = psms[0].states
        unique = {
            (s.attributes.mu, s.attributes.sigma, s.attributes.n)
            for s in states
        }
        assert len(states) >= 3000 and len(unique) >= 2000
        tracemalloc.start()
        try:
            rows = join(psms, {0: delta}, POLICY, engine="rows")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        scalar = join(psms, {0: delta}, POLICY, engine="scalar")
        assert join_snapshot(rows) == join_snapshot(scalar)

    def test_unknown_engine_rejected(self):
        p, psms, power = make_psms()
        with pytest.raises(ValueError):
            join(psms, power, POLICY, engine="bogus")
