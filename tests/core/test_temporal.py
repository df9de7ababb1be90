"""Tests for temporal assertions."""

import pytest

from repro.core.propositions import Proposition, PropositionTrace, VarEqualsConst
from repro.core.temporal import (
    ChoiceAssertion,
    NextAssertion,
    SequenceAssertion,
    UntilAssertion,
    base_assertions,
)


def props(n):
    return [
        Proposition(f"p_{i}", [VarEqualsConst("x", i)]) for i in range(n)
    ]


@pytest.fixture
def p():
    return props(5)


class TestUntil:
    def test_match_run(self, p):
        trace = PropositionTrace([p[0], p[0], p[0], p[1]])
        assertion = UntilAssertion(p[0], p[1])
        assert assertion.match(trace, 0) == 2

    def test_match_single_instant_body(self, p):
        # simulation semantics allow a one-instant body
        trace = PropositionTrace([p[0], p[1]])
        assert UntilAssertion(p[0], p[1]).match(trace, 0) == 0

    def test_match_wrong_exit(self, p):
        trace = PropositionTrace([p[0], p[0], p[2]])
        assert UntilAssertion(p[0], p[1]).match(trace, 0) is None

    def test_match_wrong_entry(self, p):
        trace = PropositionTrace([p[2], p[1]])
        assert UntilAssertion(p[0], p[1]).match(trace, 0) is None

    def test_match_at_trace_end(self, p):
        trace = PropositionTrace([p[0], p[0]])
        assert UntilAssertion(p[0], p[1]).match(trace, 0) is None

    def test_props_and_display(self, p):
        assertion = UntilAssertion(p[0], p[1])
        assert assertion.first_proposition() is p[0]
        assert assertion.exit_proposition() is p[1]
        assert str(assertion) == "p_0 U p_1"

    def test_equality(self, p):
        assert UntilAssertion(p[0], p[1]) == UntilAssertion(p[0], p[1])
        assert UntilAssertion(p[0], p[1]) != UntilAssertion(p[1], p[0])
        assert UntilAssertion(p[0], p[1]) != NextAssertion(p[0], p[1])


class TestNext:
    def test_match(self, p):
        trace = PropositionTrace([p[0], p[1]])
        assert NextAssertion(p[0], p[1]).match(trace, 0) == 0

    def test_match_fails_on_repeat(self, p):
        trace = PropositionTrace([p[0], p[0]])
        assert NextAssertion(p[0], p[1]).match(trace, 0) is None

    def test_display(self, p):
        assert str(NextAssertion(p[0], p[1])) == "p_0 X p_1"


class TestSequence:
    def test_flattens_nested(self, p):
        inner = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[1], p[2])]
        )
        outer = SequenceAssertion([inner, NextAssertion(p[2], p[3])])
        assert len(outer.parts) == 3

    def test_requires_two_parts(self, p):
        with pytest.raises(ValueError):
            SequenceAssertion([UntilAssertion(p[0], p[1])])

    def test_rejects_choice_parts(self, p):
        choice = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        with pytest.raises(ValueError):
            SequenceAssertion([choice, NextAssertion(p[0], p[1])])

    def test_match_cascade(self, p):
        # p0 p0 p1 p1 p2 : {p0 U p1 ; p1 U p2} holds on [0,3]
        trace = PropositionTrace([p[0], p[0], p[1], p[1], p[2]])
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[1], p[2])]
        )
        assert seq.match(trace, 0) == 3

    def test_match_broken_cascade(self, p):
        trace = PropositionTrace([p[0], p[0], p[1], p[3]])
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[1], p[2])]
        )
        assert seq.match(trace, 0) is None

    def test_first_and_exit(self, p):
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), NextAssertion(p[1], p[2])]
        )
        assert seq.first_proposition() is p[0]
        assert seq.exit_proposition() is p[2]

    def test_display(self, p):
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), NextAssertion(p[1], p[2])]
        )
        assert str(seq) == "{p_0 U p_1; p_1 X p_2}"


class TestChoice:
    def test_flattens_nested(self, p):
        inner = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        outer = ChoiceAssertion([inner, NextAssertion(p[1], p[2])])
        assert len(outer.parts) == 3

    def test_multiplicity(self, p):
        u = UntilAssertion(p[0], p[1])
        choice = ChoiceAssertion([u, u, NextAssertion(p[1], p[2])])
        assert choice.multiplicity(u) == 2
        assert len(choice.alternatives()) == 2

    def test_alternatives_keep_first_seen_order_and_identity(self, p):
        # Equal-but-distinct members collapse onto the first occurrence,
        # in the order members first appear.
        a = UntilAssertion(p[0], p[1])
        a_again = UntilAssertion(p[0], p[1])
        b = NextAssertion(p[1], p[2])
        c = UntilAssertion(p[2], p[3])
        choice = ChoiceAssertion([b, a, c, a_again, b, c, a])
        alternatives = choice.alternatives()
        assert alternatives == (b, a, c)
        assert [id(x) for x in alternatives] == [id(b), id(a), id(c)]
        assert choice.alternatives() is alternatives

    def test_match_tries_alternatives(self, p):
        trace = PropositionTrace([p[2], p[2], p[3]])
        choice = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        assert choice.match(trace, 0) == 1
        assert choice.matching_alternative(trace, 0) == UntilAssertion(
            p[2], p[3]
        )

    def test_no_unique_boundary_props(self, p):
        choice = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        with pytest.raises(ValueError):
            choice.first_proposition()
        with pytest.raises(ValueError):
            choice.exit_proposition()

    def test_equality_is_order_insensitive(self, p):
        a = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        b = ChoiceAssertion(
            [UntilAssertion(p[2], p[3]), UntilAssertion(p[0], p[1])]
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_propositions_union(self, p):
        choice = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[2], p[3])]
        )
        assert set(choice.propositions()) == {p[0], p[1], p[2], p[3]}


class TestBaseAssertions:
    def test_simple_assertion_observes_itself(self, p):
        u = UntilAssertion(p[0], p[1])
        assert base_assertions(u) == (u,)

    def test_sequence_observes_itself(self, p):
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), NextAssertion(p[1], p[2])]
        )
        assert base_assertions(seq) == (seq,)

    def test_choice_observes_members_with_multiplicity(self, p):
        u = UntilAssertion(p[0], p[1])
        v = UntilAssertion(p[2], p[3])
        choice = ChoiceAssertion([u, u, v])
        assert base_assertions(choice) == (u, u, v)
