"""Property tests for wide joined choice states.

A refine loop joins dozens of states into one choice assertion, so a
state's tracker may carry sixteen or more alternatives, repeated
members, several alternatives behind one entry proposition and
sequences that revisit a proposition.  Two properties are checked on
seeded random instances of such states:

* the four ``StateTracker`` entry methods (read from the assertion's
  entry index) activate exactly the ``(alternative, part)`` pairs, in
  the same order, that a brute-force scan of the members selects;
* the compiled kernels (integer part automata) reproduce the object
  simulators bit for bit on random PSMs built from such states and
  random traces with unknown instants.
"""

from __future__ import annotations

import gc
import random

import numpy as np
import pytest

from repro.core.attributes import Interval, PowerAttributes
from repro.core.mining import PropositionLabeler
from repro.core.propositions import Proposition, VarEqualsConst
from repro.core.psm import PSM, PowerState, Transition
from repro.core.simulation import (
    MultiPsmSimulator,
    SinglePsmSimulator,
    StateTracker,
)
from repro.core.temporal import (
    ChoiceAssertion,
    NextAssertion,
    SequenceAssertion,
    UntilAssertion,
)
from repro.traces.functional import FunctionalTrace
from repro.traces.variables import int_in

#: Propositions of the labeler's universe (x = 0..N_PROPS-1); larger
#: values of the 3-bit input are unknown to the model.
N_PROPS = 5
PROPS = [
    Proposition(f"p_{i}", [VarEqualsConst("x", i)]) for i in range(N_PROPS)
]
#: A proposition no trace can carry (outside the labeler's universe).
FOREIGN = Proposition("p_foreign", [VarEqualsConst("x", 7)])


def labeler():
    atoms = [VarEqualsConst("x", i) for i in range(N_PROPS)]
    universe = {}
    for i, prop in enumerate(PROPS):
        row = np.array([j == i for j in range(N_PROPS)], dtype=bool)
        universe[row.tobytes()] = prop
    return PropositionLabeler(atoms, universe)


def random_simple(rng, pool):
    kind = UntilAssertion if rng.random() < 0.6 else NextAssertion
    return kind(rng.choice(pool), rng.choice(pool))


def random_member(rng, pool):
    """A simple assertion or a sequence whose parts may repeat props."""
    if rng.random() < 0.5:
        return random_simple(rng, pool)
    parts = [random_simple(rng, pool) for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.5:
        parts.append(parts[0])  # the cascade revisits its first part
    return SequenceAssertion(parts)


def random_choice(rng, width=None):
    """A choice assertion of >= 16 members with deliberate collisions."""
    pool = PROPS[:3] + [FOREIGN] if rng.random() < 0.3 else PROPS[:3]
    members = []
    for _ in range(width or rng.randint(16, 28)):
        roll = rng.random()
        if members and roll < 0.2:
            members.append(rng.choice(members))  # repeated member
        elif members and roll < 0.3:
            # an equal copy: a distinct object that dedups with its twin
            twin = rng.choice(members)
            if isinstance(twin, SequenceAssertion):
                members.append(SequenceAssertion(list(twin.parts)))
            else:
                members.append(type(twin)(twin.left, twin.right))
        else:
            members.append(random_member(rng, pool))
    return ChoiceAssertion(members)


def parts_of(member):
    if isinstance(member, SequenceAssertion):
        return member.parts
    return (member,)


def brute_alternatives(choice):
    distinct = []
    for member in choice.parts:
        if member not in distinct:
            distinct.append(member)
    return distinct


def brute_entry(choice, prop):
    """``(alternative, part)`` pairs a scan of the members enters."""
    return [
        (k, 0)
        for k, alt in enumerate(brute_alternatives(choice))
        if parts_of(alt)[0].first_proposition() == prop
    ]


def brute_anywhere(choice, prop):
    pairs = []
    for k, alt in enumerate(brute_alternatives(choice)):
        for index, part in enumerate(parts_of(alt)):
            if part.first_proposition() == prop:
                pairs.append((k, index))
                break
    return pairs


def active_pairs(tracker, choice):
    distinct = brute_alternatives(choice)
    pairs = []
    for alt_tracker in tracker._active:
        position = distinct.index(alt_tracker.assertion)
        # the tracker keeps the first-seen member of equal ones
        assert alt_tracker.assertion is distinct[position]
        pairs.append((position, alt_tracker.index))
    return pairs


@pytest.mark.parametrize("seed", range(40))
def test_entry_methods_match_brute_force_scan(seed):
    rng = random.Random(seed)
    choice = random_choice(rng)
    assert len(choice.parts) >= 16
    state = PowerState(
        assertion=choice, attributes=PowerAttributes(1.0, 0.0, 4)
    )
    for prop in PROPS + [FOREIGN, None]:
        entry = brute_entry(choice, prop)
        anywhere = brute_anywhere(choice, prop)
        tracker = StateTracker(state)
        assert tracker.can_enter(prop) == bool(entry)
        assert tracker.can_enter_anywhere(prop) == bool(anywhere)
        assert tracker.enter(prop) == bool(entry)
        assert active_pairs(tracker, choice) == entry
        assert tracker.enter_anywhere(prop) == bool(anywhere)
        assert active_pairs(tracker, choice) == anywhere


def test_entry_index_is_memoised_and_shares_entry_props():
    rng = random.Random(3)
    choice = random_choice(rng, width=24)
    index = choice.entry_index()
    assert choice.entry_index() is index
    assert index.alternatives == choice.alternatives()
    # wide choices put several alternatives behind one entry proposition
    assert max(len(pairs) for pairs in index.starts.values()) > 1


def random_state(rng, start=False):
    roll = rng.random()
    if roll < 0.5:
        assertion = random_choice(rng)
    elif roll < 0.75:
        assertion = SequenceAssertion(
            [random_simple(rng, PROPS) for _ in range(rng.randint(2, 3))]
        )
    else:
        assertion = random_simple(rng, PROPS)
    intervals = [Interval(0, 0 if start else 5, 9)]
    return PowerState(
        assertion=assertion,
        attributes=PowerAttributes(
            rng.uniform(0.5, 9.0), 0.1, rng.randint(2, 9)
        ),
        intervals=intervals,
    )


def random_psm(rng, name):
    psm = PSM(name)
    states = [
        random_state(rng, start=(k == 0)) for k in range(rng.randint(3, 6))
    ]
    for k, state in enumerate(states):
        psm.add_state(state, initial=(k == 0))
    for state in states:
        for _ in range(rng.randint(1, 4)):
            dst = rng.choice(states)
            # enabling mostly on a proposition that can start dst
            tracker = StateTracker(dst)
            entering = [p for p in PROPS if tracker.can_enter(p)]
            if entering and rng.random() < 0.8:
                enabling = rng.choice(entering)
            else:
                enabling = rng.choice(PROPS)
            psm.add_transition(Transition(state.sid, dst.sid, enabling))
            # a second target on the same guard: a choice the HMM must
            # predict and may have to revert
            twins = [s for s in states if StateTracker(s).can_enter(enabling)]
            if twins and rng.random() < 0.5:
                twin = rng.choice(twins)
                psm.add_transition(Transition(state.sid, twin.sid, enabling))
    return psm


def random_trace(rng, length):
    values = []
    while len(values) < length:
        if rng.random() < 0.08:
            value = rng.randrange(8)  # x >= N_PROPS is unknown
        else:
            value = rng.randrange(N_PROPS)
        values.extend([value] * rng.randint(1, 6))
    return FunctionalTrace([int_in("x", 3)], {"x": values[:length]})


def assert_same_result(compiled, oracle):
    assert np.array_equal(compiled.estimated.values, oracle.estimated.values)
    assert np.array_equal(compiled.reliable, oracle.reliable)
    assert compiled.state_sequence == oracle.state_sequence
    for counter in (
        "predictions",
        "wrong_predictions",
        "desync_instants",
        "unknown_instants",
        "reverted_instants",
    ):
        assert getattr(compiled, counter) == getattr(oracle, counter), counter


@pytest.mark.parametrize("seed", range(25))
def test_compiled_kernels_match_object_oracle(seed):
    rng = random.Random(1000 + seed)
    psms = [random_psm(rng, f"psm{k}") for k in range(rng.randint(1, 2))]
    multi = MultiPsmSimulator(psms, labeler())
    single = SinglePsmSimulator(psms[0], labeler())
    for _ in range(3):
        trace = random_trace(rng, rng.randint(60, 240))
        assert_same_result(
            multi.run(trace, engine="compiled"),
            multi.run(trace, engine="object"),
        )
        assert_same_result(
            single.run(trace, engine="compiled"),
            single.run(trace, engine="object"),
        )


def test_random_models_exercise_choices_and_reverts():
    """The corpus above is not vacuous: wide choice states are tracked,
    predictions are made, some are wrong and get reverted."""
    predictions = reverted = choice_instants = 0
    for seed in range(25):
        rng = random.Random(1000 + seed)
        psms = [random_psm(rng, f"psm{k}") for k in range(rng.randint(1, 2))]
        multi = MultiPsmSimulator(psms, labeler())
        wide = {
            state.sid
            for psm in psms
            for state in psm.states
            if isinstance(state.assertion, ChoiceAssertion)
        }
        for _ in range(3):
            result = multi.run(random_trace(rng, rng.randint(60, 240)))
            predictions += result.predictions
            reverted += result.reverted_instants
            choice_instants += sum(
                1 for sid in result.state_sequence if sid in wide
            )
    assert predictions > 0 and reverted > 0 and choice_instants > 1000


def test_fresh_machines_never_read_a_dead_machines_walk():
    """Walks and labellings memoised on a trace belong to the machine and
    labeler that made them, even once those are collected and a new one
    is allocated at the same address (refine rescores one held-out trace
    with a fresh simulator per candidate model)."""
    shared = labeler()
    trace = random_trace(random.Random(5), 200)
    models = [[random_psm(random.Random(2000 + k), "m")] for k in range(6)]
    for k in range(36):
        simulator = MultiPsmSimulator(models[k % 6], shared)
        assert_same_result(
            simulator.run(trace, engine="compiled"),
            simulator.run(trace, engine="object"),
        )
        del simulator
        gc.collect()  # frees the machine: its address is reused next
    for k in range(12):
        own = labeler()
        simulator = MultiPsmSimulator(models[k % 6], own)
        assert_same_result(
            simulator.run(trace, engine="compiled"),
            simulator.run(trace, engine="object"),
        )
        del simulator, own
        gc.collect()
