"""The PSMGenerator procedure (paper Fig. 4).

Turns one proposition trace and its reference power trace into a chain
PSM: every pattern recognised by the XU automaton becomes a power state
annotated with its power attributes; consecutive states are connected by a
transition whose enabling function is the proposition that terminated the
previous pattern (the exit proposition, i.e. the FIFO's ``f[1]`` at
recognition time).

Two engines produce the same chain.  ``engine="rle"`` (the default)
derives the patterns from the run-length-encoded proposition trace and
computes all per-interval power attributes in one vectorized pass
(:func:`~repro.core.attributes.segment_attributes`); ``engine="scan"``
replays the per-instant automaton and per-interval ``numpy`` reductions.
The scan path is retained as the equivalence oracle — the test suite
proves both engines emit bit-identical PSMs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..traces.power import PowerTrace
from .attributes import Interval, PowerAttributes, segment_attributes
from .propositions import PropositionTrace
from .psm import PSM, PowerState, Transition
from .temporal import NextAssertion, UntilAssertion
from .xu import XUAutomaton


def _generate_psm_scan(
    proposition_trace: PropositionTrace,
    power_trace: PowerTrace,
    psm: PSM,
) -> PSM:
    """Per-instant oracle: two-slot automaton + per-interval reductions."""
    trace_id = proposition_trace.trace_id
    automaton = XUAutomaton(proposition_trace)
    previous: Optional[PowerState] = None
    while True:
        mined = automaton.get_assertion()
        if mined is None:
            break
        attributes = PowerAttributes.from_power_trace(
            power_trace, mined.start, mined.stop
        )
        state = PowerState(
            assertion=mined.assertion,
            attributes=attributes,
            intervals=[Interval(trace_id, mined.start, mined.stop)],
        )
        psm.add_state(state, initial=previous is None)
        if previous is not None:
            psm.add_transition(
                Transition(
                    previous.sid,
                    state.sid,
                    previous.assertion.exit_proposition(),
                )
            )
        previous = state
    return psm


def _generate_psm_rle(
    proposition_trace: PropositionTrace,
    power_trace: PowerTrace,
    name: str,
) -> PSM:
    """RLE fast path: boundary arithmetic + vectorized attributes.

    The mined patterns are runs ``0 .. K-2`` of the RLE view (see
    :func:`~repro.core.xu.mine_patterns_rle`); their power attributes
    come from one vectorized :func:`segment_attributes` pass, and
    :meth:`PSM.chain` guards each transition with the previous pattern's
    exit proposition — the next run's own proposition, which the scan
    oracle reads off the automaton FIFO.
    """
    trace_id = proposition_trace.trace_id
    starts, lengths, codes = proposition_trace.rle()
    count = len(starts) - 1
    if count < 1:
        return PSM(name)
    alphabet = proposition_trace.alphabet
    mu, sigma = segment_attributes(
        power_trace.values, starts[:count], lengths[:count]
    )
    mu_list = mu.tolist()
    sigma_list = sigma.tolist()
    start_list = starts.tolist()
    length_list = lengths.tolist()
    code_list = codes.tolist()
    cache: dict = {}
    states: List[PowerState] = []
    for k in range(count):
        body, follower = code_list[k], code_list[k + 1]
        length = length_list[k]
        is_next = length == 1
        key = (body, follower, is_next)
        assertion = cache.get(key)
        if assertion is None:
            factory = NextAssertion if is_next else UntilAssertion
            assertion = cache[key] = factory(
                alphabet[body], alphabet[follower]
            )
        start = start_list[k]
        states.append(
            PowerState(
                assertion=assertion,
                attributes=PowerAttributes(
                    mu=mu_list[k], sigma=sigma_list[k], n=length
                ),
                intervals=[Interval(trace_id, start, start + length - 1)],
            )
        )
    return PSM.chain(states, name)


def generate_psm(
    proposition_trace: PropositionTrace,
    power_trace: PowerTrace,
    name: Optional[str] = None,
    engine: str = "rle",
) -> PSM:
    """Run PSMGenerator over one (proposition, power) trace pair.

    The first extracted state is marked initial (it is the state active at
    instant 0 of the training trace).  The result is always a chain: each
    state has a unique successor and a unique predecessor (paper
    Sec. III-C).  ``engine`` selects the RLE fast path (default) or the
    retained per-instant scan oracle; both emit bit-identical PSMs.
    """
    if len(proposition_trace) > len(power_trace):
        raise ValueError(
            "power trace is shorter than the proposition trace "
            f"({len(power_trace)} < {len(proposition_trace)})"
        )
    name = name or f"psm_t{proposition_trace.trace_id}"
    if engine == "rle":
        return _generate_psm_rle(proposition_trace, power_trace, name)
    if engine == "scan":
        return _generate_psm_scan(proposition_trace, power_trace, PSM(name))
    raise ValueError(f"unknown engine {engine!r}; use 'rle' or 'scan'")


def generate_psms(
    proposition_traces: Sequence[PropositionTrace],
    power_traces: Sequence[PowerTrace],
    engine: str = "rle",
) -> List[PSM]:
    """Generate one chain PSM per training trace pair.

    ``proposition_traces[k]`` must carry ``trace_id == k`` so that merged
    states can later recompute their attributes from ``power_traces[k]``.
    """
    if len(proposition_traces) != len(power_traces):
        raise ValueError("need one power trace per proposition trace")
    psms: List[PSM] = []
    for k, (gamma, delta) in enumerate(
        zip(proposition_traces, power_traces)
    ):
        if gamma.trace_id != k:
            raise ValueError(
                f"proposition trace at index {k} has trace_id "
                f"{gamma.trace_id}; expected {k}"
            )
        psms.append(generate_psm(gamma, delta, engine=engine))
    return psms
