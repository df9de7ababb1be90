"""Compiled estimation path: dense-array PSM kernels (DESIGN.md §3.5).

The object simulators in :mod:`repro.core.simulation` interpret the PSM
graph per instant: every simulated cycle crosses several Python objects
(``StateTracker`` dispatch, HMM belief propagation, successor scans).
This module lowers a PSM bundle *once* into integer tables and runs the
estimation as a segment-level table walk plus a handful of vectorised
gathers:

* the proposition alphabet becomes a dense integer code space
  (``0..P-1`` for the mined universe, ``P`` for *unknown*);
* the complete simulator state — current state id, tracker progress,
  revert shadows, banned paths — is interned into *configurations*; the
  machine is the deterministic automaton over ``(config, code)``;
* tracker progress is lowered to integers: each state's assertion
  becomes a part automaton (per alternative a cascade of ``(is_until,
  left code, right code)`` parts, per entry code the ``(alternative,
  part)`` pairs it enters), so a tracker is a tuple of integer pairs;
* per-configuration transition rows are resolved lazily, exactly once
  per distinct ``(config, code)`` pair, by stepping those automata
  through the oracle's control flow (the HMM argmax, the successor
  ordering and the resynchronisation scoring are the oracle's own,
  baked in at resolution time); the automata's stepping shares no code
  with the object simulators' ``StateTracker``, which checks it bit for
  bit (both read the assertion's entry index, itself checked against a
  brute-force scan);
* resolved rows compose whole run-length segments: when the first
  instant of a segment lands in a configuration that self-loops on the
  segment's code with no side effects, the remaining ``k - 1`` instants
  cost nothing — the hot loop is one list gather per segment;
* per-instant outputs (power state, desync flag, state id) depend only
  on the *end* configuration of an instant, so emission is a single
  ``np.repeat`` over per-run gathers of the per-configuration output
  arrays.

Rare event-bearing steps (wrong predictions, reverts) and
non-convergent segments fall back to memoised per-instant stepping, so
every counter and re-attribution matches the oracle exactly.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..traces.power import PowerTrace
from .mining import _DENSE_MAX_BITS, PropositionLabeler
from .propositions import run_length_encode
from .psm import PSM, ConstantPower, PowerState
from .simulation import (
    EXIT,
    STAY,
    VIOLATION,
    EstimationResult,
    MultiPsmSimulator,
    SinglePsmSimulator,
    _needs_distances,
)
from .temporal import NextAssertion, UntilAssertion, entry_index

#: Segment-table sentinels: not yet resolved / needs per-instant stepping.
_UNRESOLVED = -1
_SLOW = -2

#: The no-event step outcome (entered, predictions, wrong, reverts, rev sid).
_EV0 = (0, 0, 0, 0, -1)

#: Start-configuration sentinel of the single-PSM machine (its first
#: instant *enters* the initial state instead of advancing a tracker).
_START = ("start",)


class _PartAutomaton:
    """Integer form of one state's assertion, built at first use.

    ``parts[a]`` is alternative ``a``'s cascade of ``(is_until, left
    code, right code)`` triples (code ``-1`` for a proposition outside
    the labeler's universe, which no instant can carry).  ``starts`` and
    ``boundaries`` map an entry code to the tracker key it enters — the
    ``(alternative, part)`` pairs of the assertion's
    :class:`~repro.core.temporal.EntryIndex`, for entry and for
    resynchronising into a cascade respectively.
    """

    __slots__ = ("parts", "starts", "boundaries")

    def __init__(self, state: PowerState, code_index: Dict) -> None:
        index = entry_index(state.assertion)
        parts = []
        for cascade in index.parts:
            lowered = []
            for part in cascade:
                if not isinstance(part, (UntilAssertion, NextAssertion)):
                    raise TypeError(
                        f"unexpected part type {type(part).__name__}"
                    )
                lowered.append(
                    (
                        isinstance(part, UntilAssertion),
                        code_index.get(part.left, -1),
                        code_index.get(part.right, -1),
                    )
                )
            parts.append(tuple(lowered))
        self.parts: Tuple[tuple, ...] = tuple(parts)
        self.starts = _by_code(index.starts, code_index)
        self.boundaries = _by_code(index.boundaries, code_index)

    def advance(self, key: tuple, code: int) -> Tuple[str, tuple]:
        """One instant of a tracker key: ``(verdict, next key)``.

        The integer image of ``StateTracker.advance``: until bodies stay,
        exit propositions cascade to the next part or exit, anything else
        drops the alternative; the survivors keep their order.
        """
        stays = []
        exited = False
        parts = self.parts
        for alt, index in key:
            is_until, left, right = parts[alt][index]
            if is_until and code == left:
                stays.append((alt, index))
            elif code == right:
                if index + 1 < len(parts[alt]):
                    stays.append((alt, index + 1))
                else:
                    exited = True
        if stays:
            return STAY, tuple(stays)
        return (EXIT if exited else VIOLATION), ()


def _by_code(index: Dict, code_index: Dict) -> Dict[int, tuple]:
    """Re-key a proposition-keyed entry index by proposition code."""
    return {
        code_index[prop]: pairs
        for prop, pairs in index.items()
        if prop in code_index
    }


class LazyStateSequence:
    """Run-length view of ``state_sequence``, materialised on demand.

    Building the per-instant Python list eagerly costs more than the
    whole compiled simulation of a long trace; most consumers
    (``to_json``, the serving layer) never read it.  Compares equal to
    the eager list the object simulators produce.
    """

    __slots__ = ("_sids", "_lengths", "_list")

    def __init__(self, sids: np.ndarray, lengths: np.ndarray) -> None:
        self._sids = sids
        self._lengths = lengths
        self._list: Optional[list] = None

    def _materialize(self) -> list:
        if self._list is None:
            table = np.empty(len(self._sids) + 1, dtype=object)
            table[: len(self._sids)] = [
                sid if sid >= 0 else None for sid in self._sids.tolist()
            ]
            self._list = table.take(
                np.repeat(np.arange(len(self._sids)), self._lengths)
            ).tolist()
        return self._list

    def __len__(self) -> int:
        if self._list is not None:
            return len(self._list)
        return int(self._lengths.sum())

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyStateSequence):
            return self._materialize() == other._materialize()
        if isinstance(other, (list, tuple)):
            return self._materialize() == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LazyStateSequence(instants={len(self)})"


class _CompiledMachine:
    """Shared lazy-DFA machinery of the compiled simulators.

    Subclasses provide ``_start_cfg`` (the initial configuration tuple),
    ``_step`` (the oracle-mirrored one-instant transition) and
    ``_outputs`` (per-configuration power row / state id / desync flag).
    """

    def __init__(
        self,
        labeler: PropositionLabeler,
        states: Sequence[PowerState],
        needs_distances: bool,
    ) -> None:
        self._labeler = labeler
        props = labeler.propositions
        self._prop_by_code: list = props + [None]
        self._nsym = len(props) + 1
        self._code_index = {prop: k for k, prop in enumerate(props)}
        # Power lowering: one row per state plus a trailing null row
        # (the "no state" output of fully desynchronised instants).
        rows: Dict[int, int] = {}
        base: List[float] = []
        slope: List[float] = []
        isreg: List[bool] = []
        for k, state in enumerate(states):
            rows[state.sid] = k
            model = state.power_model
            if isinstance(model, ConstantPower):
                base.append(float(model.value))
                slope.append(0.0)
                isreg.append(False)
            else:
                base.append(float(model.intercept))
                slope.append(float(model.slope))
                isreg.append(True)
        base.append(0.0)
        slope.append(0.0)
        isreg.append(False)
        self._row_of = rows
        self._null_row = len(states)
        self._base = np.asarray(base)
        self._slope = np.asarray(slope)
        self._isreg = np.asarray(isreg, dtype=bool)
        # The fused ``base + slope * hd`` emission turns a -0.0 constant
        # into +0.0; fall back on the masked path when one exists.
        self._fused_ok = not bool(np.signbit(self._base).any())
        self._needs = needs_distances
        # Key of the walks memoised on traces (see
        # ``PropositionLabeler.cache_token``: ``id(self)`` can be reused).
        self._cache_token = object()
        # Integer tracker automata, per state id.
        self._automata: Dict[int, _PartAutomaton] = {}
        # Configuration tables.
        self._cfg_ids: Dict[tuple, int] = {}
        self._cfg_list: List[tuple] = []
        self._seg: List[List[int]] = []
        self._inext: List[List[Optional[tuple]]] = []
        self._out_prow: List[int] = []
        self._out_seq: List[int] = []
        self._out_desync: List[bool] = []
        self._out_dirty = True
        self._np_prow = self._np_seq = self._np_desync = None
        self._start = self._intern(self._start_cfg())

    # -- subclass hooks -------------------------------------------------
    def _start_cfg(self) -> tuple:
        raise NotImplementedError

    def _step(self, cfg: tuple, code: int) -> Tuple[tuple, tuple]:
        raise NotImplementedError

    def _outputs(self, cfg: tuple) -> Tuple[int, int, bool]:
        raise NotImplementedError

    # -- tracker automata -----------------------------------------------
    def _automaton(self, state: PowerState) -> _PartAutomaton:
        automaton = self._automata.get(state.sid)
        if automaton is None:
            automaton = _PartAutomaton(state, self._code_index)
            self._automata[state.sid] = automaton
        return automaton

    # -- configuration interning ----------------------------------------
    def _intern(self, cfg: tuple) -> int:
        cid = self._cfg_ids.get(cfg)
        if cid is None:
            cid = len(self._cfg_list)
            self._cfg_ids[cfg] = cid
            self._cfg_list.append(cfg)
            self._seg.append([_UNRESOLVED] * self._nsym)
            self._inext.append([None] * self._nsym)
            prow, seq, desync = self._outputs(cfg)
            self._out_prow.append(prow)
            self._out_seq.append(seq)
            self._out_desync.append(desync)
            self._out_dirty = True
        return cid

    def _instant(self, cfg: int, code: int) -> tuple:
        """Memoised one-instant step: ``(next config id, events)``."""
        row = self._inext[cfg]
        hit = row[code]
        if hit is None:
            ncfg, ev = self._step(self._cfg_list[cfg], code)
            hit = (self._intern(ncfg), ev)
            row[code] = hit
        return hit

    def _resolve_seg(self, cfg: int, code: int) -> int:
        """Compose a whole-segment entry of the fast table.

        A segment is *fast* when its first instant carries at most
        entry/prediction events and lands in a configuration that
        self-loops on the same code with no events at all; the packed
        value is ``(end config << 2) | event bits``.  Everything else is
        marked ``_SLOW`` and stepped per instant.
        """
        c1, ev1 = self._instant(cfg, code)
        value = _SLOW
        if not (ev1[2] or ev1[3]):  # no wrong prediction, no revert
            c2, ev2 = self._instant(c1, code)
            if c2 == c1 and ev2 is _EV0:
                value = (c1 << 2) | (ev1[0] | (ev1[1] << 1))
        self._seg[cfg][code] = value
        return value

    def _sync_out(self) -> None:
        if self._out_dirty:
            self._np_prow = np.asarray(self._out_prow, dtype=np.intp)
            self._np_seq = np.asarray(self._out_seq, dtype=np.int64)
            self._np_desync = np.asarray(self._out_desync, dtype=bool)
            self._out_dirty = False

    # -- trace coding ----------------------------------------------------
    def _coded(self, trace):
        """Integer-coded segment view of ``trace`` (memoised on it)."""
        cache_key = ("compiled_segments", self._labeler.cache_token)
        cache_get = getattr(trace, "cache_get", None)
        if cache_get is not None:
            cached = cache_get(cache_key)
            if cached is not None:
                return cached
        indices, lut = self._labeler.label_indices(trace)
        _starts, lengths, seg_vals = run_length_encode(indices)
        unknown_code = self._nsym - 1
        remap = [
            self._code_index.get(prop, unknown_code) for prop in lut
        ]
        codes = [remap[v] for v in seg_vals.tolist()]
        lens = lengths.tolist()
        unknown = 0
        for code, length in zip(codes, lens):
            if code == unknown_code:
                unknown += length
        data = (len(indices), codes, lens, lengths, unknown)
        cache_set = getattr(trace, "cache_set", None)
        if cache_set is not None:
            cache_set(cache_key, data)
        return data

    # -- the kernel ------------------------------------------------------
    def run(self, trace) -> EstimationResult:
        """Estimate ``trace``; bit-identical to the object oracle."""
        n, codes, lens, lens_np, unknown = self._coded(trace)
        if n == 0:
            return EstimationResult(
                estimated=PowerTrace(
                    np.zeros(0), name=f"{trace.name}.psm"
                ),
                reliable=np.ones(0, dtype=bool),
                state_sequence=[],
            )
        # The walk is a pure function of the coded segments, so it is
        # interned on the (immutable-while-cached) trace just like the
        # labelling: repeat estimation is emission-only.
        walk_key = ("compiled_walk", self._cache_token)
        cache_get = getattr(trace, "cache_get", None)
        walk = cache_get(walk_key) if cache_get is not None else None
        if walk is None:
            walk = self._walk(codes, lens, lens_np)
            cache_set = getattr(trace, "cache_set", None)
            if cache_set is not None:
                cache_set(walk_key, walk)
        runs, run_lens, predictions, wrong, reverted, patches = walk
        return self._materialize(
            trace,
            runs,
            run_lens,
            predictions,
            wrong,
            reverted,
            patches,
            unknown,
        )

    def _walk(self, codes, lens, lens_np):
        """Table walk over the coded segments: per-run end configs plus
        the event totals (predictions/wrong/reverted/patches)."""
        seg = self._seg
        cfg = self._start
        run_cfgs: List[int] = []
        append = run_cfgs.append
        predictions = 0
        entry_t = 0
        t = 0
        tail = None
        i = 0
        for code, length in zip(codes, lens):
            v = seg[cfg][code]
            if v < 0:
                if v == _UNRESOLVED:
                    v = self._resolve_seg(cfg, code)
                if v == _SLOW:
                    tail = self._run_general(
                        codes, lens, i, cfg, t, entry_t, run_cfgs
                    )
                    break
            b = v & 3
            if b:
                if b & 1:
                    entry_t = t
                if b & 2:
                    predictions += 1
            cfg = v >> 2
            append(cfg)
            t += length
            i += 1
        if tail is None:
            run_lens = lens_np
            wrong = reverted = 0
            patches: Sequence[tuple] = ()
        else:
            run_lens_list, extra_pred, wrong, reverted, patches = tail
            predictions += extra_pred
            run_lens = np.asarray(run_lens_list, dtype=np.int64)
        return (
            np.asarray(run_cfgs, dtype=np.intp),
            run_lens,
            predictions,
            wrong,
            reverted,
            patches,
        )

    def _run_general(self, codes, lens, i, cfg, t, entry_t, run_cfgs):
        """Finish a trace that hit an event-bearing / slow segment.

        Same walk as the fast loop plus full event bookkeeping; run
        lengths are tracked explicitly from here on (slow segments split
        into per-instant runs).
        """
        run_lens = lens[:i]
        predictions = wrong = reverted = 0
        patches: List[Tuple[int, int, int]] = []
        seg = self._seg
        n_segs = len(codes)
        while i < n_segs:
            code = codes[i]
            v = seg[cfg][code]
            if v == _UNRESOLVED:
                v = self._resolve_seg(cfg, code)
            if v >= 0:
                b = v & 3
                if b:
                    if b & 1:
                        entry_t = t
                    if b & 2:
                        predictions += 1
                cfg = v >> 2
                run_cfgs.append(cfg)
                run_lens.append(lens[i])
                t += lens[i]
                i += 1
                continue
            stop = t + lens[i]
            while t < stop:
                cfg, ev = self._instant(cfg, code)
                if ev is not _EV0:
                    entered, pred, wr, nrev, rev_sid = ev
                    if nrev:
                        # Revert accounting uses the entry instant of the
                        # *wrong* prediction, before any entry this instant.
                        reverted += nrev * (t - entry_t)
                        patches.append((entry_t, t, rev_sid))
                    if entered:
                        entry_t = t
                    predictions += pred
                    wrong += wr
                run_cfgs.append(cfg)
                run_lens.append(1)
                t += 1
            i += 1
        return run_lens, predictions, wrong, reverted, patches

    def _materialize(
        self,
        trace,
        runs,
        run_lens,
        predictions,
        wrong,
        reverted,
        patches,
        unknown,
    ) -> EstimationResult:
        """Vectorised emission from the per-run end configurations."""
        self._sync_out()
        prow = self._np_prow[runs]
        drun = self._np_desync[runs]
        base = self._base[prow]
        distances = None
        if self._needs:
            distances = trace.hamming_distances()
            slope = self._slope[prow]
            if self._fused_ok:
                est = np.repeat(base, run_lens)
                if slope.any():
                    est = est + np.repeat(slope, run_lens) * distances
            else:
                est = np.repeat(base, run_lens)
                isreg = self._isreg[prow]
                if isreg.any():
                    mask = np.repeat(isreg, run_lens)
                    fused = est + np.repeat(slope, run_lens) * distances
                    est = np.where(mask, fused, est)
        else:
            est = np.repeat(base, run_lens)
        if patches:
            if not est.flags.writeable:  # pragma: no cover - paranoia
                est = est.copy()
            for start, stop, sid in patches:
                r = self._row_of[sid]
                if self._isreg[r]:
                    est[start:stop] = (
                        self._base[r]
                        + self._slope[r] * distances[start:stop]
                    )
                else:
                    est[start:stop] = self._base[r]
        reliable = np.repeat(~drun, run_lens)
        desync = int(run_lens[drun].sum())
        return EstimationResult(
            estimated=PowerTrace(
                np.clip(est, 0.0, None), name=f"{trace.name}.psm"
            ),
            reliable=reliable,
            predictions=predictions,
            wrong_predictions=wrong,
            desync_instants=desync,
            unknown_instants=unknown,
            reverted_instants=reverted,
            state_sequence=LazyStateSequence(
                self._np_seq[runs], run_lens
            ),
        )

    def table_stats(self) -> Dict[str, int]:
        """Size of the lazily-built tables (serving observability)."""
        resolved = sum(
            1 for row in self._seg for v in row if v != _UNRESOLVED
        )
        return {
            "configs": len(self._cfg_list),
            "symbols": self._nsym,
            "resolved_edges": resolved,
        }


class CompiledSingle(_CompiledMachine):
    """Compiled form of :class:`SinglePsmSimulator` (chain PSM)."""

    def __init__(self, oracle: SinglePsmSimulator) -> None:
        self.oracle = oracle
        super().__init__(
            oracle.labeler,
            oracle.psm.states,
            _needs_distances(oracle.psm.states),
        )

    def _start_cfg(self) -> tuple:
        return _START

    def _outputs(self, cfg: tuple) -> Tuple[int, int, bool]:
        if cfg == _START:
            return self._null_row, -1, True
        sid, _tkey, synced = cfg
        return (
            self._row_of[sid],
            sid if synced else -1,
            not synced,
        )

    def _step(self, cfg: tuple, code: int) -> Tuple[tuple, tuple]:
        psm = self.oracle.psm
        if cfg == _START:
            # First instant: enter the initial state (Sec. III-C).
            current = psm.initial_states[0]
            key = self._automaton(current).starts.get(code, ())
        else:
            sid, key, synced = cfg
            current = psm.state(sid)
            if synced:
                verdict, key = self._automaton(current).advance(key, code)
                if verdict == EXIT:
                    prop = self._prop_by_code[code]
                    for transition in psm.successors(sid):
                        if transition.enabling != prop:
                            continue
                        nxt = psm.state(transition.dst)
                        key = self._automaton(nxt).starts.get(code, ())
                        if key:
                            current = nxt
                            break
            else:
                # Try to regain the current state's expected behaviour.
                key = self._automaton(current).starts.get(code, ())
        return (current.sid, key, bool(key)), _EV0


class CompiledMulti(_CompiledMachine):
    """Compiled form of :class:`MultiPsmSimulator` (HMM-driven set).

    Configurations carry the full revert context: the untried choice
    candidates live on as *shadow trackers* advanced in lockstep with
    the predicted state, so a wrong prediction recovers by promoting the
    HMM-best surviving shadow — exactly the state the oracle's replay
    would pick, without replaying.
    """

    def __init__(self, oracle: MultiPsmSimulator) -> None:
        self.oracle = oracle
        super().__init__(
            oracle.labeler,
            oracle._all_states,
            _needs_distances(oracle._all_states),
        )

    def _start_cfg(self) -> tuple:
        # (current sid, tracker key, last-valid sid, entry predecessor,
        #  entry-was-choice, shadow trackers, banned paths)
        return (None, (), None, None, False, (), frozenset())

    def _outputs(self, cfg: tuple) -> Tuple[int, int, bool]:
        cur_sid, _tkey, lv_sid = cfg[0], cfg[1], cfg[2]
        if cur_sid is not None:
            return self._row_of[cur_sid], cur_sid, False
        if lv_sid is not None:
            return self._row_of[lv_sid], -1, True
        return self._null_row, -1, True

    def _step(self, cfg: tuple, code: int) -> Tuple[tuple, tuple]:
        oracle = self.oracle
        hmm = oracle.hmm
        prop = self._prop_by_code[code]
        cur_sid, key, lv_sid, eprev, echoice, shadows, banned = cfg
        banned_set = set(banned)
        shadow_list = list(shadows)
        entered = False
        predictions = wrong = nrev = 0
        rev_sid = -1
        guard = 0
        limit = len(oracle._all_states) + 2
        while cur_sid is not None:
            guard += 1
            if guard > limit:
                cur_sid = None
                break
            verdict, next_key = self._automaton(hmm.state(cur_sid)).advance(
                key, code
            )
            if verdict == STAY:
                key = next_key
                break
            if verdict == EXIT:
                candidates = oracle._successor_candidates(
                    cur_sid, prop, banned_set
                )
                if candidates:
                    belief = hmm.belief_for_state(cur_sid)
                    best = hmm.best_candidate(belief, candidates)
                    eprev = cur_sid
                    cur_sid = lv_sid = best
                    key = self._entry_key(best, code)
                    echoice = len(candidates) > 1
                    if echoice:
                        predictions = 1
                    entered = True
                    shadow_list = []
                    for sid in candidates:
                        if sid == best:
                            continue
                        shadow_key = self._entry_key(sid, code)
                        if shadow_key:
                            shadow_list.append((sid, shadow_key))
                else:
                    cur_sid = None
                break
            # VIOLATION: wrong prediction (counted once per choice), then
            # revert to the best surviving shadow of the choice point.
            if echoice:
                wrong = 1
                echoice = False
            if eprev is not None:
                banned_set.add((eprev, cur_sid))
            if shadow_list:
                sids = [sid for sid, _ in shadow_list]
                belief = (
                    hmm.belief_for_state(eprev)
                    if eprev is not None
                    else hmm.initial_belief()
                )
                best = hmm.best_candidate(belief, sids)
                cur_sid, key = shadow_list.pop(sids.index(best))
                lv_sid = rev_sid = cur_sid
                nrev += 1
                # Loop again: re-advance the corrected state on prop.
            else:
                cur_sid = None
                break
        if cur_sid is None:
            last_valid = hmm.state(lv_sid) if lv_sid is not None else None
            resynced = oracle._resync(prop, last_valid)
            if resynced is not None:
                cur_sid, anywhere = resynced
                automaton = self._automaton(hmm.state(cur_sid))
                entries = (
                    automaton.boundaries if anywhere else automaton.starts
                )
                key = entries.get(code, ())
                lv_sid = cur_sid
                eprev = None
                echoice = False
                entered = True
                shadow_list = []
        if cur_sid is None:
            ncfg = (None, (), lv_sid, None, False, (), frozenset(banned_set))
        else:
            if not entered:
                # Lockstep shadow advance: dead shadows can never win a
                # future revert (their replay would fail), so drop them.
                alive = []
                for sid, shadow_key in shadow_list:
                    verdict, shadow_key = self._automaton(
                        hmm.state(sid)
                    ).advance(shadow_key, code)
                    if verdict == STAY:
                        alive.append((sid, shadow_key))
                shadow_list = alive
            ncfg = (
                cur_sid,
                key,
                cur_sid,
                eprev,
                echoice,
                tuple(shadow_list),
                frozenset(banned_set),
            )
        if entered or predictions or wrong or nrev:
            ev = (1 if entered else 0, predictions, wrong, nrev, rev_sid)
        else:
            ev = _EV0
        return ncfg, ev

    def _entry_key(self, sid: int, code: int) -> tuple:
        """Tracker key of state ``sid`` entered on ``code``."""
        return self._automaton(self.oracle.hmm.state(sid)).starts.get(code, ())


class CompiledBundle:
    """One-shot dense lowering of a PSM bundle plus its batch kernel.

    Holds the inspectable array form of the model — proposition code
    table, per-PSM transition/entry matrices, per-state power vectors,
    the HMM ``A``/``B``/``pi`` — and a :class:`CompiledMulti` machine
    whose lazily-resolved tables are shared across every trace and
    batch run through it (that sharing is where the batch speedup over
    per-trace object dispatch comes from).
    """

    def __init__(
        self,
        psms: Sequence[PSM],
        labeler: PropositionLabeler,
        hmm=None,
        oracle: Optional[MultiPsmSimulator] = None,
    ) -> None:
        start = perf_counter()
        self.psms = list(psms)
        self.labeler = labeler
        self.oracle = oracle or MultiPsmSimulator(self.psms, labeler, hmm)
        self.hmm = self.oracle.hmm
        self.machine: CompiledMulti = self.oracle._compiled()
        props = labeler.propositions
        self.propositions = props
        self.nsym = len(props) + 1
        code_of = {prop: k for k, prop in enumerate(props)}
        states = self.oracle._all_states
        self.state_sids = np.asarray(
            [state.sid for state in states], dtype=np.int32
        )
        self.mu = np.asarray([state.mu for state in states])
        self.sigma = np.asarray([state.sigma for state in states])
        self.A = self.hmm.A
        self.B = self.hmm.B
        self.pi = self.hmm.pi
        row_of = {state.sid: k for k, state in enumerate(states)}
        # Per-PSM transition matrices: first matching successor row per
        # (state row, proposition code), -1 where no transition fires.
        self.transition_matrices: List[np.ndarray] = []
        for psm in self.psms:
            matrix = np.full((len(states), self.nsym), -1, dtype=np.int32)
            for state in psm.states:
                row = row_of[state.sid]
                for transition in psm.successors(state.sid):
                    code = code_of.get(transition.enabling)
                    if code is None or matrix[row, code] >= 0:
                        continue
                    matrix[row, code] = row_of.get(transition.dst, -1)
            self.transition_matrices.append(matrix)
        # Entry matrix: can state (row) be entered on proposition (code)?
        entry = np.zeros((len(states), self.nsym), dtype=np.int8)
        for k, state in enumerate(states):
            starts = entry_index(state.assertion).starts
            entry[k, [code_of[p] for p in starts if p in code_of]] = 1
        self.entry_matrix = entry
        # Proposition code table (dense labelling alphabets only): packed
        # atom valuation -> universe position.
        if 0 < len(labeler.atoms) <= _DENSE_MAX_BITS:
            self.code_table = labeler._dense_tables()[0]
        else:
            self.code_table = None
        self.compile_wall_s = perf_counter() - start

    @classmethod
    def from_simulator(cls, simulator: MultiPsmSimulator) -> "CompiledBundle":
        """Lower an existing simulator (shares its caches and machine)."""
        return cls(
            simulator.psms,
            simulator.labeler,
            hmm=simulator.hmm,
            oracle=simulator,
        )

    def estimate(self, trace) -> EstimationResult:
        """Compiled estimate of one trace (bit-exact vs the oracle)."""
        return self.machine.run(trace)

    def run_batch(self, traces: Sequence) -> List[EstimationResult]:
        """Run a coalesced batch through the shared compiled tables.

        Traces are integer-coded up front, then swept through the one
        machine; every table edge resolved for one lane is reused by
        all the others (and by every later batch).
        """
        for trace in traces:
            self.machine._coded(trace)
        return [self.machine.run(trace) for trace in traces]

    def stats(self) -> Dict[str, object]:
        """Compile/lowering figures for ``/v1/models`` and the CLI."""
        info: Dict[str, object] = {
            "states": int(len(self.state_sids)),
            "symbols": int(self.nsym),
            "compile_wall_s": float(self.compile_wall_s),
        }
        info.update(self.machine.table_stats())
        return info
