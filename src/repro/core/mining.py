"""Dynamic mining of propositions from functional traces (paper Sec. III-A).

Implements the two-phase miner the paper adopts from its reference [9]
(Danese et al., DATE 2015):

1. **Atomic-proposition extraction** — candidate atomic propositions over
   the PIs and POs are generated (boolean value tests, variable/constant
   equalities, comparisons between same-width variables) and filtered to
   those that *hold frequently* on the trace, i.e. whose truth signal is
   stable over sub-traces rather than chattering with the data.  The
   output is the truth matrix ``m`` where ``m[i, j]`` is the truth of the
   ``j``-th atomic proposition at instant ``i``.

2. **Composition** — each row of ``m`` is AND-composed into one
   proposition (a minterm of the alphabet), so that at every instant one
   and only one proposition of the mined set ``Prop`` holds.  The
   proposition trace lists, per instant, the proposition that holds.

When several functional traces are mined together the alphabet and the
proposition universe are shared, which is what later allows ``join`` and
the HMM to recognise the *same* assertion across PSMs generated from
different traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..parallel import parallel_map
from ..traces.functional import FunctionalTrace
from .propositions import (
    AtomicProposition,
    Proposition,
    PropositionTrace,
    VarCompare,
    VarEqualsConst,
    run_length_encode,
)

#: Alphabetic labels used for the first mined propositions (p_a, p_b, ...).
_ALPHA = "abcdefghijklmnopqrstuvwxyz"

#: Widest atom alphabet labelled through the direct-addressed code table
#: (2^20 int32 slots = 4 MiB, built once per labeler).
_DENSE_MAX_BITS = 20


def proposition_label(index: int) -> str:
    """Label of the ``index``-th proposition: p_a..p_z, then p_aa, p_ab...

    Indices past the single-letter alphabet continue in bijective base-26
    (spreadsheet-column style), so every label is unambiguously alphabetic
    — a ``p_26`` would be indistinguishable from a hypothetical numeric
    alphabet.  Labels are stored verbatim on export, so round-trips are
    stable regardless of the scheme that generated them.
    """
    chars: List[str] = []
    n = index
    while True:
        chars.append(_ALPHA[n % 26])
        n = n // 26 - 1
        if n < 0:
            break
    return "p_" + "".join(reversed(chars))


def _row_codes(matrix: np.ndarray) -> np.ndarray:
    """One comparable scalar code per truth-matrix row.

    Alphabets up to 63 atoms pack each row into an ``int64`` bit mask
    (a single vectorised matmul); wider alphabets fall back on
    ``np.packbits`` plus a structured void-dtype view, which compares
    byte-wise.  Either way ``np.unique`` over the codes replaces the
    historical per-instant ``row.tobytes()`` dictionary probing.
    """
    n, k = matrix.shape
    if k == 0:
        return np.zeros(n, dtype=np.int64)
    if k <= 63:
        weights = np.int64(1) << np.arange(k, dtype=np.int64)
        return matrix.astype(np.int64) @ weights
    packed = np.ascontiguousarray(np.packbits(matrix, axis=1))
    return packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]


def _trace_truth_matrix(
    args: Tuple[Sequence[AtomicProposition], FunctionalTrace],
) -> np.ndarray:
    """Truth matrix of one trace (module-level so workers can pickle it)."""
    atoms, trace = args
    if not atoms:
        return np.zeros((len(trace), 0), dtype=bool)
    return np.column_stack([atom.evaluate_trace(trace) for atom in atoms])


@dataclass
class MinerConfig:
    """Tuning knobs of the assertion miner.

    Attributes
    ----------
    include_bool_atoms:
        Mine ``v=true`` atoms for 1-bit variables.
    include_comparisons:
        Mine ``v_i > v_j`` / ``v_i == v_j`` atoms for pairs of multi-bit
        variables of equal width.
    max_distinct_for_const:
        Mine ``v == c`` equalities for a multi-bit variable only when it
        takes at most this many distinct values over the training traces
        (keeps wide data buses from exploding the alphabet).
    max_const_width:
        Never mine ``v == c`` equalities for variables wider than this:
        a wide bus showing few distinct values in training (a cipher key,
        say) is a coverage artifact, and constants latched from it would
        make every unseen value an unknown behaviour.
    max_compare_width:
        Never mine ``v_i <op> v_j`` comparisons between variables wider
        than this; relations between wide data buses reflect the data,
        not the IP's functional mode.
    min_avg_run:
        Temporal-stability filter: an atom is kept only when the average
        run length of its truth signal is at least this value.  This is
        the operational reading of the paper's "propositions which hold
        frequently on sub-traces": control conditions are stable for many
        consecutive instants, while data-dependent comparisons chatter and
        are discarded.
    min_stable_run / max_chatter_fraction:
        Local-stability filter complementing ``min_avg_run``: an atom is
        dropped when more than ``max_chatter_fraction`` of the instants
        fall inside truth runs shorter than ``min_stable_run``.  A global
        average hides local chatter — a comparison that is stable during
        directed test phases but flips every cycle on random data has a
        decent average run length yet chatters over most of the trace.
        Single-cycle control pulses (``start``, ``clear``) survive because
        their short runs cover few instants.
    min_support:
        Minimum fraction of instants where an atom (or its negation) must
        hold; 0 disables the filter.
    """

    include_bool_atoms: bool = True
    include_comparisons: bool = True
    max_distinct_for_const: int = 16
    max_const_width: int = 16
    max_compare_width: int = 64
    min_avg_run: float = 2.0
    min_stable_run: int = 3
    max_chatter_fraction: float = 0.25
    min_support: float = 0.0
    extra_atoms: Sequence[AtomicProposition] = field(default_factory=tuple)


def candidate_atoms_from_values(
    variables: Sequence,
    config: MinerConfig,
    distinct_values: Mapping[str, Optional[Set[int]]],
) -> List[AtomicProposition]:
    """The candidate atom list for known per-variable distinct values.

    ``distinct_values`` maps each eligible multi-bit variable name to the
    distinct values it takes over the training data, or ``None`` once the
    count exceeded ``max_distinct_for_const`` (the caller may stop
    collecting at that point — only the *sorted* values of variables at
    or under the cap influence the result).  Shared by the batch miner
    and the streaming :class:`~repro.core.streaming.AtomDiscovery`
    operator so both construct the exact same alphabet in the exact same
    order: boolean atoms, then per-variable sorted equality constants,
    then same-width comparisons, then the configured extras.
    """
    atoms: List[AtomicProposition] = []
    bool_vars = [v for v in variables if v.width == 1]
    int_vars = [v for v in variables if v.width > 1]

    if config.include_bool_atoms:
        for var in bool_vars:
            atoms.append(VarEqualsConst(var.name, 1, is_bool=True))

    for var in int_vars:
        if var.width > config.max_const_width:
            continue
        values = distinct_values.get(var.name)
        if values is None or len(values) > config.max_distinct_for_const:
            continue
        for value in sorted(values):
            atoms.append(VarEqualsConst(var.name, int(value)))

    if config.include_comparisons:
        for i, left in enumerate(int_vars):
            for right in int_vars[i + 1 :]:
                if left.width != right.width:
                    continue
                if left.width > config.max_compare_width:
                    continue
                atoms.append(VarCompare(left.name, "==", right.name))
                atoms.append(VarCompare(left.name, ">", right.name))

    for atom in config.extra_atoms:
        if atom not in atoms:
            atoms.append(atom)
    return atoms


def atom_passes_filters(
    config: MinerConfig,
    holds: int,
    total: int,
    avg_run: float,
    chatter: float,
) -> bool:
    """The miner's keep/drop decision for one candidate atom.

    Centralises the support / average-run / chatter comparisons so the
    batch filter and the streaming per-window statistics apply bit-equal
    thresholds (the epsilon guards included).
    """
    if config.min_support > 0:
        frac = holds / total
        if min(frac, 1.0 - frac) + 1e-12 < config.min_support and (
            0 < holds < total
        ):
            return False
    if avg_run + 1e-9 < config.min_avg_run:
        return False
    if chatter > config.max_chatter_fraction:
        return False
    return True


class PropositionLabeler:
    """Replays the mined proposition universe on unseen functional traces.

    The simulator needs, per instant of a *new* trace, the proposition of
    the mined universe that holds (exactly one can, since propositions are
    minterms).  Instants whose atom valuation was never seen in training
    map to ``None`` — an unknown behaviour that triggers the PSM
    resynchronisation machinery.
    """

    def __init__(
        self,
        atoms: Sequence[AtomicProposition],
        universe: Dict[bytes, Proposition],
    ) -> None:
        self.atoms = list(atoms)
        self._universe = dict(universe)
        # Per-assignment labelling is the streaming monitor's hot path;
        # memoise on the values of the variables the atoms mention.
        names: List[str] = []
        for atom in self.atoms:
            for name in atom.variables():
                if name not in names:
                    names.append(name)
        self._atom_variables = tuple(names)
        # Dense code -> universe-position table (built lazily): alphabets
        # of up to _DENSE_MAX_BITS atoms fit a direct-addressed array.
        self._dense_map: Optional[np.ndarray] = None
        self._dense_lut: Optional[List[Optional[Proposition]]] = None
        self._assignment_cache: Dict[tuple, Optional[Proposition]] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._cache_enabled = True
        # Key of the derivations memoised on traces.  Unlike ``id(self)``
        # it cannot be reused while a trace's cache entry holds it, so a
        # later labeler allocated at this address never reads our entries.
        self.cache_token = object()

    @property
    def propositions(self) -> List[Proposition]:
        """All known propositions."""
        return list(self._universe.values())

    def label_indices(
        self, trace: FunctionalTrace
    ) -> Tuple[np.ndarray, List[Optional[Proposition]]]:
        """Index-coded labelling: ``(int32 indices, look-up table)``.

        ``lut[indices[t]]`` is the proposition holding at instant ``t``
        (``None`` for valuations never seen in training).  Small alphabets
        (up to ``_DENSE_MAX_BITS`` atoms) are resolved by one gather from
        a direct-addressed code table; wider ones fall back on a single
        ``np.unique`` over packed row codes, probing the universe once per
        *distinct* valuation instead of once per instant.

        The result is memoised on the trace itself (when it exposes the
        derived-data cache protocol), so repeated estimates of the same
        trace — every per-PSM simulation of a ``flow.estimate``, or the
        compiled engine re-running a benchmark window — label it once.
        """
        cache_get = getattr(trace, "cache_get", None)
        cache_key = ("label_indices", self.cache_token)
        if cache_get is not None:
            cached = cache_get(cache_key)
            if cached is not None:
                return cached
        matrix = _trace_truth_matrix((self.atoms, trace))
        codes = _row_codes(matrix)
        if 0 < len(self.atoms) <= _DENSE_MAX_BITS:
            dense, lut = self._dense_tables()
            result = dense.take(codes), lut
        else:
            _, first, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            lut = [
                self._universe.get(matrix[i].tobytes())
                for i in first.tolist()
            ]
            result = inverse.astype(np.int32), lut
        cache_set = getattr(trace, "cache_set", None)
        if cache_set is not None:
            cache_set(cache_key, result)
        return result

    def _dense_tables(
        self,
    ) -> Tuple[np.ndarray, List[Optional[Proposition]]]:
        """``(code table, look-up table)`` for the dense labelling path.

        The code table maps every possible packed atom valuation directly
        to its universe position; valuations never seen in training all
        share the trailing ``None`` slot (they are indistinguishable to
        the simulators, which only ever branch on the proposition value).
        """
        if self._dense_map is None:
            props = list(self._universe.values())
            dense = np.full(
                1 << len(self.atoms), len(props), dtype=np.int32
            )
            for position, key in enumerate(self._universe):
                code = 0
                for bit, byte in enumerate(key):
                    if byte:
                        code |= 1 << bit
                dense[code] = position
            self._dense_map = dense
            self._dense_lut = props + [None]
        return self._dense_map, self._dense_lut

    def label(self, trace: FunctionalTrace) -> List[Optional[Proposition]]:
        """Proposition (or None) holding at each instant of ``trace``."""
        indices, lut = self.label_indices(trace)
        table = np.empty(max(len(lut), 1), dtype=object)
        table[: len(lut)] = lut
        return table.take(indices).tolist()

    def label_segments(self, trace: FunctionalTrace) -> "LabeledRuns":
        """Run-length-encoded labelling of ``trace`` (simulator fast path).

        Memoised on the trace like :meth:`label_indices`; the returned
        :class:`LabeledRuns` is treated as immutable by every consumer.
        """
        cache_get = getattr(trace, "cache_get", None)
        cache_key = ("label_segments", self.cache_token)
        if cache_get is not None:
            cached = cache_get(cache_key)
            if cached is not None:
                return cached
        indices, lut = self.label_indices(trace)
        starts, lengths, seg_indices = run_length_encode(indices)
        seg_props = [lut[i] for i in seg_indices.tolist()]
        runs = LabeledRuns(
            n=len(indices),
            starts=starts,
            lengths=lengths,
            props=seg_props,
        )
        cache_set = getattr(trace, "cache_set", None)
        if cache_set is not None:
            cache_set(cache_key, runs)
        return runs

    def stats(self) -> Dict[str, object]:
        """Effectiveness counters of the per-assignment memo cache.

        ``hits``/``misses`` survive both the bounded-size eviction (which
        is counted in ``evictions``) and the self-disabling heuristic, so
        the figures describe the whole lifetime of the labeler.
        """
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "enabled": self._cache_enabled,
        }

    def label_assignment(self, assignment) -> Optional[Proposition]:
        """Proposition holding under a single variable assignment.

        This is the streaming monitor's hot path: one call per simulated
        clock cycle, so results are memoised on the relevant variable
        values (bounded: the cache is dropped if it grows past 64k rows,
        which only happens when atoms predicate over wide data buses).
        """
        if self._cache_enabled:
            cache_key = tuple(assignment[n] for n in self._atom_variables)
            cache = self._assignment_cache
            if cache_key in cache:
                self._cache_hits += 1
                return cache[cache_key]
            self._cache_misses += 1
        key = bytes(
            1 if atom.evaluate(assignment) else 0 for atom in self.atoms
        )
        prop = self._universe.get(key)
        if self._cache_enabled:
            if len(cache) > 65536:
                # Bounded memo: drop the rows, keep the hit/miss counters
                # so stats() reflects the labeler's whole lifetime.
                cache.clear()
                self._cache_evictions += 1
            cache[cache_key] = prop
            # Data-bearing atom variables make the key unique per cycle;
            # turn the memo off when it clearly is not paying for itself.
            if (
                self._cache_misses > 4096
                and self._cache_hits < self._cache_misses
            ):
                self._cache_enabled = False
                self._assignment_cache = {}
        return prop


@dataclass
class LabeledRuns:
    """Run-length-encoded proposition labelling of a functional trace.

    ``props[s]`` holds (or is ``None``) over the whole segment
    ``[starts[s], starts[s] + lengths[s])``; segments are maximal, so no
    segment spans a proposition change — the invariant the simulators'
    O(segments) fast paths rely on.
    """

    n: int
    starts: np.ndarray
    lengths: np.ndarray
    props: List[Optional[Proposition]]

    def __iter__(self):
        """Iterate ``(start, length, prop)`` per segment."""
        return zip(self.starts.tolist(), self.lengths.tolist(), self.props)

    @property
    def unknown_instants(self) -> int:
        """Instants whose valuation was never seen in training."""
        return int(
            sum(
                length
                for length, prop in zip(self.lengths.tolist(), self.props)
                if prop is None
            )
        )

    def instant_props(self) -> List[Optional[Proposition]]:
        """Per-instant proposition list (the object-API view)."""
        table = np.empty(max(len(self.props), 1), dtype=object)
        table[: len(self.props)] = self.props
        return table.take(
            np.repeat(np.arange(len(self.props)), self.lengths)
        ).tolist()

    def run_ends(self) -> np.ndarray:
        """Per-instant exclusive end of the segment containing ``t``."""
        return np.repeat(self.starts + self.lengths, self.lengths)


@dataclass
class MiningResult:
    """Output of the miner over one or more functional traces."""

    atoms: List[AtomicProposition]
    propositions: List[Proposition]
    traces: List[PropositionTrace]
    matrices: List[np.ndarray]
    labeler: Optional[PropositionLabeler] = None

    @property
    def proposition_trace(self) -> PropositionTrace:
        """The single proposition trace (only when one trace was mined)."""
        if len(self.traces) != 1:
            raise ValueError("multiple traces were mined; use .traces")
        return self.traces[0]

    @property
    def matrix(self) -> np.ndarray:
        """The single truth matrix (only when one trace was mined)."""
        if len(self.matrices) != 1:
            raise ValueError("multiple traces were mined; use .matrices")
        return self.matrices[0]


class AssertionMiner:
    """Phase-1 + phase-2 miner producing proposition traces.

    ``jobs`` fans the per-trace truth-matrix evaluation out over worker
    processes when several traces are mined together; results are
    bit-identical to a serial run (pure numpy evaluation, order-preserving
    map).
    """

    def __init__(
        self, config: Optional[MinerConfig] = None, jobs: int = 1
    ) -> None:
        self.config = config or MinerConfig()
        self.jobs = jobs

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self, trace: FunctionalTrace) -> MiningResult:
        """Mine one functional trace."""
        return self.mine_many([trace])

    def mine_many(self, traces: Sequence[FunctionalTrace]) -> MiningResult:
        """Mine several traces over a shared alphabet and universe."""
        if not traces:
            raise ValueError("at least one functional trace is required")
        self._check_compatible(traces)
        atoms = self._candidate_atoms(traces)
        atoms, matrices = self._filter_atoms(atoms, traces)
        propositions, prop_traces, universe = self._compose(
            atoms, matrices, traces
        )
        return MiningResult(
            atoms=atoms,
            propositions=propositions,
            traces=prop_traces,
            matrices=matrices,
            labeler=PropositionLabeler(atoms, universe),
        )

    # ------------------------------------------------------------------
    # phase 1: atomic propositions
    # ------------------------------------------------------------------
    def _check_compatible(self, traces: Sequence[FunctionalTrace]) -> None:
        names = traces[0].variable_names
        for trace in traces[1:]:
            if trace.variable_names != names:
                raise ValueError(
                    "all traces must observe the same variables"
                )
        if any(len(t) == 0 for t in traces):
            raise ValueError("cannot mine an empty trace")

    def _candidate_atoms(
        self, traces: Sequence[FunctionalTrace]
    ) -> List[AtomicProposition]:
        config = self.config
        first = traces[0]
        distinct: Dict[str, Optional[Set[int]]] = {}
        for var in first.variables:
            if var.width <= 1 or var.width > config.max_const_width:
                continue
            values: Set[int] = set()
            for trace in traces:
                values.update(
                    int(v) for v in np.unique(trace.column(var.name))
                )
                if len(values) > config.max_distinct_for_const:
                    break
            distinct[var.name] = values
        return candidate_atoms_from_values(first.variables, config, distinct)

    def _filter_atoms(
        self,
        atoms: List[AtomicProposition],
        traces: Sequence[FunctionalTrace],
    ) -> Tuple[List[AtomicProposition], List[np.ndarray]]:
        """Keep temporally stable, sufficiently supported atoms.

        Returns the surviving atoms and the per-trace truth matrices
        restricted to them.
        """
        config = self.config
        raw = parallel_map(
            _trace_truth_matrix,
            [(atoms, trace) for trace in traces],
            jobs=self.jobs,
        )
        total = sum(len(trace) for trace in traces)
        keep: List[int] = []
        for j in range(len(atoms)):
            holds = sum(int(np.count_nonzero(m[:, j])) for m in raw)
            avg_run, chatter = self._run_statistics(raw, j)
            if atom_passes_filters(config, holds, total, avg_run, chatter):
                keep.append(j)
        kept_atoms = [atoms[j] for j in keep]
        matrices = [m[:, keep] if keep else m[:, :0] for m in raw]
        return kept_atoms, matrices

    def _run_statistics(
        self, matrices: Sequence[np.ndarray], column: int
    ) -> Tuple[float, float]:
        """(average run length, chatter fraction) of an atom's signal.

        The chatter fraction is the share of instants lying inside truth
        runs shorter than ``min_stable_run``.
        """
        min_stable = self.config.min_stable_run
        total_len = 0
        total_runs = 0
        chatter_instants = 0
        for matrix in matrices:
            signal = matrix[:, column]
            if len(signal) == 0:
                continue
            total_len += len(signal)
            changes = np.nonzero(signal[1:] != signal[:-1])[0]
            boundaries = np.concatenate(([0], changes + 1, [len(signal)]))
            lengths = np.diff(boundaries)
            total_runs += len(lengths)
            chatter_instants += int(lengths[lengths < min_stable].sum())
        if total_runs == 0:
            return float("inf"), 0.0
        return total_len / total_runs, chatter_instants / total_len

    # ------------------------------------------------------------------
    # phase 2: composition into minterm propositions
    # ------------------------------------------------------------------
    def _compose(
        self,
        atoms: List[AtomicProposition],
        matrices: Sequence[np.ndarray],
        traces: Sequence[FunctionalTrace],
    ) -> Tuple[List[Proposition], List[PropositionTrace], Dict[bytes, Proposition]]:
        """Vectorised AND-composition of the truth-matrix rows.

        All traces' rows are packed into scalar codes and deduplicated by
        a single ``np.unique(..., return_inverse=True)``; propositions
        are created once per distinct row, in first-appearance order
        across the traces (so labels match the historical per-instant
        accumulation bit for bit), and each trace becomes an index-coded
        :class:`~repro.core.propositions.PropositionTrace`.
        """
        stacked = np.concatenate(matrices, axis=0)
        codes = _row_codes(stacked)
        _, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        order = np.argsort(first)  # distinct rows in first-appearance order
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        instant_index = rank[inverse]

        universe: Dict[bytes, Proposition] = {}
        propositions: List[Proposition] = []
        for row_index in first[order].tolist():
            row = stacked[row_index]
            positives = [a for a, v in zip(atoms, row) if v]
            negatives = [a for a, v in zip(atoms, row) if not v]
            prop = Proposition(
                proposition_label(len(propositions)), positives, negatives
            )
            universe[np.ascontiguousarray(row).tobytes()] = prop
            propositions.append(prop)

        prop_traces: List[PropositionTrace] = []
        offset = 0
        for trace_id, trace in enumerate(traces):
            stop = offset + len(trace)
            prop_traces.append(
                PropositionTrace.from_indices(
                    instant_index[offset:stop], propositions, trace_id
                )
            )
            offset = stop
        return propositions, prop_traces, universe
