"""Tests for functional traces."""

import numpy as np
import pytest

from repro.traces.functional import FunctionalTrace, popcount
from repro.traces.io import functional_trace_from_json, functional_trace_to_json
from repro.traces.variables import bool_in, int_in, int_out


@pytest.fixture
def specs():
    return [bool_in("en"), int_in("data", 8), int_out("q", 8)]


@pytest.fixture
def trace(specs):
    return FunctionalTrace(
        specs,
        {"en": [0, 1, 1], "data": [0, 5, 7], "q": [0, 0, 5]},
        name="t",
    )


class TestConstruction:
    def test_empty_variables_rejected(self):
        with pytest.raises(ValueError):
            FunctionalTrace([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FunctionalTrace([bool_in("a"), bool_in("a")])

    def test_ragged_columns_rejected(self, specs):
        with pytest.raises(ValueError):
            FunctionalTrace(
                specs, {"en": [0, 1], "data": [0], "q": [0, 0]}
            )

    def test_missing_column_rejected(self, specs):
        with pytest.raises(ValueError):
            FunctionalTrace(specs, {"en": [0], "data": [0]})

    def test_empty_trace_allowed(self, specs):
        assert len(FunctionalTrace(specs)) == 0

    @pytest.mark.parametrize("bad", [99, 16, -5, 2**70])
    def test_out_of_range_value_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range for bus"):
            FunctionalTrace([int_in("bus", 4)], {"bus": [1, bad, 2]})

    def test_out_of_range_wide_value_rejected(self):
        with pytest.raises(ValueError, match="out of range for key"):
            FunctionalTrace([int_in("key", 128)], {"key": [1, 2**128]})

    def test_json_trace_is_range_checked(self):
        document = functional_trace_to_json(
            FunctionalTrace([int_in("bus", 4)], {"bus": [1, 2, 3]})
        )
        assert functional_trace_from_json(document).column("bus").tolist() == [
            1, 2, 3,
        ]
        for bad in (99, -5):
            document["columns"]["bus"] = [1, bad, 3]
            with pytest.raises(ValueError, match="out of range"):
                functional_trace_from_json(document)

    def test_columns_store_python_ints(self, specs):
        values = FunctionalTrace(
            specs, {"en": [True], "data": [np.int64(7)], "q": ["5"]}
        ).at(0)
        assert values == {"en": 1, "data": 7, "q": 5}
        assert all(type(v) is int for v in values.values())

    def test_length(self, trace):
        assert len(trace) == 3


class TestAppend:
    def test_append_row(self, specs):
        trace = FunctionalTrace(specs)
        trace.append({"en": 1, "data": 3, "q": 0})
        assert len(trace) == 1
        assert trace.at(0) == {"en": 1, "data": 3, "q": 0}

    def test_append_missing_variable(self, specs):
        trace = FunctionalTrace(specs)
        with pytest.raises(KeyError):
            trace.append({"en": 1, "data": 3})

    def test_append_out_of_range(self, specs):
        trace = FunctionalTrace(specs)
        with pytest.raises(ValueError):
            trace.append({"en": 1, "data": 256, "q": 0})

    def test_extend(self, specs):
        trace = FunctionalTrace(specs)
        trace.extend(
            [{"en": 0, "data": 0, "q": 0}, {"en": 1, "data": 1, "q": 1}]
        )
        assert len(trace) == 2

    def test_extend_accepts_generator(self, specs):
        trace = FunctionalTrace(specs)
        trace.extend(
            {"en": i % 2, "data": i, "q": i} for i in range(10)
        )
        assert len(trace) == 10
        assert trace.at(9) == {"en": 1, "data": 9, "q": 9}

    def test_extend_is_atomic_on_bad_row(self, specs):
        trace = FunctionalTrace(specs)
        trace.append({"en": 0, "data": 0, "q": 0})
        with pytest.raises(KeyError):
            trace.extend(
                [{"en": 1, "data": 1, "q": 1}, {"en": 1, "data": 2}]
            )
        # the valid leading row must not have been committed
        assert len(trace) == 1

    def test_extend_is_atomic_on_out_of_range_value(self, specs):
        trace = FunctionalTrace(specs)
        with pytest.raises(ValueError):
            trace.extend(
                [{"en": 0, "data": 0, "q": 0}, {"en": 0, "data": 256, "q": 0}]
            )
        assert len(trace) == 0

    def test_extend_invalidates_frozen_column_once(self, specs):
        trace = FunctionalTrace(specs)
        trace.append({"en": 0, "data": 0, "q": 0})
        assert trace.column("data").tolist() == [0]
        trace.extend(
            [{"en": 1, "data": 7, "q": 0}, {"en": 1, "data": 8, "q": 7}]
        )
        assert trace.column("data").tolist() == [0, 7, 8]

    def test_extend_empty_keeps_cache(self, specs):
        trace = FunctionalTrace(specs)
        trace.append({"en": 0, "data": 0, "q": 0})
        before = trace.column("data")
        trace.extend([])
        assert trace.column("data") is before

    def test_append_invalidates_frozen_column(self, specs):
        trace = FunctionalTrace(specs)
        trace.append({"en": 0, "data": 0, "q": 0})
        first = trace.column("data")
        assert len(first) == 1
        trace.append({"en": 1, "data": 9, "q": 0})
        assert len(trace.column("data")) == 2


class TestAccess:
    def test_at_returns_full_row(self, trace):
        assert trace.at(1) == {"en": 1, "data": 5, "q": 0}

    def test_at_out_of_range(self, trace):
        with pytest.raises(IndexError):
            trace.at(3)
        with pytest.raises(IndexError):
            trace.at(-1)

    def test_rows_iterates_all(self, trace):
        rows = list(trace.rows())
        assert len(rows) == 3
        assert rows[2]["q"] == 5

    def test_column_is_readonly(self, trace):
        column = trace.column("data")
        with pytest.raises(ValueError):
            column[0] = 9

    def test_column_values(self, trace):
        assert trace.column("data").tolist() == [0, 5, 7]

    def test_inputs_outputs_split(self, trace):
        assert [v.name for v in trace.inputs] == ["en", "data"]
        assert [v.name for v in trace.outputs] == ["q"]

    def test_input_vector(self, trace):
        assert trace.input_vector(2) == {"en": 1, "data": 7}

    def test_spec_lookup(self, trace):
        assert trace.spec("data").width == 8

    def test_contains(self, trace):
        assert "data" in trace
        assert "nope" not in trace


class TestWideVariables:
    def test_128_bit_column_roundtrip(self):
        specs = [int_in("key", 128)]
        value = (1 << 127) | 5
        trace = FunctionalTrace(specs, {"key": [value, 0]})
        assert trace.at(0)["key"] == value
        assert trace.column("key").dtype == object

    def test_narrow_column_is_int64(self, trace):
        assert trace.column("data").dtype == np.int64

    def test_wide_hamming(self):
        specs = [int_in("key", 128)]
        a = (1 << 127) | 1
        trace = FunctionalTrace(specs, {"key": [a, a ^ 0b111]})
        assert trace.hamming_distances().tolist() == [0, 3]


class TestSliceConcat:
    def test_slice_inclusive(self, trace):
        part = trace.slice(1, 2)
        assert len(part) == 2
        assert part.at(0)["data"] == 5

    def test_slice_columns_are_independent_of_the_source(self, trace):
        part = trace.slice(0, 1)
        assert part.column("data").tolist() == [0, 5]
        part.append({"en": 1, "data": 9, "q": 9})
        assert len(trace) == 3
        assert trace.column("data").tolist() == [0, 5, 7]

    def test_slice_bad_interval(self, trace):
        with pytest.raises(IndexError):
            trace.slice(2, 1)
        with pytest.raises(IndexError):
            trace.slice(0, 3)

    def test_concat(self, trace):
        joined = trace.concat(trace)
        assert len(joined) == 6
        assert joined.at(3) == trace.at(0)

    def test_concat_mismatched_variables(self, trace):
        other = FunctionalTrace([bool_in("x")], {"x": [0]})
        with pytest.raises(ValueError):
            trace.concat(other)


class TestHamming:
    def test_first_instant_is_zero(self, trace):
        assert trace.hamming_distances()[0] == 0

    def test_counts_bit_flips_across_all_variables(self, trace):
        hd = trace.hamming_distances()
        # 0->1 (en), 0->5 (data: 2 bits), 0->0 (q) => 3
        assert hd[1] == 3
        # en same, 5->7 (1 bit), 0->5 (2 bits) => 3
        assert hd[2] == 3

    def test_selected_variables_only(self, trace):
        hd = trace.hamming_distances(["data"])
        assert hd.tolist() == [0, 2, 1]


class TestPopcount:
    def test_popcount_vector(self):
        values = np.array([0, 1, 3, 255], dtype=np.int64)
        assert popcount(values).tolist() == [0, 1, 2, 8]

    def test_popcount_empty(self):
        assert popcount(np.array([], dtype=np.int64)).tolist() == []
