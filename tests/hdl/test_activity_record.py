"""Tests of the ActivityRecord frozen-column cache."""

from __future__ import annotations

import numpy as np

from repro.hdl.simulator import ActivityRecord


def make_record():
    record = ActivityRecord(["alu", "regs"])
    record.append({"alu": 1.0, "regs": 2.0})
    record.append({"alu": 3.0})
    return record


class TestColumnCache:
    def test_column_values(self):
        record = make_record()
        assert record.column("alu").tolist() == [1.0, 3.0]
        assert record.column("regs").tolist() == [2.0, 0.0]

    def test_column_is_cached(self):
        record = make_record()
        assert record.column("alu") is record.column("alu")

    def test_column_is_immutable(self):
        record = make_record()
        column = record.column("alu")
        assert not column.flags.writeable

    def test_append_invalidates_cache(self):
        record = make_record()
        before = record.column("alu")
        record.append({"alu": 9.0, "regs": 9.0})
        after = record.column("alu")
        assert after is not before
        assert after.tolist() == [1.0, 3.0, 9.0]
        # the previously handed-out array is untouched
        assert before.tolist() == [1.0, 3.0]

    def test_total_is_cached_and_invalidated(self):
        record = make_record()
        total = record.total()
        assert total.tolist() == [3.0, 3.0]
        assert record.total() is total
        record.append({"alu": 1.0, "regs": 1.0})
        assert record.total().tolist() == [3.0, 3.0, 2.0]

    def test_backfilled_component_cache_consistent(self):
        record = ActivityRecord(["alu"])
        record.append({"alu": 1.0})
        assert record.column("alu").tolist() == [1.0]
        # a new component appears mid-simulation: zeros are backfilled
        record.append({"alu": 2.0, "late": 5.0})
        assert record.column("late").tolist() == [0.0, 5.0]
        assert record.total().tolist() == [1.0, 7.0]

    def test_empty_record_total(self):
        record = ActivityRecord([])
        assert record.total().tolist() == []
        assert len(record) == 0


class TestFromRecords:
    RECORDS = [
        {"alu": 1.0},
        {},
        {"late": 5.0, "alu": 2.0},
        {"later": 0.5, "regs": 3},
        {"late": 1.25},
    ]

    def test_equals_appending_every_record(self):
        appended = ActivityRecord(["alu", "regs"])
        for activity in self.RECORDS:
            appended.append(activity)
        built = ActivityRecord.from_records(["alu", "regs"], self.RECORDS)
        assert built.components == appended.components
        assert built.components == ["alu", "regs", "late", "later"]
        assert len(built) == len(appended) == 5
        for name in appended.components:
            assert built.column(name).tolist() == appended.column(name).tolist()
        assert built.total().tolist() == appended.total().tolist()

    def test_no_records_keeps_components(self):
        built = ActivityRecord.from_records(["alu"], [])
        assert built.components == ["alu"] and len(built) == 0
        assert built.total().tolist() == []
