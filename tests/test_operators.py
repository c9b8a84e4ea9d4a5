"""Tests for correlation operators: projection, splitting, coverage."""

import pytest

from repro.model import (
    IdentifiedSubscription,
    Interval,
    Location,
    SimpleEvent,
    operator_from_identified,
)
from repro.model.operators import CorrelationOperator, Slot
from repro.model.subscriptions import AbstractSubscription
from repro.model.locations import RectRegion
from repro.model.operators import operator_from_abstract


def sub3(delta_t=5.0):
    return IdentifiedSubscription.from_ranges(
        "s", {"a": ("t", 0, 10), "b": ("t", 20, 30), "c": ("t", 40, 50)}, delta_t
    )


def op3(delta_t=5.0):
    return operator_from_identified(sub3(delta_t), "n0")


def ev(sensor, value, ts=0.0, seq=0):
    return SimpleEvent(sensor, "t", Location(0, 0), value, ts, seq)


class TestConstruction:
    def test_root_from_identified(self):
        op = op3()
        assert op.slot_ids == {"a", "b", "c"}
        assert op.sensors == {"a", "b", "c"}
        assert not op.is_simple and not op.is_binary_join
        assert op.op_id == "s[a,b,c]"

    def test_root_from_abstract(self):
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        op = operator_from_abstract(s, "n0", {"t": ["d1", "d2"]})
        assert op.slot("t").sensors == {"d1", "d2"}
        with pytest.raises(ValueError):
            operator_from_abstract(s, "n0", {"t": []})

    def test_duplicate_slots_rejected(self):
        slot = Slot("a", "t", Interval(0, 1), frozenset({"a"}))
        with pytest.raises(ValueError):
            CorrelationOperator("s", "n", [slot, slot], 1.0)

    def test_main_slot_must_exist(self):
        slot = Slot("a", "t", Interval(0, 1), frozenset({"a"}))
        with pytest.raises(ValueError):
            CorrelationOperator("s", "n", [slot], 1.0, main_slot="zzz")

    def test_op_id_cached_matches_formula(self):
        """``op_id`` is built once at construction; it must equal the
        subscription id, the *sorted* slot ids and the binary-join tag,
        and survive a pickle round trip (operators cross processes in
        sharded runs)."""
        import pickle

        def formula(op):
            tag = ",".join(sorted(s.slot_id for s in op.slots))
            kind = f"|bj:{op.main_slot}" if op.main_slot else ""
            return f"{op.subscription_id}[{tag}]{kind}"

        unsorted = [
            Slot(sid, "t", Interval(0, 1), frozenset({sid})) for sid in ("c", "a", "b")
        ]
        ops = [CorrelationOperator("s", "n", unsorted, 1.0), *op3().binary_joins()]
        for op in ops:
            assert op.op_id == formula(op)
            clone = pickle.loads(pickle.dumps(op))
            assert clone == op and clone.op_id == op.op_id
        assert ops[0].op_id == "s[a,b,c]"
        assert {j.op_id for j in ops[1:]} == {
            "s[a,b]|bj:a", "s[b,c]|bj:b", "s[a,c]|bj:c"
        }


class TestMatchingHelpers:
    def test_slot_accepts(self):
        op = op3()
        assert op.slot_for_event(ev("a", 5.0)).slot_id == "a"
        assert op.slot_for_event(ev("a", 11.0)) is None
        assert op.slot_for_event(ev("x", 5.0)) is None
        assert op.accepts_some(ev("b", 25.0))


class TestProjection:
    def test_project_subset(self):
        piece = op3().project(["a", "b"])
        assert piece.slot_ids == {"a", "b"}
        assert piece.subscription_id == "s" and piece.subscriber == "n0"
        assert piece.op_id == "s[a,b]"

    def test_project_unknown_slot(self):
        with pytest.raises(KeyError):
            op3().project(["a", "zzz"])

    def test_project_sensors_restricts(self):
        piece = op3().project_sensors(["b", "c"])
        assert piece.slot_ids == {"b", "c"}
        assert op3().project_sensors(["nope"]) is None

    def test_project_sensors_narrows_abstract_slot(self):
        region = RectRegion(Interval(0, 10), Interval(0, 10))
        s = AbstractSubscription.from_ranges("s", {"t": (0, 5)}, region, 2.0)
        op = operator_from_abstract(s, "n0", {"t": ["d1", "d2", "d3"]})
        piece = op.project_sensors(["d2"])
        assert piece.slot("t").sensors == {"d2"}


class TestBinaryJoins:
    def test_single_slot_unchanged(self):
        simple = op3().project(["a"])
        assert simple.binary_joins() == [simple]

    def test_two_slots_ring_of_two(self):
        # Each stream must be the main of one join — otherwise the
        # non-main stream's events never travel toward the user and
        # the instances they anchor are lost (recall < 1).
        two = op3().project(["a", "b"])
        joins = two.binary_joins()
        assert len(joins) == 2
        assert all(j.is_binary_join for j in joins)
        assert sorted(j.main_slot for j in joins) == ["a", "b"]

    def test_ring_pairing(self):
        joins = op3().binary_joins()
        assert len(joins) == 3
        mains = [j.main_slot for j in joins]
        assert sorted(mains) == ["a", "b", "c"]
        for j in joins:
            assert len(j.slots) == 2 and j.is_binary_join

    def test_binary_join_ids_distinct(self):
        ids = {j.op_id for j in op3().binary_joins()}
        assert len(ids) == 3


class TestCoverage:
    def test_self_coverage(self):
        assert op3().covers(op3())

    def test_wider_covers_narrower(self):
        narrow = operator_from_identified(
            IdentifiedSubscription.from_ranges(
                "s2", {"a": ("t", 2, 8), "b": ("t", 22, 28), "c": ("t", 42, 48)}, 5.0
            ),
            "n1",
        )
        assert op3().covers(narrow)
        assert not narrow.covers(op3())

    def test_different_slots_never_cover(self):
        assert not op3().project(["a", "b"]).covers(op3())
        assert not op3().covers(op3().project(["a", "b"]))

    def test_delta_t_direction(self):
        loose = op3(delta_t=10.0)
        tight_sub = IdentifiedSubscription.from_ranges(
            "s2", {"a": ("t", 0, 10), "b": ("t", 20, 30), "c": ("t", 40, 50)}, 5.0
        )
        tight = operator_from_identified(tight_sub, "n1")
        assert loose.covers(tight)
        assert not tight.covers(loose)

    def test_binary_join_signature_distinct(self):
        joins = op3().binary_joins()
        ab = next(j for j in joins if j.main_slot == "a")
        plain = op3().project(["a", "b"])
        assert not ab.covers(plain) and not plain.covers(ab)

    def test_as_box_slot_order(self):
        box = op3().as_box()
        assert box == (Interval(0, 10), Interval(20, 30), Interval(40, 50))

    def test_widened(self):
        w = op3().widened(1.0)
        assert w.slot("a").interval == Interval(-1, 11)
        assert op3().covers(op3()) and w.covers(op3())
        assert not op3().covers(w)
