"""Correlation operators — the unit of subscription placement.

Section V-B: as subscriptions travel from the user toward the sensors
they are split, each time the matching advertisement paths diverge, into
*correlation operators*: (sub)sets of filters that still require
time-(and possibly space-)correlation of several streams.  An operator
over a single stream is a *simple operator*; the distributed multi-join
baseline additionally uses *binary joins* (a main stream sanctioned by a
filtering stream).

The representation below serves all five evaluated systems:

* each operator carries one :class:`Slot` per required stream — for
  identified subscriptions a slot is one sensor, for resolved abstract
  subscriptions a slot is one attribute type with the set of sensors
  inside the region that can fill it;
* provenance (root subscription id and subscriber node) sticks to every
  projection so result streams can be attributed end-to-end;
* coverage between operators with the same slot structure implements the
  pair-wise covering check, and the boxes handed to the probabilistic
  set filter are derived from the slot intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .events import SimpleEvent
from .intervals import Interval
from .subscriptions import (
    AbstractSubscription,
    IdentifiedSubscription,
    Subscription,
    UNBOUNDED,
)


@dataclass(frozen=True, slots=True)
class Slot:
    """One stream position of a correlation operator.

    ``slot_id`` is the correlation dimension (sensor id for identified
    subscriptions, attribute type for abstract ones); ``sensors`` are the
    concrete sensors whose events may fill the slot; ``attribute`` and
    ``interval`` give the value condition.
    """

    slot_id: str
    attribute: str
    interval: Interval
    sensors: frozenset[str]

    def accepts(self, event: SimpleEvent) -> bool:
        """Whether ``event`` can fill this slot."""
        return (
            event.sensor_id in self.sensors
            and event.attribute == self.attribute
            and self.interval.contains(event.value)
        )

    def covers(self, other: "Slot") -> bool:
        """Same stream position with a containing value range."""
        return (
            self.slot_id == other.slot_id
            and self.attribute == other.attribute
            and self.sensors == other.sensors
            and self.interval.contains_interval(other.interval)
        )

    def with_interval(self, interval: Interval) -> "Slot":
        return Slot(self.slot_id, self.attribute, interval, self.sensors)

    def with_sensors(self, sensors: frozenset[str]) -> "Slot":
        """Slot restricted to a sensor subset (projection onto a subtree)."""
        if not sensors:
            raise ValueError("a slot needs at least one sensor")
        return Slot(self.slot_id, self.attribute, self.interval, sensors)


@dataclass(frozen=True)
class CorrelationOperator:
    """A placed (fragment of a) subscription.

    Operators are value objects: projecting the same subscription onto
    the same slot subset yields an equal operator, which is what the
    per-neighbour subscription stores rely on for duplicate suppression.
    """

    subscription_id: str
    subscriber: str
    slots: tuple[Slot, ...]
    delta_t: float
    delta_l: float = UNBOUNDED
    main_slot: str | None = None  # set only on binary joins (multi-join baseline)

    def __init__(
        self,
        subscription_id: str,
        subscriber: str,
        slots: Iterable[Slot],
        delta_t: float,
        delta_l: float = UNBOUNDED,
        main_slot: str | None = None,
    ) -> None:
        ordered = tuple(sorted(slots, key=lambda s: s.slot_id))
        if not ordered:
            raise ValueError("an operator needs at least one slot")
        ids = {s.slot_id for s in ordered}
        if len(ids) != len(ordered):
            raise ValueError("duplicate slot in operator")
        if main_slot is not None and main_slot not in ids:
            raise ValueError(f"main slot {main_slot!r} not among operator slots")
        object.__setattr__(self, "subscription_id", subscription_id)
        object.__setattr__(self, "subscriber", subscriber)
        object.__setattr__(self, "slots", ordered)
        object.__setattr__(self, "delta_t", delta_t)
        object.__setattr__(self, "delta_l", delta_l)
        object.__setattr__(self, "main_slot", main_slot)
        # Matchers are keyed by operator equality on the event hot path;
        # the generated frozen-dataclass hash re-walks every slot (and
        # its sensor frozenset) per lookup, so cache it once.
        object.__setattr__(
            self,
            "_hash",
            hash(
                (subscription_id, subscriber, ordered, delta_t, delta_l, main_slot)
            ),
        )
        # The event path reads op_id per stored operator per arrival;
        # build the string once.
        tag = ",".join(s.slot_id for s in ordered)
        kind = f"|bj:{main_slot}" if main_slot else ""
        object.__setattr__(self, "_op_id", f"{subscription_id}[{tag}]{kind}")

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def op_id(self) -> str:
        """Stable human-readable identity (subscription + slot ids)."""
        return self._op_id

    @property
    def slot_ids(self) -> frozenset[str]:
        return frozenset(s.slot_id for s in self.slots)

    @property
    def sensors(self) -> frozenset[str]:
        """Every concrete sensor any slot may draw events from."""
        return frozenset(sid for s in self.slots for sid in s.sensors)

    @property
    def is_simple(self) -> bool:
        """Single-stream operators suffer no further splitting."""
        return len(self.slots) == 1

    @property
    def is_binary_join(self) -> bool:
        return self.main_slot is not None

    @property
    def signature(
        self,
    ) -> tuple[
        tuple[tuple[str, str, tuple[str, ...]], ...], float, float, str | None
    ]:
        """Grouping key for coverage: slot structure + correlation params.

        Only operators with the same signature are comparable for
        subsumption (the paper filters "only subscriptions over the same
        attributes" and, for binary joins, "with the same signature").
        """
        return (
            tuple((s.slot_id, s.attribute, tuple(sorted(s.sensors))) for s in self.slots),
            self.delta_t,
            self.delta_l,
            self.main_slot,
        )

    def slot(self, slot_id: str) -> Slot:
        for s in self.slots:
            if s.slot_id == slot_id:
                return s
        raise KeyError(slot_id)

    # ------------------------------------------------------------------
    # matching helpers
    # ------------------------------------------------------------------
    def slot_for_event(self, event: SimpleEvent) -> Slot | None:
        """The slot ``event`` can fill, or None if it matches no slot."""
        for s in self.slots:
            if s.accepts(event):
                return s
        return None

    def accepts_some(self, event: SimpleEvent) -> bool:
        return self.slot_for_event(event) is not None

    # ------------------------------------------------------------------
    # projection / splitting
    # ------------------------------------------------------------------
    def project(self, slot_ids: Iterable[str]) -> "CorrelationOperator":
        """Projection onto a slot subset — the split step of Algorithm 3.

        Projections never keep a binary-join marker: the multi-join
        baseline re-derives binary joins explicitly.
        """
        wanted = set(slot_ids)
        kept = [s for s in self.slots if s.slot_id in wanted]
        if len(kept) != len(wanted):
            missing = wanted - {s.slot_id for s in kept}
            raise KeyError(f"operator has no slots {sorted(missing)}")
        return CorrelationOperator(
            self.subscription_id,
            self.subscriber,
            kept,
            self.delta_t,
            self.delta_l,
        )

    def project_sensors(self, sensor_ids: Iterable[str]) -> "CorrelationOperator | None":
        """Projection onto the slots fillable by the given sensors.

        This is the "projection of the subscription on the neighbour's
        data space" of Algorithm 3 (line 8): the advertisement table
        yields the sensors behind a neighbour, and the operator keeps the
        slots those sensors can fill.  Returns None when no slot remains.
        """
        available = set(sensor_ids)
        kept = [
            s.with_sensors(frozenset(s.sensors & available))
            for s in self.slots
            if s.sensors & available
        ]
        if not kept:
            return None
        return CorrelationOperator(
            self.subscription_id,
            self.subscriber,
            kept,
            self.delta_t,
            self.delta_l,
        )

    def binary_joins(self) -> list["CorrelationOperator"]:
        """Ring-pair the slots into binary joins (multi-join baseline).

        Following [7] as distributed in Section III-B: each slot becomes
        the *main* stream of one binary join whose *filtering* stream is
        the next slot in a deterministic ring.  Operators with a single
        slot are returned unchanged (nothing to pair).  Two-slot
        operators form a ring of two: each stream is the main of one
        exact join (binary joins equal multi-joins with two attributes).
        *Every* slot must be a main stream — an event only travels
        toward the user on its own main stream, so a slot without one
        would strand its events at the divergence node and silently
        lose every match instance they anchor.
        """
        if len(self.slots) == 1:
            return [self]
        joins = []
        n = len(self.slots)
        for i, main in enumerate(self.slots):
            sanction = self.slots[(i + 1) % n]
            joins.append(
                CorrelationOperator(
                    self.subscription_id,
                    self.subscriber,
                    (main, sanction),
                    self.delta_t,
                    self.delta_l,
                    main_slot=main.slot_id,
                )
            )
        return joins

    # ------------------------------------------------------------------
    # coverage
    # ------------------------------------------------------------------
    def covers(self, other: "CorrelationOperator") -> bool:
        """Pair-wise covering: every event set matching ``other`` matches us.

        Requires the identical slot structure (paper: comparisons happen
        only between subscriptions over the same attributes) plus
        per-slot range containment and at-least-as-loose correlation
        distances.
        """
        if self.signature[0] != other.signature[0]:
            return False
        if self.main_slot != other.main_slot:
            return False
        if self.delta_t < other.delta_t or self.delta_l < other.delta_l:
            return False
        ours = {s.slot_id: s for s in self.slots}
        return all(ours[s.slot_id].covers(s) for s in other.slots)

    def as_box(self) -> tuple[Interval, ...]:
        """The operator's value hyper-rectangle, slot-ordered.

        This is the geometry handed to the probabilistic set filter:
        each slot contributes one dimension (the paper treats each
        sensor, or each attribute plus the location, as one attribute of
        the set-subsumption problem).
        """
        return tuple(s.interval for s in self.slots)

    def widened(self, amount: float) -> "CorrelationOperator":
        """Coarsened copy of the operator (Section VI-F mitigation)."""
        return CorrelationOperator(
            self.subscription_id,
            self.subscriber,
            (s.with_interval(s.interval.widen(amount)) for s in self.slots),
            self.delta_t,
            self.delta_l,
            self.main_slot,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.op_id


# ---------------------------------------------------------------------------
# construction from subscriptions
# ---------------------------------------------------------------------------
def operator_from_identified(
    subscription: IdentifiedSubscription, subscriber: str
) -> CorrelationOperator:
    """Root operator of an identified subscription: one slot per sensor."""
    return CorrelationOperator(
        subscription.sub_id,
        subscriber,
        (
            Slot(f.sensor_id, f.attribute, f.interval, frozenset({f.sensor_id}))
            for f in subscription.filters
        ),
        subscription.delta_t,
    )


def operator_from_abstract(
    subscription: AbstractSubscription,
    subscriber: str,
    sensors_by_attribute: Mapping[str, Sequence[str]],
) -> CorrelationOperator:
    """Root operator of a resolved abstract subscription.

    ``sensors_by_attribute`` comes from
    :meth:`repro.model.subscriptions.AbstractSubscription.resolve`; every
    attribute must have at least one sensor (otherwise the subscription
    has absent sources and Algorithm 3 drops it before this point).
    """
    slots = []
    for clause in subscription.clauses:
        sensors = sensors_by_attribute.get(clause.attribute, ())
        if not sensors:
            raise ValueError(
                f"attribute {clause.attribute!r} of {subscription.sub_id} "
                "has no advertised sensors in its region"
            )
        slots.append(
            Slot(
                clause.attribute,
                clause.attribute,
                clause.condition.interval,
                frozenset(sensors),
            )
        )
    return CorrelationOperator(
        subscription.sub_id,
        subscriber,
        slots,
        subscription.delta_t,
        subscription.delta_l,
    )


def root_operator(
    subscription: Subscription,
    subscriber: str,
    sensors_by_attribute: Mapping[str, Sequence[str]] | None = None,
) -> CorrelationOperator:
    """Dispatch on subscription flavour."""
    if isinstance(subscription, IdentifiedSubscription):
        return operator_from_identified(subscription, subscriber)
    if sensors_by_attribute is None:
        raise ValueError("abstract subscriptions need resolved sensors")
    return operator_from_abstract(subscription, subscriber, sensors_by_attribute)
