"""The incremental correlation-matching engine.

The reference matcher (:mod:`repro.model.matching`) answers "which
stored events does this arrival correlate with?" by rescanning the
event store: once per candidate trigger it re-reads every slot's
sensors and re-evaluates every filter — O(operators × triggers × slots
× window) per arriving event, with nothing remembered between calls.
That recompute-on-arrival cost dominates wall-clock long before network
traffic does (the paper's metric), so this module restructures node
matching around *per-operator incremental state*:

* an :class:`OperatorMatcher` is registered when an operator is stored
  (``SubscriptionStore.add``) and fed every ingested event exactly
  once — filter acceptance is evaluated once per (event, slot) instead
  of once per trigger scan, and accepted events land in per-slot sorted
  :class:`~repro.matching.timeline.Timeline`\\ s;
* a query sweeps all candidate triggers with shared two-pointer
  windows: trigger times are sorted, so each slot's half-open window
  ``(t* − Δt, t*]`` advances monotonically and the whole sweep touches
  each timeline entry O(1) times;
* for finite ``delta_l`` the spatial combination search is pruned with
  a coarse uniform grid (:mod:`repro.matching.spatial`) before the
  exact backtracking runs — the decision stays exact;
* live ingest routes through a per-sensor *interval-stabbing* segment
  index (:class:`_StabbingIndex`): one bisect per arriving value finds
  exactly the accepting slots across every registered matcher, instead
  of evaluating each matcher's filters one by one.

The engine mirrors the :class:`~repro.network.eventstore.EventStore`
through its listener protocol (``event_added`` / ``horizon_advanced``),
so a matcher's timelines always hold exactly the store-visible events
its slots accept — which is what makes the engine provably equivalent
to the reference matcher run against the same store (the property suite
machine-checks this; the reference stays in-tree as the oracle).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterable

from ..model.events import SimpleEvent
from ..model.operators import CorrelationOperator
from .spatial import combination_exists, participating
from .timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.eventstore import EventStore



_INF = float("inf")


def _result_order(event: SimpleEvent) -> tuple[float, tuple[str, int]]:
    """The reference matcher's deterministic participant order."""
    return (event.timestamp, event.key)


def _sort_if_tied(participants: list[SimpleEvent]) -> None:
    """Restore the reference's (timestamp, key) order.

    Span-merged participants already arrive timestamp-sorted; only
    equal-timestamp ties can deviate (timeline order breaks them by
    ``(seq, sensor)``, the reference by ``(sensor, seq)``), so the
    O(n·log n) keyed sort runs only when a tie actually exists.
    """
    previous = None
    for event in participants:
        if event.timestamp == previous:
            participants.sort(key=_result_order)
            return
        previous = event.timestamp


class OperatorMatcher:
    """Incremental per-operator matching state (Algorithm 5, stateful)."""

    __slots__ = (
        "operator",
        "_engine",
        "_slots",
        "_slot_ids",
        "_timelines",
        "_by_sensor",
        "_finite",
        "_min_ts",
    )

    def __init__(self, operator: CorrelationOperator, engine: "MatchingEngine") -> None:
        self.operator = operator
        self._engine = engine
        self._slots = operator.slots
        self._slot_ids = [slot.slot_id for slot in operator.slots]
        self._timelines = [Timeline() for _ in operator.slots]
        # Acceptance is only possible for slots that draw from the
        # event's sensor — index them so the hot paths touch nothing
        # else.  Because membership in this index already implies the
        # slot's sensor test, the per-event check reduces to attribute
        # equality plus the bound interval predicate.
        self._by_sensor: dict[str, list[tuple]] = {}
        for index, (slot, timeline) in enumerate(zip(self._slots, self._timelines)):
            entry = (slot.attribute, slot.interval.contains, timeline, index)
            for sensor_id in sorted(slot.sensors):
                self._by_sensor.setdefault(sensor_id, []).append(entry)
        self._finite = not math.isinf(operator.delta_l)
        self._min_ts = float("inf")  # earliest indexed timestamp

    # ------------------------------------------------------------------
    # ingest path (live events route through the engine's stabbing
    # index instead; this slot-by-slot path serves the backfill)
    # ------------------------------------------------------------------
    def ingest(self, event: SimpleEvent) -> None:
        """Index one stored event; acceptance tested once per slot."""
        for attribute, contains, timeline, _index in self._by_sensor.get(
            event.sensor_id, ()
        ):
            if event.attribute == attribute and contains(event.value):
                timeline.add(event)
                if event.timestamp < self._min_ts:
                    self._min_ts = event.timestamp

    def backfill(self, store: "EventStore") -> None:
        """Index the store's current visible content (late registration)."""
        for sensor_id in sorted(self.operator.sensors):
            for event in store.sensor_events(sensor_id):
                self.ingest(event)

    def _prune(self) -> None:
        """Drop entries below the store's expiry horizon."""
        horizon = self._engine.horizon
        if horizon < self._min_ts:
            return  # nothing indexed can have expired — O(1) fast path
        min_ts = float("inf")
        for timeline in self._timelines:
            timeline.drop_until(horizon)
            if timeline.min_timestamp < min_ts:
                min_ts = timeline.min_timestamp
        self._min_ts = min_ts

    def _refresh_min_ts(self) -> None:
        """Recompute the earliest indexed timestamp after a fence drop."""
        self._min_ts = min(
            (tl.min_timestamp for tl in self._timelines), default=float("inf")
        )

    def fence_sensor(self, sensor_id: str, until: float = float("inf")) -> int:
        """Drop indexed events of ``sensor_id`` with ``timestamp <= until``.

        The churn fence, mirrored into the per-slot timelines: the
        online engine routes here via the store's ``sensor_fenced``
        listener callback; the offline oracle pass calls it directly as
        its trigger sweep crosses each scheduled departure.  Returns the
        number of dropped entries.
        """
        dropped = 0
        for _attribute, _contains, timeline, _index in self._by_sensor.get(
            sensor_id, ()
        ):
            dropped += timeline.drop_sensor(sensor_id, until)
        if dropped:
            self._refresh_min_ts()
        return dropped

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def matches_involving(
        self, event: SimpleEvent, own: int | None = None
    ) -> dict[str, list[SimpleEvent]]:
        """Participants of every match ``event`` takes part in.

        Same contract as the reference
        :func:`repro.model.matching.matches_involving`.  ``own`` is the
        index of the first slot accepting ``event`` when the caller
        already knows it (the engine's arrival scope records it at
        ingest); otherwise the slot filters are tested here.  (An
        earlier revision memoised per (store version, event key); in
        tree overlays an operator lives in exactly one per-origin store,
        so the cache never hit and only cost its bookkeeping.)
        """
        if own is None:
            own = self._own_slot_index(event)
            if own is None:
                return {}
        return self._compute(event, own)

    def instance_exists(self, trigger: SimpleEvent) -> bool:
        """Does a match with maximum member ``trigger`` exist?

        Same contract as the reference
        :func:`repro.model.matching.instance_exists` (the oracle
        primitive): the trigger-anchored window must be complete and,
        for finite ``delta_l``, admit a combination that includes the
        trigger.  Like the reference, it does *not* require the trigger
        itself to be stored.
        """
        operator = self.operator
        own_slot = operator.slot_for_event(trigger)
        if own_slot is None:
            return False
        self._prune()
        after = trigger.timestamp - operator.delta_t
        windows = [
            timeline.view(after, trigger.timestamp) for timeline in self._timelines
        ]
        if not all(windows):
            return False
        if not self._finite:
            return True
        delta_l = operator.delta_l
        own = self._slot_ids.index(own_slot.slot_id)
        location = trigger.location
        lists: list[list[SimpleEvent]] = []
        for i, window in enumerate(windows):
            if i == own:
                lists.append([trigger])
                continue
            near = [
                e for e in window if e.location.distance_to(location) < delta_l
            ]
            if not near:
                return False
            lists.append(near)
        return combination_exists(lists, delta_l)

    def match_at_trigger(
        self, trigger_time: float
    ) -> dict[str, list[SimpleEvent]] | None:
        """Participants of matches whose maximum timestamp is ``trigger_time``.

        Same decision and per-slot participant *sets* as the reference
        :func:`repro.model.matching.match_at_trigger`, answered from the
        per-slot timelines: ``None`` when some slot's window
        ``(trigger_time − Δt, trigger_time]`` is empty or, for finite
        ``delta_l``, no spatially valid combination exists.  Participants
        come back in timeline ``(timestamp, key)`` order rather than the
        reference's sensor-grouped order — the offline oracle, the only
        consumer, unions keys and never reads the order.
        """
        self._prune()
        after = trigger_time - self.operator.delta_t
        windows = [
            timeline.view(after, trigger_time) for timeline in self._timelines
        ]
        if not all(windows):
            return None
        kept = [list(w) for w in windows]
        if self._finite:
            kept = participating(kept, self.operator.delta_l)
            if kept is None:
                return None
        out: dict[str, list[SimpleEvent]] = {}
        for slot_id, participants in zip(self._slot_ids, kept):
            _sort_if_tied(participants)
            out[slot_id] = participants
        return out

    def _own_slot_index(self, event: SimpleEvent) -> int | None:
        """Index of the first slot accepting ``event`` (reference order)."""
        for attribute, contains, _timeline, index in self._by_sensor.get(
            event.sensor_id, ()
        ):
            if event.attribute == attribute and contains(event.value):
                return index
        return None

    def _compute(self, event: SimpleEvent, own: int) -> dict[str, list[SimpleEvent]]:
        t0 = event.timestamp
        # Expiry is a query-time *clamp*, exactly like the store's own
        # views: entries at or below the horizon are invisible whether
        # or not the periodic sweep has physically dropped them yet.
        horizon = self._engine.horizon
        if t0 <= horizon:
            return {}  # the arrival itself has already expired
        delta_t = self.operator.delta_t
        after = t0 - delta_t
        if after < horizon:
            after = horizon
        # A slot whose newest entry is at or before ``after`` has an empty
        # window for every candidate trigger — exactly the case where the
        # first bisect below finds nothing — so reject it in O(1) before
        # any timeline is sorted or searched.
        for timeline in self._timelines:
            if timeline.max_timestamp <= after:
                return {}
        before = t0 + delta_t
        # One fused pass per slot: completeness pre-check, candidate
        # triggers, and the sweep's seed pointers, three bisects each.
        # Every window a candidate trigger can anchor lies inside
        # (t0 − Δt, t0 + Δt], so one slot with nothing there rules out
        # every match — by far the most common outcome.  The first
        # trigger is always t0 itself, so its window (t0 − Δt, t0] seeds
        # the pointers directly.
        entries = []
        lo = []
        hi = []
        later: set[float] | None = None
        for timeline in self._timelines:
            ents = timeline.entries()
            a = bisect_right(ents, (after, _INF))
            if a == len(ents) or ents[a][0] > before:
                return {}  # no event in (t0 − Δt, t0 + Δt]: incomplete
            b = bisect_right(ents, (t0, _INF), lo=a)
            # Later accepted events strictly inside (t0, t0 + Δt) are
            # candidate triggers — exactly the set the reference scans.
            c = bisect_left(ents, (before,), lo=b)
            if c > b:
                if later is None:
                    later = set()
                later.update(entry[0] for entry in ents[b:c])
            entries.append(ents)
            lo.append(a)
            hi.append(b)
        event_pos = self._timelines[own].index_of(event)
        if event_pos is None:
            # Not stored (duplicate-dropped or expired): the reference
            # scan would find it in no window either.
            return {}
        if later is None:
            # In-order delivery fast path — the arrival is the only
            # candidate trigger and its window is already seeded.
            if not lo[own] <= event_pos < hi[own]:
                return {}
            n = len(entries)
            for i in range(n):
                if lo[i] == hi[i]:
                    return {}
            if not self._finite:
                out: dict[str, list[SimpleEvent]] = {}
                for i, slot_id in enumerate(self._slot_ids):
                    participants = [
                        entry[-1] for entry in entries[i][lo[i] : hi[i]]
                    ]
                    _sort_if_tied(participants)
                    out[slot_id] = participants
                return out
            ordered = [t0]
        else:
            later.add(t0)
            ordered = sorted(later)
        if self._finite:
            return self._sweep_spatial(event, ordered, entries, lo, hi, own, event_pos)
        return self._sweep_plain(ordered, entries, lo, hi, own, event_pos)

    def _sweep_plain(
        self, ordered, entries, lo, hi, own: int, event_pos: int
    ) -> dict[str, list[SimpleEvent]]:
        return sweep_plain(
            self._slot_ids,
            self.operator.delta_t,
            ordered,
            entries,
            lo,
            hi,
            own,
            event_pos,
        )

    def _sweep_spatial(
        self, event, ordered, entries, lo, hi, own: int, event_pos: int
    ) -> dict[str, list[SimpleEvent]]:
        return sweep_spatial(
            self._slot_ids,
            self.operator,
            event,
            ordered,
            entries,
            lo,
            hi,
            own,
            event_pos,
        )


def sweep_plain(
    slot_ids, delta_t, ordered, entries, lo, hi, own: int, event_pos: int
) -> dict[str, list[SimpleEvent]]:
    """Unbounded ``delta_l``: participants are whole windows.

    Window membership is tracked as merged index spans per slot, so
    the union over triggers materialises each entry once.

    Shared verbatim between the incremental matcher and the columnar
    core (which hands in masked per-slot entry lists): the two modes
    run *the same* sweep, so the differential fence pins one algorithm,
    not two implementations that happen to agree.
    """
    n = len(entries)
    spans: list[list[list[int]]] = [[] for _ in range(n)]
    found = False
    for t_star in ordered:
        after = t_star - delta_t
        complete = True
        for i in range(n):
            ents = entries[i]
            h = hi[i]
            limit = len(ents)
            while h < limit and ents[h][0] <= t_star:
                h += 1
            hi[i] = h
            l = lo[i]
            while l < h and ents[l][0] <= after:
                l += 1
            lo[i] = l
            if l == h:
                complete = False
        if not complete or not lo[own] <= event_pos < hi[own]:
            continue
        found = True
        for i in range(n):
            slot_spans = spans[i]
            if slot_spans and lo[i] <= slot_spans[-1][1]:
                if hi[i] > slot_spans[-1][1]:
                    slot_spans[-1][1] = hi[i]
            else:
                slot_spans.append([lo[i], hi[i]])
    if not found:
        return {}
    out: dict[str, list[SimpleEvent]] = {}
    for i, slot_id in enumerate(slot_ids):
        slot_spans = spans[i]
        ents = entries[i]
        if len(slot_spans) == 1:
            a, b = slot_spans[0]
            participants = [entry[-1] for entry in ents[a:b]]
        else:
            participants = []
            for a, b in slot_spans:
                participants.extend([entry[-1] for entry in ents[a:b]])
        _sort_if_tied(participants)
        out[slot_id] = participants
    return out


def sweep_spatial(
    slot_ids, operator, event, ordered, entries, lo, hi, own: int, event_pos: int
) -> dict[str, list[SimpleEvent]]:
    """Finite ``delta_l``: grid-pruned combination search per trigger.

    Shared verbatim between the incremental matcher and the columnar
    core, same as :func:`sweep_plain`.
    """
    delta_t = operator.delta_t
    delta_l = operator.delta_l
    n = len(entries)
    key = event.key
    union: list[dict[tuple[str, int], SimpleEvent]] = [{} for _ in range(n)]
    found = False
    for t_star in ordered:
        after = t_star - delta_t
        complete = True
        for i in range(n):
            ents = entries[i]
            h = hi[i]
            limit = len(ents)
            while h < limit and ents[h][0] <= t_star:
                h += 1
            hi[i] = h
            l = lo[i]
            while l < h and ents[l][0] <= after:
                l += 1
            lo[i] = l
            if l == h:
                complete = False
        if not complete or not lo[own] <= event_pos < hi[own]:
            continue
        windows = [
            [entry[-1] for entry in entries[i][lo[i] : hi[i]]] for i in range(n)
        ]
        participants = participating(windows, delta_l)
        if participants is None:
            continue
        if not any(e.key == key for e in participants[own]):
            continue
        found = True
        for i in range(n):
            bucket = union[i]
            for e in participants[i]:
                bucket[e.key] = e
    if not found:
        return {}
    return {
        slot_id: sorted(union[i].values(), key=_result_order)
        for i, slot_id in enumerate(slot_ids)
    }


class _StabbingIndex:
    """Interval-stabbing ingest index for one sensor's registrations.

    Slot filters are closed intervals; their endpoints cut the value
    axis into elementary segments (alternating open ranges and endpoint
    points), and within one segment the set of accepting slots is
    constant.  Routing an arriving value is then a single bisect plus
    appends to exactly the accepting timelines — O(log B + hits) —
    instead of one filter evaluation per registered matcher.
    """

    __slots__ = ("_registrations", "_dirty", "_by_attr")

    def __init__(self) -> None:
        # (attribute, lo, hi, timeline, matcher, slot index); rebuilt
        # lazily into per-attribute (bounds, segments) on the first event
        # after a registration.
        self._registrations: list[tuple] = []
        self._dirty = False
        self._by_attr: dict[str, tuple[list[float], list[tuple]]] = {}

    def add(self, attribute, interval, timeline, matcher, slot: int) -> None:
        if interval.lo <= interval.hi:  # empty filters accept nothing
            self._registrations.append(
                (attribute, interval.lo, interval.hi, timeline, matcher, slot)
            )
            self._dirty = True

    def discard(self, matcher) -> None:
        """Remove every registration of ``matcher`` (operator teardown)."""
        kept = [reg for reg in self._registrations if reg[4] is not matcher]
        if len(kept) != len(self._registrations):
            self._registrations = kept
            self._dirty = True

    def __bool__(self) -> bool:
        return bool(self._registrations)

    def targets(self, attribute: str, value: float) -> tuple:
        """(timeline, matcher, slot index) of every slot accepting ``value``.

        A matcher's registrations are added in slot order, so within one
        segment its first payload names its first accepting slot.
        """
        if self._dirty:
            self._rebuild()
        entry = self._by_attr.get(attribute)
        if entry is None:
            return ()
        bounds, segments = entry
        i = bisect_left(bounds, value)
        if i < len(bounds) and bounds[i] == value:
            return segments[2 * i + 1]
        return segments[2 * i]

    def _rebuild(self) -> None:
        self._dirty = False
        groups: dict[str, list[tuple]] = {}
        for attribute, lo, hi, *payload in self._registrations:
            groups.setdefault(attribute, []).append((lo, hi, tuple(payload)))
        by_attr: dict[str, tuple[list[float], list[tuple]]] = {}
        for attribute, regs in groups.items():
            bounds = sorted({x for lo, hi, _p in regs for x in (lo, hi)})
            # segment 2j+1 = the point [bounds[j]];
            # segment 2j   = the open range (bounds[j-1], bounds[j])
            # (2·0 and 2·len(bounds) lie outside every registration).
            segments: list[list] = [[] for _ in range(2 * len(bounds) + 1)]
            for lo, hi, payload in regs:
                first = bisect_left(bounds, lo)  # bounds[first] == lo
                last = bisect_left(bounds, hi)  # bounds[last] == hi
                for j in range(first, last + 1):
                    segments[2 * j + 1].append(payload)
                for j in range(first + 1, last + 1):
                    segments[2 * j].append(payload)
            by_attr[attribute] = (bounds, [tuple(s) for s in segments])
        self._by_attr = by_attr


class MatchingEngine:
    """Per-node registry of operator matchers, kept in lockstep with ``U``.

    One engine serves every operator a node stores, across all
    per-origin subscription stores: matchers are shared by operator
    *equality*, so the same fragment received from several neighbours is
    indexed once.  Sharing saves indexing, not match calls: the node
    event path asks each matcher it reaches through a store, and on the
    benchmark workloads no (matcher, arrival) pair is asked twice.

    Each ingest also records the arrival's *scope* (:meth:`arrival_scope`):
    the matchers the stabbing index routed the reading to, each with its
    first accepting slot.  The node's event path asks only those matchers
    — every other one has no slot that accepts the reading, so its
    answer is empty without a call.
    """

    _PRUNE_SWEEP_EVERY = 256
    """Store adds between full matcher-prune sweeps (each check is O(1)
    per matcher thanks to the min-timestamp guard)."""

    def __init__(self, store: "EventStore") -> None:
        self._store = store
        self.horizon = store.horizon
        self._matchers: dict[CorrelationOperator, OperatorMatcher] = {}
        self._ingest_index: dict[str, _StabbingIndex] = {}
        self._refs: dict[CorrelationOperator, int] = {}
        self._adds_since_sweep = 0
        # The latest ingested event and its accepted set (matcher ->
        # first accepting slot index); see arrival_scope.
        self._arrival: SimpleEvent | None = None
        self._accepted: dict[OperatorMatcher, int] = {}
        store.add_listener(self)

    # ------------------------------------------------------------------
    # EventStore listener protocol
    # ------------------------------------------------------------------
    def event_added(self, event: SimpleEvent) -> None:
        accepted: dict[OperatorMatcher, int] = {}
        index = self._ingest_index.get(event.sensor_id)
        if index is not None:
            timestamp = event.timestamp
            for timeline, matcher, slot in index.targets(
                event.attribute, event.value
            ):
                timeline.add(event)
                if matcher not in accepted:
                    accepted[matcher] = slot
                    if timestamp < matcher._min_ts:
                        matcher._min_ts = timestamp
        self._arrival = event
        self._accepted = accepted
        self._adds_since_sweep += 1
        if self._adds_since_sweep >= self._PRUNE_SWEEP_EVERY:
            self._adds_since_sweep = 0
            for matcher in self._matchers.values():
                matcher._prune()

    def horizon_advanced(self, horizon: float) -> None:
        self.horizon = horizon

    def sensor_fenced(self, sensor_id: str) -> None:
        """Mirror a store fence: drop the sensor from every matcher.

        Guarded by each matcher's per-sensor index, the scan is O(1)
        for matchers that never drew from the sensor; churn transitions
        are rare enough that the linear walk over matchers is noise.
        """
        for matcher in self._matchers.values():
            matcher.fence_sensor(sensor_id)

    def arrival_scope(self, event: SimpleEvent) -> dict[OperatorMatcher, int] | None:
        """The accepted set recorded when ``event`` was ingested.

        Maps every registered matcher with a slot accepting ``event`` to
        its first accepting slot index; a matcher absent from the map
        cannot match the arrival.  ``None`` when ``event`` is not the
        latest ingest, or a matcher was created or torn down since — the
        caller then asks every matcher as before.
        """
        if event is self._arrival:
            return self._accepted
        return None

    # ------------------------------------------------------------------
    def matcher(self, operator: CorrelationOperator) -> OperatorMatcher:
        """Get or create (and backfill) the matcher for ``operator``."""
        found = self._matchers.get(operator)
        if found is None:
            found = OperatorMatcher(operator, self)
            self._matchers[operator] = found
            self._arrival = None  # the new matcher is missing from the scope
            found.backfill(self._store)
            for index, (slot, timeline) in enumerate(
                zip(found._slots, found._timelines)
            ):
                for sensor_id in sorted(slot.sensors):
                    self._ingest_index.setdefault(
                        sensor_id, _StabbingIndex()
                    ).add(slot.attribute, slot.interval, timeline, found, index)
        return found

    def register(self, operators: Iterable[CorrelationOperator] | CorrelationOperator) -> None:
        """Eagerly create matchers (the ``SubscriptionStore.add`` hook)."""
        if isinstance(operators, CorrelationOperator):
            self.matcher(operators)
        else:
            for operator in operators:
                self.matcher(operator)

    # ------------------------------------------------------------------
    # lifecycle (query cancellation)
    # ------------------------------------------------------------------
    def retain(self, operator: CorrelationOperator) -> OperatorMatcher:
        """Get the operator's matcher and count a long-lived reference.

        Subscription stores and local-subscription registrations retain
        the matchers they hold; :meth:`release` drops the reference when
        the operator is removed again (query cancellation), and the last
        release tears the matcher down.
        """
        matcher = self.matcher(operator)
        self._refs[operator] = self._refs.get(operator, 0) + 1
        return matcher

    def release(self, operator: CorrelationOperator) -> None:
        """Drop one reference; tear the matcher down at zero.

        Also serves as an unconditional discard for matchers that were
        created without :meth:`retain` (the multi-join relays' on-demand
        ring joins): with no recorded reference the matcher is removed
        outright.  Releasing an unknown operator is a no-op.

        Teardown removes the matcher, scrubs its timelines out of every
        per-sensor ingest index and drops indexes that became empty —
        the engine ends in the state it would hold had the operator
        never been registered.
        """
        remaining = self._refs.get(operator, 0) - 1
        if remaining > 0:
            self._refs[operator] = remaining
            return
        self._refs.pop(operator, None)
        matcher = self._matchers.pop(operator, None)
        if matcher is None:
            return
        self._arrival = None
        for sensor_id in sorted(matcher.operator.sensors):
            index = self._ingest_index.get(sensor_id)
            if index is not None:
                index.discard(matcher)
                if not index:
                    del self._ingest_index[sensor_id]

    def matches_involving(
        self, operator: CorrelationOperator, event: SimpleEvent
    ) -> dict[str, list[SimpleEvent]]:
        """Drop-in replacement for the reference ``matches_involving``."""
        return self.matcher(operator).matches_involving(event)

    def instance_exists(
        self, operator: CorrelationOperator, trigger: SimpleEvent
    ) -> bool:
        """Drop-in replacement for the reference ``instance_exists``."""
        return self.matcher(operator).instance_exists(trigger)

    @property
    def n_matchers(self) -> int:
        return len(self._matchers)
