"""Machine-checked equivalence: incremental engine ≡ reference matcher.

The incremental engine (:mod:`repro.matching`) exists for speed; the
reference implementation (:mod:`repro.model.matching`) stays in-tree as
the semantics oracle.  These tests drive both against the *same*
:class:`EventStore` on randomized scenarios — identified and abstract
subscription shapes, finite and infinite ``delta_l``, duplicate
deliveries, out-of-order arrival, expiry/pruning — and require
identical participants (and identical ``instance_exists`` verdicts)
after every single ingest.  Correctness of the rewrite is therefore
checked by machine, not argued in prose.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.matching import MatchingEngine
from repro.model import Interval, Location, SimpleEvent
from repro.model.matching import (
    instance_exists as reference_instance_exists,
    matches_involving as reference_matches_involving,
)
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore

UNBOUNDED = float("inf")


# ---------------------------------------------------------------------------
# randomized scenario machinery
# ---------------------------------------------------------------------------
def random_operator(rng: np.random.Generator) -> CorrelationOperator:
    """A random 2-4 slot operator, identified- or abstract-shaped."""
    n_slots = int(rng.integers(2, 5))
    abstract = bool(rng.random() < 0.5)
    delta_t = float(rng.uniform(1.0, 6.0))
    delta_l = float(rng.uniform(1.0, 4.0)) if rng.random() < 0.5 else UNBOUNDED
    slots = []
    sensor_pool = iter(f"d{i}" for i in range(100))
    for s in range(n_slots):
        # Every interval straddles the [0, 2] band the value generator
        # centres on, so windows genuinely complete; edges still differ
        # per slot so acceptance is not uniform.
        lo = float(rng.uniform(-4, 0))
        interval = Interval(lo, lo + float(rng.uniform(3, 10)))
        if abstract:
            # one attribute per slot, several sensors can fill it
            n_sensors = int(rng.integers(1, 4))
            sensors = frozenset(next(sensor_pool) for _ in range(n_sensors))
            slots.append(Slot(f"attr{s}", f"attr{s}", interval, sensors))
        else:
            sensor = next(sensor_pool)
            slots.append(Slot(sensor, "t", interval, frozenset({sensor})))
    return CorrelationOperator("q", "user", slots, delta_t, delta_l)


def random_events(
    rng: np.random.Generator, operator: CorrelationOperator, n: int
) -> list[SimpleEvent]:
    """Near-ordered events over the operator's sensors (+ one stranger).

    ~12% duplicates, ~15% out-of-order (late) deliveries, timestamps on
    a coarse 0.5 grid so equal-timestamp ties and exact window edges
    are exercised constantly.
    """
    attr_of: dict[str, str] = {}
    for slot in operator.slots:
        for sensor in slot.sensors:
            attr_of[sensor] = slot.attribute
    attr_of["stranger"] = "t"
    sensors = sorted(attr_of)
    spread = operator.delta_l if math.isfinite(operator.delta_l) else 3.0
    events: list[SimpleEvent] = []
    t = 0.0
    for i in range(n):
        if events and rng.random() < 0.12:
            events.append(events[int(rng.integers(0, len(events)))])  # duplicate
            continue
        t += float(rng.integers(0, 3)) * 0.5
        ts = t
        if rng.random() < 0.15:  # late (out-of-order) arrival
            ts = max(0.0, t - float(rng.integers(1, 6)) * 0.5)
        sensor = sensors[int(rng.integers(0, len(sensors)))]
        # Mostly in-band values (windows complete often); a tail of
        # misses keeps slot acceptance from being a tautology.
        value = (
            float(rng.uniform(0, 2))
            if rng.random() < 0.75
            else float(rng.uniform(-12, 20))
        )
        events.append(
            SimpleEvent(
                sensor,
                attr_of[sensor],
                Location(
                    float(rng.uniform(0, 1.6 * spread)),
                    float(rng.uniform(0, 1.6 * spread)),
                ),
                value,
                ts,
                i,
            )
        )
    return events


def assert_equivalent(engine, operator, store, event):
    got = engine.matches_involving(operator, event)
    want = reference_matches_involving(operator, store, event)
    assert got == want, (
        f"matches_involving diverged for {event}:\n  engine   ={got}\n"
        f"  reference={want}"
    )
    got_exists = engine.instance_exists(operator, event)
    want_exists = reference_instance_exists(operator, store, event)
    assert got_exists == want_exists, f"instance_exists diverged for {event}"


def run_scenario(seed: int) -> int:
    """One randomized end-to-end scenario; returns #comparisons made."""
    rng = np.random.default_rng(seed)
    operator = random_operator(rng)
    validity = float(rng.uniform(8.0, 25.0))
    store = EventStore(validity)
    engine = MatchingEngine(store)
    events = random_events(rng, operator, n=int(rng.integers(20, 45)))
    # Half the scenarios register late, exercising the backfill path.
    register_at = 0 if rng.random() < 0.5 else len(events) // 2
    if register_at == 0:
        engine.register(operator)
    compared = 0
    now = 0.0
    for i, event in enumerate(events):
        now = max(now, event.timestamp + float(rng.integers(0, 3)) * 0.25)
        store.add(event, now)
        if i == register_at and register_at:
            engine.register(operator)
        if i >= register_at:
            assert_equivalent(engine, operator, store, event)
            compared += 1
            if rng.random() < 0.2:  # re-query an arbitrary earlier event
                earlier = events[int(rng.integers(0, i + 1))]
                assert_equivalent(engine, operator, store, earlier)
                compared += 1
        if rng.random() < 0.1:
            store.prune(now)
    # Post-run: full prune, then every stored event must still agree.
    store.prune(now)
    for event in list(store.all_events()):
        assert_equivalent(engine, operator, store, event)
        compared += 1
    return compared


# 220 seeds ≥ the 200-scenario acceptance floor, split into chunks so
# failures name a reproducible seed range and runtime stays visible.
@pytest.mark.parametrize("chunk", range(22))
def test_engine_equals_reference_randomized(chunk):
    compared = 0
    for seed in range(chunk * 10, chunk * 10 + 10):
        compared += run_scenario(seed)
    assert compared > 0


# ---------------------------------------------------------------------------
# hypothesis: adversarial small cases (shrinking finds minimal diffs)
# ---------------------------------------------------------------------------
SUB_OP = CorrelationOperator(
    "h",
    "user",
    [
        Slot("a", "t", Interval(0, 10), frozenset({"a"})),
        Slot("b", "t", Interval(0, 10), frozenset({"b", "b2"})),
    ],
    delta_t=3.0,
)
SPATIAL_OP = CorrelationOperator(
    "hs",
    "user",
    [
        Slot("a", "t", Interval(0, 10), frozenset({"a"})),
        Slot("b", "t", Interval(0, 10), frozenset({"b", "b2"})),
    ],
    delta_t=3.0,
    delta_l=2.0,
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "b2"]),
            st.integers(0, 24),  # timestamp halves — ties guaranteed
            st.integers(-2, 12),  # value, sometimes outside the filter
            st.integers(0, 6),  # x-cell — distances straddle delta_l
        ),
        min_size=1,
        max_size=16,
    ),
    st.booleans(),
)
def test_engine_equals_reference_adversarial(raw, spatial):
    operator = SPATIAL_OP if spatial else SUB_OP
    store = EventStore(validity=100.0)
    engine = MatchingEngine(store)
    engine.register(operator)
    now = 0.0
    events = []
    for i, (sensor, ts_half, value, xcell) in enumerate(raw):
        event = SimpleEvent(
            sensor, "t", Location(xcell * 0.9, 0.0), float(value), ts_half * 0.5, i
        )
        events.append(event)
        now = max(now, event.timestamp)
        store.add(event, now)
        assert_equivalent(engine, operator, store, event)
    for event in events:
        assert_equivalent(engine, operator, store, event)


# ---------------------------------------------------------------------------
# arrival scope: the node event path asks only the matchers an arrival's
# ingest pass accepted, with the accepting slot already known
# ---------------------------------------------------------------------------
_SCOPE_SENSORS = ("a", "b", "c")


@st.composite
def scope_operator(draw, name: str) -> CorrelationOperator:
    """1-3 slots over overlapping sensor sets, so one reading can be
    accepted by several slots of one operator (first slot wins)."""
    n_slots = draw(st.integers(1, 3))
    slots = []
    for s in range(n_slots):
        sensors = draw(
            st.frozensets(st.sampled_from(_SCOPE_SENSORS), min_size=1)
        )
        lo = draw(st.integers(-2, 6))
        width = draw(st.integers(-1, 6))  # -1: an empty filter
        slots.append(Slot(f"s{s}", "t", Interval(lo, lo + width), sensors))
    delta_t = draw(st.sampled_from([1.0, 2.5, 4.0]))
    delta_l = draw(st.sampled_from([UNBOUNDED, 2.0]))
    return CorrelationOperator(name, "user", slots, delta_t, delta_l)


_SCOPE_ADD = st.tuples(
    st.just("add"),
    st.sampled_from(_SCOPE_SENSORS),
    st.integers(0, 2),  # clock advance in halves: ties, window edges
    st.integers(-3, 10),  # value, sometimes outside every filter
    st.integers(0, 5),  # x-cell: distances straddle delta_l
)
_SCOPE_STEP = st.one_of(
    _SCOPE_ADD,  # fresh readings dominate, as in a live stream
    _SCOPE_ADD,
    _SCOPE_ADD,
    _SCOPE_ADD,
    st.tuples(st.just("late"), st.integers(1, 8)),  # stale or late copy
    st.tuples(st.just("dup")),  # re-deliver the previous reading
    st.tuples(st.just("fence"), st.sampled_from(_SCOPE_SENSORS)),
    st.tuples(st.just("unfence"), st.sampled_from(_SCOPE_SENSORS)),
    st.tuples(st.just("register")),  # a late operator invalidates scopes
)


def _first_accepting(operator: CorrelationOperator, event: SimpleEvent):
    for index, slot in enumerate(operator.slots):
        if slot.accepts(event):
            return index
    return None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(*(scope_operator(f"q{i}") for i in range(n)))
    ),
    st.lists(_SCOPE_STEP, min_size=4, max_size=40),
)
def test_arrival_scope_equals_unscoped_and_reference(operators, steps):
    """Scoped answers == unscoped ``matches_involving`` == reference.

    Readings arrive out of order, duplicated, expired (short validity,
    advancing clock) and fenced; one operator may register mid-stream,
    which must void the recorded scope.  After every delivery each
    registered operator is asked three ways: through the arrival scope
    (skipped when absent, else with the recorded slot), through
    ``matches_involving`` with no scope, and through the reference
    matcher over the same store.
    """
    store = EventStore(validity=6.0)
    engine = MatchingEngine(store)
    registered = list(operators[:-1])
    late_operator = operators[-1]
    engine.register(registered)
    now = 0.0
    clock = 0.0
    seq = 0
    previous: SimpleEvent | None = None
    for step in steps:
        kind = step[0]
        if kind == "register":
            if late_operator not in registered:
                engine.register(late_operator)
                registered.append(late_operator)
                if previous is not None:
                    assert engine.arrival_scope(previous) is None
            continue
        if kind == "fence":
            store.fence_sensor(step[1], now)
            continue
        if kind == "unfence":
            store.unfence_sensor(step[1])
            continue
        if kind == "dup":
            if previous is None:
                continue
            event = previous
        elif kind == "late":
            if previous is None:
                continue
            seq += 1
            event = SimpleEvent(
                previous.sensor_id,
                "t",
                previous.location,
                previous.value,
                max(0.0, previous.timestamp - step[1] * 0.5),
                seq,
            )
        else:
            _kind, sensor, advance, value, xcell = step
            seq += 1
            clock += advance * 0.5
            event = SimpleEvent(
                sensor, "t", Location(xcell * 0.9, 0.0), float(value), clock, seq
            )
            now = max(now, event.timestamp)
        stored = store.add(event, now)
        previous = event
        scope = engine.arrival_scope(event)
        if stored:
            assert scope is not None
        for operator in registered:
            matcher = engine.matcher(operator)
            want = reference_matches_involving(operator, store, event)
            assert matcher.matches_involving(event) == want
            if scope is None:
                continue
            own = scope.get(matcher)
            assert own == _first_accepting(operator, event)
            scoped = {} if own is None else matcher.matches_involving(event, own)
            assert scoped == want, (
                f"scoped answer diverged for {event}:\n  scoped   ={scoped}\n"
                f"  reference={want}"
            )


def run_scope_scenario(seed: int) -> int:
    """Seeded volume check of the arrival scope across several operators.

    Four random operators share sensors (every pool starts at ``d0``);
    three register up front and one mid-stream.  Their event streams
    are interleaved with fresh sequence numbers, so the store sees
    duplicates, late arrivals, expiry, fences and rejoins.  Returns the
    number of three-way comparisons made.
    """
    rng = np.random.default_rng(seed)
    operators = [random_operator(rng) for _ in range(4)]
    streams = [random_events(rng, op, n=int(rng.integers(15, 30))) for op in operators]
    events: list[SimpleEvent] = []
    for i in range(max(len(stream) for stream in streams)):
        for stream in streams:
            if i < len(stream):
                events.append(stream[i])
    events = [
        SimpleEvent(e.sensor_id, e.attribute, e.location, e.value, e.timestamp, i)
        for i, e in enumerate(events)
    ]
    store = EventStore(float(rng.uniform(6.0, 20.0)))
    engine = MatchingEngine(store)
    registered = operators[:3]
    engine.register(registered)
    register_at = len(events) // 2
    compared = 0
    now = 0.0
    for i, event in enumerate(events):
        if i == register_at:
            engine.register(operators[3])
            registered = operators
        if rng.random() < 0.05:
            store.fence_sensor(event.sensor_id, now)
        elif rng.random() < 0.1:
            store.unfence_sensor(event.sensor_id)
        now = max(now, event.timestamp + float(rng.integers(0, 3)) * 0.25)
        stored = store.add(event, now)
        scope = engine.arrival_scope(event)
        assert scope is not None or not stored
        for operator in registered:
            matcher = engine.matcher(operator)
            want = reference_matches_involving(operator, store, event)
            assert matcher.matches_involving(event) == want
            if scope is not None:
                own = scope.get(matcher)
                assert own == _first_accepting(operator, event)
                got = {} if own is None else matcher.matches_involving(event, own)
                assert got == want, f"scoped answer diverged for {event}"
            compared += 1
    return compared


@pytest.mark.parametrize("chunk", range(4))
def test_arrival_scope_equals_reference_randomized(chunk):
    compared = 0
    for seed in range(1000 + chunk * 10, 1000 + chunk * 10 + 10):
        compared += run_scope_scenario(seed)
    assert compared > 0


# ---------------------------------------------------------------------------
# Timeline.max_timestamp: exact newest entry through every mutation
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 40)),
        min_size=1,
        max_size=25,
    ),
    st.integers(-1, 42),
    st.sampled_from(["x", "y"]),
    st.integers(0, 42),
)
def test_timeline_max_timestamp_tracks_newest(raw, horizon, fenced, until):
    from repro.matching.timeline import Timeline

    def newest(timeline):
        stamps = [entry[0] for entry in timeline.entries()]
        return max(stamps) if stamps else -math.inf

    timeline = Timeline()
    for seq, (sensor, ts) in enumerate(raw):  # arbitrary order: lazy re-sort
        timeline.add(
            SimpleEvent(sensor, "t", Location(0.0, 0.0), 1.0, float(ts), seq)
        )
        assert timeline.max_timestamp == max(float(t) for _s, t in raw[: seq + 1])
    assert timeline.max_timestamp == newest(timeline)  # after the re-sort
    timeline.drop_sensor(fenced, float(until))
    assert timeline.max_timestamp == newest(timeline)
    timeline.drop_until(float(horizon))
    assert timeline.max_timestamp == newest(timeline)
    timeline.drop_until(math.inf)
    assert timeline.max_timestamp == -math.inf
