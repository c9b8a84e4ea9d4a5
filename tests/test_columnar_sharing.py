"""Slot-sharing properties of the columnar matching engine.

The columnar engine collapses near-duplicate operators onto shared
refcounted structures: one :class:`~repro.matching.batch.SharedTimeline`
per ``(attribute, sensor set)`` group, one refcounted
:class:`~repro.matching.batch.Lane` per distinct filter interval.  None
of that sharing may ever be *observable* — these hypothesis properties
pin it:

* a shared engine holding a whole family of near-duplicate operators
  answers every probe exactly like isolated single-operator engines fed
  the same event stream (sharing ≡ no sharing);
* randomly ordered cancel/retire sequences (including double
  registrations held by the retain/release refcount) never disturb the
  survivors' answers, and releasing the last sharer really tears the
  shared state down;
* ``drop_sensor`` churn fences *every* sharer of the dropped sensor's
  timelines at once — no matcher, however it shares lanes, ever reports
  a fenced member.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.matching.columnar import ColumnarEngine
from repro.matching.engine import MatchingEngine
from repro.model import (
    Interval,
    Location,
    SimpleEvent,
    matches_involving as reference_matches_involving,
)
from repro.model.operators import CorrelationOperator, Slot
from repro.network.eventstore import EventStore

from test_matching_engine import random_events, random_operator

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def variant_family(rng, base: CorrelationOperator, n: int):
    """``n`` near-duplicates of ``base`` exercising every sharing tier.

    Each variant keeps the base's ``(attribute, sensors)`` slot groups
    (same SharedTimelines) and is one of: an exact clone (every lane
    shared, refcount > 1), an interval jitter (same timeline, private
    lanes), or a ``delta_t`` jitter (same lanes, different window).
    """
    family = []
    for i in range(n):
        kind = int(rng.integers(0, 3))
        slots = []
        for slot in base.slots:
            interval = slot.interval
            if kind == 1:
                interval = type(interval)(
                    interval.lo + float(rng.integers(-2, 3)) * 0.5,
                    interval.hi + float(rng.integers(-2, 3)) * 0.5,
                )
                if interval.hi < interval.lo:
                    interval = type(interval)(interval.hi, interval.lo)
            slots.append(
                Slot(slot.slot_id, slot.attribute, interval, slot.sensors)
            )
        delta_t = base.delta_t
        if kind == 2:
            delta_t = base.delta_t + float(rng.integers(0, 4)) * 0.5
        family.append(
            CorrelationOperator(
                f"q{i}", "user", tuple(slots), delta_t, base.delta_l
            )
        )
    return family


def canonical(answer) -> dict[str, list]:
    """A ``matches_involving`` result reduced to comparable event keys."""
    return {
        slot_id: sorted(e.key for e in members)
        for slot_id, members in answer.items()
    }


def solo_arenas(family):
    """One isolated (store, engine, matcher) per operator — the
    no-sharing baseline every shared answer is compared against."""
    arenas = []
    for op in family:
        store = EventStore(validity=1e9)
        engine = ColumnarEngine(store)
        arenas.append((store, engine, engine.matcher(op)))
    return arenas


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_shared_timelines_equal_unshared(seed):
    """Sharing ≡ no sharing, probe for probe.

    One engine holds the whole near-duplicate family (lanes shared,
    refcounts > 1); each family member also runs alone in a private
    engine.  Every arrival must produce identical per-operator answers
    through both ``matches_involving`` and the bulk ``iter_matched``
    path the node uses."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(2, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 45)))

    shared_store = EventStore(validity=1e9)
    shared = ColumnarEngine(shared_store)
    op_of = {id(shared.matcher(op)): op for op in family}
    solos = solo_arenas(family)

    matched_any = 0
    for event in events:
        added = shared_store.add(event, now=event.timestamp)
        for store, _engine, _matcher in solos:
            assert store.add(event, now=event.timestamp) == added
        if not added:
            continue
        bulk = {
            op_of[id(matcher)].subscription_id: sorted(
                {m.key for m in members}
            )
            for matcher, members in shared.iter_matched(event)
        }
        for op, (_store, _engine, solo_matcher) in zip(family, solos):
            shared_answer = canonical(
                shared.matches_involving(op, event)
            )
            solo_answer = canonical(solo_matcher.matches_involving(event))
            assert shared_answer == solo_answer, (seed, op.subscription_id)
            if solo_answer:
                matched_any += 1
                # The bulk path reports exactly the matching operators,
                # with the union of the per-slot member lists.
                assert bulk.get(op.subscription_id) == sorted(
                    {k for keys in solo_answer.values() for k in keys}
                ), (seed, op.subscription_id)
            else:
                assert op.subscription_id not in bulk, (
                    seed,
                    op.subscription_id,
                )
    assert len(events) > 0


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_random_cancel_orders_never_disturb_survivors(seed):
    """Seeded random cancel/retire order over the shared family.

    Some operators are registered twice (retain/release refcount > 1);
    releases interleave with the event stream in a random order.  After
    every release the survivors must keep answering exactly like their
    isolated baselines, and draining every registration must tear the
    shared state down to nothing."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(3, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 40)))

    shared_store = EventStore(validity=1e9)
    shared = ColumnarEngine(shared_store)
    registrations = []  # one entry per retained reference
    for op in family:
        shared.matcher(op)
        registrations.append(op)
        if rng.random() < 0.4:  # a second sharer of the same operator
            shared.retain(op)
            registrations.append(op)
    solos = solo_arenas(family)

    order = list(rng.permutation(len(registrations)))
    release_at = {}  # event step -> registration indices released there
    for idx in order:
        release_at.setdefault(int(rng.integers(0, len(events))), []).append(idx)

    live = {op.subscription_id for op in family}
    refs = {}
    for op in registrations:
        refs[op.subscription_id] = refs.get(op.subscription_id, 0) + 1

    for step, event in enumerate(events):
        for idx in release_at.get(step, ()):
            op = registrations[idx]
            shared.release(op)
            refs[op.subscription_id] -= 1
            if refs[op.subscription_id] == 0:
                live.discard(op.subscription_id)
        added = shared_store.add(event, now=event.timestamp)
        for store, _engine, _matcher in solos:
            assert store.add(event, now=event.timestamp) == added
        if not added:
            continue
        for op, (_store, _engine, solo_matcher) in zip(family, solos):
            if op.subscription_id not in live:
                continue
            assert canonical(
                shared.matches_involving(op, event)
            ) == canonical(solo_matcher.matches_involving(event)), (
                seed,
                op.subscription_id,
                step,
            )
    # Drain the remaining registrations: the shared structures vanish.
    for idx in order:
        op = registrations[idx]
        if refs[op.subscription_id] > 0:
            shared.release(op)
            refs[op.subscription_id] -= 1
    assert shared.n_matchers == 0
    assert not shared._groups
    assert not any(shared._groups_by_sensor.values())


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_drop_sensor_fences_all_sharers(seed):
    """One ``fence_sensor`` call fences every operator sharing the
    sensor's timelines: answers stay identical to isolated engines
    fenced the same way, and no answer ever contains a member from the
    dropped sensor at or before the fence."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(2, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 45)))

    shared_store = EventStore(validity=1e9)
    shared = ColumnarEngine(shared_store)
    matchers = [shared.matcher(op) for op in family]
    solos = solo_arenas(family)

    sensors = sorted({s for slot in base.slots for s in slot.sensors})
    fenced_sensor = sensors[int(rng.integers(0, len(sensors)))]
    fence_step = int(rng.integers(5, len(events)))
    fence_time = None

    for step, event in enumerate(events):
        if step == fence_step:
            fence_time = max(e.timestamp for e in events[:step]) if step else 0.0
            shared_store.fence_sensor(fenced_sensor, fence_time)
            for store, _engine, _matcher in solos:
                store.fence_sensor(fenced_sensor, fence_time)
        added = shared_store.add(event, now=event.timestamp)
        for store, _engine, _matcher in solos:
            assert store.add(event, now=event.timestamp) == added
        if not added:
            continue
        for op, matcher, (_store, _engine, solo_matcher) in zip(
            family, matchers, solos
        ):
            answer = canonical(shared.matches_involving(op, event))
            assert answer == canonical(
                solo_matcher.matches_involving(event)
            ), (seed, op.subscription_id, step)
            if fence_time is None:
                continue
            for members in matcher.matches_involving(event).values():
                for member in members:
                    assert not (
                        member.sensor_id == fenced_sensor
                        and member.timestamp <= fence_time
                    ), (seed, op.subscription_id, member)
    assert math.isfinite(events[-1].timestamp)


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_mixed_dtype_subround_timestamps_three_way(seed):
    """Dtype-pin regression: jittered sub-round timestamps built from
    ``int`` / numpy-scalar constructors answer identically three ways.

    Replay rounds produce integer round boundaries, fault jitter
    produces ``np.float64`` offsets a fraction of a round wide; the
    ``SimpleEvent`` float pin guarantees the columnar engine's float64
    timestamp columns, the incremental engine's bisect tuples and the
    reference scan all see the same IEEE-754 value.  Without the pin, a
    stray int timestamp compares differently through tuple ordering
    than through ``searchsorted``, and the three answers drift at exact
    window edges."""
    rng = np.random.default_rng(seed)
    operator = CorrelationOperator(
        "q",
        "user",
        [
            Slot("a", "t", Interval(0, 10), frozenset({"a"})),
            Slot("b", "t", Interval(0, 10), frozenset({"b", "b2"})),
        ],
        delta_t=3.0,
    )
    loc = Location(0.0, 0.0)
    raw_kinds = (int, float, np.int64, np.float64)
    events = []
    for i in range(40):
        round_no = int(rng.integers(0, 12))
        if rng.random() < 0.5:
            ts = raw_kinds[int(rng.integers(0, 2))](round_no)  # on-round
        else:  # sub-round jitter, sometimes a numpy scalar
            jitter = float(rng.integers(1, 8)) / 8.0
            kind = raw_kinds[2 + int(rng.integers(0, 2))]
            ts = np.float64(round_no) + np.float64(jitter)
            ts = kind(ts) if kind is np.float64 else np.float64(ts)
        sensor = ("a", "b", "b2")[int(rng.integers(0, 3))]
        value = float(rng.integers(-2, 13))
        events.append(SimpleEvent(sensor, "t", loc, value, ts, i))

    inc_store = EventStore(validity=1e9)
    col_store = EventStore(validity=1e9)
    incremental = MatchingEngine(inc_store)
    columnar = ColumnarEngine(col_store)
    incremental.register(operator)
    col_matcher = columnar.matcher(operator)
    compared = 0
    for event in events:
        assert type(event.timestamp) is float
        added = inc_store.add(event, now=event.timestamp)
        assert col_store.add(event, now=event.timestamp) == added
        if not added:
            continue
        want = canonical(reference_matches_involving(operator, inc_store, event))
        assert canonical(incremental.matches_involving(operator, event)) == want
        assert canonical(col_matcher.matches_involving(event)) == want
        compared += 1
    assert compared > 0


_LANE_STEP = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(["a", "b"]),
        st.integers(0, 30),  # timestamp, any order
        st.integers(-2, 12),  # value
    ),
    st.tuples(st.just("acquire"), st.integers(-2, 8), st.integers(-1, 6)),
    st.tuples(st.just("release"), st.integers(0, 5)),
    st.tuples(st.just("expire"), st.integers(0, 30)),
    st.tuples(st.just("fence"), st.sampled_from(["a", "b"]), st.integers(0, 30)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_LANE_STEP, min_size=1, max_size=40))
def test_lane_newest_tracks_each_lane(steps):
    """``max_timestamp`` is the newest stored entry and ``lane_newest``
    each lane's newest accepted one, through adds in any order, lane
    churn, expiry drops and sensor fences — exact wherever the lane
    holds an entry, and at or below the last expiry horizon otherwise
    (the stale-window test in the columnar engine relies on both)."""
    from repro.matching.batch import SharedTimeline
    from repro.subsumption.setfilter import ProbabilisticSetFilter

    group = SharedTimeline("t", frozenset({"a", "b"}))
    setfilter = ProbabilisticSetFilter()
    lanes = []
    horizon = -math.inf
    for seq, step in enumerate(steps):
        kind = step[0]
        if kind == "add":
            _kind, sensor, ts, value = step
            group.add(
                SimpleEvent(
                    sensor, "t", Location(0.0, 0.0), float(value), float(ts), seq
                )
            )
        elif kind == "acquire":
            interval = Interval(step[1], step[1] + step[2])
            lanes.append(group.acquire_lane(interval, setfilter))
        elif kind == "release":
            if lanes:
                group.release_lane(lanes.pop(step[1] % len(lanes)))
        elif kind == "expire":
            horizon = max(horizon, float(step[1]))
            group.drop_until(horizon)
        else:
            group.drop_sensor(step[1], float(step[2]))
        stamps = [entry[0] for entry in group.entries()]
        assert group.max_timestamp == (max(stamps) if stamps else -math.inf)
        if not group.lanes:
            assert group.lane_newest is None
            continue
        for lane in group.lanes:
            accepted = [
                entry[0]
                for entry in group.entries()
                if lane.lo <= entry[3].value <= lane.hi
            ]
            newest = group.lane_newest[lane.index]
            if accepted:
                assert newest == max(accepted)
            else:
                assert newest <= horizon
