"""Index-sharing properties of the incremental matching engine.

One :class:`~repro.matching.engine.MatchingEngine` routes every arrival
through a per-sensor stabbing index shared by all registered matchers,
and refcounts matchers through ``retain``/``release``.  None of that
sharing may ever be *observable* — these hypothesis properties pin it
against the reference matcher run over the same store:

* randomly ordered cancel/retire sequences (including double
  registrations held by the retain/release refcount) never disturb the
  survivors' answers, and releasing the last reference really tears the
  shared index down;
* a sensor fence reaches *every* matcher drawing from the fenced
  sensor at once — no matcher ever reports a fenced member;
* timestamps built from ``int`` / numpy-scalar constructors answer
  identically through the arrival scope, the unscoped engine and the
  reference scan.

The columnar engine these properties were first written for is gone;
the module keeps its name so the test ids stay stable.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

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
    """``n`` near-duplicates of ``base`` over the same sensors.

    Each variant keeps the base's ``(attribute, sensors)`` slot groups
    (so every variant sits in the same stabbing-index buckets) and is
    one of: an exact clone, an interval jitter, or a ``delta_t`` jitter.
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


def reference_answer(op, store, event) -> dict[str, list]:
    return canonical(reference_matches_involving(op, store, event))


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_random_cancel_orders_never_disturb_survivors(seed):
    """Seeded random cancel/retire order over the shared family.

    Some operators are retained twice (refcount > 1); releases
    interleave with the event stream in a random order.  After every
    release the survivors must keep answering exactly like the
    reference matcher over the same store, and draining every
    registration must tear the shared state down to nothing."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(3, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 40)))

    store = EventStore(validity=1e9)
    engine = MatchingEngine(store)
    registrations = []  # one entry per retained reference
    for op in family:
        engine.retain(op)
        registrations.append(op)
        if rng.random() < 0.4:  # a second holder of the same operator
            engine.retain(op)
            registrations.append(op)

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
            engine.release(op)
            refs[op.subscription_id] -= 1
            if refs[op.subscription_id] == 0:
                live.discard(op.subscription_id)
        if not store.add(event, now=event.timestamp):
            continue
        for op in family:
            if op.subscription_id not in live:
                continue
            assert canonical(
                engine.matches_involving(op, event)
            ) == reference_answer(op, store, event), (
                seed,
                op.subscription_id,
                step,
            )
    assert engine.n_matchers == len(live)
    # Drain the remaining registrations: the shared structures vanish.
    for idx in order:
        op = registrations[idx]
        if refs[op.subscription_id] > 0:
            engine.release(op)
            refs[op.subscription_id] -= 1
    assert engine.n_matchers == 0
    assert engine._ingest_index == {}


@given(seed=st.integers(min_value=0, max_value=100_000))
@_settings
def test_drop_sensor_fences_all_sharers(seed):
    """One ``fence_sensor`` call fences every operator drawing from the
    sensor: answers stay identical to the reference over the fenced
    store, and no answer ever contains a member from the dropped sensor
    at or before the fence."""
    rng = np.random.default_rng(seed)
    base = random_operator(rng)
    family = variant_family(rng, base, int(rng.integers(2, 6)))
    events = random_events(rng, base, n=int(rng.integers(25, 45)))

    store = EventStore(validity=1e9)
    engine = MatchingEngine(store)
    matchers = [engine.retain(op) for op in family]

    sensors = sorted({s for slot in base.slots for s in slot.sensors})
    fenced_sensor = sensors[int(rng.integers(0, len(sensors)))]
    fence_step = int(rng.integers(5, len(events)))
    fence_time = None

    for step, event in enumerate(events):
        if step == fence_step:
            fence_time = max(e.timestamp for e in events[:step]) if step else 0.0
            store.fence_sensor(fenced_sensor, fence_time)
        if not store.add(event, now=event.timestamp):
            continue
        for op, matcher in zip(family, matchers):
            answer = matcher.matches_involving(event)
            assert canonical(answer) == reference_answer(op, store, event), (
                seed,
                op.subscription_id,
                step,
            )
            if fence_time is None:
                continue
            for members in answer.values():
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
    ``SimpleEvent`` float pin guarantees the arrival-scoped engine, the
    unscoped engine's bisect tuples and the reference scan all see the
    same IEEE-754 value.  Without the pin, a stray int or numpy
    timestamp could order differently at exact window edges."""
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

    store = EventStore(validity=1e9)
    engine = MatchingEngine(store)
    matcher = engine.retain(operator)
    compared = 0
    for event in events:
        assert type(event.timestamp) is float
        if not store.add(event, now=event.timestamp):
            continue
        want = reference_answer(operator, store, event)
        assert canonical(matcher.matches_involving(event)) == want
        own = engine.arrival_scope(event).get(matcher)
        scoped = {} if own is None else matcher.matches_involving(event, own)
        assert canonical(scoped) == want
        compared += 1
    assert compared > 0
