"""Shared columnar slot timelines — storage for the columnar matcher.

One :class:`SharedTimeline` holds every event a *group* of slot filters
draws from, where a group is the pair ``(attribute, sensor set)``.  Each
distinct value interval registered on the group becomes a refcounted
:class:`Lane`; the slot timelines of all operators whose filters share
the group are then *views* of one backing store — a boolean mask per
lane over one float64 value column — instead of per-operator copies.
This is the SIMD lane/bank organisation: one arriving value is compared
against every lane's bounds in a single vectorised broadcast, and
near-duplicate queries (the paper's subsumption workload) share both
storage and the comparison work.

Layout per group:

``entries``
    The canonical event list, ``(timestamp, seq, sensor_id, event)``
    tuples sorted lazily — exactly :class:`~repro.matching.timeline.
    Timeline`'s representation, so masked subsequences of a shared
    timeline are *bit-identical* to the per-operator timelines the
    incremental engine would have built (the equivalence fence depends
    on this).

``timestamps`` / ``values``
    float64 numpy columns mirroring ``entries``, synced lazily
    (incremental tail append while in order, full rebuild after an
    out-of-order sort or a drop).  Interval masks over the value column
    replace per-slot filter evaluation when an out-of-order arrival
    needs them, and the oracle probes ``searchsorted`` the timestamp
    column.

``lanes``
    One :class:`Lane` per distinct interval, refcounted.  Storage
    admission is gated by the *hull* — the union of live lane
    intervals — so the group never stores events no sharer can see.

``max_timestamp`` / ``lane_newest``
    The newest stored timestamp, overall and per lane (over the entries
    the lane accepts), kept up to date on every add.  While no entry is
    newer than an arrival, they decide each lane's window bits exactly
    with no span and no mask (see ``_GroupPlan.vec_bits``).

Sharing decisions reuse :meth:`repro.subsumption.setfilter.
ProbabilisticSetFilter.decide`: a newly admitted interval that is
*certainly* covered by the existing lanes needs no store re-scan
(every event it can accept is already in the group); only uncertain or
uncovered admissions pay a backfill.  Certainty is required — a
Monte-Carlo "covered" verdict is treated as not covered, so sharing can
only ever skip work it has proved redundant.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..model.events import SimpleEvent
from ..model.intervals import Interval
from .timeline import Entry

if TYPE_CHECKING:
    from ..subsumption.setfilter import ProbabilisticSetFilter

_INF = float("inf")


class Lane:
    """One value-interval lane over a shared timeline (a slot filter).

    Lanes are refcounted: every slot of every registered operator whose
    filter equals this interval holds one reference, and the lane (and
    with it the group's hull coverage of the interval) disappears when
    the last sharer cancels.
    """

    __slots__ = ("interval", "lo", "hi", "index", "refs")

    def __init__(self, interval: Interval, index: int) -> None:
        self.interval = interval
        self.lo = interval.lo
        self.hi = interval.hi
        self.index = index
        self.refs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lane([{self.lo!r}, {self.hi!r}] refs={self.refs})"


class SharedTimeline:
    """Refcounted columnar event store for one ``(attribute, sensors)`` group."""

    __slots__ = (
        "attribute",
        "sensors",
        "version",
        "max_delta_t",
        "min_timestamp",
        "max_timestamp",
        "lanes",
        "lane_newest",
        "lane_los",
        "lane_his",
        "_entries",
        "_dirty",
        "_ts",
        "_vals",
        "_synced",
        "_lane_by_bounds",
        "_hull",
    )

    def __init__(self, attribute: str, sensors: frozenset[str]) -> None:
        self.attribute = attribute
        self.sensors = sensors
        #: Bumped on every observable mutation (adds, drops, lane
        #: admission/release); per-arrival evaluation plans key on it.
        self.version = 0
        #: Widest ``delta_t`` any registered operator needs; monotone,
        #: only used to size the shared candidate span (a superset span
        #: costs a few comparisons, never correctness).
        self.max_delta_t = 0.0
        self.min_timestamp = _INF
        #: Newest stored timestamp (``-inf`` when empty); an upper bound
        #: of every lane's newest (stored events may outlive their lane).
        self.max_timestamp = -_INF
        self.lanes: list[Lane] = []
        #: Per lane, the newest timestamp among stored entries the lane
        #: accepts (``-inf`` for none).  Exact above the expiry horizon:
        #: a value at or below the last :meth:`drop_until` horizon may
        #: name a dropped entry, and then the lane holds nothing visible.
        #: ``None`` while the group has no lanes.
        self.lane_newest: np.ndarray | None = None
        self.lane_los: np.ndarray | None = None
        self.lane_his: np.ndarray | None = None
        self._entries: list[Entry] = []
        self._dirty = False
        self._ts = np.empty(64, dtype=np.float64)
        self._vals = np.empty(64, dtype=np.float64)
        self._synced = 0
        self._lane_by_bounds: dict[tuple[float, float], Lane] = {}
        # Merged closed-interval hull of the live lanes, flattened to
        # ``[lo0, hi0, lo1, hi1, ...]`` for bisect membership tests.
        self._hull: list[float] = []

    # ------------------------------------------------------------------
    # entry storage (mirrors Timeline exactly)
    # ------------------------------------------------------------------
    def add(self, event: SimpleEvent) -> None:
        """Append; order and columns are restored lazily at the next query."""
        entries = self._entries
        entry = (event.timestamp, event.seq, event.sensor_id, event)
        if entries and not self._dirty and entry < entries[-1]:
            self._dirty = True
        entries.append(entry)
        timestamp = event.timestamp
        if timestamp < self.min_timestamp:
            self.min_timestamp = timestamp
        if timestamp > self.max_timestamp:
            self.max_timestamp = timestamp
        newest = self.lane_newest
        if newest is not None:
            value = event.value
            accepts = (value >= self.lane_los) & (value <= self.lane_his)
            newest[accepts & (newest < timestamp)] = timestamp
        self.version += 1

    def entries(self) -> list[Entry]:
        """The sorted backing list (shared, do not mutate)."""
        if self._dirty:
            self._entries.sort()
            self._dirty = False
            self._synced = 0  # column order is stale after a resort
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def sync(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(timestamps, values, n)`` columns mirroring :meth:`entries`.

        Arrays are capacity-padded; only ``[:n]`` is meaningful.
        """
        ents = self.entries()
        n = len(ents)
        synced = self._synced
        if synced < n:
            if n > len(self._ts):
                cap = max(n, 2 * len(self._ts))
                ts = np.empty(cap, dtype=np.float64)
                vals = np.empty(cap, dtype=np.float64)
                ts[:synced] = self._ts[:synced]
                vals[:synced] = self._vals[:synced]
                self._ts = ts
                self._vals = vals
            ts = self._ts
            vals = self._vals
            for i in range(synced, n):
                entry = ents[i]
                ts[i] = entry[0]
                vals[i] = entry[3].value
            self._synced = n
        return self._ts, self._vals, n

    def index_of(self, event: SimpleEvent) -> int | None:
        """Index of ``event`` (by key), or None when absent."""
        entries = self.entries()
        probe = (event.timestamp, event.seq, event.sensor_id)
        i = bisect_left(entries, probe)
        if i < len(entries) and entries[i][:3] == probe:
            return i
        return None

    def drop_sensor(self, sensor_id: str, until: float = _INF) -> int:
        """Remove entries of ``sensor_id`` with ``timestamp <= until``.

        The churn fence on shared state: one call fences the sensor for
        *every* operator whose slots share this group.  Returns the
        number of dropped entries.
        """
        entries = self._entries
        kept = [
            entry
            for entry in entries
            if entry[2] != sensor_id or entry[0] > until
        ]
        dropped = len(entries) - len(kept)
        if dropped:
            entries[:] = kept
            self._synced = 0
            self.min_timestamp = (
                min(entry[0] for entry in entries) if entries else _INF
            )
            self.max_timestamp = (
                max(entry[0] for entry in entries) if entries else -_INF
            )
            self._recompute_newest()
            self.version += 1
        return dropped

    def drop_until(self, horizon: float) -> int:
        """Drop entries with ``timestamp <= horizon`` (expiry sweep)."""
        entries = self.entries()
        cut = bisect_right(entries, (horizon, _INF))
        if not cut:
            return 0
        del entries[:cut]
        self._synced = 0
        if entries:
            # The cut is a sorted prefix, so the newest entries survive;
            # a lane emptied by it keeps a newest at or below ``horizon``.
            self.min_timestamp = entries[0][0]
        else:
            self.min_timestamp = _INF
            self.max_timestamp = -_INF
            if self.lane_newest is not None:
                self.lane_newest.fill(-_INF)
        self.version += 1
        return cut

    # ------------------------------------------------------------------
    # lanes & hull
    # ------------------------------------------------------------------
    def note_delta(self, delta_t: float) -> None:
        if delta_t > self.max_delta_t:
            self.max_delta_t = delta_t

    def acquire_lane(
        self,
        interval: Interval,
        setfilter: "ProbabilisticSetFilter",
        backfill: Callable[["SharedTimeline", Interval], None] | None = None,
    ) -> Lane:
        """Register one slot filter; share an existing lane when identical.

        A new interval *certainly* covered by the live lanes (via
        ``setfilter.decide`` on the 1-D boxes) skips the backfill: every
        event it accepts was already admitted through the hull.  Any
        uncertainty re-scans the store — sharing only elides work it
        can prove redundant.
        """
        bounds = (interval.lo, interval.hi)
        lane = self._lane_by_bounds.get(bounds)
        if lane is not None:
            lane.refs += 1
            return lane
        covered = interval.is_empty
        if not covered and self.lanes:
            decision = setfilter.decide(
                (interval,), [(lane.interval,) for lane in self.lanes]
            )
            covered = decision.covered and decision.certain
        lane = Lane(interval, len(self.lanes))
        lane.refs = 1
        self.lanes.append(lane)
        self._lane_by_bounds[bounds] = lane
        self._rebuild_lane_arrays()
        self.version += 1
        if not covered and backfill is not None:
            backfill(self, interval)
        return lane

    def release_lane(self, lane: Lane) -> None:
        """Drop one reference; remove the lane (and shrink the hull) at zero."""
        lane.refs -= 1
        if lane.refs > 0:
            return
        self.lanes.remove(lane)
        del self._lane_by_bounds[(lane.lo, lane.hi)]
        for index, kept in enumerate(self.lanes):
            kept.index = index
        self._rebuild_lane_arrays()
        self.version += 1

    @property
    def total_refs(self) -> int:
        return sum(lane.refs for lane in self.lanes)

    def _rebuild_lane_arrays(self) -> None:
        lanes = self.lanes
        if lanes:
            self.lane_los = np.array([lane.lo for lane in lanes])
            self.lane_his = np.array([lane.hi for lane in lanes])
        else:
            self.lane_los = None
            self.lane_his = None
        # Merge the live closed intervals into the flattened hull.
        live = sorted(
            (lane.lo, lane.hi) for lane in lanes if lane.lo <= lane.hi
        )
        hull: list[float] = []
        for lo, hi in live:
            if hull and lo <= hull[-1]:
                if hi > hull[-1]:
                    hull[-1] = hi
            else:
                hull.append(lo)
                hull.append(hi)
        self._hull = hull
        self._recompute_newest()

    def _recompute_newest(self) -> None:
        """Rebuild :attr:`lane_newest` from the stored entries (lane or
        fence changes; event adds update it incrementally)."""
        los = self.lane_los
        if los is None:
            self.lane_newest = None
            return
        ts, vals, n = self.sync()
        if not n:
            self.lane_newest = np.full(len(los), -_INF)
            return
        accepted = (vals[:n] >= los[:, None]) & (vals[:n] <= self.lane_his[:, None])
        self.lane_newest = np.where(accepted, ts[:n], -_INF).max(axis=1)

    def hull_accepts(self, value: float) -> bool:
        """Whether any live lane's interval contains ``value``."""
        hull = self._hull
        i = bisect_left(hull, value)
        if i >= len(hull):
            return False
        return (i & 1) == 1 or hull[i] == value
