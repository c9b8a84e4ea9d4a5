"""The processing-node base class — storage layout of Figure 2 plus the
machinery every approach shares.

Each node keeps

* ``ads`` — advertisements per neighbour (``DSA_m``) and local sensors;
* ``stores[origin]`` — subscriptions/operators received from each
  neighbour (``S_m``) or from local users (``S_local``), split into the
  *uncovered* set (candidates for forwarding) and the *covered* set
  (redundant for forwarding, still defining correlation needs);
* ``store`` — the shared set ``U`` of unexpired simple events, ordered
  by timestamp;
* per-event forwarded-to flags (the ``sendTo`` array of Algorithm 5),
  so no data unit crosses the same link twice in the same stream.

Protocol behaviour — how subscriptions are filtered/split and how events
are propagated — lives in the subclasses under ``repro.core`` (the
Filter-Split-Forward contribution) and ``repro.baselines``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator

from ..matching.columnar import ColumnarEngine
from ..matching.engine import MatchingEngine, OperatorMatcher
from ..model.advertisements import Advertisement, AdvertisementTable
from ..model.events import EventKey, SimpleEvent
from ..model.matching import matches_involving as reference_matches_involving
from ..model.operators import CorrelationOperator, root_operator
from ..model.subscriptions import (
    AbstractSubscription,
    IdentifiedSubscription,
    Subscription,
)
from ..sketches.messages import SketchPushMessage, SketchSubscribeMessage
from ..subsumption.pairwise import find_cover
from .messages import (
    AdvertisementMessage,
    EventMessage,
    Message,
    OperatorMessage,
    UnsubscribeMessage,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

LOCAL = AdvertisementTable.LOCAL
"""Origin marker for locally attached sensors / local users."""

_PRUNE_EVERY = 64
"""Lazy store-pruning cadence (events between sweeps)."""


LifecycleSeq = tuple[int, ...]
"""Arrival rank of a stored/dispatched operator record.

Tuples order lexicographically: plain arrivals rank ``(major, minor)``,
entries re-derived during cancellation repair extend the rank of the
record they derive from (``rank + (minor,)``), so a repaired store keeps
exactly the arrival order the counterfactual never-subscribed run would
have produced — which is what the covered/uncovered repair relies on.
"""


class SeqSource:
    """Per-node allocator of :data:`LifecycleSeq` ranks."""

    __slots__ = ("_major", "_prefix", "_minor")

    def __init__(self) -> None:
        self._major = 0
        self._prefix: LifecycleSeq = ()
        self._minor = 0

    def begin_arrival(self, prefix: LifecycleSeq | None = None) -> None:
        """Open a new allocation context.

        ``None`` starts the next top-level arrival; a prefix re-opens
        the context *inside* an existing record's rank (cancellation
        repair re-deriving entries at their counterfactual position).
        """
        if prefix is None:
            self._major += 1
            self._prefix = (self._major,)
        else:
            self._prefix = prefix
        self._minor = 0

    def next(self) -> LifecycleSeq:
        self._minor += 1
        return self._prefix + (self._minor,)


def insert_by_seq(records: list, record) -> None:
    """Place a seq-ranked record at its arrival-order position.

    Plain arrivals carry monotone ranks and append; cancellation repair
    derives entries ranked inside an existing record's prefix, which
    must sit at their counterfactual position for the before-only
    coverage checks to see the right candidates.  Shared by the
    subscription stores and the multi-join dispatch ledger.
    """
    if records and record.seq < records[-1].seq:
        position = len(records)
        while position and records[position - 1].seq > record.seq:
            position -= 1
        records.insert(position, record)
    else:
        records.append(record)


class StoredOperator:
    """One stored operator record: rank, coverage flag, resolved matcher."""

    __slots__ = ("seq", "operator", "covered", "matcher")

    def __init__(
        self,
        seq: LifecycleSeq,
        operator: CorrelationOperator,
        covered: bool,
        matcher: object,
    ) -> None:
        self.seq = seq
        self.operator = operator
        self.covered = covered
        self.matcher = matcher


class SubscriptionStore:
    """``S_m`` of Figure 2: operators received from one origin.

    When the node runs the incremental matching engine, storing an
    operator also retains its :class:`OperatorMatcher` — from then on
    every ingested event is indexed as it arrives instead of being
    rediscovered by scans; removing the operator again (query
    cancellation) releases the matcher.

    Records keep their arrival rank (:data:`LifecycleSeq`) so that
    cancellation repair can re-evaluate coverage decisions against
    exactly the candidates each operator would have seen had the
    cancelled subscription never existed.
    """

    def __init__(
        self,
        engine: MatchingEngine | None = None,
        seq_source: SeqSource | None = None,
    ) -> None:
        self._records: list[StoredOperator] = []
        self._by_sensor: dict[str, list[StoredOperator]] = {}
        self._op_ids: dict[str, int] = {}
        self._engine = engine
        self._seq_source = seq_source if seq_source is not None else SeqSource()

    @property
    def uncovered(self) -> list[CorrelationOperator]:
        """Uncovered operators in arrival order (forwarding candidates)."""
        return [r.operator for r in self._records if not r.covered]

    @property
    def covered(self) -> list[CorrelationOperator]:
        return [r.operator for r in self._records if r.covered]

    def add(
        self,
        operator: CorrelationOperator,
        covered: bool,
        seq: LifecycleSeq | None = None,
    ) -> StoredOperator:
        """Store an operator; ``seq`` overrides the rank (repair only)."""
        # Resolve the operator's matcher once at store time; the event
        # hot path then queries it with zero lookup layers.
        matcher = (
            self._engine.retain(operator) if self._engine is not None else None
        )
        record = StoredOperator(
            seq if seq is not None else self._seq_source.next(),
            operator,
            covered,
            matcher,
        )
        insert_by_seq(self._records, record)
        self._op_ids[operator.op_id] = self._op_ids.get(operator.op_id, 0) + 1
        for sensor_id in sorted(operator.sensors):
            self._by_sensor.setdefault(sensor_id, []).append(record)
        return record

    def has_operator(self, op_id: str) -> bool:
        """Whether a record with this operator id is currently stored.

        The reliability layer's duplicate guard: a soft-state re-offer
        (or a redundantly delivered copy) of an operator this store
        already holds must not be re-handled.
        """
        return op_id in self._op_ids

    def remove_subscription(self, sub_id: str) -> list[StoredOperator]:
        """Drop every record of ``sub_id``; releases retained matchers."""
        removed = [
            r for r in self._records if r.operator.subscription_id == sub_id
        ]
        if not removed:
            return []
        self._records = [
            r for r in self._records if r.operator.subscription_id != sub_id
        ]
        sensors = {sid for r in removed for sid in r.operator.sensors}
        for sensor_id in sorted(sensors):
            bucket = [
                r
                for r in self._by_sensor.get(sensor_id, ())
                if r.operator.subscription_id != sub_id
            ]
            if bucket:
                self._by_sensor[sensor_id] = bucket
            else:
                self._by_sensor.pop(sensor_id, None)
        for record in removed:
            count = self._op_ids.get(record.operator.op_id, 0) - 1
            if count > 0:
                self._op_ids[record.operator.op_id] = count
            else:
                self._op_ids.pop(record.operator.op_id, None)
        if self._engine is not None:
            for record in removed:
                self._engine.release(record.operator)
        return removed

    def records(self) -> list[StoredOperator]:
        """Every record in arrival order (cancellation repair walks it)."""
        return list(self._records)

    def uncovered_before(self, seq: LifecycleSeq) -> list[CorrelationOperator]:
        """Uncovered operators that arrived strictly before ``seq``."""
        return [
            r.operator for r in self._records if not r.covered and r.seq < seq
        ]

    def ops_for_sensor(
        self, sensor_id: str, include_covered: bool
    ) -> Iterator[CorrelationOperator]:
        """Operators with a slot drawing from ``sensor_id``.

        The event path only needs operators a new event could concern —
        this index keeps per-event work proportional to the relevant
        operators instead of the whole store.
        """
        for record in self._by_sensor.get(sensor_id, ()):
            if include_covered or not record.covered:
                yield record.operator

    def matched_for_sensor(
        self, sensor_id: str, include_covered: bool
    ) -> Iterator[tuple[CorrelationOperator, object]]:
        """(operator, matcher) pairs for the incremental event path."""
        for record in self._by_sensor.get(sensor_id, ()):
            if include_covered or not record.covered:
                yield record.operator, record.matcher

    def same_signature_uncovered(
        self, operator: CorrelationOperator
    ) -> list[CorrelationOperator]:
        """The comparison set for subsumption checks (arrival order)."""
        return [
            r.operator
            for r in self._records
            if not r.covered and r.operator.signature == operator.signature
        ]

    def all_operators(self) -> Iterator[CorrelationOperator]:
        for record in self._records:
            if not record.covered:
                yield record.operator
        for record in self._records:
            if record.covered:
                yield record.operator

    def __len__(self) -> int:
        return len(self._records)


def _make_engine(
    mode: str, store
) -> "MatchingEngine | ColumnarEngine | None":
    """Node-level matcher implementation for a ``Network.matching`` mode."""
    if mode == "incremental":
        return MatchingEngine(store)
    if mode == "columnar":
        return ColumnarEngine(store)
    return None


class Node:
    """Base processing node; subclasses implement the protocol hooks."""

    def __init__(self, node_id: str, network: "Network") -> None:
        self.node_id = node_id
        self.network = network
        self.ads = AdvertisementTable()
        self.stores: dict[str, SubscriptionStore] = {}
        self.local_subscriptions: list[tuple[Subscription, CorrelationOperator]] = []
        self._local_by_sensor: dict[
            str, list[tuple[Subscription, CorrelationOperator]]
        ] = {}
        from .eventstore import EventStore  # local import avoids cycles

        self.store = EventStore(network.validity)
        self._bind_matching()
        self._sent: dict[EventKey, set[Hashable]] = {}
        self._adds_since_prune = 0
        self._seq_source = SeqSource()
        # Reverse-path memory for query cancellation and soft-state
        # refresh: per subscription, the exact operator pieces this node
        # forwarded to each neighbour.  An UnsubscribeMessage retraces
        # these edges; a refresh round re-offers the pieces.
        self._forwarded_subs: dict[
            str, dict[str, dict[str, CorrelationOperator]]
        ] = {}
        # Operator pieces adopted under a compiled placement plan.  A
        # plan may fold a branch back along its trunk (delayed split),
        # so completed matches must travel to the neighbour the branch
        # events arrived from — the one case the forwarding loops'
        # neighbour==sender skip must not apply to.  Heuristically
        # placed operators never need this (the operator tree is a
        # tree; events climb strictly toward the consumer), so the set
        # stays empty outside compiled placements and the skip keeps
        # its historical behaviour bit-for-bit.
        self._planned_ops: set[str] = set()
        # Soft-state clock: last refresh epoch seen per sensor (0 =
        # only the setup flood).  Dedupes refresh floods and drives
        # advertisement expiry.
        self._ad_epochs: dict[str, int] = {}
        # Local advertisements parked during a broker outage; recovery
        # re-attaches them through the re-flood path.
        self._crashed_locals: list[Advertisement] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> list[str]:
        return self.network.neighbors(self.node_id)

    @property
    def now(self) -> float:
        return self.network.sim.now

    def receive_batch(self, batch: list[tuple[Message, str]]) -> None:
        """Drain one same-instant delivery batch in arrival order.

        The plain transport coalesces consecutive same-destination
        deliveries of one timestamp into a single call (see
        ``network._DeliveryFlush``); semantics are exactly sequential
        :meth:`receive` calls.
        """
        for message, origin in batch:
            self.receive(message, origin)

    def receive(self, message: Message, origin: str) -> None:
        """Dispatch a delivered message to the protocol hooks.

        Events are checked first: they outnumber the other kinds by
        orders of magnitude once a run is flowing.
        """
        if isinstance(message, EventMessage):
            self.handle_event(message.event, origin, message.streams)
        elif isinstance(message, OperatorMessage):
            if self.network.reliability is not None and self.knows_operator(
                message.operator.op_id
            ):
                # Soft-state re-offer (or redundant copy) of an operator
                # already stored here: re-handling would duplicate
                # records and forwarding — duplicates stay invisible.
                return
            self._seq_source.begin_arrival()
            if message.plan is not None:
                self.adopt_planned(message.operator, origin, message.plan)
            else:
                self.handle_operator(message.operator, origin)
        elif isinstance(message, UnsubscribeMessage):
            self.handle_unsubscribe(message.subscription_id, origin)
        elif isinstance(message, SketchSubscribeMessage):
            self.network.sketches.handle_subscribe(self, message, origin)
        elif isinstance(message, SketchPushMessage):
            self.network.sketches.handle_push(self, message, origin)
        elif isinstance(message, AdvertisementMessage):
            if message.refresh_epoch is not None and not message.retract:
                self.handle_refresh_advertisement(
                    message.advertisement, origin, message.refresh_epoch
                )
            elif message.retract:
                self.handle_retraction(message.advertisement, origin)
            else:
                self.handle_advertisement(message.advertisement, origin)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown message {message!r}")

    def _bind_matching(self) -> None:
        """Build the matching engine over the current event store.

        The incremental matching engine mirrors the event store; the
        columnar engine shares slot timelines across operators
        (``Network(matching="columnar")``); the reference matcher remains
        selectable (``Network(matching="reference")``) as the oracle for
        equivalence tests and as the recompute-on-arrival baseline for
        benchmarks.  The typed aliases pick each engine's event path.
        """
        engine = _make_engine(self.network.matching, self.store)
        self.matching: MatchingEngine | ColumnarEngine | None = engine
        self._incremental: MatchingEngine | None = (
            engine if isinstance(engine, MatchingEngine) else None
        )
        self._columnar: ColumnarEngine | None = (
            engine if isinstance(engine, ColumnarEngine) else None
        )

    def arrival_scope(
        self, event: SimpleEvent
    ) -> dict[OperatorMatcher, int] | None:
        """The incremental engine's accepted set for a fresh arrival.

        Maps each matcher with a slot accepting ``event`` to that slot's
        index (see :meth:`MatchingEngine.arrival_scope`); the event path
        skips every other matcher without a call.  ``None`` outside the
        incremental mode or when no scope is recorded for ``event``.
        """
        engine = self._incremental
        return engine.arrival_scope(event) if engine is not None else None

    def store_for(self, origin: str) -> SubscriptionStore:
        store = self.stores.get(origin)
        if store is None:
            store = self.stores[origin] = SubscriptionStore(
                self.matching, self._seq_source
            )
        return store

    def matches_involving(
        self, operator: CorrelationOperator, event: SimpleEvent
    ) -> dict[str, list[SimpleEvent]]:
        """Participants of matches ``event`` takes part in, for ``operator``.

        Dispatches to the incremental engine (default), the columnar
        shared-lane engine (``Network(matching="columnar")``) or the
        reference window-scanning matcher
        (``Network(matching="reference")``); all three are exact and
        return identical participants.
        """
        if self.matching is not None:
            return self.matching.matches_involving(operator, event)
        return reference_matches_involving(operator, self.store, event)

    # ------------------------------------------------------------------
    # sending helpers
    # ------------------------------------------------------------------
    def send_operator(
        self,
        neighbor: str,
        operator: CorrelationOperator,
        plan: object | None = None,
    ) -> None:
        self._forwarded_subs.setdefault(
            operator.subscription_id, {}
        ).setdefault(neighbor, {})[operator.op_id] = operator
        self.network.send(
            self.node_id, neighbor, OperatorMessage(operator, plan=plan)
        )

    def knows_operator(self, op_id: str) -> bool:
        """Whether any store currently holds a record of ``op_id``."""
        return any(store.has_operator(op_id) for store in self.stores.values())

    def send_event(
        self, neighbor: str, event: SimpleEvent, streams: tuple[str, ...] = ()
    ) -> None:
        self.network.send(self.node_id, neighbor, EventMessage(event, streams))

    def was_sent(self, key: EventKey, tag: Hashable) -> bool:
        tags = self._sent.get(key)
        return tags is not None and tag in tags

    def mark_sent(self, key: EventKey, tag: Hashable) -> None:
        self._sent.setdefault(key, set()).add(tag)

    # ------------------------------------------------------------------
    # injection entry points
    # ------------------------------------------------------------------
    def attach_sensor(self, advertisement: Advertisement) -> None:
        """Algorithm 1, lines 2-7: local sensor appears, flood its DSA.

        Also the churn *re-join* path: a sensor whose advertisement was
        retracted on departure is new again, so the same flood carries
        its return through the whole network (the re-flood), lifting the
        local event fence on the way.
        """
        self.store.unfence_sensor(advertisement.sensor_id)
        lane = self.network.sketches
        if lane is not None:
            lane.unfence_sensor(self.node_id, advertisement.sensor_id)
        if not self.ads.add_local(advertisement):
            return
        for neighbor in self.neighbors:
            self.network.send(
                self.node_id, neighbor, AdvertisementMessage(advertisement)
            )

    def detach_sensor(self, sensor_id: str) -> None:
        """Churn leave: retract a locally attached sensor everywhere.

        The inverse of :meth:`attach_sensor`: the advertisement is
        removed from the local table, the sensor's stored history is
        fenced, and a retraction floods outward so every other node does
        the same (:meth:`handle_retraction`).  Unknown or already
        detached sensors are a no-op.
        """
        advertisement = self.ads.get(sensor_id)
        if advertisement is None:
            return
        self.ads.remove(sensor_id)
        self.fence_sensor_state(sensor_id)
        for neighbor in self.neighbors:
            self.network.send(
                self.node_id,
                neighbor,
                AdvertisementMessage(advertisement, retract=True),
            )

    def publish(self, event: SimpleEvent) -> None:
        """A locally attached sensor produced a reading."""
        lane = self.network.sketches
        if lane is not None:
            lane.observe_local(self.node_id, event)
        self.handle_event(event, LOCAL, ())

    def subscribe(
        self, subscription: Subscription, plan: object | None = None
    ) -> None:
        """Register a local user subscription.

        Resolves abstract subscriptions against the advertisement table
        (local knowledge only — the table was filled by flooding) and
        performs the absent-sources check of Algorithm 3, line 3.

        With a compiled ``plan`` the root operator is adopted along the
        plan's routing table (:meth:`adopt_planned`) instead of the
        approach's heuristic ``handle_operator``; local delivery and
        the absent-sources check are identical either way.
        """
        root = self.build_root_operator(subscription)
        if root is None:
            self.network.dropped_subscriptions.append(subscription.sub_id)
            return
        lane = self.network.sketches
        if lane is not None and lane.adopt(self, subscription, root):
            # Sketch-eligible in approximate mode: the lane answers it
            # from merged summaries — no operator flood, no matcher,
            # no raw event forwarding for this subscription.
            return
        self.local_subscriptions.append((subscription, root))
        # The whole root operator drives the final local check even when
        # handle_operator stores only fragments of it; retain its
        # matcher once here (released again on cancellation).
        matcher = (
            self.matching.retain(root) if self.matching is not None else None
        )
        for sensor_id in sorted(root.sensors):
            self._local_by_sensor.setdefault(sensor_id, []).append(
                (subscription, root, matcher)
            )
        self._seq_source.begin_arrival()
        if plan is not None:
            self.adopt_planned(root, LOCAL, plan)
        else:
            self.handle_operator(root, LOCAL)

    def build_root_operator(
        self, subscription: Subscription
    ) -> CorrelationOperator | None:
        """Root operator, or None when some source is absent."""
        if isinstance(subscription, IdentifiedSubscription):
            if not all(self.ads.knows(s) for s in subscription.sensor_ids):
                return None
            return root_operator(subscription, self.node_id)
        assert isinstance(subscription, AbstractSubscription)
        resolved = subscription.resolve(self.ads)
        if any(not ads for ads in resolved.values()):
            return None
        sensors = {
            attr: [ad.sensor_id for ad in ads] for attr, ads in resolved.items()
        }
        return root_operator(subscription, self.node_id, sensors)

    def adopt_planned(
        self, operator: CorrelationOperator, origin: str, plan
    ) -> None:
        """Store and forward an operator piece under a compiled plan.

        The plan-routed analogue of ``handle_operator``: the piece is
        stored uncovered in the origin store (so the shared event path
        gates on it exactly like a heuristically placed piece, and the
        covered-only cancellation repair never touches it), projected
        per the plan's routing table, and forwarded.  ``plan`` is
        opaque here — any object with ``next_hops(node_id, sensors)``
        (built by ``repro.placement``, which sits above this layer).

        Reverse-path memory is recorded via :meth:`send_operator`, so
        ``UnsubscribeMessage`` teardown retraces planned placements for
        free.
        """
        store = self.store_for(origin)
        if store.has_operator(operator.op_id):
            return
        store.add(operator, covered=False)
        self._planned_ops.add(operator.op_id)
        for neighbor, subset in plan.next_hops(self.node_id, operator.sensors):
            piece = operator.project_sensors(subset)
            if piece is not None:
                self.send_operator(neighbor, piece, plan=plan)

    # ------------------------------------------------------------------
    # query cancellation (the subscription lifecycle's retire edge)
    # ------------------------------------------------------------------
    def unsubscribe(self, sub_id: str) -> bool:
        """Cancel a *local* user subscription.

        Removes the local delivery registration (no further complex
        events reach the user, effective immediately) and starts the
        reverse-path operator removal: an :class:`UnsubscribeMessage`
        retraces every link this subscription's operators were forwarded
        over, deleting them and repairing coverage decisions so the
        remaining network state is the state of a run that never saw the
        subscription.  Returns False when the subscription is not
        locally registered (never submitted here, dropped for absent
        sources, or already cancelled).
        """
        lane = self.network.sketches
        if lane is not None and lane.forget(self.node_id, sub_id):
            return True
        removed = [
            entry for entry in self.local_subscriptions if entry[0].sub_id == sub_id
        ]
        if not removed:
            return False
        self.local_subscriptions = [
            entry for entry in self.local_subscriptions if entry[0].sub_id != sub_id
        ]
        for sensor_id in sorted({sid for _, root in removed for sid in root.sensors}):
            bucket = [
                entry
                for entry in self._local_by_sensor.get(sensor_id, ())
                if entry[0].sub_id != sub_id
            ]
            if bucket:
                self._local_by_sensor[sensor_id] = bucket
            else:
                self._local_by_sensor.pop(sensor_id, None)
        if self.matching is not None:
            for _, root in removed:
                self.matching.release(root)
        self.retire_subscription(sub_id)
        return True

    def retire_subscription(self, sub_id: str) -> None:
        """Start the network-wide teardown (protocol hook).

        The distributed approaches remove the locally stored root and
        chase the forwarded fragments; the centralized baseline unicasts
        the retirement to the centre instead.
        """
        self.handle_unsubscribe(sub_id, LOCAL)

    def handle_unsubscribe(self, sub_id: str, origin: str) -> None:
        """Reverse-path removal step at one node.

        Drops every stored operator of ``sub_id`` received from
        ``origin`` (releasing matchers), repairs the origin store's
        coverage decisions, and forwards the retirement to every
        neighbour this node sent the subscription's operators to.
        Unknown subscriptions are a no-op — the message only travels
        edges the operators actually travelled, but tolerance keeps the
        handler safe under races with churn.
        """
        store = self.stores.get(origin)
        removed = store.remove_subscription(sub_id) if store is not None else []
        for record in removed:
            self.on_operator_removed(record.operator)
        if removed:
            self.repair_coverage(store, origin)
        for neighbor in sorted(self._forwarded_subs.pop(sub_id, ())):
            self.network.send(self.node_id, neighbor, UnsubscribeMessage(sub_id))

    def repair_coverage(self, store: SubscriptionStore, origin: str) -> None:
        """Re-evaluate the store's covered operators after a removal.

        Walks the records in arrival order; a covered operator whose
        coverage no longer holds against the uncovered operators that
        arrived *before* it (exactly the candidates its original
        arrival-time check saw, minus the removed subscription) is
        restored to uncovered and forwarded as its original arrival
        would have forwarded it.  The walk is promote-only — with
        arrival-ordered candidates a removal can never make an
        uncovered operator covered — so one ordered pass converges.
        """
        for record in store.records():
            if not record.covered:
                continue
            if self.recheck_coverage(record, store):
                continue
            record.covered = False
            self._seq_source.begin_arrival(prefix=record.seq)
            self.on_operator_uncovered(record, origin, store)

    def recheck_coverage(self, record: StoredOperator, store: SubscriptionStore) -> bool:
        """Whether ``record`` is still covered (protocol hook).

        The default is the pair-wise check of the operator-placement and
        multi-join baselines; Filter-Split-Forward overrides it with the
        set-subsumption check.  Approaches that never mark operators
        covered never reach this hook.
        """
        candidates = [
            op
            for op in store.uncovered_before(record.seq)
            if op.signature == record.operator.signature
        ]
        return find_cover(record.operator, candidates) is not None

    def forward_split(self, operator: CorrelationOperator, origin: str) -> None:
        """Simple splitting: project on each neighbour's advertised data
        space and send (Algorithm 3, lines 7-9) — the canonical forward
        step shared by the simple-splitting approaches' arrival paths
        and by cancellation repair, which must forward restored
        operators exactly as their arrival would have."""
        exclude = () if origin == LOCAL else (origin,)
        for neighbor, piece in self.split_targets(operator, exclude).items():
            self.send_operator(neighbor, piece)

    def on_operator_uncovered(
        self, record: StoredOperator, origin: str, store: SubscriptionStore
    ) -> None:
        """Forward a repair-restored operator (protocol hook).

        Default: simple splitting along the reverse advertisement paths,
        exactly the uncovered branch of the simple-splitting approaches.
        """
        self.forward_split(record.operator, origin)

    def on_operator_removed(self, operator: CorrelationOperator) -> None:
        """Per-operator teardown hook (multi-join clears roles/rings)."""

    # ------------------------------------------------------------------
    # protocol hooks
    # ------------------------------------------------------------------
    def handle_advertisement(self, advertisement: Advertisement, origin: str) -> None:
        """Algorithm 1, lines 8-13: store and flood onwards.

        A re-join advertisement of a previously retracted sensor takes
        exactly this path (the retraction removed the table entry, so
        the flood does not stop early) and lifts the event fence: events
        the sensor publishes after rejoining are stored and matched
        again.
        """
        self.store.unfence_sensor(advertisement.sensor_id)
        lane = self.network.sketches
        if lane is not None:
            lane.unfence_sensor(self.node_id, advertisement.sensor_id)
        if not self.ads.add(origin, advertisement):
            return
        for neighbor in self.neighbors:
            if neighbor != origin:
                self.network.send(
                    self.node_id, neighbor, AdvertisementMessage(advertisement)
                )

    def handle_retraction(self, advertisement: Advertisement, origin: str) -> None:
        """Churn leave, remote side: forget, fence and flood onwards.

        Mirrors :meth:`handle_advertisement` for departures: the reverse
        advertisement path entry is removed (so a later re-join floods
        through again), the departed sensor's stored events are fenced
        out of matching, and the retraction continues through the tree.
        The duplicate guard is the table itself — an unknown sensor
        means the flood already passed here.
        """
        if not self.ads.remove(advertisement.sensor_id):
            return
        self.fence_sensor_state(advertisement.sensor_id)
        for neighbor in self.neighbors:
            if neighbor != origin:
                self.network.send(
                    self.node_id,
                    neighbor,
                    AdvertisementMessage(advertisement, retract=True),
                )

    def fence_sensor_state(self, sensor_id: str) -> None:
        """Drop a departed sensor's events from ``U`` and the per-event
        forwarded-to flags (the matching engine mirrors the drop through
        the store's listener protocol).  The sketch lane mirrors the
        fence too, so the next push round ages the sensor out of every
        merged digest and approximate answers never count it."""
        for key in self.store.fence_sensor(sensor_id, self.now):
            self._sent.pop(key, None)
        lane = self.network.sketches
        if lane is not None:
            lane.fence_sensor(self.node_id, sensor_id, self.now)

    # ------------------------------------------------------------------
    # soft state & crash semantics (reliability layer)
    # ------------------------------------------------------------------
    def handle_refresh_advertisement(
        self, advertisement: Advertisement, origin: str, epoch: int
    ) -> None:
        """A soft-state refresh copy of an advertisement arrived.

        Refresh floods dedupe on the per-sensor epoch clock rather than
        on the advertisement table: the table would stop the flood at
        the first node that still knows the sensor, and the whole point
        of a refresh round is to get *past* such nodes to a recovered,
        state-less broker behind them.  Each round therefore crosses
        every link once per sensor — the steady-state overhead
        ``refresh_units`` meters.
        """
        sensor_id = advertisement.sensor_id
        if self._ad_epochs.get(sensor_id, 0) >= epoch:
            return
        self._ad_epochs[sensor_id] = epoch
        self.store.unfence_sensor(sensor_id)
        self.ads.add(origin, advertisement)
        for neighbor in self.neighbors:
            if neighbor != origin:
                self.network.send(
                    self.node_id,
                    neighbor,
                    AdvertisementMessage(advertisement, refresh_epoch=epoch),
                )

    def refresh_soft_state(self, epoch: int, expiry_rounds: int) -> None:
        """One refresh round at this node (reliability layer only).

        Expires remote advertisements that missed ``expiry_rounds``
        consecutive rounds, re-floods the local ones tagged with this
        epoch, and re-offers every operator piece previously forwarded
        (receivers that still hold a piece ignore the copy; a recovered
        broker re-learns it).  This is how routing and subscription
        state heals after losses and outages.
        """
        expired = [
            sensor_id
            for origin in sorted(self.ads.origins())
            if origin != LOCAL
            for sensor_id in sorted(self.ads.from_origin(origin))
            if self._ad_epochs.get(sensor_id, 0) < epoch - expiry_rounds
        ]
        for sensor_id in expired:
            self.ads.remove(sensor_id)
            self._ad_epochs.pop(sensor_id, None)
            self.fence_sensor_state(sensor_id)
        for sensor_id, advertisement in sorted(
            self.ads.from_origin(LOCAL).items()
        ):
            self._ad_epochs[sensor_id] = epoch
            for neighbor in self.neighbors:
                self.network.send(
                    self.node_id,
                    neighbor,
                    AdvertisementMessage(advertisement, refresh_epoch=epoch),
                )
        for sub_id in sorted(self._forwarded_subs):
            per_neighbor = self._forwarded_subs[sub_id]
            for neighbor in sorted(per_neighbor):
                pieces = per_neighbor[neighbor]
                for op_id in sorted(pieces):
                    self.network.send(
                        self.node_id,
                        neighbor,
                        OperatorMessage(pieces[op_id], refresh_epoch=epoch),
                    )

    def crash(self) -> None:
        """Broker failure: all volatile state is lost.

        Advertisement table, subscription stores, event store, matcher
        state, forwarded-to flags and reverse-path memory are gone —
        exactly what a process crash loses.  Only the fact of which
        sensors are physically attached survives (the hardware is still
        wired); recovery re-advertises them through the normal re-flood
        path.
        """
        self._crashed_locals = [
            ad for _, ad in sorted(self.ads.from_origin(LOCAL).items())
        ]
        from .eventstore import EventStore  # local import avoids cycles

        self.ads = AdvertisementTable()
        self.stores = {}
        self.local_subscriptions = []
        self._local_by_sensor = {}
        self.store = EventStore(self.network.validity)
        self._bind_matching()
        self._sent = {}
        self._adds_since_prune = 0
        self._seq_source = SeqSource()
        self._forwarded_subs = {}
        self._ad_epochs = {}
        self.on_crash()

    def recover(self) -> None:
        """Broker recovery: re-enter through the re-flood path.

        Local sensors re-advertise exactly like a churn re-join
        (:meth:`attach_sensor`); remote advertisements and forwarded
        operators return with the neighbours' next refresh round.
        """
        for advertisement in self._crashed_locals:
            self.attach_sensor(advertisement)
        self._crashed_locals = []

    def on_crash(self) -> None:
        """Subclass hook: drop approach-specific volatile state."""

    def handle_operator(self, operator: CorrelationOperator, origin: str) -> None:
        raise NotImplementedError

    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared event-path building blocks
    # ------------------------------------------------------------------
    def ingest(self, event: SimpleEvent) -> bool:
        """Insert into ``U``; False for duplicates/expired (drop & stop)."""
        if not self.store.add(event, self.now):
            return False
        self._adds_since_prune += 1
        if self._adds_since_prune >= _PRUNE_EVERY:
            self._adds_since_prune = 0
            for key in self.store.prune(self.now):
                self._sent.pop(key, None)
        return True

    def deliver_local_matches(self, event: SimpleEvent) -> None:
        """Final, exact matching against whole local subscriptions.

        Algorithm 5, line 14-15: for ``j == n`` the whole local
        subscriptions are checked and matching complex events delivered
        to the user.  Participants are logged for the recall metric.
        """
        delivery = self.network.delivery
        local = self._local_by_sensor.get(event.sensor_id, ())
        columnar = self._columnar
        if columnar is not None:
            # One verdict pass answers every local subscription; the flat
            # participant lists come straight from the shared memoised
            # window lists.
            pairs = ((entry[0].sub_id, entry[2]) for entry in local)
            for sub_id, delivered in columnar.matched_members(pairs, event):
                delivery.record_events(sub_id, delivered)
                delivery.record_complex(sub_id)
            return
        scope = self.arrival_scope(event)
        for subscription, root, matcher in local:
            if scope is not None:
                own = scope.get(matcher)
                if own is None:
                    continue  # no slot accepts the arrival
                participants = matcher.matches_involving(event, own)
            elif matcher is not None:
                participants = matcher.matches_involving(event)
            else:
                participants = reference_matches_involving(root, self.store, event)
            if not participants:
                continue
            delivered = [e for events in participants.values() for e in events]
            delivery.record_events(subscription.sub_id, delivered)
            delivery.record_complex(subscription.sub_id)

    def split_targets(
        self, operator: CorrelationOperator, exclude: Iterable[str] = ()
    ) -> dict[str, CorrelationOperator]:
        """Algorithm 3, lines 7-9: project the operator per neighbour.

        Partitions the operator's sensors by the reverse advertisement
        path and returns ``{neighbour: projected operator}`` — the
        deterministic split the paper uses.  Locally attached sensors
        need no forwarding and are skipped, as are excluded origins
        (normally the one the operator came from).
        """
        partition = self.ads.partition_by_origin(operator.sensors)
        partition.pop(LOCAL, None)
        for origin in exclude:
            partition.pop(origin, None)
        targets: dict[str, CorrelationOperator] = {}
        for neighbor, sensor_ids in sorted(partition.items()):
            piece = operator.project_sensors(sensor_ids)
            if piece is not None:
                targets[neighbor] = piece
        return targets

    def pubsub_forward(
        self,
        event: SimpleEvent,
        sender: str,
        include_covered: bool = False,
    ) -> None:
        """Per-neighbour publish/subscribe forwarding (Algorithm 5).

        For every neighbour ``j`` (except the sender), the event — and
        any stored events it newly correlates with — is forwarded iff it
        participates in a complex match of an operator received from
        ``j``, at most once per link.
        """
        sent = self._sent
        columnar = self._columnar
        scope = self.arrival_scope(event)
        planned = self._planned_ops
        for neighbor in self.neighbors:
            if neighbor == sender and not planned:
                continue
            store = self.stores.get(neighbor)
            if store is None:
                continue
            outgoing: dict[EventKey, SimpleEvent] = {}
            pairs = store.matched_for_sensor(event.sensor_id, include_covered)
            if neighbor == sender:
                # Only a compiled plan's fold-back return path may send
                # an event back where it came from (see _planned_ops);
                # per-link dedup still bounds it to once per link.
                pairs = (
                    (operator, matcher)
                    for operator, matcher in pairs
                    if operator.op_id in planned
                )
            if columnar is not None:
                # Lane-shared hot path: one stream of members across all
                # matching operators, identical window lists offered once.
                for member in columnar.forward_members(pairs, event):
                    tags = sent.get(member.key)
                    if tags is None or neighbor not in tags:
                        outgoing[member.key] = member
            else:
                for operator, matcher in pairs:
                    if scope is not None:
                        own = scope.get(matcher)
                        if own is None:
                            continue  # no slot accepts the arrival
                        participants = matcher.matches_involving(event, own)
                    elif matcher is not None:
                        participants = matcher.matches_involving(event)
                    else:
                        participants = reference_matches_involving(
                            operator, self.store, event
                        )
                    for events in participants.values():
                        for member in events:
                            # inline was_sent — this loop touches every
                            # participant of every matching operator
                            tags = sent.get(member.key)
                            if tags is None or neighbor not in tags:
                                outgoing[member.key] = member
            for key, member in sorted(outgoing.items()):
                self.mark_sent(key, neighbor)
                self.send_event(neighbor, member)

    def stream_forward(
        self,
        event: SimpleEvent,
        sender: str,
        include_covered: bool,
    ) -> None:
        """Per-subscription result-set forwarding (naive / operator
        placement).

        Every stored operator is its own result stream: an event is sent
        once per (operator stream, link), so overlapping subscriptions
        pay repeatedly — exactly the redundancy the paper attributes to
        these approaches.  With ``include_covered`` the streams of
        operators covered *at this node* are generated here from the
        covering operator's incoming stream (Section III-A: the covered
        operator "generates traffic only from the node where coverage
        was detected, to the user's node").
        """
        scope = self.arrival_scope(event)
        planned = self._planned_ops
        for neighbor in self.neighbors:
            if neighbor == sender and not planned:
                continue
            store = self.stores.get(neighbor)
            if store is None:
                continue
            outgoing: dict[EventKey, tuple[SimpleEvent, list[str]]] = {}
            pairs = store.matched_for_sensor(event.sensor_id, include_covered)
            if neighbor == sender:
                # Fold-back return path of a compiled plan: only
                # plan-adopted pieces may route an event back to its
                # sender (see _planned_ops); the per-stream sent marks
                # bound any bounce to one hop.
                pairs = (
                    (operator, matcher)
                    for operator, matcher in pairs
                    if operator.op_id in planned
                )
            for operator, matcher in pairs:
                if scope is not None:
                    own = scope.get(matcher)
                    if own is None:
                        continue  # no slot accepts the arrival
                    participants = matcher.matches_involving(event, own)
                elif matcher is not None:
                    participants = matcher.matches_involving(event)
                else:
                    participants = reference_matches_involving(
                        operator, self.store, event
                    )
                if not participants:
                    continue
                tag = (operator.op_id, neighbor)
                for events in participants.values():
                    for member in events:
                        if not self.was_sent(member.key, tag):
                            self.mark_sent(member.key, tag)
                            entry = outgoing.setdefault(member.key, (member, []))
                            entry[1].append(operator.op_id)
            for key, (member, streams) in sorted(outgoing.items()):
                self.send_event(neighbor, member, tuple(sorted(streams)))
