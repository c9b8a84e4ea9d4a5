"""Centralized approach (Section VI).

Everything converges on the network's centre node ("the node with the
minimum pairwise distance to all other nodes"):

* subscribers unicast their subscriptions to the centre over the
  shortest path — the by-far lowest subscription load in Fig. 6;
* every sensor unicasts every reading to the centre (the *fixed*
  traffic component that dominates Fig. 7 regardless of selectivity);
* the centre performs all matching and unicasts per-subscription result
  sets back to the subscribers (full result sets, no sharing).

Advertisement propagation does not happen at all (Table II's
surroundings): routing uses the unique tree paths directly, which is
precisely the global knowledge the distributed approaches do without.
"""

from __future__ import annotations

from ..model.events import EventKey, SimpleEvent
from ..model.operators import CorrelationOperator, root_operator
from ..model.subscriptions import (
    AbstractSubscription,
    IdentifiedSubscription,
    Subscription,
)
from ..network.messages import (
    AdvertisementMessage,
    EventMessage,
    OperatorMessage,
    UnsubscribeMessage,
)
from ..network.network import Network
from ..network.node import LOCAL, Node
from ..protocols.base import Approach


class CentralizedNode(Node):
    """Subscriber / sensor / centre behaviour in one class.

    A node acts as the centre iff it *is* the network's centre; other
    nodes only inject (unicast toward the centre) and receive results.
    """

    def __init__(self, node_id: str, network: "Network") -> None:
        super().__init__(node_id, network)
        self._departed_once: set[str] = set()
        # Cancelled local subscriptions: result-set streams still in
        # flight from the centre must not reach the departed user.
        self._cancelled_local: set[str] = set()

    # ------------------------------------------------------------------
    # no advertisement flooding in the centralized scheme; churn
    # transitions unicast to the centre instead (the centre holds all
    # state, so it is the only other node that must fence/unfence)
    # ------------------------------------------------------------------
    def attach_sensor(self, advertisement) -> None:
        self.store.unfence_sensor(advertisement.sensor_id)
        self.ads.add_local(advertisement)
        if advertisement.sensor_id in self._departed_once:
            self._departed_once.discard(advertisement.sensor_id)
            if self.node_id != self.network.center:
                self.network.unicast(
                    self.node_id,
                    self.network.center,
                    AdvertisementMessage(advertisement),
                )

    def detach_sensor(self, sensor_id: str) -> None:
        advertisement = self.ads.get(sensor_id)
        if advertisement is None:
            return
        self.ads.remove(sensor_id)
        self.fence_sensor_state(sensor_id)
        self._departed_once.add(sensor_id)
        if self.node_id != self.network.center:
            self.network.unicast(
                self.node_id,
                self.network.center,
                AdvertisementMessage(advertisement, retract=True),
            )

    def handle_advertisement(self, advertisement, origin: str) -> None:
        # Only re-join notices arrive here, unicast to the centre.
        assert self.node_id == self.network.center
        self.store.unfence_sensor(advertisement.sensor_id)

    def handle_retraction(self, advertisement, origin: str) -> None:
        assert self.node_id == self.network.center
        self.fence_sensor_state(advertisement.sensor_id)

    # ------------------------------------------------------------------
    # subscription side
    # ------------------------------------------------------------------
    def build_root_operator(
        self, subscription: Subscription
    ) -> CorrelationOperator | None:
        """Resolve with global knowledge (the centre knows everything)."""
        if isinstance(subscription, IdentifiedSubscription):
            known = {s.sensor_id for s in self.network.deployment.sensors}
            if not subscription.sensor_ids <= known:
                return None
            return root_operator(subscription, self.node_id)
        assert isinstance(subscription, AbstractSubscription)
        sensors: dict[str, list[str]] = {}
        for clause in subscription.clauses:
            hits = [
                s.sensor_id
                for s in self.network.deployment.sensors
                if s.attribute.name == clause.attribute
                and clause.region.contains(s.location)
            ]
            if not hits:
                return None
            sensors[clause.attribute] = sorted(hits)
        return root_operator(subscription, self.node_id, sensors)

    def subscribe(self, subscription: Subscription) -> None:
        root = self.build_root_operator(subscription)
        if root is None:
            self.network.dropped_subscriptions.append(subscription.sub_id)
            return
        self._cancelled_local.discard(subscription.sub_id)
        self.local_subscriptions.append((subscription, root))
        # Reverse-path memory, reused by soft-state refresh: the root
        # travelled to the centre, so refresh re-offers it there.
        self._forwarded_subs.setdefault(subscription.sub_id, {}).setdefault(
            self.network.center, {}
        )[root.op_id] = root
        self.network.unicast(
            self.node_id, self.network.center, OperatorMessage(root)
        )

    def handle_operator(self, operator: CorrelationOperator, origin: str) -> None:
        # Only the centre receives operators (via unicast).
        assert self.node_id == self.network.center
        self.store_for(LOCAL).add(operator, covered=False)

    def retire_subscription(self, sub_id: str) -> None:
        """Cancellation: tell the centre to drop the operator.

        Mirrors :meth:`subscribe` — a single unicast over the shortest
        path, charged like the operator it retires.  The subscriber also
        starts suppressing in-flight result streams for the cancelled
        subscription (the user is gone; late results are dropped at the
        edge, not delivered).
        """
        self._cancelled_local.add(sub_id)
        self._forwarded_subs.pop(sub_id, None)
        if self.node_id == self.network.center:
            self.handle_unsubscribe(sub_id, LOCAL)
        else:
            self.network.unicast(
                self.node_id, self.network.center, UnsubscribeMessage(sub_id)
            )

    def handle_unsubscribe(self, sub_id: str, origin: str) -> None:
        # Only the centre holds operator state; no coverage, no
        # propagation — removal is the whole teardown.
        assert self.node_id == self.network.center
        store = self.stores.get(LOCAL)
        if store is not None:
            store.remove_subscription(sub_id)

    # ------------------------------------------------------------------
    # reliability layer
    # ------------------------------------------------------------------
    def refresh_soft_state(self, epoch: int, expiry_rounds: int) -> None:
        """Centralized refresh: re-offer each live root to the centre.

        There is no advertisement soft state to expire or re-flood
        (Table II: no advertisement propagation at all); the only state
        a crashed centre loses that this node can restore is the
        operators it sent there, so refresh re-unicasts them.  The
        centre ignores copies it still holds.
        """
        for sub_id in sorted(self._forwarded_subs):
            per_target = self._forwarded_subs[sub_id]
            for target in sorted(per_target):
                pieces = per_target[target]
                for op_id in sorted(pieces):
                    self.network.unicast(
                        self.node_id,
                        target,
                        OperatorMessage(pieces[op_id], refresh_epoch=epoch),
                    )

    def on_crash(self) -> None:
        self._departed_once = set()
        self._cancelled_local = set()

    # ------------------------------------------------------------------
    # event side
    # ------------------------------------------------------------------
    def publish(self, event: SimpleEvent) -> None:
        if self.node_id == self.network.center:
            self._match_at_center(event)
        else:
            self.network.unicast(
                self.node_id, self.network.center, EventMessage(event)
            )

    def handle_event(
        self, event: SimpleEvent, origin: str, streams: tuple[str, ...]
    ) -> None:
        if streams:
            # A result-set delivery addressed to a local subscriber;
            # streams of cancelled subscriptions are dropped at the edge.
            for sub_id in streams:
                if sub_id not in self._cancelled_local:
                    self.network.delivery.record_events(sub_id, [event])
            return
        # A raw sensor reading arriving at the centre.
        assert self.node_id == self.network.center
        self._match_at_center(event)

    def _match_at_center(self, event: SimpleEvent) -> None:
        if not self.ingest(event):
            return
        store = self.stores.get(LOCAL)
        if store is None:
            return
        scope = self.arrival_scope(event)
        for operator, matcher in store.matched_for_sensor(event.sensor_id, False):
            if scope is not None:
                own = scope.get(matcher)
                if own is None:
                    continue  # no slot accepts the arrival
                participants = matcher.matches_involving(event, own)
            elif matcher is not None:
                participants = matcher.matches_involving(event)
            else:
                participants = self.matches_involving(operator, event)
            if not participants:
                continue
            self.network.delivery.record_complex(operator.subscription_id)
            outgoing: dict[EventKey, SimpleEvent] = {}
            tag_base = operator.op_id
            for events in participants.values():
                for member in events:
                    if not self.was_sent(member.key, tag_base):
                        self.mark_sent(member.key, tag_base)
                        outgoing[member.key] = member
            for _, member in sorted(outgoing.items()):
                self.network.unicast(
                    self.node_id,
                    operator.subscriber,
                    EventMessage(member, streams=(operator.subscription_id,)),
                )


def centralized_approach() -> Approach:
    return Approach(
        key="centralized",
        name="Centralized",
        subscription_filtering="None",
        subscription_splitting="None",
        event_propagation="Full result sets",
        make_node=CentralizedNode,
        floods_advertisements=False,
        # Registration unicasts to the centre — there is no operator
        # tree for a compiled plan to route.
        supports_planned_placement=False,
        # Events stream to the centre regardless of who subscribed, so
        # suppressing per-subscription forwarding saves nothing — the
        # approximate lane has no traffic to trade error against.
        supports_sketches=False,
    )
