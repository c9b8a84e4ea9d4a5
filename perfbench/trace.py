"""Span tracing around the public entry points of each layer.

The traced run wraps the functions and methods listed in
:data:`ENTRY_POINTS` for its duration; nothing under ``src/repro`` is
changed.  A span records its name, its start and end, and the span that
was open when it began (its parent).  Its self time is its duration
minus the time its child spans cover.  Spans are folded into per-name
and per-(parent, name) aggregates as they close, so memory stays flat
over millions of matcher calls; :meth:`Tracer.take` returns them.

Every span is charged to the layer that
``repro.analysis.contract.load_contract().layer_of`` assigns to the
wrapped function's defining module — the same ``layers.toml`` the
import linter enforces.  An entry point whose module has no layer stops
the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

from repro.analysis.contract import load_contract


def _truthy(result, args) -> bool:
    return bool(result)


def _found(result, args) -> bool:
    return result is not None


def _message_kind(result, args) -> str:
    return type(args[2]).__name__


ENTRY_POINTS: dict[str, object] = {
    # api
    "repro.api.session:Session.create": None,
    "repro.api.session:Session.submit": None,
    "repro.api.session:Session.ingest_events": None,
    "repro.api.session:Session.drain": None,
    "repro.api.handle:QueryHandle.cancel": None,
    # workload
    "repro.workload.program:WorkloadProgram.source": None,
    "repro.workload.program:WorkloadProgram.compile": None,
    "repro.workload.program:execute_program": None,
    # metrics
    "repro.metrics.oracle:compute_truth": None,
    "repro.metrics.recall:measure_recall": None,
    "repro.metrics.approx:measure_approx": None,
    # approaches
    "repro.protocols.base:Approach.populate": None,
    "repro.core.filter_split_forward:FilterSplitForwardNode.handle_operator": None,
    "repro.core.filter_split_forward:FilterSplitForwardNode.handle_event": None,
    "repro.core.filter_split_forward:FilterSplitForwardNode.recheck_coverage": None,
    "repro.baselines.operator_placement:OperatorPlacementNode.handle_operator": None,
    "repro.baselines.operator_placement:OperatorPlacementNode.handle_event": None,
    "repro.baselines.naive:NaiveNode.handle_operator": None,
    "repro.baselines.naive:NaiveNode.handle_event": None,
    "repro.baselines.centralized:CentralizedNode.subscribe": None,
    "repro.baselines.centralized:CentralizedNode.publish": None,
    "repro.baselines.centralized:CentralizedNode.handle_operator": None,
    "repro.baselines.centralized:CentralizedNode.handle_event": None,
    "repro.baselines.centralized:CentralizedNode.handle_advertisement": None,
    "repro.baselines.centralized:CentralizedNode.handle_unsubscribe": None,
    # network
    "repro.network.network:Network.send": None,
    "repro.network.network:Network.unicast": None,
    "repro.network.network:Network.publish": None,
    "repro.network.network:Network.register_subscription": None,
    "repro.network.network:Network.cancel_subscription": None,
    "repro.network.network:Network.attach_all_sensors": None,
    "repro.network.network:Network.schedule_churn": None,
    "repro.network.network:Network.run_to_quiescence": None,
    "repro.network.node:Node.receive": None,
    "repro.network.node:Node.subscribe": None,
    "repro.network.node:Node.unsubscribe": None,
    "repro.network.node:Node.handle_advertisement": None,
    "repro.network.node:Node.handle_retraction": None,
    "repro.network.node:Node.handle_unsubscribe": None,
    "repro.network.node:Node.split_targets": None,
    "repro.network.node:Node.ingest": None,
    "repro.network.node:Node.pubsub_forward": None,
    "repro.network.node:Node.stream_forward": None,
    "repro.network.node:Node.deliver_local_matches": None,
    "repro.network.links:TrafficMeter.record": _message_kind,
    "repro.network.eventstore:EventStore.add": _truthy,
    # sim
    "repro.sim.core:Simulator.run": None,
    "repro.sim.core:Simulator.at": None,
    "repro.sim.core:Simulator.schedule": None,
    "repro.sim.core:Simulator.schedule_timeline": None,
    # matching
    "repro.matching.engine:OperatorMatcher.matches_involving": _truthy,
    "repro.matching.engine:OperatorMatcher.backfill": None,
    "repro.matching.engine:MatchingEngine.event_added": None,
    "repro.matching.engine:MatchingEngine.sensor_fenced": None,
    "repro.matching.engine:MatchingEngine.retain": None,
    "repro.matching.engine:MatchingEngine.release": None,
    # subsumption
    "repro.subsumption.pairwise:find_cover": _found,
    "repro.subsumption.setfilter:ProbabilisticSetFilter.is_subsumed": _truthy,
    "repro.subsumption.setfilter:ProbabilisticSetFilter.is_product_subsumed": _truthy,
    # model
    "repro.model.operators:CorrelationOperator.covers": _truthy,
    "repro.model.operators:CorrelationOperator.project_sensors": None,
    # sketches
    "repro.sketches.lane:SketchLane.adopt": None,
    "repro.sketches.lane:SketchLane.forget": None,
    "repro.sketches.lane:SketchLane.handle_subscribe": None,
    "repro.sketches.lane:SketchLane.handle_push": None,
    "repro.sketches.lane:SketchLane.begin_round": None,
    "repro.sketches.lane:SketchLane.observe_local": None,
    "repro.sketches.lane:SketchLane.fence_sensor": None,
    "repro.sketches.lane:SketchLane.query_answers": None,
}
"""Entry point → outcome classifier.  A classifier maps ``(result,
args)`` to a key; the tracer counts calls per key (hits of the matcher,
accepted store inserts, message kinds on the meter, ...)."""


@dataclass(frozen=True)
class Spans:
    """What a :class:`Tracer` recorded: per span name, its layer, call
    count, total and self seconds; parent → child call counts; and the
    outcome counts of classified entry points."""

    layer: dict[str, str]
    calls: dict[str, int]
    total_s: dict[str, float]
    self_s: dict[str, float]
    edges: dict[tuple[str | None, str], int]
    outcomes: dict[tuple[str, object], int]

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if self.layer[name] == layer)

    def count(self, name: str, outcome: object = None) -> int:
        if outcome is None:
            return self.calls.get(name, 0)
        return self.outcomes.get((name, outcome), 0)

    def as_json(self) -> dict:
        return {
            "spans": {
                name: {
                    "layer": self.layer[name],
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
                if self.calls[name]
            },
            "edges": [
                {"parent": parent, "child": child, "calls": n}
                for (parent, child), n in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
                )
            ],
        }


def _resolve(target: str):
    """``module:Qualified.name`` → (owner, attribute, raw attribute value)."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, owner.__dict__[attribute]


class Tracer:
    """Aggregating span recorder over :data:`ENTRY_POINTS`."""

    def __init__(self, entry_points: dict[str, object] | None = None) -> None:
        self.entry_points = ENTRY_POINTS if entry_points is None else entry_points
        self._stack: list[list] = []
        self._stats: dict[str, list] = {}
        self._edges: Counter = Counter()
        self._outcomes: Counter = Counter()
        self._layer: dict[str, str] = {}

    def _span(self, name: str, fn, classify):
        stack = self._stack
        edges = self._edges
        outcomes = self._outcomes
        stats = self._stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is None:
                    edges[(None, name)] += 1
                else:
                    parent[1] += elapsed
                    edges[(parent[0], name)] += 1
            if classify is not None:
                outcomes[(name, classify(result, args))] += 1
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        contract = load_contract()
        undo: list[tuple[object, str, object]] = []
        try:
            for target, classify in self.entry_points.items():
                owner, attribute, raw = _resolve(target)
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                layer = contract.layer_of(fn.__module__)
                if layer is None:
                    raise RuntimeError(
                        f"traced entry point {target} is defined in "
                        f"{fn.__module__!r}, which layers.toml assigns to no layer"
                    )
                name = target.partition(":")[2]
                self._layer[name] = layer
                span = self._span(name, fn, classify)
                wrapped = type(raw)(span) if raw is not fn else span
                undo.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
                if isinstance(owner, type):
                    continue
                # A module-level function imported by name elsewhere is
                # looked up in the importer's globals: rebind it there too.
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", {})
                    for key, value in list(namespace.items()):
                        if value is fn and module is not owner:
                            undo.append((module, key, fn))
                            setattr(module, key, span)
            yield self
        finally:
            for owner, attribute, raw in reversed(undo):
                setattr(owner, attribute, raw)

    def take(self) -> Spans:
        """Everything recorded since the last ``take``, then reset."""
        spans = Spans(
            layer=dict(self._layer),
            calls={name: s[0] for name, s in self._stats.items()},
            total_s={name: s[1] for name, s in self._stats.items()},
            self_s={name: s[2] for name, s in self._stats.items()},
            edges=dict(self._edges),
            outcomes=dict(self._outcomes),
        )
        for s in self._stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0
        self._edges.clear()
        self._outcomes.clear()
        return spans
