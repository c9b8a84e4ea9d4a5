"""The benchmark's workloads: scenario, size, approaches and invariants.

Each workload is one of the repository's own experiment scenarios at a
fixed size.  The deployment is the scenario's published one (seed 0);
the benchmark seed reaches the program only through the generated
inputs — the subscription pool, the replayed readings, the churn
schedule and the query lifecycle draws — so a seed changes what the
users ask and what the sensors say, never the system under test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.figures import sketches_variant
from repro.seeding import derive_seed
from repro.workload.program import CompiledProgram, QueryLifecycleConfig, WorkloadProgram
from repro.workload.scenarios import CHURN, LARGE_NETWORK, SMALL, Scenario
from repro.workload.sensorscope import DynamicReplayConfig, ReplayConfig

DEFAULT_SEED = 0
HELD_OUT_SEED = 9001
"""Invariants are checked on both seeds; the held-out one was never
used while the workload sizes were chosen."""

EXACT_RECALL = frozenset({"operator_placement", "naive", "centralized"})
"""Approaches whose recall is 1.0 on a lossless static program.  FSF's
probabilistic set filter may cover a query it should not, so its recall
is a metric, not an invariant."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: Scenario
    subscriptions: int
    approaches: tuple[str, ...]
    static: bool
    """Static programs promise recall 1.0 (:data:`EXACT_RECALL`) and a
    false-positive rate of 0 for every approach."""
    programs: int
    """Independently drawn programs per run.  Host cost and traffic vary
    with the drawn queries; averaging several programs per run keeps a
    run's figures close to the workload's, whatever the seed."""

    def program(self, seed: int, index: int) -> WorkloadProgram:
        """Program ``index`` of a run, every input stream drawn from ``seed``."""
        base = self.scenario.program(self.subscriptions)

        def stream(part: str) -> int:
            return derive_seed("perfbench", seed, index, part) % 2**31

        return replace(
            base,
            subscriptions=replace(base.subscriptions, seed=stream("subscriptions")),
            replay=replace(base.replay, seed=stream("replay")),
            dynamic=(
                None
                if base.dynamic is None
                else replace(base.dynamic, seed=stream("replay"))
            ),
            churn=None if base.churn is None else replace(base.churn, seed=stream("churn")),
            lifecycle=(
                None
                if base.lifecycle is None
                else replace(base.lifecycle, seed=stream("lifecycle"))
            ),
        )

    def setup(self, seed: int, index: int) -> CompiledProgram:
        """What ``setup_s`` times: deployment, ``source`` and ``compile``."""
        deployment = self.scenario.deployment()
        program = self.program(seed, index)
        source = program.source(deployment)
        return program.compile(deployment, source)

    def shrunk(self) -> "Workload":
        """A few-second version for the benchmark's own tests."""
        scenario = self.scenario
        if scenario.dynamic is not None:
            scenario = replace(
                scenario, dynamic=replace(scenario.dynamic, rounds_per_day=4)
            )
        else:
            scenario = replace(
                scenario, replay=replace(scenario.replay, rounds=2)
            )
        return replace(self, scenario=scenario, subscriptions=30, programs=2)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replay_static",
            why="publication-heavy: matching, node forwarding, event store "
            "and agenda do the work; registration is a small share",
            scenario=replace(SMALL, replay=ReplayConfig(rounds=24)),
            subscriptions=175,
            approaches=("fsf", "operator_placement", "centralized"),
            static=True,
            programs=6,
        ),
        Workload(
            name="register_storm",
            why="registration-heavy: operator floods, splits, coverage checks "
            "and subscription stores on 200 nodes; few match calls",
            scenario=replace(LARGE_NETWORK, replay=ReplayConfig(rounds=1)),
            subscriptions=150,
            approaches=("fsf", "operator_placement", "naive"),
            static=True,
            programs=10,
        ),
        Workload(
            name="churn_lifecycle",
            why="mutation mid-stream: sensor leave/rejoin re-floods, Poisson "
            "query admit/retire teardown and the fenced oracle pass",
            scenario=replace(
                CHURN,
                dynamic=DynamicReplayConfig(
                    days=2, rounds_per_day=9, day_seconds=240.0
                ),
                lifecycle=QueryLifecycleConfig(admit_rate=0.5, hold=60.0),
            ),
            subscriptions=200,
            approaches=("fsf", "naive", "centralized"),
            static=False,
            programs=6,
        ),
        Workload(
            name="approx_sketch",
            why="the approximate lane: broker q-digests answer range queries "
            "and the exact matching pipeline is bypassed",
            scenario=replace(sketches_variant(64), replay=ReplayConfig(rounds=96)),
            subscriptions=500,
            approaches=("fsf",),
            static=False,
            programs=8,
        ),
    )
}
