"""Drive one compiled program per approach and score it against the oracle.

Each approach runs through the experiment runner's own
:func:`repro.experiments.runner.run_program` — ``execute_program`` on the
public ``WorkloadProgram`` → ``Session`` path, then scoring against the
oracle — so the benchmark times exactly the calls the figures make.
:class:`SessionProbe` times the three ``Session`` calls the end-to-end
metrics are made of while it runs.

Host times are reported at a reference CPU speed.  On a shared machine the
speed of one core drifts by tens of percent over minutes; :class:`HostSpeed`
measures it with a fixed probe, and each timed stretch is bracketed by two
such samples and its seconds scaled by their mean.  Garbage is collected
before each stretch, so no pass pays for collecting the previous one's.
"""

from __future__ import annotations

import functools
import gc
import heapq
import random
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.api.session import Session
from repro.experiments.runner import RunResult, run_program
from repro.protocols.registry import all_approaches
from repro.workload.program import CompiledProgram

from .workloads import EXACT_RECALL, Workload

clock = time.perf_counter


class HostSpeed:
    """How fast this core runs the simulator's kind of work right now.

    :meth:`sample` returns reference seconds per host second:
    ``REFERENCE_S`` ÷ the median time of three probes.  A probe reads a
    100 000-entry dict of tuples in a fixed random order and feeds a small
    heap — dict lookups, tuple allocation and heap operations over a
    working set larger than the caches, as the simulator's object graph
    is.  A small-cache loop tracked the simulator's slowdowns less well.
    """

    REFERENCE_S = 0.02
    """Probe seconds at the reference speed: a reported host second is a
    second on a core that runs one probe in 20 ms."""

    def __init__(self) -> None:
        draw = random.Random(7)
        self._table = {i: (i, float(i)) for i in range(100_000)}
        self._order = [draw.randrange(100_000) for _ in range(20_000)]

    def _probe(self) -> None:
        heap: list = []
        table = self._table
        for key in self._order:
            heapq.heappush(heap, (key, table[key]))
            if len(heap) > 64:
                heapq.heappop(heap)

    def sample(self) -> float:
        times = []
        for _ in range(3):
            start = clock()
            self._probe()
            times.append(clock() - start)
        return self.REFERENCE_S / statistics.median(times)


class SessionProbe:
    """Times settled ``Session.submit`` calls and ``ingest_events`` + ``drain``.

    Installed on the class for the duration of a ``with`` block.  A
    submit with ``settle=False`` runs inside ``drain`` (a lifecycle
    admission), so it is part of the replay time, not an admit sample.
    """

    def __init__(self) -> None:
        self.admit_s: list[float] = []
        self.replay_s = 0.0

    def __enter__(self) -> "SessionProbe":
        self._saved = {
            name: Session.__dict__[name] for name in ("submit", "ingest_events", "drain")
        }
        submit = self._saved["submit"]

        @functools.wraps(submit)
        def timed_submit(session, query, at=None, settle=True, plan=None):
            if not settle:
                return submit(session, query, at=at, settle=False, plan=plan)
            start = clock()
            handle = submit(session, query, at=at, settle=True, plan=plan)
            self.admit_s.append(clock() - start)
            return handle

        Session.submit = timed_submit
        Session.ingest_events = self._timed(self._saved["ingest_events"])
        Session.drain = self._timed(self._saved["drain"])
        return self

    def _timed(self, method):
        @functools.wraps(method)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return method(*args, **kwargs)
            finally:
                self.replay_s += clock() - start

        return timed

    def __exit__(self, *exc) -> None:
        for name, method in self._saved.items():
            setattr(Session, name, method)


def violations(workload: Workload, compiled: CompiledProgram, result: RunResult) -> list[str]:
    """The invariants the semantics promise that ``result`` breaks."""
    broken = []
    if workload.static:
        if result.false_positive_rate != 0.0:
            broken.append(f"false-positive rate {result.false_positive_rate:g} != 0")
        if result.approach in EXACT_RECALL and result.recall != 1.0:
            broken.append(f"recall {result.recall:g} != 1")
    if compiled.answer_mode == "approximate":
        if result.approx_bound_violations:
            broken.append(f"{result.approx_bound_violations} certificate violations")
        if result.approx_queries == 0:
            broken.append("no certified answers")
    return broken


@dataclass
class Iteration:
    """One pass of a workload: the oracle once, then every approach.

    Times are raw host seconds; ``speed`` is the mean of the two
    :meth:`HostSpeed.sample` bracketing the pass, set by the caller.
    """

    run_s: float = 0.0
    replay_s: float = 0.0
    admit_s: list[float] = field(default_factory=list)
    results: dict[str, RunResult] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    speed: float = 1.0


def run_iteration(workload: Workload, compiled: CompiledProgram) -> Iteration:
    """Run every approach of ``workload`` once on ``compiled``.

    An operation is one approach's session.  It fails if it raises or
    breaks an invariant of :func:`violations`; the error is reported on
    standard error and the run goes on with the next approach.
    """
    it = Iteration()
    approaches = all_approaches()
    start = clock()
    truths = compiled.truth()
    for key in workload.approaches:
        it.attempted += 1
        probe = SessionProbe()
        try:
            with probe:
                result = run_program(
                    approaches[key], compiled, truths=truths, delta_t=workload.scenario.delta_t
                )
        except Exception:  # any raise is a failed operation; the run goes on
            it.failed += 1
            print(f"{workload.name}/{key} raised:", file=sys.stderr)
            traceback.print_exc()
            continue
        broken = violations(workload, compiled, result)
        if broken:
            it.failed += 1
            print(f"{workload.name}/{key}: {'; '.join(broken)}", file=sys.stderr)
        it.results[key] = result
        it.admit_s.extend(probe.admit_s)
        it.replay_s += probe.replay_s
    it.run_s = clock() - start
    return it


def run_cycle(workload: Workload, programs, host: HostSpeed, tracer=None) -> list[Iteration]:
    """One pass of every program.  Each pass starts after a full garbage
    collection and is bracketed by two host-speed samples; with
    ``tracer``, the pass (not the samples) runs traced."""
    cycle = []
    for compiled in programs:
        gc.collect()
        before = host.sample()
        if tracer is None:
            it = run_iteration(workload, compiled)
        else:
            with tracer.installed():
                it = run_iteration(workload, compiled)
        it.speed = (before + host.sample()) / 2
        cycle.append(it)
    return cycle
