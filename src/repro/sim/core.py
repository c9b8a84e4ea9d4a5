"""A small deterministic discrete-event simulation kernel.

The paper evaluated a Java implementation on a Xen cluster; its metrics
are message counts, so a discrete-event simulation of the same
message-driven node logic reproduces them exactly while staying
deterministic and seedable (see DESIGN.md, substitution table).

The kernel is deliberately minimal and dependency-free:

* a binary-heap agenda of ``[time, priority, seq, action, cancelled]``
  entries — ``seq`` gives FIFO order among simultaneous events, so runs
  are fully reproducible;
* callback scheduling (:meth:`Simulator.schedule` / :meth:`Simulator.at`)
  for the network substrate;
* generator *processes* (:meth:`Simulator.process`) that ``yield`` delays
  — the SimPy idiom — used by sensor replay loops;
* named, seeded random streams so independent model components draw from
  independent generators.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Any, Callable, Generator, Iterable, Optional

import numpy as np

from ..seeding import derive_seed

Action = Callable[[], None]
ProcessGenerator = Generator[float, None, None]


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class AgendaBudgetExceeded(SimulationError):
    """:meth:`Simulator.run` exhausted its ``max_events`` budget.

    Distinguishable from plain misuse so callers holding diagnostic
    context (the network's livelock report) can catch precisely this
    case; existing handlers catching :class:`SimulationError` keep
    working.
    """


_Entry = list[Any]
"""One agenda entry, ``[time, priority, seq, action, cancelled]``.

A plain list, so ``heapq`` compares entries element-wise in C instead of
through a Python-level ``__lt__``.  ``seq`` is unique, so comparison is
decided by the first three elements and never reaches ``action``.  The
list is mutable because :meth:`Handle.cancel` flips ``cancelled`` in
place (lazy deletion: cancelled entries are skipped when popped).
"""


class Handle:
    """Cancellation handle returned by the scheduling calls."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _Entry) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the action from running (no-op if already run)."""
        self._entry[4] = True

    @property
    def time(self) -> float:
        time: float = self._entry[0]
        return time

    @property
    def cancelled(self) -> bool:
        cancelled: bool = self._entry[4]
        return cancelled


class Simulator:
    """Event loop with virtual time.

    ``Simulator(seed=...)`` fixes every random stream derived via
    :meth:`rng`; two simulators with equal seeds and equal scheduling
    sequences produce identical runs.
    """

    def __init__(self, seed: int | None = None) -> None:
        self._agenda: list[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self.processed_events = 0

    # ------------------------------------------------------------------
    # time & randomness
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def running(self) -> bool:
        """Whether the event loop is currently executing an action.

        True inside any scheduled callback (a delivery notification, a
        timeline entry, a process step) — the state in which a nested
        :meth:`run` would raise.  Facade layers use it to turn the
        opaque re-entrancy error into actionable guidance.
        """
        return self._running

    def rng(self, stream: str) -> np.random.Generator:
        """A named random stream, derived deterministically from the seed.

        Distinct names give independent generators; repeated calls with
        the same name return the same generator instance.  The stream
        key is derived with the *stable* hash of :mod:`repro.seeding`:
        Python's builtin ``hash`` of a str-containing tuple varies with
        ``PYTHONHASHSEED``, which silently broke the "deterministic,
        seedable" contract across processes.
        """
        if stream not in self._rngs:
            root = self._seed if self._seed is not None else 0
            self._rngs[stream] = np.random.default_rng(
                derive_seed(root, stream)
            )
        return self._rngs[stream]

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, action: Action, priority: int = 0) -> Handle:
        """Run ``action`` at absolute virtual ``time``."""
        if math.isnan(time):
            raise SimulationError("cannot schedule at time NaN")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:g}; now is {self._now:g}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry: _Entry = [time, priority, seq, action, False]
        heapq.heappush(self._agenda, entry)
        return Handle(entry)

    @property
    def sequence(self) -> int:
        """The next FIFO sequence number ``at`` will assign.

        Monotone, bumped by *every* scheduling call — an unchanged value
        between two instants proves no agenda entry was created in
        between.  The network's delivery batching keys on this: a batch
        of sends may share one agenda entry only while nothing else has
        been scheduled, which guarantees no other action can sort
        between the batched deliveries.
        """
        return self._seq

    def schedule(self, delay: float, action: Action, priority: int = 0) -> Handle:
        """Run ``action`` after ``delay`` units of virtual time."""
        if math.isnan(delay):
            raise SimulationError("delay is NaN")
        if delay < 0:
            raise SimulationError(f"negative delay {delay:g}")
        return self.at(self._now + delay, action, priority)

    def schedule_timeline(
        self,
        entries: Iterable[tuple[float, Action]],
        priority: int = 0,
    ) -> list[Handle]:
        """Bulk-schedule ``(absolute time, action)`` pairs.

        The injection API for pre-materialised timelines — the
        experiment runner feeds it the replayed publications and the
        churn schedule's join/leave transitions.  ``priority`` orders
        simultaneous entries against other agenda activity (lifecycle
        transitions run at priority 1, after same-instant publications).
        """
        return [self.at(time, action, priority) for time, action in entries]

    def process(self, generator: ProcessGenerator) -> None:
        """Drive a generator process: each ``yield d`` sleeps ``d`` units.

        The process ends when the generator returns.  Exceptions inside
        the generator propagate out of :meth:`run` — silent failures
        would corrupt experiments.
        """

        def step() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            if delay < 0:
                raise SimulationError("process yielded a negative delay")
            self.schedule(delay, step)

        # First step runs at the current time, after already-queued
        # simultaneous events (FIFO order from the sequence counter).
        self.schedule(0.0, step)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute the agenda; returns the final virtual time.

        ``until`` stops the clock at an absolute time (inclusive of the
        events scheduled exactly there); ``max_events`` guards against
        runaways in tests.

        Virtual time is monotone: ``until`` in the past (or NaN) is a
        programming error and raises instead of silently not running —
        the silent no-op hid reversed-clock bugs in replay harnesses.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None:
            if math.isnan(until):
                raise SimulationError("run(until=NaN)")
            if until < self._now:
                raise SimulationError(
                    f"cannot run until {until:g}; now is {self._now:g} "
                    "(virtual time is monotone)"
                )
        self._running = True
        try:
            count = 0
            agenda = self._agenda
            while agenda:
                entry = agenda[0]
                if until is not None and entry[0] > until:
                    break
                heapq.heappop(agenda)
                if entry[4]:  # cancelled
                    continue
                self._now = entry[0]
                entry[3]()
                self.processed_events += 1
                count += 1
                if max_events is not None and count >= max_events:
                    raise AgendaBudgetExceeded(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one pending event; False when agenda is empty."""
        while self._agenda:
            entry = heapq.heappop(self._agenda)
            if entry[4]:  # cancelled
                continue
            self._now = entry[0]
            entry[3]()
            self.processed_events += 1
            return True
        return False

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) entries still queued."""
        return sum(1 for e in self._agenda if not e[4])

    def agenda_summary(self, n: int = 5) -> list[tuple[str, int]]:
        """The ``n`` hottest pending action kinds, by callable name.

        Diagnostic input for livelock reports: when a budget run aborts,
        the distribution of what is still queued (retransmit timers,
        refresh floods, delivery lambdas) names the feedback loop.
        """
        kinds: Counter[str] = Counter()
        for entry in self._agenda:
            if entry[4]:  # cancelled
                continue
            action = entry[3]
            label = getattr(action, "__qualname__", None) or type(action).__name__
            kinds[label] += 1
        return kinds.most_common(n)

    def drain(self, actions: Iterable[Action]) -> None:
        """Schedule several immediate actions and run them to quiescence."""
        for action in actions:
            self.schedule(0.0, action)
        self.run()
