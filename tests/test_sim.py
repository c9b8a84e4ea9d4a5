"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import SimulationError, Simulator


class TestScheduling:
    def test_time_ordering(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, lambda: out.append("late"))
        sim.schedule(1.0, lambda: out.append("early"))
        sim.run()
        assert out == ["early", "late"]
        assert sim.now == 2.0

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.at(1.0, lambda i=i: out.append(i))
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_priority_beats_fifo(self):
        sim = Simulator()
        out = []
        sim.at(1.0, lambda: out.append("normal"), priority=0)
        sim.at(1.0, lambda: out.append("urgent"), priority=-1)
        sim.run()
        assert out == ["urgent", "normal"]

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: out.append(sim.now)))
        sim.run()
        assert out == [2.0]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        out = []
        handle = sim.schedule(1.0, lambda: out.append("x"))
        handle.cancel()
        sim.run()
        assert out == [] and handle.cancelled
        assert sim.pending == 0

    def test_handle_and_agenda_views_skip_cancelled(self):
        """Handles read and flip their agenda entry in place; the agenda
        views and ``step`` skip cancelled entries; simultaneous entries
        of equal priority order by sequence number alone, never by their
        (incomparable) actions."""
        sim = Simulator()
        out = []

        def tick():
            out.append("tick")

        keep = sim.at(2.0, tick)
        drop = sim.at(2.0, lambda: out.append("dropped"))
        sim.at(2.0, tick)
        assert keep.time == 2.0 and not keep.cancelled
        assert sim.pending == 3
        drop.cancel()
        assert drop.cancelled and drop.time == 2.0
        assert sim.pending == 2
        assert sim.agenda_summary() == [(tick.__qualname__, 2)]
        assert sim.step() and out == ["tick"]
        assert sim.step() and out == ["tick", "tick"]
        assert not sim.step() and sim.pending == 0
        keep.cancel()  # already run: a no-op
        assert sim.processed_events == 2

    def test_run_until(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: out.append(1))
        sim.schedule(10.0, lambda: out.append(10))
        sim.run(until=5.0)
        assert out == [1] and sim.now == 5.0
        sim.run()
        assert out == [1, 10]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=10)

    def test_step(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, lambda: out.append(1))
        assert sim.step() and out == [1]
        assert not sim.step()

    def test_not_reentrant(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: sim.run())
        with pytest.raises(SimulationError):
            sim.run()


class TestProcesses:
    def test_generator_process(self):
        sim = Simulator()
        out = []

        def proc():
            out.append(("start", sim.now))
            yield 2.0
            out.append(("mid", sim.now))
            yield 3.0
            out.append(("end", sim.now))

        sim.process(proc())
        sim.run()
        assert out == [("start", 0.0), ("mid", 2.0), ("end", 5.0)]

    def test_negative_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_drain(self):
        sim = Simulator()
        out = []
        sim.drain([lambda: out.append(1), lambda: out.append(2)])
        assert out == [1, 2]


class TestDeterminism:
    def test_named_rng_streams_independent_and_reproducible(self):
        a1 = Simulator(seed=7).rng("x").random(5).tolist()
        a2 = Simulator(seed=7).rng("x").random(5).tolist()
        b = Simulator(seed=7).rng("y").random(5).tolist()
        assert a1 == a2
        assert a1 != b

    def test_same_rng_instance_per_name(self):
        sim = Simulator(seed=1)
        assert sim.rng("s") is sim.rng("s")

    def test_processed_event_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 4


class TestRngStability:
    """The documented contract: equal seeds give equal runs — across
    *processes*, not just within one.  The stream-key derivation once
    used ``hash((root, stream))``, which varies with PYTHONHASHSEED."""

    _DRAW = (
        "import sys; sys.path.insert(0, {path!r}); "
        "from repro.sim import Simulator; "
        "print(Simulator(seed=7).rng('setfilter:n1').random(4).tolist())"
    )

    def _draw_in_subprocess(self, hashseed: str) -> str:
        import os
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", self._DRAW.format(path=src)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return out.stdout.strip()

    def test_rng_streams_stable_across_hash_randomization(self):
        draws = {self._draw_in_subprocess(seed) for seed in ("0", "1", "31337")}
        assert len(draws) == 1, (
            "rng stream keys must not depend on PYTHONHASHSEED; got "
            f"{draws}"
        )

    def test_rng_stream_matches_in_process_draw(self):
        from repro.sim import Simulator

        local = str(Simulator(seed=7).rng("setfilter:n1").random(4).tolist())
        assert self._draw_in_subprocess("42") == local
