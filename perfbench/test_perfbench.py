"""The benchmark's own checks, at a reduced size (about a minute).

    python -m pytest perfbench -q

* harness parity: the harness drives the experiment runner's serial
  ``run_program``, and its timing probe changes no traffic snapshot,
  delivery or ``RunResult`` on any workload's program;
* invariants hold on the default and the held-out seed;
* simulated metrics and per-layer counts repeat across runs,
  ``PYTHONHASHSEED`` values and tracing on or off;
* a traced entry point outside ``layers.toml`` stops the traced run;
* outside a checkout the command fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.runner import run_program  # noqa: E402
from repro.protocols.registry import all_approaches  # noqa: E402
from repro.workload.program import execute_program  # noqa: E402

from perfbench import harness, trace  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, UNIT_APPROACHES  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

SMALL = {name: w.shrunk() for name, w in WORKLOADS.items()}
SIMULATED = ("event_units", "subscription_units", "advertisement_units", "recall_min", "precision_min")


def deliveries(execution) -> dict:
    log = execution.session.network.delivery
    return {
        "events": {sub: sorted(log.delivered(sub)) for sub in log.subscriptions()},
        "complex": dict(log.complex_deliveries),
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_harness_matches_run_program(name):
    """The harness runs ``run_program`` itself; the probe it installs must
    change no snapshot, delivery or ``RunResult`` field."""
    workload = SMALL[name]
    compiled = workload.setup(DEFAULT_SEED, 0)
    truths = compiled.truth()
    approaches = all_approaches()
    for key in workload.approaches:
        with harness.SessionProbe() as probe:
            timed = execute_program(compiled, approaches[key], delta_t=workload.scenario.delta_t)
        plain = execute_program(compiled, approaches[key], delta_t=workload.scenario.delta_t)
        assert probe.admit_s and probe.replay_s > 0
        for phase in ("after_advertisements", "after_setup", "final"):
            assert getattr(timed, phase) == getattr(plain, phase), (key, phase)
        assert deliveries(timed) == deliveries(plain), key
    reference = {
        key: run_program(approaches[key], compiled, truths=truths, delta_t=workload.scenario.delta_t)
        for key in workload.approaches
    }
    assert harness.run_iteration(workload, compiled).results == reference


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_invariants_hold(name, seed):
    workload = SMALL[name]
    for index in range(workload.programs):
        it = harness.run_iteration(workload, workload.setup(seed, index))
        assert it.attempted == len(workload.approaches)
        assert it.failed == 0


def bench(name: str, trace_on: int, hash_seed: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace_on), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return {name: m["value"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat(name):
    """Across runs and hash seeds (two traced runs), and traced vs plain:
    each run also checks that traced and plain passes score identically."""
    first = result(bench(name, 1, "0"))
    second = result(bench(name, 1, "1"))
    plain = result(bench(name, 0, "2"))
    assert set(first) == set(PER_LAYER) and set(plain) == set(END_TO_END)
    counts = [n for n, unit in PER_LAYER.items() if unit in ("count", "units")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    again = result(bench(name, 0, "3"))
    assert {n: plain[n] for n in SIMULATED} == {n: again[n] for n in SIMULATED}
    for channel in ("event", "subscription", "advertisement"):
        total = sum(first[f"units.{a}.{channel}"] for a in UNIT_APPROACHES)
        assert total == pytest.approx(plain[f"{channel}_units"], rel=1e-12)


def test_entry_point_outside_the_layer_map_fails():
    tracer = trace.Tracer(
        {"repro.sim.core:Simulator.run": None, "perfbench.workloads:Workload.setup": None}
    )
    original = trace._resolve("repro.sim.core:Simulator.run")[2]
    with pytest.raises(RuntimeError, match="no layer"):
        with tracer.installed():
            pass
    assert trace._resolve("repro.sim.core:Simulator.run")[2] is original


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("replay_static", 0, "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
