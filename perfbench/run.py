"""The repository benchmark: one command, four simulation workloads.

    python3 perfbench/run.py --workload replay_static --seed 0 --seconds 30 --trace 0

Run from the repository root.  A run draws several programs of the
workload from ``--seed``.  A pass runs one program: the oracle truth pass
plus one ``Session`` per approach, each checked against the oracle.  After
one warm-up pass, set-up (deployment, ``WorkloadProgram.source`` and
``compile``) is timed five times per program and its median reported; then
passes cycle through the programs in whole cycles — one, and more while
another fits in ``--seconds`` — and medians are reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
plain and traced cycles and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--write-spec`` regenerates
``BENCHMARK.json`` from the tables below.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
RUN_SECONDS = 30

# name → (unit, better, bound); bound is the tolerated worsening as a
# share of the parent's median.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "replay_events_per_s": ("events/s", "higher", 0.25),
    "admit_p50_ms": ("ms", "lower", 0.25),
    "admit_p99_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "event_units": ("units", "lower", 0.2),
    "subscription_units": ("units", "lower", 0.2),
    "advertisement_units": ("units", "lower", 0.05),
    "recall_min": ("ratio", "higher", 0.05),
    "precision_min": ("ratio", "higher", 0.005),
}

UNIT_APPROACHES = ("fsf", "operator_placement", "naive", "centralized")
LAYERS = ("sim", "matching", "network", "approaches", "model", "subsumption", "api", "sketches")
MESSAGE_KINDS = {
    "EventMessage": "event",
    "OperatorMessage": "operator",
    "AdvertisementMessage": "advertisement",
    "UnsubscribeMessage": "unsubscribe",
    "SketchSubscribeMessage": "sketch",
    "SketchPushMessage": "sketch",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "sim.agenda_entries": "count",
    "matching.calls": "count",
    "matching.calls_per_arrival": "ratio",
    "matching.hit_ratio": "ratio",
    "network.sends": "count",
    **{f"network.msgs.{kind}": "count" for kind in dict.fromkeys(MESSAGE_KINDS.values())},
    "network.meter_self_s": "s",
    "network.store_self_s": "s",
    "network.store_adds": "count",
    "network.store_reject_ratio": "ratio",
    "model.covers_calls": "count",
    "model.covered_ratio": "ratio",
    "subsumption.checks": "count",
    "subsumption.subsumed_ratio": "ratio",
    "api.submits": "count",
    "metrics.oracle_s": "s",
    "metrics.score_s": "s",
    "workload.source_s": "s",
    "workload.compile_s": "s",
    "sketches.pushes": "count",
    **{
        f"units.{approach}.{channel}": "units"
        for approach in UNIT_APPROACHES
        for channel in ("event", "subscription", "advertisement")
    },
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_BETTER = {
    "matching.hit_ratio": "higher",
    "model.covered_ratio": "higher",
    "subsumption.subsumed_ratio": "higher",
}
"""Useful outcomes per attempt; every other per-layer metric is work or cost."""


def load_program() -> None:
    """Import the package under test from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulated(workload, cycle) -> dict[str, float]:
    """The modelled network's end-to-end metrics: means over one cycle of
    programs of the per-program figures.  They repeat exactly."""
    approximate = workload.scenario.answer_mode == "approximate"
    per_program = [list(it.results.values()) for it in cycle]
    scored = [a for a in workload.approaches if all(a in it.results for it in cycle)]
    return {
        "event_units": statistics.fmean(sum(r.event_load for r in rs) for rs in per_program),
        "subscription_units": statistics.fmean(
            sum(r.subscription_load + r.admit_load + r.teardown_load for r in rs)
            for rs in per_program
        ),
        "advertisement_units": statistics.fmean(
            sum(r.advertisement_load + r.reflood_load for r in rs) for rs in per_program
        ),
        "recall_min": min(
            (
                statistics.fmean(
                    it.results[a].approx_mean_recall if approximate else it.results[a].recall
                    for it in cycle
                )
                for a in scored
            ),
            default=0.0,
        ),
        "precision_min": min(
            (statistics.fmean(1.0 - it.results[a].false_positive_rate for it in cycle) for a in scored),
            default=0.0,
        ),
    }


def end_to_end(workload, programs, setup_s, passes, peak_rss_mb) -> tuple[dict, str]:
    """Host times scaled to the reference speed; see ``harness.HostSpeed``."""
    k = len(programs)
    admit_ms = [1000.0 * s * it.speed for it in passes for s in it.admit_s]
    # Passes cycle through the programs; pool each program's samples.
    per_program = [
        [1000.0 * s * it.speed for it in passes[i::k] for s in it.admit_s] for i in range(k)
    ]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(it.run_s * it.speed for it in passes),
        "replay_events_per_s": ratio(
            sum(len(programs[i % len(programs)].events) * len(it.results) for i, it in enumerate(passes)),
            sum(it.replay_s * it.speed for it in passes),
        ),
        "admit_p50_ms": statistics.median(admit_ms) if admit_ms else 0.0,
        # Per program, then the median over programs: pooled over the
        # run, the tail of the one program with the largest floods would
        # set it.
        "admit_p99_ms": statistics.median(
            statistics.quantiles(samples, n=100, method="inclusive")[98] if len(samples) > 1 else 0.0
            for samples in per_program
        ),
        "peak_rss_mb": peak_rss_mb,
        **simulated(workload, passes[:k]),
    }
    readings = statistics.fmean(len(c.events) for c in programs)
    tail = min(len(samples) for samples in per_program) // 100
    note = (
        f"{len(passes)} passes over {k} programs, {len(admit_ms)} settled submits "
        f"(>= {tail} beyond each program's p99), {readings:g} readings x "
        f"{len(workload.approaches)} approaches per pass; "
        f"median host speed {statistics.median(it.speed for it in passes):.3f}"
    )
    return metrics, note


def per_layer(cycle, spans, setup_spans) -> dict[str, float]:
    """The per-layer metrics of one traced cycle, per program."""
    k = len(cycle)
    run_s = sum(it.run_s for it in cycle)
    # Span seconds are raw; scale them by the cycle's mean host speed.
    speed = statistics.fmean(it.speed for it in cycle)
    m: dict[str, float] = {}
    for layer in LAYERS:
        self_s = spans.layer_self_s(layer)
        m[f"{layer}.self_s"] = self_s * speed / k
        m[f"{layer}.share"] = ratio(self_s, run_s)
    rs = [r for it in cycle for r in it.results.values()]
    calls = spans.count("OperatorMatcher.matches_involving")
    adds = spans.count("EventStore.add")
    accepted = spans.count("EventStore.add", True)
    m["sim.agenda_entries"] = sum(r.sim_events for r in rs) / k
    m["matching.calls"] = calls / k
    m["matching.calls_per_arrival"] = ratio(calls, accepted)
    m["matching.hit_ratio"] = ratio(
        spans.count("OperatorMatcher.matches_involving", True), calls
    )
    m["network.sends"] = (spans.count("Network.send") + spans.count("Network.unicast")) / k
    for kind in MESSAGE_KINDS.values():
        m[f"network.msgs.{kind}"] = 0
    for (name, outcome), n in spans.outcomes.items():
        if name == "TrafficMeter.record":
            if outcome not in MESSAGE_KINDS:
                raise RuntimeError(f"unclassified message kind {outcome} on the meter")
            m[f"network.msgs.{MESSAGE_KINDS[outcome]}"] += n / k
    m["network.meter_self_s"] = spans.self_s.get("TrafficMeter.record", 0.0) * speed / k
    m["network.store_self_s"] = spans.self_s.get("EventStore.add", 0.0) * speed / k
    m["network.store_adds"] = adds / k
    m["network.store_reject_ratio"] = ratio(adds - accepted, adds)
    covers = spans.count("CorrelationOperator.covers")
    m["model.covers_calls"] = covers / k
    m["model.covered_ratio"] = ratio(spans.count("CorrelationOperator.covers", True), covers)
    checks = [spans.count(name) for name in SUBSUMPTION_CHECKS]
    m["subsumption.checks"] = sum(checks) / k
    m["subsumption.subsumed_ratio"] = ratio(
        sum(spans.count(name, True) for name in SUBSUMPTION_CHECKS), sum(checks)
    )
    m["api.submits"] = spans.count("Session.submit") / k
    m["metrics.oracle_s"] = spans.total_s.get("compute_truth", 0.0) * speed / k
    m["metrics.score_s"] = (
        spans.total_s.get("measure_recall", 0.0) + spans.total_s.get("measure_approx", 0.0)
    ) * speed / k
    m["workload.source_s"] = setup_spans.total_s.get("WorkloadProgram.source", 0.0) * speed / k
    m["workload.compile_s"] = setup_spans.self_s.get("WorkloadProgram.compile", 0.0) * speed / k
    m["sketches.pushes"] = spans.count("SketchLane.handle_push") / k
    for approach in UNIT_APPROACHES:
        ran = [it.results[approach] for it in cycle if approach in it.results]
        m[f"units.{approach}.event"] = sum(r.event_load for r in ran) / k
        m[f"units.{approach}.subscription"] = (
            sum(r.subscription_load + r.admit_load + r.teardown_load for r in ran) / k
        )
        m[f"units.{approach}.advertisement"] = (
            sum(r.advertisement_load + r.reflood_load for r in ran) / k
        )
    return m


SUBSUMPTION_CHECKS = (
    "find_cover",
    "ProbabilisticSetFilter.is_subsumed",
    "ProbabilisticSetFilter.is_product_subsumed",
)


def cycles(seconds: float):
    """Yield once per cycle: always once, then again while one more cycle
    as long as the last one still fits in ``seconds``."""
    start = time.perf_counter()
    last = start
    while True:
        yield
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            return
        last = now


def traced(workload, programs, seed, seconds, host):
    """Alternate plain and traced cycles; per-layer medians and the overhead.

    Returns the metrics, every pass run (plain and traced, in program
    order), whether the per-layer counts repeated across traced cycles,
    and the spans of the last traced cycle.
    """
    from perfbench import harness, trace

    tracer = trace.Tracer()
    with tracer.installed():
        for index in range(len(programs)):
            workload.setup(seed, index)
    setup_spans = tracer.take()
    plain_s, traced_s, layered, passes = [], [], [], []
    for _ in cycles(seconds):
        plain = harness.run_cycle(workload, programs, host)
        cycle = harness.run_cycle(workload, programs, host, tracer)
        spans = tracer.take()
        passes += plain + cycle
        plain_s.append(sum(it.run_s * it.speed for it in plain))
        traced_s.append(sum(it.run_s * it.speed for it in cycle))
        layered.append(per_layer(cycle, spans, setup_spans))
    metrics = {name: statistics.median(m[name] for m in layered) for name in layered[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    drifted = [
        name
        for name, unit in PER_LAYER.items()
        if unit in ("count", "units") and len({m[name] for m in layered}) > 1
    ]
    if drifted:
        print(f"per-layer counts differ between traced cycles: {drifted}", file=sys.stderr)
    return metrics, passes, not drifted, {"setup": setup_spans.as_json(), "run": spans.as_json()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shrunk inputs, for the benchmark's own tests"
    )
    parser.add_argument(
        "--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)

    load_program()
    from perfbench import harness
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    if args.write_spec:
        write_spec(WORKLOADS)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.shrunk()
    seed = DEFAULT_SEED if args.seed is None else args.seed

    # A warm-up pass of the first program lets lazy set-up finish before
    # timing; its results must equal the timed pass of the same program.
    # Peak memory is read after it, before the other programs and the
    # benchmark's own state exist: the interpreter, the package, one
    # compiled program and one pass of it.
    programs = [workload.setup(seed, 0)]
    warm_up = harness.run_iteration(workload, programs[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    programs += [workload.setup(seed, index) for index in range(1, workload.programs)]
    host = harness.HostSpeed()
    start = time.perf_counter()
    if args.trace:
        metrics, passes, consistent, spans = traced(workload, programs, seed, args.seconds, host)
        units = PER_LAYER
        note = f"{len(passes) // 2} plain and {len(passes) // 2} traced passes"
        out = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(spans, indent=1) + "\n")
    else:
        setup_s = []
        for index in range(workload.programs):
            gc.collect()
            before = host.sample()
            raw = []
            for _ in range(SETUP_REPEATS):
                began = time.perf_counter()
                workload.setup(seed, index)
                raw.append(time.perf_counter() - began)
            speed = (before + host.sample()) / 2
            setup_s += [t * speed for t in raw]
        passes = []
        for _ in cycles(args.seconds):
            passes += harness.run_cycle(workload, programs, host)
        metrics, note = end_to_end(workload, programs, setup_s, passes, peak_rss_mb)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
        consistent = True
    note += f"; {time.perf_counter() - start:.1f} s measured"

    # Passes cycle through the programs: a program's results must repeat.
    k = len(programs)
    consistent &= all(it.results == passes[i % k].results for i, it in enumerate(passes))
    consistent &= warm_up.results == passes[0].results
    attempted = warm_up.attempted + sum(it.attempted for it in passes)
    failed = warm_up.failed + sum(it.failed for it in passes)

    print(f"{workload.name} seed={seed}: {note}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": consistent and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def write_spec(workloads) -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": PER_LAYER_BETTER.get(name, "lower")}
            for name, unit in PER_LAYER.items()
        ],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
