"""Serving benchmark of the Murakkab reproduction.

    python3 perfbench/run.py --workload grouped-replay --seed 1 --seconds 10 --trace 0

Serves one seeded arrival trace (see ``traces.py`` and the README) through
the public serving API in rounds, each on a fresh endpoint, until at least
``--seconds`` seconds of rounds have run; then checks the program's outputs
(``checks.py``).  It prints every metric with its unit, the operations
attempted and failed, and the check results, and as its last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds whose layer calls are wrapped by
``spans.SpanRecorder``, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``perfbench/out/``.

Exit status: 0 when every check passes, 1 when one fails, 2 when the
program's sources (``src/repro``) are not in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed before the rounds.  One more is timed after every
#: round, and ``setup_s`` is the median of all of them: machine speed drifts
#: within seconds, so probes spread over the run steady the median.
SETUP_PROBES = 3
#: Untraced rounds per ``--trace 0`` run, at least (the report-equality
#: check needs two).
MIN_ROUNDS = 2
#: Nominal duration of :func:`reference_s`.  The speed of a shared machine
#: swings by up to a half within minutes, so serving throughput is reported
#: at the speed at which the reference loop takes this long: each round is
#: scaled by the loop's time measured beside it.
REFERENCE_NOMINAL_S = 0.05
#: Power of the loop's time ratio that scales a round.  A round's time moves
#: by 0.4 to 0.7 of the loop's relative change (log-log slope over 83-96
#: back-to-back rounds), so scaling by the whole ratio adds the loop's own
#: swings; the square root gave the least per-round variation.
REFERENCE_ELASTICITY = 0.5


def _reference_work() -> float:
    heap: List[tuple] = []
    table: Dict[int, float] = {}
    total = 0.0
    for index in range(20_000):
        heapq.heappush(heap, ((index * 7919) % 10007 * 0.5, index))
        table[index % 997] = table.get(index % 997, 0.0) + index * 0.25
    while heap:
        due, index = heapq.heappop(heap)
        total += due * 1e-3 + math.sqrt(index)
    return total + len(table)


def reference_s() -> float:
    """The machine's speed right now: median time of five runs of a fixed
    pure-Python event loop (heap, dict and float work, as in the simulator),
    with the collector off so the heap the benchmark holds does not count."""
    times = []
    gc.disable()
    try:
        for _ in range(5):
            started = perf_counter()
            _reference_work()
            times.append(perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


@dataclass
class Round:
    """What one served trace leaves behind.  Only the first round's report
    and capture are kept whole (for the checks); later rounds keep counts
    and a digest, so memory does not grow with the number of rounds."""

    wall_s: float
    #: :func:`reference_s`, the mean of its values just before and after.
    reference_s: float
    jobs: int
    unserved: int
    digest: str
    shard_walls: List[float]
    events_fired: int
    plan_cache: Dict[str, int]
    workers_peak_kb: int


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        help="multiply the trace length (the backlog-growth check runs --scale 2)",
    )
    return parser.parse_args(argv)


def setup_times(workload: str, count: int = SETUP_PROBES) -> List[Dict[str, float]]:
    """Time ``count`` fresh processes from spawn to a ready endpoint."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    timings = []
    for _ in range(count):
        started = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.communicate(timeout=120)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload!r} exited with {child.returncode}")
        timing = json.loads(line)
        timing["setup_s"] = ready - started
        timings.append(timing)
    return timings


def workers_peak_kb() -> int:
    """Summed peak resident memory of this process's live worker processes."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


def serve_round(traces, workload, arrivals, recorder=None):
    """Serve ``arrivals`` once on a fresh endpoint; returns
    ``(Round, report, capture_json)``."""
    from checks import digest

    endpoint = traces.new_endpoint(workload)
    before = reference_s()
    try:
        with recorder.installed() if recorder is not None else nullcontext():
            started = perf_counter()
            report, capture_text = traces.serve(workload, endpoint, arrivals)
            wall_s = perf_counter() - started
        speed = (before + reference_s()) / 2.0
        runtime = getattr(endpoint, "runtime", None)
        outcome = Round(
            wall_s=wall_s,
            reference_s=speed,
            jobs=report.jobs,
            unserved=report.rejected_jobs + report.failed_jobs,
            digest=digest(report, capture_text),
            shard_walls=[record["wall_seconds"] for record in report.shards.values()],
            events_fired=runtime.engine.events_fired if runtime is not None else 0,
            plan_cache=dict(runtime.planner.plan_cache_info) if runtime is not None else {},
            workers_peak_kb=workers_peak_kb() if workload.shards else 0,
        )
        return outcome, report, capture_text
    finally:
        endpoint.shutdown()


def scaled_rate(outcome: Round) -> float:
    """Jobs per wall second at the nominal speed (see REFERENCE_NOMINAL_S)."""
    speed = outcome.reference_s / REFERENCE_NOMINAL_S
    return outcome.jobs / outcome.wall_s * speed**REFERENCE_ELASTICITY


def end_to_end_metrics(report, rounds, setups, latencies, rss_kb) -> Dict[str, tuple]:
    from checks import nearest_rank

    return {
        "host_jobs_per_s": (statistics.median(scaled_rate(r) for r in rounds), "jobs/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": ((rss_kb + max(r.workers_peak_kb for r in rounds)) / 1024.0, "MB"),
        "sim_latency_p50_s": (nearest_rank(latencies, 0.5), "s"),
        "sim_latency_p99_s": (nearest_rank(latencies, 0.99), "s"),
        "sim_makespan_mean_s": (report.makespan_s.mean, "s"),
        "sim_energy_wh_per_job": (report.energy_wh.total / report.jobs, "Wh/job"),
        "sim_cost_per_job": (report.cost.total / report.jobs, "usd/job"),
        "sim_quality_mean": (report.quality.mean, "score"),
    }


def layer_metrics(report, capture_text, recorder, untraced, traced, setups) -> Dict[str, tuple]:
    from spans import SPAN_NAMES

    count = len(traced)
    metrics: Dict[str, tuple] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (recorder.calls.get(name, 0) / count, "count")
        metrics[f"{name}.self_s"] = (recorder.self_ns.get(name, 0) / 1e9 / count, "s")
    # Shard workers run unwrapped: their loadgen span is each shard's own
    # wall clock, from the merged report's provenance.
    shard_walls = [r.shard_walls for r in traced]
    if report.shards:
        metrics["loadgen.run.calls"] = (float(len(report.shards)), "count")
        metrics["loadgen.run.self_s"] = (statistics.fmean(map(sum, shard_walls)), "s")
    shard_jobs = [record["jobs"] for record in report.shards.values()]
    metrics.update(
        {
            "loadgen.replay_runs": (report.replay_runs, "count"),
            "loadgen.simulated_jobs": (report.simulated_jobs, "count"),
            "loadgen.replayed_jobs": (report.replayed_jobs, "count"),
            "loadgen.sim_queue_delay_mean_s": (report.queue_delay_s.mean, "s"),
            "admission.deferred_jobs": (report.deferred_jobs, "count"),
            "admission.degraded_jobs": (report.degraded_jobs, "count"),
            "capture.bytes": (len((capture_text or "").encode("utf-8")), "bytes"),
            "core.planner.cache_hits": (traced[0].plan_cache.get("hits", 0), "count"),
            "core.planner.cache_misses": (traced[0].plan_cache.get("misses", 0), "count"),
            "sim.engine.events_fired": (traced[0].events_fired, "count"),
            "fabric.transfer_events": (report.transfer_events, "count"),
            "fabric.sim_transfer_s": (report.transfer_s, "s"),
            "fabric.cross_rack_mb": (report.cross_rack_bytes / 1e6, "MB"),
            # The parent's wait on its workers beyond the slowest shard's serve.
            "sharding.ipc_s": (
                metrics["sharding.wait.self_s"][0] - statistics.fmean(map(max, shard_walls))
                if report.shards
                else 0.0,
                "s",
            ),
            "sharding.largest_shard_share": (
                max(shard_jobs) / report.jobs if shard_jobs else 0.0,
                "share",
            ),
            "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
            "setup.construct_s": (statistics.median(s["construct_s"] for s in setups), "s"),
            "trace.overhead_pct": (
                100.0
                * (
                    statistics.median(r.wall_s for r in traced)
                    / statistics.median(r.wall_s for r in untraced)
                    - 1.0
                ),
                "%",
            ),
        }
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing: {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import traces

    if args.workload not in traces.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(traces.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        return run(args, traces.WORKLOADS[args.workload])
    finally:
        # Every endpoint is shut down by now; this ends the one helper
        # process left, the resource tracker of the shard workers.
        traces.stop_resource_tracker()


def run(args: argparse.Namespace, workload) -> int:
    """Serve, check and report one workload; returns the exit status."""
    import checks
    import traces
    from spans import SpanRecorder

    setups = setup_times(workload.name)
    arrivals = workload.arrivals(args.seed, args.scale)
    probe_size = len(traces.probe_arrivals()) if workload.admission is not None else 0
    recorder = SpanRecorder() if args.trace else None

    untraced: List[Round] = []
    traced: List[Round] = []
    report = capture_text = None
    attempted = failed = 0
    # Seconds of set-up probes between rounds, left out of the rounds' budget.
    probes_s = 0.0
    started = perf_counter()
    while (
        len(untraced) < (1 if recorder is not None else MIN_ROUNDS)
        or perf_counter() - started - probes_s < args.seconds
    ):
        outcome, served, capture = serve_round(traces, workload, arrivals)
        untraced.append(outcome)
        if report is None:
            report, capture_text = served, capture
        batch = [outcome]
        if recorder is not None:
            recorder.round = len(traced)
            traced.append(serve_round(traces, workload, arrivals, recorder)[0])
            batch.append(traced[-1])
        del served, capture
        for outcome in batch:
            # One round: the trace, plus the known-fault probe on
            # admission-diurnal, so every round fails the same share.
            attempted += len(arrivals) + probe_size
            failed += outcome.unserved
            if probe_size:
                failed += traces.serve_probe()
        probe_started = perf_counter()
        setups += setup_times(workload.name, 1)
        probes_s += perf_counter() - probe_started
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    results, latencies = checks.verify(workload, arrivals, report, capture_text, untraced + traced)
    if recorder is not None:
        metrics = layer_metrics(report, capture_text, recorder, untraced, traced, setups)
        OUT.mkdir(exist_ok=True)
        recorder.write(str(OUT / f"spans-{workload.name}-seed{args.seed}.csv"))
    else:
        metrics = end_to_end_metrics(report, untraced, setups, latencies, rss_kb)

    print(f"workload {workload.name} seed {args.seed}: {len(arrivals)} arrivals, "
          f"{len(untraced)} untraced and {len(traced)} traced rounds")
    print(f"operations: attempted {attempted}, failed {failed}")
    print(f"simulated latency samples per round: {len(latencies)}")
    print("round wall seconds: " + " ".join(f"{r.wall_s:.3f}" for r in untraced + traced))
    print("reference loop seconds: " + " ".join(f"{r.reference_s:.4f}" for r in untraced + traced))
    print(f"unscaled host_jobs_per_s: {statistics.median(r.jobs / r.wall_s for r in untraced)!r}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print("checks:")
    print("\n".join(results.lines()))
    print(
        json.dumps(
            {
                "correct": results.passed,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if results.passed else 1


if __name__ == "__main__":
    sys.exit(main())
