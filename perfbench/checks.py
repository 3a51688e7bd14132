"""Correctness checks for the benchmark's workloads.

Each check compares the program's output with a value computed here from
per-job records, or with a property the serving method must have; none
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List, Optional, Sequence

#: Float tolerance for timings that pass through trace-relative rebasing.
REL_TOL = 1e-9
ABS_TOL = 1e-6

SERVED = ("admit", "degrade", "defer")


class Checks:
    """Collects named pass/fail results."""

    def __init__(self) -> None:
        self.results: List[tuple] = []

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        self.results.append((label, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def lines(self) -> List[str]:
        return [
            f"  [{'ok' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else "")
            for label, ok, detail in self.results
        ]


def close(left: float, right: float) -> bool:
    return math.isclose(left, right, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """The nearest-rank percentile: the ``ceil(fraction * n)``-th smallest."""
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def canonical(report, ignore: Sequence[str] = ()) -> str:
    payload = report.canonical_dict()
    for key in ignore:
        payload.pop(key)
    return json.dumps(payload, sort_keys=True)


def digest(report, capture_text: Optional[str] = None) -> str:
    """SHA-256 over a report's canonical dict and its capture, if any."""
    text = canonical(report) + (capture_text or "")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def per_job(
    checks: Checks,
    records: Sequence[Dict[str, object]],
    waits: Optional[Sequence[float]] = None,
    fifo: bool = False,
) -> None:
    """Per-job timing identities over QoE records in arrival order.

    ``waits`` holds each served job's admission delay (0 unless deferred);
    ``fifo`` adds the grouped-mode rule that a job starts when it is ready
    or when the job before it finishes, whichever is later.
    """
    served = [record for record in records if record["outcome"] in SERVED]
    late_start = bad_finish = bad_latency = not_fifo = 0
    previous_finish = None
    for position, record in enumerate(served):
        ready = record["arrival_s"] + (waits[position] if waits is not None else 0.0)
        start, finish = record["started_s"], record["finished_s"]
        if start < ready and not close(start, ready):
            late_start += 1
        if not close(finish, start + record["makespan_s"]):
            bad_finish += 1
        if not close(record["latency_s"], finish - record["arrival_s"]):
            bad_latency += 1
        if fifo:
            expected = ready if previous_finish is None else max(ready, previous_finish)
            if not close(start, expected):
                not_fifo += 1
            previous_finish = finish
    checks.expect("every job starts at or after its admission time", late_start == 0, f"{late_start} early")
    checks.expect("every finish == start + makespan", bad_finish == 0, f"{bad_finish} differ")
    checks.expect("every latency == finish - arrival", bad_latency == 0, f"{bad_latency} differ")
    if fifo:
        checks.expect(
            "every grouped start == max(ready, previous finish)", not_fifo == 0, f"{not_fifo} differ"
        )


def percentiles(checks: Checks, report, retained: Sequence[float]) -> None:
    """p50 and p99 recomputed by nearest rank equal the report's values.

    ``retained`` is the latency sample the report kept: every served job in
    accounting order, cut at the report's sample cap by the caller.
    """
    reported = report.latency_percentiles((0.5, 0.99))
    for key, fraction in (("p50", 0.5), ("p99", 0.99)):
        recomputed = nearest_rank(retained, fraction)
        checks.expect(
            f"report {key} == nearest rank over {len(retained)} QoE latencies",
            close(reported[key], recomputed),
            f"{reported[key]!r} vs {recomputed!r}",
        )


def capped(latencies: Sequence[float], cap: Optional[int]) -> List[float]:
    return list(latencies if cap is None else latencies[:cap])


def served_latencies(records: Sequence[Dict[str, object]]) -> List[float]:
    return [record["latency_s"] for record in records if record["outcome"] in SERVED]


# --------------------------------------------------------------------- #
# Per-workload verification
# --------------------------------------------------------------------- #

#: Arrivals of the grouped-replay prefix compared with the per-arrival
#: (``vectorized=False``) reference path.
REFERENCE_PREFIX = 10_000


def verify(workload, arrivals, report, capture_text, rounds):
    """Run every check for ``workload``.

    ``report`` and ``capture_text`` come from the first of ``rounds``.
    Returns ``(checks, latencies)`` where ``latencies`` holds the simulated
    latency of every served job.
    """
    checks = Checks()
    unbalanced = [
        index for index, outcome in enumerate(rounds) if outcome.jobs + outcome.unserved != len(arrivals)
    ]
    checks.expect(
        "served + rejected + failed == offered, every round",
        not unbalanced,
        f"{len(rounds)} rounds of {len(arrivals)} arrivals",
    )
    checks.expect(
        "fresh endpoints given the same trace report (and capture) identically",
        len({outcome.digest for outcome in rounds}) == 1,
        f"{len(rounds)} rounds",
    )
    if workload.admission is not None:
        latencies = _verify_admission(checks, workload, arrivals, report, capture_text)
    elif workload.shards:
        latencies = _verify_sharded(checks, workload, arrivals, report)
    else:
        latencies = _verify_single(checks, workload, arrivals, report)
    return checks, latencies


def _verify_single(checks: Checks, workload, arrivals, report) -> List[float]:
    from repro.service import AIWorkflowService

    def serve(trace, **options):
        service = AIWorkflowService(fabric=workload.fabric)
        try:
            return service.submit_trace(trace, **workload.options, **options)
        finally:
            service.shutdown()

    # Per-event serving is slow, so its per-job checks run on a prefix.
    prefix = arrivals[: workload.check_prefix] if workload.check_prefix else arrivals
    plain = report if prefix is arrivals else serve(prefix)
    records: List[Dict[str, object]] = []
    observed = serve(prefix, collector=records.append)
    checks.expect("a QoE collector leaves the report unchanged", canonical(observed) == canonical(plain))
    checks.expect("one QoE record per arrival", len(records) == len(prefix), f"{len(prefix)} arrivals")
    grouped = workload.options.get("mode", "grouped") == "grouped"
    per_job(checks, records, fifo=grouped)
    latencies = served_latencies(records)
    percentiles(checks, observed, capped(latencies, observed.max_latency_samples))
    if prefix is not arrivals:
        checks.expect(
            "the report keeps every latency sample", len(report.latency_s) == report.jobs
        )
        latencies = list(report.latency_s)
    if grouped:
        reference_prefix = arrivals[:REFERENCE_PREFIX]
        # ``replay_runs`` counts array-level runs, so it is 0 on the reference.
        checks.expect(
            f"first {len(reference_prefix)} arrivals: array-level replay == per-arrival reference",
            canonical(serve(reference_prefix), ignore=("replay_runs",))
            == canonical(serve(reference_prefix, vectorized=False), ignore=("replay_runs",)),
        )
    else:
        checks.expect(
            "every multiplex job is simulated",
            report.simulated_jobs == report.jobs == len(arrivals),
            f"{report.simulated_jobs} simulated of {report.jobs}",
        )
    return latencies


def _verify_admission(checks: Checks, workload, arrivals, report, text: str) -> List[float]:
    from repro.admission import AdmissionController
    from repro.capture import TraceCapture, replay_capture

    capture = TraceCapture.from_json(text)
    decisions = []
    decide = AdmissionController.decide

    def recorded(self, *args, **kwargs):
        decision = decide(self, *args, **kwargs)
        decisions.append(decision)
        return decision

    AdmissionController.decide = recorded
    try:
        replayed, _ = replay_capture(capture)
    finally:
        AdmissionController.decide = decide
    checks.expect("the capture replays byte-identically on a fresh service", replayed.to_json() == text)
    checks.expect("one admission decision per arrival", len(decisions) == len(arrivals))
    outcomes = [decision.outcome for decision in decisions]
    checks.expect(
        "decisions match the report's shed counters",
        outcomes.count("defer") == report.deferred_jobs
        and outcomes.count("degrade") == report.degraded_jobs
        and outcomes.count("reject") == report.rejected_jobs,
    )
    limit = workload.admission.max_defer_s
    longest = max((d.wait_s for d in decisions if d.outcome == "defer"), default=0.0)
    checks.expect("every deferral waits no longer than max_defer_s", longest <= limit, f"{longest:.1f} s <= {limit} s")
    checks.expect("the ladder defers", report.deferred_jobs > 0, f"{report.deferred_jobs} deferred")
    checks.expect("the ladder degrades", report.degraded_jobs > 0, f"{report.degraded_jobs} degraded")
    records = [entry.to_dict() for entry in capture.entries]
    checks.expect("one QoE record per arrival", len(records) == len(arrivals))
    # Only a deferred job waits for tokens before it becomes ready.
    waits = [d.wait_s if d.outcome == "defer" else 0.0 for d in decisions if d.admitted]
    per_job(checks, records, waits=waits, fifo=True)
    latencies = served_latencies(records)
    percentiles(checks, report, capped(latencies, report.max_latency_samples))
    return latencies


def _verify_sharded(checks: Checks, workload, arrivals, report) -> List[float]:
    from collections import Counter

    from repro.service import AIWorkflowService
    from traces import WARMUP, new_endpoint

    inline = new_endpoint(workload, backend="inline")
    shard_reports: Dict[int, object] = {}
    inline.add_merge_listener(lambda merged, per_shard: shard_reports.update(per_shard))
    inline_report = inline.submit_trace(arrivals)
    inline.shutdown()
    checks.expect(
        "process-backend report == inline-backend report", canonical(report) == canonical(inline_report)
    )
    router = inline.router
    expected = Counter(router.shard_for(arrival.workload) for arrival in arrivals)
    placed = {shard: record["jobs"] for shard, record in report.shards.items()}
    misplaced = [
        name
        for shard, shard_report in shard_reports.items()
        for name in shard_report.groups
        if router.shard_for(name) != shard
    ]
    checks.expect(
        "every tenant lands on the shard ShardRouter.shard_for names",
        placed == dict(expected) and not misplaced,
        f"jobs per shard {placed}",
    )

    def naming(indices):
        return lambda local, name: f"trace-{indices[local]:05d}-{name}"

    warmup = router.partition_arrivals(WARMUP)
    cap = report.max_latency_samples
    latencies: List[float] = []
    retained: List[float] = []
    for shard, (indices, subset) in sorted(router.partition_arrivals(arrivals).items()):
        service = AIWorkflowService()
        if shard in warmup:
            service.submit_trace(warmup[shard][1], job_ids=naming(warmup[shard][0]))
        records: List[Dict[str, object]] = []
        replica = service.submit_trace(subset, job_ids=naming(indices), collector=records.append)
        service.shutdown()
        checks.expect(
            f"shard {shard} served on one plain service == its inline shard report",
            canonical(replica) == canonical(shard_reports[shard]),
        )
        per_job(checks, records, fifo=True)
        served = served_latencies(records)
        latencies.extend(served)
        retained.extend(capped(served, cap))
    percentiles(checks, report, capped(retained, cap))
    return latencies
