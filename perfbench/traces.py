"""The four benchmark workloads: seeded arrival traces and their endpoints.

Every trace has a fixed number of arrivals whatever the seed, so every run
attempts the same number of operations.  The seed moves arrival times and,
for the grouped workloads, the workload mix; the program receives only the
generated :class:`~repro.workloads.arrival.JobArrival` list.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.admission import AdmissionConfig
from repro.workloads.arrival import JobArrival

#: The four shipped workloads, in rotation order.
SHIPPED = ("newsfeed", "chain-of-thought", "document-qa", "video-understanding")


#: ``fidelity-poisson``'s rotation.  Chain-of-thought and video-understanding
#: come twice, so the median job is a chain-of-thought job that met
#: contention.  With equal shares the median sits where document-qa ends and
#: chain-of-thought begins, and jumps between 7.47 s and 11.43 s by seed.
FIDELITY_ROTATION = (
    "newsfeed",
    "chain-of-thought",
    "document-qa",
    "video-understanding",
    "chain-of-thought",
    "video-understanding",
)


def rotation(count: int, order=SHIPPED) -> List[str]:
    """The workloads of ``order`` in strict rotation."""
    return [order[index % len(order)] for index in range(count)]


#: Tenant shares of the grouped workloads' mix, in :data:`SHIPPED` order:
#: mostly short chain-of-thought requests, a tenth heavy video jobs.
MIX = (0.05, 0.80, 0.05, 0.10)


def seeded_mix(count: int, rng: np.random.Generator) -> List[str]:
    """Each arrival's workload drawn from the shipped four with :data:`MIX`.

    Drawn rather than rotated so that the composition, and with it every
    simulated mean, depends on the seed: a grouped trace replays memoized
    results, so a fixed composition would give the same means on every seed.
    The chain-of-thought share keeps both shards of ``sharded-grouped``
    busy (the router places video-understanding alone on one shard and the
    other three on the other), so the median job has queued and its latency
    is not one tenant's unqueued makespan.
    """
    return [SHIPPED[index] for index in rng.choice(len(SHIPPED), count, p=MIX)]


def poisson_times(count: int, rate_per_s: float, rng: np.random.Generator) -> np.ndarray:
    """The first ``count`` arrival times of a Poisson process."""
    return np.cumsum(rng.exponential(1.0 / rate_per_s, count))


def diurnal_times(
    count: int,
    mean_rate: float,
    amplitude: float,
    period_s: float,
    rng: np.random.Generator,
    jitter: float = 0.5,
) -> np.ndarray:
    """Arrivals whose rate swings as ``mean - amplitude * cos(2 pi t / period)``.

    Arrival ``i`` lands where the cumulative rate reaches ``i + phase +
    jitter_i`` (a seeded phase and per-arrival jitter below one arrival), so
    the count in any window stays within one arrival of the rate's integral.
    Unlike a Poisson process, no seed can pack an unbounded burst into a
    peak: the admission ladder's queue stays inside the window the config
    below is sized for.
    """
    if not 0 < amplitude < mean_rate:
        raise ValueError("amplitude must be positive and below the mean rate")
    targets = np.arange(count) + rng.uniform() + rng.uniform(0.0, jitter, count)
    omega = 2.0 * math.pi / period_s
    times = targets / mean_rate
    for _ in range(50):
        residual = mean_rate * times - (amplitude / omega) * np.sin(omega * times) - targets
        times -= residual / (mean_rate - amplitude * np.cos(omega * times))
    return times


def arrivals_of(times: np.ndarray, workloads: List[str]) -> List[JobArrival]:
    return [
        JobArrival(arrival_time=float(time), workload=workload)
        for time, workload in zip(times, workloads)
    ]


# --------------------------------------------------------------------- #
# Workload definitions
# --------------------------------------------------------------------- #

#: ``admission-diurnal``: rate 0.025 +- 0.015 jobs/s over 4,000 s periods
#: against an admit rate of 0.03 jobs/s.  The grouped queue of full-quality
#: jobs peaks just past ``default_deadline_s - 79.1 s`` (video-understanding's
#: full makespan), so peak video arrivals degrade to the 50.5 s variant, and
#: stays below ``default_deadline_s - 50.5 s``, so nothing is rejected.
ADMISSION = AdmissionConfig(
    rate_per_s=0.03,
    burst=2.0,
    max_defer_s=600.0,
    degrade=True,
    degraded_quality=0.0,
    default_deadline_s=390.0,
)

#: The known-fault probe: one 20,000 s diurnal period at seed 5 (574
#: arrivals) served with a latency-first degraded plan.  Independent of
#: ``--seed``.  ``ServerPool.ensure`` never evicts idle warm instances, so
#: the min_latency variants exhaust the GPUs and the whole trace aborts.
PROBE_ADMISSION = AdmissionConfig(
    rate_per_s=0.03,
    burst=2.0,
    max_defer_s=2000.0,
    degraded_quality=0.0,
    degraded_constraint="min_latency",
    default_deadline_s=120.0,
)


def probe_arrivals() -> List[JobArrival]:
    from repro.workloads.arrival import diurnal_arrivals

    return diurnal_arrivals(0.005, 0.05, 20_000.0, 20_000.0, workloads=SHIPPED, seed=5)


#: A short seed-independent trace that touches every shipped tenant, served
#: on a sharded endpoint before timing so its worker processes exist.
WARMUP = [
    JobArrival(arrival_time=float(index), workload=SHIPPED[index % len(SHIPPED)])
    for index in range(len(SHIPPED))
]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(seed, scale) -> arrivals``; ``scale`` multiplies the trace length.
    arrivals: Callable[[int, int], List[JobArrival]]
    #: Serving options passed to ``submit_trace``.
    options: Dict[str, object] = field(default_factory=dict)
    fabric: Optional[str] = None
    shards: int = 0
    admission: Optional[AdmissionConfig] = None
    #: Arrivals whose per-job QoE records are checked (all when ``None``).
    check_prefix: Optional[int] = None


def _fidelity(seed: int, scale: int) -> List[JobArrival]:
    rng = np.random.default_rng(seed)
    count = 1_500 * scale
    return arrivals_of(poisson_times(count, 0.0475, rng), rotation(count, FIDELITY_ROTATION))


def _grouped(count: int, rate_per_s: float) -> Callable[[int, int], List[JobArrival]]:
    def build(seed: int, scale: int) -> List[JobArrival]:
        rng = np.random.default_rng(seed)
        times = poisson_times(count * scale, rate_per_s, rng)
        return arrivals_of(times, seeded_mix(count * scale, rng))

    return build


def _diurnal(seed: int, scale: int) -> List[JobArrival]:
    rng = np.random.default_rng(seed)
    count = 20_000 * scale
    return arrivals_of(diurnal_times(count, 0.025, 0.015, 4_000.0, rng), rotation(count))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fidelity-poisson",
            arrivals=_fidelity,
            options={"mode": "multiplex"},
            fabric="congested",
            check_prefix=300,
        ),
        Workload(
            name="grouped-replay",
            arrivals=_grouped(90_000, 0.035),
        ),
        Workload(
            name="admission-diurnal",
            arrivals=_diurnal,
            admission=ADMISSION,
        ),
        Workload(
            name="sharded-grouped",
            arrivals=_grouped(180_000, 0.07),
            shards=2,
        ),
    )
}


def new_endpoint(workload: Workload, backend: str = "process"):
    """A fresh serving endpoint for ``workload``; sharded endpoints are
    warmed with :data:`WARMUP` so their worker processes already run."""
    if workload.shards:
        from repro.sharding import ShardedService

        endpoint = ShardedService(shards=workload.shards, backend=backend)
        endpoint.submit_trace(WARMUP)
        return endpoint
    from repro.service import AIWorkflowService

    return AIWorkflowService(fabric=workload.fabric)


def serve(workload: Workload, endpoint, arrivals: List[JobArrival]):
    """The timed call: serve the whole trace through the public API.

    Returns ``(report, capture_json)``; the capture (admission-diurnal only)
    is serialized inside the call, so its cost is part of the timing.
    """
    if workload.admission is not None:
        from repro.capture import capture_trace

        capture, report = capture_trace(
            endpoint, arrivals, admission=workload.admission, **workload.options
        )
        return report, capture.to_json()
    return endpoint.submit_trace(arrivals, **workload.options), None


def serve_probe() -> int:
    """Serve the known-fault probe on a fresh service; returns how many of
    its arrivals failed (all of them while the trace aborts)."""
    from repro.service import AIWorkflowService

    arrivals = probe_arrivals()
    service = AIWorkflowService()
    try:
        report = service.submit_trace(arrivals, admission=PROBE_ADMISSION)
    except RuntimeError:
        return len(arrivals)
    finally:
        service.shutdown()
    return report.rejected_jobs + report.failed_jobs


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    The spawned shard workers of a process-backed endpoint start one helper
    process, the resource tracker, which ends only after the process that
    started it has exited.  Stopping it here lets the benchmark end with no
    process of its own left running.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif tracker._fd is not None:
        os.close(tracker._fd)
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None
