"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` wraps public functions of the program's layers at run
time, records one span per call (name, parent span, start, end) in memory,
and restores the originals afterwards.  A span's self time is its duration
minus the time covered by the spans it directly contains.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

#: ``(span name, module, owner class or "" for a module function, attribute)``
#: for every timed call, grouped by the layer (module) the name starts with.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("loadgen.run", "repro.loadgen", "ServiceLoadGenerator", "run"),
    ("loadgen.add_latency", "repro.loadgen", "TraceReport", "add_latency"),
    ("loadgen.latency_percentiles", "repro.loadgen", "TraceReport", "latency_percentiles"),
    ("admission.decide", "repro.admission", "AdmissionController", "decide"),
    ("capture.to_json", "repro.capture", "TraceCapture", "to_json"),
    ("spec.compile_spec", "repro.spec.compiler", "", "compile_spec"),
    ("core.decomposer.decompose", "repro.core.decomposer", "JobDecomposer", "decompose"),
    ("core.planner.plan", "repro.core.planner", "ConfigurationPlanner", "plan"),
    ("core.dag.validate", "repro.core.dag", "TaskGraph", "validate"),
    ("core.dag.topological_order", "repro.core.dag", "TaskGraph", "topological_order"),
    ("core.execution.start", "repro.core.execution", "WorkflowExecutor", "start"),
    ("sim.engine.run", "repro.sim.engine", "SimulationEngine", "run"),
    ("cluster.allocator.allocate", "repro.cluster.allocator", "Allocator", "allocate"),
    ("cluster.allocator.release", "repro.cluster.allocator", "Allocator", "release"),
    ("sim.energy.account", "repro.sim.energy", "EnergyAccountant", "account"),
    ("fabric.transfer_time", "repro.fabric", "FabricTopology", "transfer_time"),
    ("sharding.partition_arrivals", "repro.sharding", "ShardRouter", "partition_arrivals"),
    ("sharding.merged", "repro.loadgen", "TraceReport", "merged"),
    # Everything the parent does in a sharded serve outside the two calls
    # above: building payloads and waiting on the worker processes.
    ("sharding.wait", "repro.sharding", "ShardedService", "submit_trace"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(name for name, _, _, _ in TARGETS)


class SpanRecorder:
    """Records spans of wrapped calls; one recorder per benchmark run."""

    def __init__(self) -> None:
        #: ``(name, parent index or -1, round, start ns, end ns)`` per span.
        self.spans: List[Tuple[str, int, int, int, int]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: The round (one served trace) spans are attributed to.
        self.round = 0
        #: Open spans: ``[span index, nanoseconds covered by children]``.
        self._open: List[List[int]] = [[-1, 0]]

    def _wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def timed(*args, **kwargs):
            frame = [len(recorder.spans), 0]
            recorder.spans.append(None)  # type: ignore[arg-type]
            parent = recorder._open[-1][0]
            recorder._open.append(frame)
            start = perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                recorder._open.pop()
                elapsed = end - start
                recorder._open[-1][1] += elapsed
                recorder.spans[frame[0]] = (name, parent, recorder.round, start, end)
                recorder.calls[name] += 1
                recorder.self_ns[name] += elapsed - frame[1]

        return timed

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block."""
        restore = []
        try:
            for name, module_name, owner_name, attribute in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attribute] if owner_name else getattr(owner, attribute)
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, attribute, wrapped)
                restore.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write every span as CSV: index, name, parent, round, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,parent,round,start_ns,end_ns\n")
            for index, (name, parent, round_id, start, end) in enumerate(self.spans):
                handle.write(f"{index},{name},{parent},{round_id},{start},{end}\n")
