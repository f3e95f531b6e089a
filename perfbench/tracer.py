"""Outside-in span tracer for the benchmark's traced run.

The tracer replaces the public entry point of each layer *at the module
attribute its caller binds* (``repro.sim.workload.heft_mapping``, not
``repro.mapping.heft.heft_mapping``) with a wrapper that records a span,
and restores every original on exit.  Nothing in ``src/`` knows about it,
and the untraced run never installs it.

Spans are kept in memory as ``(id, name, start, end, parent, op)`` and
written as JSON lines at the end; call counts and self times are summed
for every call.  A span's self time is its duration minus the time its
direct child spans cover; calls nest strictly on one thread, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SPANS", "HOOKS", "Tracer"]

#: Span name -> the ``module:attribute`` (or ``module:Class.method``)
#: bindings it wraps.  A binding that does not exist fails loudly, so a
#: renamed call site cannot silently drop out of the trace.
HOOKS: Dict[str, Tuple[str, ...]] = {
    "workflow.generate": (
        "repro.sim.workload:generate_workflow",
        "repro.experiments.instances:generate_workflow",
    ),
    "mapping.heft": (
        "repro.sim.workload:heft_mapping",
        "repro.experiments.instances:heft_mapping",
    ),
    "mapping.enhanced_dag": (
        "repro.sim.workload:build_enhanced_dag",
        "repro.experiments.instances:build_enhanced_dag",
    ),
    "schedule.asap": ("repro.core.scheduler:asap_schedule",),
    "carbon.profile": (
        "repro.experiments.instances:generate_power_profile",
        "repro.sim.signal:CarbonSignal.window",
        "repro.sim.forecast:PersistenceForecast.profile",
        "repro.sim.forecast:MovingAverageForecast.profile",
        "repro.sim.forecast:OracleForecast.profile",
    ),
    "core.greedy": ("repro.core.scheduler:greedy_schedule",),
    "core.scores": (
        "repro.core.greedy:compute_scores",
        "repro.core.greedy:task_order",
    ),
    "core.subdivision": (
        "repro.core.greedy:refined_subdivision",
        "repro.core.greedy:original_subdivision",
    ),
    "core.estlst_fix": ("repro.core.estlst:EstLstTracker.fix",),
    "core.local_search": ("repro.core.scheduler:local_search",),
    "schedule.validate": (
        "repro.core.scheduler:check_schedule",
        "repro.api.registry:check_schedule",
    ),
    "schedule.cost": (
        "repro.core.scheduler:carbon_cost",
        "repro.api.registry:carbon_cost",
        "repro.sim.engine:carbon_cost",
    ),
    "api.submit": ("repro.api.client:Client.submit_many",),
    "api.solve": ("repro.api.client:Client.solve",),
    "api.fingerprint": ("repro.api.jobs:job_fingerprint",),
    "sim.simulate": ("repro.sim.engine:simulate",),
    "sim.build_job": ("repro.sim.engine:build_job",),
}

#: Every span name, in report order.
SPANS: Tuple[str, ...] = tuple(HOOKS)


def _resolve(binding: str):
    """Return ``(owner, attribute)`` for a ``module:attr`` or ``module:Class.attr`` binding."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{binding} is not bound where the tracer expects it")
    return owner, attr


class Tracer:
    """Installs span wrappers for the duration of a ``with`` block."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.moved = 0
        self.searched = 0
        self.op = -1
        #: Spans are kept while this is set; counters and self times always accumulate.
        self.keep_spans = True
        self._next_id = 0
        # Open spans, innermost last: [span id, time covered by children].
        self._stack: List[List] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        for name, bindings in HOOKS.items():
            for binding in bindings:
                owner, attr = _resolve(binding)
                original = vars(owner)[attr]
                wrapper = self._local_search_wrapper(original) if name == "core.local_search" else original
                setattr(owner, attr, self._wrap(name, wrapper))
                self._installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            begin = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - begin
                if parent is not None:
                    parent[1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append(
                        (span_id, name, begin, end, parent[0] if parent else None, tracer.op)
                    )

        return traced

    def _local_search_wrapper(self, fn: Callable) -> Callable:
        """Count the tasks whose start the local search changed."""
        tracer = self

        @functools.wraps(fn)
        def counted(schedule, *args, **kwargs):
            before = dict(schedule.start_times())
            result = fn(schedule, *args, **kwargs)
            after = result.start_times()
            tracer.searched += len(before)
            tracer.moved += sum(1 for node, start in before.items() if after[node] != start)
            return result

        return counted

    # ------------------------------------------------------------------ #
    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line (ids are unique per run)."""
        with open(path, "w", encoding="utf8") as handle:
            for span_id, name, begin, end, parent, op in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": begin, "end": end,
                         "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
