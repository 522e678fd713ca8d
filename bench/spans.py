"""Span tracing and simulated-count hooks, installed from outside the program.

`Tracer` replaces public functions of the wifipower modules with
wrappers that record (name, start, end, parent, round) spans in memory.
A layer's number is its self time: span time minus the time of its
direct child spans. `MacCounter` wraps `mac.run_mac` in every run,
traced or not, to collect the simulated counts (frames, collisions,
arrivals, gate drops, backlog) that a sweep row does not carry; the
time it spends counting is reported so callers can take it out of
their timings.
"""

from __future__ import annotations

import functools
from time import perf_counter

#: Span name -> (module attribute path). `ReportSet.write_outputs` is a
#: method and is patched on the class.
TRACED = {
    "scenario.parse": ("scenario", "parse_scenario"),
    "scenario.build_stations": ("scenario", "build_stations"),
    "scenario.run": ("scenario", "run"),
    "scenario.occupancy_bins": ("scenario", "occupancy_bins"),
    "scenario.harvest_duty": ("scenario", "harvest_duty"),
    "scenario.write_outputs": ("scenario.ReportSet", "write_outputs"),
    "scenario.analyze_trace": ("scenario", "analyze_trace"),
    "scenario.sweep_copy": ("scenario", "apply_sweep_value"),
    "mac.run_mac": ("mac", "run_mac"),
    "mac.occupancy": ("mac", "occupancy"),
    "mac.export_trace": ("mac", "export_trace"),
    "mac.parse_trace": ("mac", "parse_trace"),
    "router.throughput_series": ("router", "throughput_series"),
    "router.burst_completion": ("router", "burst_completion_times_ms"),
    "harvester.duty_envelope": ("harvester", "duty_envelope"),
    "harvester.run_envelope": ("harvester", "run_envelope"),
    "harvester.max_operating_range": ("harvester", "max_operating_range"),
}


def _owner(modules: dict, path: str):
    head, _, cls = path.partition(".")
    obj = modules[head]
    return getattr(obj, cls) if cls else obj


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, round)
        self.stack: list[int] = []
        self.round = 0
        self.active = True
        self.patches = Patches()

    def install(self, modules: dict) -> None:
        for name, (path, attr) in TRACED.items():
            self.patches.replace(_owner(modules, path), attr,
                                 lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        self.patches.undo()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.round)
        return wrapper

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a finished span under the current one."""
        if self.active:
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((name, t0, t1, parent, self.round))

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """round -> span name -> [self seconds, calls]."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, list[float]]] = {}
        for i, (name, t0, t1, _, rnd) in enumerate(self.spans):
            acc = out.setdefault(rnd, {}).setdefault(name, [0.0, 0])
            acc[0] += (t1 - t0) - child[i]
            acc[1] += 1
        return out


class MacCounter:
    """Counts what each `mac.run_mac` call simulated."""

    KEYS = ("frames", "collisions", "arrivals", "gate_drops", "backlog")

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.count_s = 0.0
        self.counts = dict.fromkeys(self.KEYS, 0)
        self.first_call = None
        self.patches = Patches()

    def install(self, mac_module) -> None:
        self.patches.replace(mac_module, "run_mac", self._wrap)

    def uninstall(self) -> None:
        self.patches.undo()

    def reset(self) -> None:
        self.counts = dict.fromkeys(self.KEYS, 0)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            traces = fn(*args, **kwargs)
            t0 = perf_counter()
            if self.first_call is None:
                self.first_call = (fn, args, kwargs)
            c = self.counts
            for tr in traces.values():
                c["frames"] += len(tr.records)
                c["collisions"] += sum(1 for r in tr.records if r.outcome == "collided")
                for st in tr.flow_stats.values():
                    c["arrivals"] += st.admitted + st.dropped_gate
                    c["gate_drops"] += st.dropped_gate
                    c["backlog"] += max(0, st.admitted - st.delivered - st.lost)
            t1 = perf_counter()
            self.count_s += t1 - t0
            if self.tracer is not None:
                self.tracer.add("bench.count", t0, t1)
            return traces
        return wrapper
