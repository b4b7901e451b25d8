"""Span tracing by wrapping the package's public functions from outside.

`Tracer.install` replaces every public function of the given modules with a
wrapper that records a span (id, parent id, name, start, end), and it patches
every module attribute bound to that function.  The package imports with
`from .x import f`, so `unobs_stab.sim.expm`, `unobs_stab.spectral.bessel_j_all`
and `unobs_stab.bessel.bessel_j` are separate bindings of one function and all
of them must be replaced.  Spans stay in memory; `summarize` reduces them to
per-name counts and times and `write_spans` writes them out when the run ends.
"""

from __future__ import annotations

import itertools
import time
import types

# spans of these names inside run_spectral_loop split the per-interval cost
INTERVAL_PARTS = {
    "linalg.expm": "propagate",
    "spectral.observer_matrix": "propagate",
    "sim.rotation_step": "propagate",
    "spectral.embed": "embed",
    "spectral.sample_hold_feedback": "feedback",
}
SPECTRAL_LOOP = "sim.run_spectral_loop"
INV_J1 = "bessel.inv_j1"
BESSEL_EVAL = "bessel.bessel_j_all"


class Tracer:
    """Collects spans from wrapped functions; one instance per process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules, skip=()) -> None:
        """Wrap the public functions defined in `modules` (except those in
        `skip`) and rebind every attribute of those modules that refers to one."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, (type, types.ModuleType))
                        or not callable(obj) or obj in skip
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def summarize(spans) -> dict:
    """Per-name calls, inclusive and self time, plus the derived sums the
    per-layer metrics need (self time = duration minus child durations)."""
    spans = sorted(spans)  # ids are issued on entry, so parents come first
    name_of, under_loop, under_inv, part_of = {0: None}, {0: False}, {0: False}, {0: None}
    child_time: dict = {}
    for sid, parent, name, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict = {}
    interval = {"propagate": 0.0, "embed": 0.0, "feedback": 0.0}
    inv_bessel = 0
    for sid, parent, name, start, end in spans:
        dur = end - start
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child_time.get(sid, 0.0)
        name_of[sid] = name
        under_loop[sid] = under_loop[parent] or name_of[parent] == SPECTRAL_LOOP
        under_inv[sid] = under_inv[parent] or name_of[parent] == INV_J1
        part_of[sid] = part_of[parent]
        if under_loop[sid] and part_of[sid] is None and name in INTERVAL_PARTS:
            part_of[sid] = INTERVAL_PARTS[name]
            interval[part_of[sid]] += dur
        if under_inv[sid] and name == BESSEL_EVAL:
            inv_bessel += 1
    top = [(name, start, end) for sid, parent, name, start, end in spans if parent == 0]
    return {"stats": stats, "interval": interval, "inv_j1_bessel_evals": inv_bessel,
            "top_level": top, "spans": len(spans)}


def write_spans(path: str, spans) -> None:
    """One span per line: id, parent, name, start and end in microseconds
    from the first span's start."""
    spans = sorted(spans)
    origin = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_us,end_us\n")
        for sid, parent, name, start, end in spans:
            fh.write(f"{sid},{parent},{name},{(start - origin) * 1e6:.3f},"
                     f"{(end - origin) * 1e6:.3f}\n")
