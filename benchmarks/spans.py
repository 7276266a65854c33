"""In-memory spans around calls into the package, for the traced run.

`patched` replaces module attributes with timing wrappers for the length of
a `with` block and puts the originals back on exit, also when the block
raises, so code that runs afterwards is the unpatched package.  Each call
records one span (name, start, end, parent) in flat arrays; `layer_metrics`
reduces them to calls, total seconds and self seconds per layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    module: str          # module whose attribute the package looks up
    attr: str
    layer: str           # metric prefix, e.g. "model.sample_losses"
    hook: Callable | None = None   # hook(tracer, args, kwargs, result), after the span

    @property
    def site(self) -> str:
        return self.module.rsplit(".", 1)[-1]

    @property
    def span_name(self) -> str:
        return f"{self.layer}@{self.site}"


class Tracer:
    """Span store: one entry per wrapped call, kept until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, float] = {}
        self.solves: list[tuple] = []

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid, open_, clock = self._name_ids[name], self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(open_[-1] if open_ else -1)
            self.end.append(0.0)
            open_.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                open_.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def write(self, path) -> None:
        """Write every span, compressed; names[name_id[i]] is span i's name."""
        np.savez_compressed(path, **self.arrays())


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap every target attribute for the block; restore the originals after."""
    saved = []
    try:
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            saved.append((module, t.attr, original))
            setattr(module, t.attr, tracer.wrap(original, t.span_name, t.hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span run one after
    another and never overlap: the covered time is the sum of their
    durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_metrics(tracer: Tracer, targets) -> dict[str, tuple[float, str]]:
    """calls, s and self_s per layer of `targets`, zero for layers never called.

    A layer wrapped at more than one lookup site also gets the calls from
    each site, as `<layer>.from_<site>.calls`.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    by_name = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name_id"] == nid
        by_name[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()))
    sites: dict[str, list[Target]] = {}
    for t in targets:
        sites.setdefault(t.layer, []).append(t)
    out = {}
    for layer, ts in sites.items():
        stats = [by_name.get(t.span_name, (0, 0.0, 0.0)) for t in ts]
        out[f"{layer}.calls"] = (sum(s[0] for s in stats), "count")
        out[f"{layer}.s"] = (sum(s[1] for s in stats), "s")
        out[f"{layer}.self_s"] = (sum(s[2] for s in stats), "s")
        if len(ts) > 1:
            for t, s in zip(ts, stats):
                out[f"{layer}.from_{t.site}.calls"] = (s[0], "count")
    return out
