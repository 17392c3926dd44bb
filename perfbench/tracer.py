"""In-memory span tracer for the benchmark's traced run.

A span is (name, start, end, parent): one call into a layer, timed with
``time.perf_counter`` and linked to the span that was open when it began.
Spans are kept in flat arrays while the run goes and written out once at
the end.  A span's self time is its duration minus the part of its
interval that its child spans cover.

The tracer wraps functions where their callers look them up (a module
global, a name imported into another module, a class attribute), so the
program itself is not edited; ``restore`` puts every original back.
Standard library only.
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.active = True  # wrappers call straight through while False
        self._stack: list[int] = []
        self._undo: list = []

    # --- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    # --- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, after=None, count_arg_calls: str | None = None):
        """A wrapper of ``fn`` that records one span per call.

        ``name`` is a string or ``name(args, kwargs) -> str``.  ``after(tracer,
        args, kwargs, result)`` runs once the span has closed.  With
        ``count_arg_calls`` the callable passed as the first argument is
        wrapped so that each of its evaluations adds 1 to that counter; the
        values it returns are unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if count_arg_calls is not None:
                args = (_counting(args[0], tracer.counters, count_arg_calls),) + args[1:]
            idx = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def patch(self, sites, name, after=None, count_arg_calls: str | None = None) -> None:
        """Wrap the function found at each (owner, attribute) site.

        A site that does not exist is skipped, so a later refactor that
        moves a function leaves its metrics at zero instead of failing.
        """
        for owner, attr in sites:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            self.on_restore(functools.partial(setattr, owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, after, count_arg_calls))

    def on_restore(self, undo) -> None:
        """Register a callable that ``restore`` runs, newest first."""
        self._undo.append(undo)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # --- analysis ----------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds and the
        list of inclusive durations."""
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for i, n in enumerate(self.name_id):
            entry = out.get(self.names[n])
            if entry is None:
                entry = out[self.names[n]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            d = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += d
            entry["self_s"] += selfs[i]
            entry["durations"].append(d)
        return out

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Number of spans named ``child_name`` whose parent is named ``parent_name``."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None or cid is None:
            return 0
        return sum(
            1 for n, p in zip(self.name_id, self.parent) if n == cid and p >= 0 and self.name_id[p] == pid
        )

    def write(self, path: str) -> None:
        """Write names, spans and counters as one JSON document."""
        doc = {
            "format": "perfbench-spans-1",
            "names": self.names,
            "columns": ["name_id", "start", "end", "parent"],
            "name_id": self.name_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.idx = self.tracer.begin(self.name)
        return self.idx

    def __exit__(self, *exc) -> None:
        self.tracer.finish(self.idx)


def _counting(fn, counters, key):
    def counted(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return counted


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        kids = children.get(i)
        if kids:
            cur_s = cur_e = None
            for cs, ce in sorted((max(starts[k], s), min(ends[k], e)) for k in kids):
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out
