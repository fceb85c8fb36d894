"""Span recording around calls into the library, from outside the library.

A Tracer replaces library functions with timing wrappers.  Every module
attribute bound to the same function object is replaced, so call sites that
did ``from .x import f`` are covered too.  Spans (name, tag, start, end,
parent span, operation id) stay in memory in flat arrays and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One wrapped library callable: ``attr`` is "func" or "Class.method"."""

    module: str
    attr: str
    name: str
    count: Callable | None = None  # count(counts, bound_arguments, result)
    tag: Callable | None = None  # tag(bound_arguments) -> str, e.g. a document kind


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.tag_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._intern("")  # tag id 0: no tag

    def _intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def add(self, name: str, start: float, end: float, parent: int = NO_PARENT, tag: str = "", op: int | None = None) -> int:
        """Append a finished span; returns its index."""
        self.name_id.append(self._intern(name))
        self.tag_id.append(self._intern(tag))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id if op is None else op)
        return len(self.start) - 1

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name_id = self._intern(target.name)
        signature = inspect.signature(fn) if (target.count or target.tag) else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            tag_id = self._intern(target.tag(arguments)) if target.tag else 0
            idx = len(self.start)
            self.name_id.append(name_id)
            self.tag_id.append(tag_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
            self.op.append(self.op_id)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.start[idx] = start
                self.end[idx] = end
            if target.count is not None:
                target.count(self.counts, arguments, result)
            return result

        return traced

    def install(self, targets: list[Target], package: str) -> None:
        modules = [m for key, m in list(sys.modules.items()) if m is not None and key.split(".")[0] == package]
        for target in targets:
            owner = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(target, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self.wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def absorb(self, record: dict) -> None:
        """Append spans and counts written by a traced child process (see child.py)."""
        base = len(self.start)
        for name, tag, start, end, parent, op in record["spans"]:
            self.add(name, start, end, NO_PARENT if parent == NO_PARENT else base + parent, tag, op)
        self.counts.update(record["counts"])

    def rows(self) -> list[tuple[str, str, float, float, int, int]]:
        names = self.names
        return [
            (names[self.name_id[i]], names[self.tag_id[i]], self.start[i], self.end[i], self.parent[i], self.op[i])
            for i in range(len(self.start))
        ]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["name", "tag", "start", "end", "parent", "op"]}) + "\n")
            for row in self.rows():
                handle.write(json.dumps(row) + "\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [end[i] - start[i] for i in range(len(start))]
    for p, intervals in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(intervals):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out
