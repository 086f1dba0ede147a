"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps library functions from outside the package: it replaces
each target at every name it is bound to (``from .x import y`` makes a
copy in every importing module), records one span per call in memory,
and puts every original back on ``restore``.  Nothing in the library
knows it is being traced.

A span is ``(target index, start, end, parent span index or -1)``.
Spans are appended in call order, so a parent always precedes its
children.  Self time is a span's duration minus the durations of its
direct children; calls on one thread never overlap, so that sum is the
part of the interval the children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer`` is the module under the package and
    ``path`` the attribute path inside it (``Classifier.logits``)."""

    layer: str
    path: str
    per_call: bool = False  # called once per step: report us_per_call
    keys: bool = False  # count distinct args[:2]: report repeat_ratio

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.path}"


def self_times(spans, n_targets: int):
    """Per-target (calls, inclusive seconds, self seconds) from a span list."""
    child = [0.0] * len(spans)
    for _fid, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = [0] * n_targets
    total = [0.0] * n_targets
    own = [0.0] * n_targets
    for i, (fid, t0, t1, _parent) in enumerate(spans):
        calls[fid] += 1
        total[fid] += t1 - t0
        own[fid] += t1 - t0 - child[i]
    return calls, total, own


class Tracer:
    def __init__(self, package: str, targets, clock=time.perf_counter):
        self.package = package
        self.targets = tuple(targets)
        self.clock = clock
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous iteration."""
        self.spans.clear()
        self._stack.clear()
        self.errors = {t.layer: 0 for t in self.targets}
        self.keys = [set() for _ in self.targets]

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for fid, target in enumerate(self.targets):
            owner = sys.modules[f"{self.package}.{target.layer}"]
            owner_path, _, attr = target.path.rpartition(".")
            if owner_path:
                # a method: the class object is shared by every importer
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(fid, raw.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(fid, raw))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(fid, fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped name back and check that it took."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    # -- recording ---------------------------------------------------------

    def _wrap(self, fid: int, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((fid, 0.0, 0.0, parent))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._count_error(fid, parent)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent)

        functools.update_wrapper(traced, fn)
        if not self.targets[fid].keys:
            return traced
        signature = inspect.signature(fn)

        def with_keys(*args, **kwargs):
            key = tuple(signature.bind(*args, **kwargs).arguments.values())[:2]
            self.keys[fid].add(key)
            return traced(*args, **kwargs)

        return functools.update_wrapper(with_keys, fn)

    def _count_error(self, fid: int, parent: int) -> None:
        """Count an exception once, where it leaves its layer."""
        layer = self.targets[fid].layer
        if parent < 0 or self.targets[self.spans[parent][0]].layer != layer:
            self.errors[layer] += 1

    def summary(self):
        return self_times(self.spans, len(self.targets))

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = ["span,name,start_s,end_s,parent"]
        lines.extend(
            f"{i},{self.targets[fid].name},{t0 - origin:.9f},{t1 - origin:.9f},{parent}"
            for i, (fid, t0, t1, parent) in enumerate(self.spans)
        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
