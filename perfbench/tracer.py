"""Span tracing of lapspec from outside the package.

`install` replaces the public functions of every lapspec module by wrappers,
at each place a module looks them up: the defining module, every module that
imported the name, and the package namespace. Each call records a span
(name, start, end, parent span, item id) in memory; `summary` folds the spans
into per-name calls, inclusive seconds and self seconds, and `write` dumps
them once the pass is over. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time

PACKAGE = "lapspec"
MODULES = ("cli", "enumeration", "graphs", "spectra", "matrices", "polys", "partitions", "families")
# The cli layer is traced at its entry point only, so that its self time
# covers argument parsing, graph sources and JSON output.
CLI_ENTRY = "main"
METHODS = {"polys": {"MPoly": ("substitute", "eval_at")}}


def cpu_s():
    """User + system CPU seconds of this process and its reaped children."""
    self_, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []  # [name id, start, end, parent span, item]
        self.stack = []
        self.item = 0
        self.counters = {}
        self.enabled = True

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, classify=None):
        """Wrap fn; classify(tracer, args, kwargs) may return a name suffix."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        base = self._name_id(name)
        by_suffix = {}

        def open_span(args, kwargs):
            # The clock starts first, so that classifying the call is charged
            # to this span and not to the caller's self time.
            start = clock()
            nid = base
            if classify is not None:
                suffix = classify(self, args, kwargs)
                if suffix not in by_suffix:
                    by_suffix[suffix] = self._name_id(f"{name}.{suffix}")
                nid = by_suffix[suffix]
            rec = [nid, start, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        def close_span(rec):
            rec[2] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # Time each resume of the generator; its body runs in next().
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not self.enabled:
                    yield from fn(*args, **kwargs)
                    return
                self.count(f"{name}.generators")
                it = fn(*args, **kwargs)
                while True:
                    rec = open_span(args, kwargs)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(rec)
                    yield value

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = open_span(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(rec)

        return traced

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def summary(self, duration):
        """Per span name: calls, inclusive seconds, self seconds, each span
        lasting duration(start, end) seconds."""
        durations = [duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), dur in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += dur
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        top_s = 0.0
        for sid, ((nid, _, _, parent, _), dur) in enumerate(zip(self.spans, durations)):
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += dur - child[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != nid:
                p = self.spans[p][3]
            if p < 0:  # outermost span of this name: count its time once
                entry["s"] += dur
            if parent < 0:
                top_s += dur
        return {"spans": stats, "counters": dict(self.counters), "top_s": top_s}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for sid, (nid, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{sid}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{item}\n")


def _char_poly_kind(tracer, args, kwargs):
    m = args[0] if args else kwargs["m"]
    tracer.count("matrices.char_poly.dim_sum", m.rows)
    symbolic = any(not isinstance(e, int) for row in m.entries for e in row)
    return "sym" if symbolic else "int"


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield attr, obj


def install():
    """Wrap every traced callable of lapspec and return the Tracer."""
    tracer = Tracer()
    # Pool workers forked from a traced pass record nothing: their spans
    # would never reach the parent, and tracing them would inflate wall time.
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    mods = [sys.modules[f"{PACKAGE}.{name}"] for name in MODULES]
    replaced = {}
    for short, mod in zip(MODULES, mods):
        for attr, fn in _public_functions(mod):
            if short == "cli" and attr != CLI_ENTRY:
                continue
            name = f"{short}.{attr}"
            if name == "matrices.char_poly":
                replaced[id(fn)] = (fn, tracer.wrap(name, fn, _char_poly_kind))
            else:
                replaced[id(fn)] = (fn, tracer.wrap(name, fn))
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
    namespaces = [sys.modules[PACKAGE]] + mods
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
    return tracer
