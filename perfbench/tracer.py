"""Span tracer that wraps adsgeo's public functions from outside the package.

Several modules bind names at import time (``from .fd import d1``) and
``cli.COMMANDS`` holds the command functions in a dict, so a function is
replaced at every site that refers to it: module globals, dict values in
module globals, and class attributes.  ``uninstall`` puts the originals
back, so untraced passes run the unmodified package.

Each call of a wrapped function is a span ``(id, name, start, end, parent,
op)``.  Spans stay in memory until ``write``; self time is a span's
duration minus the durations of its direct children.  Hot leaf functions
are counted instead of spanned (their time stays with the caller), and
``SKIPPED`` functions are not wrapped at all.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("ads_core", "cli", "constructions", "embedding", "fd", "fuchsian",
           "mess_metrics", "report", "rigidity")

# called hundreds of thousands of times per pass: counted, not spanned
COUNTED = frozenset({
    "ads_core.bilinear22", "ads_core.is_future", "ads_core.future_timelike",
    "embedding.hyperboloid_point", "fuchsian.hyp_dist", "fuchsian.hyp_dist_small",
    "fuchsian.hyp_midpoint", "fuchsian.triangle_angles",
    "fuchsian.triangle_area_defect",
})
# innermost arithmetic with no metric of its own
SKIPPED = frozenset({"fuchsian.mdot"})


def _public_functions(module):
    """(owner, attribute, span name, function) defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not attr.startswith("_"):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and not attr.startswith("_"):
            for name, fn in vars(obj).items():
                if inspect.isfunction(fn) and (name == "__call__"
                                               or not name.startswith("_")):
                    yield obj, name, f"{short}.{attr}.{name}", fn


class Tracer:
    def __init__(self, hooks=None):
        self.hooks = hooks or {}  # span name -> callable(return value)
        self.spans = []          # (id, name, start, end, parent, op)
        self.counts = Counter()  # (name, op) -> calls of a counted function
        self.op = ""
        self._stack = []
        self._next_id = 0
        self._patched = []       # (setter, original)

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.op))
            if name in self.hooks:
                self.hooks[name](result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name, self.op] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        package = importlib.import_module("adsgeo")
        modules = [importlib.import_module(f"adsgeo.{m}") for m in MODULES]
        replacement = {}
        for module in modules:
            for owner, attr, name, fn in _public_functions(module):
                if name in SKIPPED:
                    continue
                wrap = self._counter if name in COUNTED else self._span
                replacement[id(fn)] = wrap(name, fn)
                self._set(owner, attr, replacement[id(fn)], fn)
        for module in [package] + modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacement:
                    self._set(module, attr, replacement[id(obj)], obj)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replacement:
                            self._set_item(obj, key, replacement[id(value)], value)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._patched.append((lambda v, o=owner, a=attr: setattr(o, a, v), old))

    def _set_item(self, mapping, key, new, old):
        mapping[key] = new
        self._patched.append((lambda v, m=mapping, k=key: m.__setitem__(k, v), old))

    def uninstall(self):
        for setter, original in reversed(self._patched):
            setter(original)
        self._patched.clear()

    # -- derived numbers --------------------------------------------------
    def self_times(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = defaultdict(float)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _parent, _op in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        return out

    def calls_by_op(self, name):
        """Calls of a counted or spanned function, per operation."""
        by_op = Counter({op: n for (counted, op), n in self.counts.items()
                         if counted == name})
        for _sid, span_name, _s, _e, _p, op in self.spans:
            if span_name == name:
                by_op[op] += 1
        return by_op

    def write(self, path):
        """All spans, once, as one JSON document."""
        names = sorted({s[1] for s in self.spans})
        ops = sorted({s[5] for s in self.spans})
        name_idx = {n: i for i, n in enumerate(names)}
        op_idx = {o: i for i, o in enumerate(ops)}
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "names": names, "ops": ops,
            "counts": [[name, op, n] for (name, op), n in sorted(self.counts.items())],
            "spans": [[sid, name_idx[name], start, end, parent, op_idx[op]]
                      for sid, name, start, end, parent, op in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
