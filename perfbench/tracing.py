"""Span tracing and arithmetic counting around ratclass, from outside it.

Nothing under src/ is edited.  The library's modules import each other
with ``from .x import y``, so a function is reachable under several
module attributes; ``Tracer.install`` replaces every attribute of every
ratclass module that holds the original function object, and
``Tracer.restore`` puts the originals back.

A span is ``(id, name, start, end, parent, op, note)``: the parent is the
id of the span that was open when this one started (-1 at top level),
``op`` is the benchmark operation it belongs to, and ``note`` is an
optional short string a wrapper derives from the call (for example
whether root finding scanned the field or split the polynomial).
Spans stay in memory until the run ends.
"""

import functools
import json
import sys
import time

# Layer boundaries: the public functions each package module offers to
# the others, named by the module that defines them.
SPANS = (
    "ratclass.parse.parse_expression",
    "ratclass.ffield.field_create",
    "ratclass.ffield.extend",
    "ratclass.poly.roots",
    "ratclass.poly.roots_in",
    "ratclass.poly.factor_degree_pattern",
    "ratclass.moebius.act",
    "ratclass.moebius.enumerate_pgl2",
    "ratclass.ramify.ramification_profile",
    "ratclass.classify.classify",
    "ratclass.classify.canonical_rep",
    "ratclass.classify.are_equivalent",
    "ratclass.orbits.orbit_of",
    "ratclass.orbits.all_classes",
)

# Returns a generator, so each step of the iteration is its own span.
ITER_SPANS = ("ratclass.ratexpr.enumerate_expressions",)

SETUP_SPANS = ("ratclass.ffield.field_create", "ratclass.ffield.extend")

# The Fel special methods that do field arithmetic.
ARITH_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__pow__")


def _note_roots(args, result):
    return "scan" if args[0].ctx.elements is not None else "split"


def _note_label(args, result):
    return result[0].case


def _note_found(args, result):
    return "found" if result is not None else "none"


def _note_size(args, result):
    return len(result)


NOTES = {
    "ratclass.poly.roots": _note_roots,
    "ratclass.classify.classify": _note_label,
    "ratclass.classify.are_equivalent": _note_found,
    "ratclass.orbits.orbit_of": _note_size,
}


def _ratclass_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ratclass" or name.startswith("ratclass."))
            and m is not None]


def _span_name(qualname):
    module, attr = qualname.rsplit(".", 1)
    return "%s.%s" % (module.split(".")[-1], attr)


class Tracer:
    """Records spans around the library's layer boundaries."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._ids = 0
        self._patches = []

    def install(self, names=SPANS, iter_names=ITER_SPANS):
        for qualname in names:
            self._patch(qualname, self._wrap(qualname))
        for qualname in iter_names:
            self._patch(qualname, self._wrap_iter(qualname))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def _patch(self, qualname, make_wrapper):
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(original)
        for module in _ratclass_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def _wrap(self, qualname):
        name = _span_name(qualname)
        note = NOTES.get(qualname)
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = self._ids
                self._ids += 1
                stack = self._stack
                parent = stack[-1] if stack else -1
                stack.append(sid)
                result = done = None
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    done = True
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    tag = note(args, result) if done and note else None
                    self.spans.append((sid, name, start, end, parent,
                                       self.op, tag))
            return wrapper
        return make

    def _wrap_iter(self, qualname):
        name = _span_name(qualname)
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)

                def steps():
                    while True:
                        sid = self._ids
                        self._ids += 1
                        stack = self._stack
                        parent = stack[-1] if stack else -1
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self.spans.append((sid, name, start, clock(),
                                               parent, self.op, None))
                        yield item
                return steps()
            return wrapper
        return make

    def write(self, path):
        """Write the recorded spans as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


class LayerStats:
    """Per-name totals over a list of spans.

    Self time is a span's duration minus the time its child spans
    cover; children of one span never overlap, since one thread runs.
    """

    def __init__(self, spans):
        child = {}
        for sid, name, start, end, parent, op, note in spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        by_id = {s[0]: s for s in spans}
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.notes = {}
        self.top_total = {}
        self.under = {}
        for sid, name, start, end, parent, op, note in spans:
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = (self.self_time.get(name, 0.0) + dur
                                    - child.get(sid, 0.0))
            if note is not None:
                key = (name, note)
                self.notes[key] = self.notes.get(key, 0) + 1
            pname = by_id[parent][1] if parent >= 0 else None
            key = (name, pname)
            self.under[key] = self.under.get(key, 0) + 1
            # roots_in calls roots: count root finding time once
            if not (name.startswith("poly.roots") and pname
                    and pname.startswith("poly.roots")):
                self.top_total[name] = self.top_total.get(name, 0.0) + dur
        self.orbit_exprs = sum(s[6] for s in spans
                               if s[1] == "orbits.orbit_of")

    def count(self, name):
        return self.calls.get(name, 0)

    def ms(self, name):
        return 1000.0 * self.total.get(name, 0.0)

    def self_ms(self, name):
        return 1000.0 * self.self_time.get(name, 0.0)

    def layer_ms(self, *names):
        return 1000.0 * sum(self.top_total.get(n, 0.0) for n in names)

    def noted(self, name, note):
        return self.notes.get((name, note), 0)

    def under_parent(self, name, parent):
        return self.under.get((name, parent), 0)


class ArithCounter:
    """Counts every call of a Fel arithmetic special method.

    Kept apart from span tracing: a Python-level wrapper around each
    field operation slows arithmetic several-fold, so counts come from
    their own pass and never from a timed one.
    """

    def __init__(self, fel_class):
        self.fel = fel_class
        self.calls = 0
        self._originals = {}

    def install(self):
        for name in ARITH_DUNDERS:
            original = self.fel.__dict__[name]
            self._originals[name] = original
            setattr(self.fel, name, self._counting(original))

    def restore(self):
        for name, original in self._originals.items():
            setattr(self.fel, name, original)
        self._originals = {}

    def _counting(self, fn):
        def counted(*args):
            self.calls += 1
            return fn(*args)
        counted.__name__ = fn.__name__
        return counted
