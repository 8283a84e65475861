"""Spans, call counts and self time, recorded from outside the library.

The tracer wraps public functions of each layer and replaces every module
binding of them. The package imports names with ``from .x import y``, so
patching only the defining module would miss calls made through the
importing modules' own bindings. ``numpy.linalg`` functions are patched on
the ``numpy.linalg`` module, which is where the library looks them up.

A span is (op, span, parent, name, start, end); the op id is shared by all
spans of one benchmark operation. Self time is a span's duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs wrapped in the traced run, grouped by layer.
LAYERS = (
    ("continuation", ("liberate", "realize_in_pattern",
                      "complete_pattern_low_rank")),
    ("strongprops", ("psi", "has_strong_property", "has_strong_property_wrt")),
    ("patterns", ("in_class",)),
    ("exactla", ("rank", "rref", "column_echelon", "left_kernel_basis",
                 "kernel_basis")),
    ("liberation", ("is_liberation_set", "enumerate_minimal_liberation_sets",
                    "is_graph_liberation_set")),
    ("cli", ("main",)),
    ("numla", ("sym_eigen", "multiplicity_list")),
    ("directsum", ("sylvester_space", "directsum_liberation")),
    ("zeroforcing", ("closure", "zf_liberation")),
    ("replays", ("reproduce",)),
)
NUMPY_LINALG = ("eigh", "eigvalsh", "lstsq")

# Functions whose result carries an attempt count worth summing.
ATTEMPTS = ("continuation.liberate", "continuation.complete_pattern_low_rank")


def traced_names():
    """Every span name the tracer can emit, in a fixed order."""
    names = ["%s.%s" % (mod, fn) for mod, fns in LAYERS for fn in fns]
    names += ["numpy.linalg.%s" % fn for fn in NUMPY_LINALG]
    return names


class Tracer:
    """Collects spans and per-function counts while installed and active."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = traced_names()
        self._name_idx = {n: i for i, n in enumerate(self.names)}
        self._patches = []   # (owner, attribute, original)
        self.active = False
        self.op = -1
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.attempts = Counter()
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []     # [span id, start, child time]

    # -- installation --------------------------------------------------

    def install(self):
        """Patch every binding of the traced functions; undone by uninstall."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = {}
        for mod, fns in LAYERS:
            module = importlib.import_module("liberatrix." + mod)
            for fn in fns:
                targets[id(getattr(module, fn))] = "%s.%s" % (mod, fn)
        originals = {}
        for name in list(sys.modules):
            if name != "liberatrix" and not name.startswith("liberatrix."):
                continue
            module = sys.modules[name]
            for attr, value in list(vars(module).items()):
                key = targets.get(id(value))
                if key is None:
                    continue
                if key not in originals:
                    originals[key] = self._wrap(key, value)
                self._patch(module, attr, originals[key])
        for fn in NUMPY_LINALG:
            wrapper = self._wrap("numpy.linalg." + fn, getattr(np.linalg, fn))
            self._patch(np.linalg, fn, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, key, fn):
        idx = self._name_idx[key]
        clock = self.clock
        want_attempts = key in ATTEMPTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = len(self.span_start)
            parent = stack[-1][0] if stack else -1
            self.span_op.append(self.op)
            self.span_parent.append(parent)
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.span_start[sid] = frame[1]
                self.span_end[sid] = end
                self.calls[key] += 1
                self.self_s[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if want_attempts:
                self.attempts[key] += result.attempts
            return result

        return wrapper

    # -- results -------------------------------------------------------

    def counts(self):
        """The exact work counts: calls per function plus attempt sums."""
        out = {"%s.calls" % k: v for k, v in self.calls.items()}
        out.update({"%s.attempts" % k: v for k, v in self.attempts.items()})
        return dict(sorted(out.items()))

    def save_spans(self, path):
        """Write the spans as arrays, times in the tracer's clock."""
        np.savez_compressed(
            path, names=np.array(self.names),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))
