"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` replaces the
names through which one trinls module calls another (and through which the
benchmark calls trinls) with thin wrappers, so the library itself is not
edited.  A span is (name, layer, start, end, parent, error); the layer is the
trinls module that defines the wrapped function.  Spans stay in memory for
the life of the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("spectral", "model", "ground_state", "evolution", "stability", "cli")

# (module the name is looked up in, attribute) for every call boundary the
# traced run records.  Kernels that one layer imports from another are
# listed under the importing module, because that is the name it calls.
BOUNDARIES = (
    ("trinls.spectral", "make_grid"),
    ("trinls.ground_state", "minimize"),
    ("trinls.ground_state", "refine_fixed_point"),
    ("trinls.ground_state", "subadditivity_check"),
    ("trinls.ground_state", "_nonlinearity"),
    ("trinls.ground_state", "_multiplier_array"),
    ("trinls.ground_state", "_el_residual_array"),
    ("trinls.ground_state", "_energy_terms"),
    ("trinls.ground_state", "_rearrange_samples"),
    ("trinls.evolution", "_coefficients"),
    ("trinls.stability", "evolve"),
    ("trinls.stability", "orbital_distance"),
    ("trinls.stability", "perturb"),
    ("trinls.stability", "stability_experiment"),
    ("trinls.cli", "main"),
    ("trinls.cli", "load_config"),
    ("trinls.cli", "make_grid"),
    ("trinls.cli", "cmd_solve"),
    ("trinls.cli", "cmd_evolve"),
    ("trinls.cli", "cmd_stability"),
    ("trinls.cli", "cmd_subadd"),
    ("trinls.cli", "minimize"),
    ("trinls.cli", "refine_fixed_point"),
    ("trinls.cli", "subadditivity_check"),
    ("trinls.cli", "evolve"),
    ("trinls.cli", "stability_experiment"),
    ("trinls.cli", "read_profile_csv"),
    ("trinls.cli", "write_json"),
    ("trinls.cli", "write_metadata"),
    ("trinls.cli", "write_profile_csv"),
    ("trinls.cli", "write_groundstate_json"),
    ("trinls.cli", "write_trace_csv"),
)

NAME, LAYER, START, END, PARENT, ERROR = range(6)


class Tracer:
    """In-memory span list with a parent stack (one thread)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()

    @contextmanager
    def span(self, name, layer="bench"):
        idx = self._open(name, layer)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                self._close(idx, type(err).__name__)
                raise
            self._close(idx)
            return out
        return traced

    def install(self):
        """Wrap every boundary name; `uninstall` restores the originals."""
        for mod_name, attr in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            layer = fn.__module__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, attr, layer))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def span_cost_s(self, calls=20000):
        """Seconds one recorded span adds to a call: a wrapped no-op against
        a bare one, median of five batches.  Spans recorded here are
        dropped again."""
        def noop():
            return None

        wrapped = self._wrap(noop, "noop", "bench")
        mark = len(self.spans)
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[mark:]
        return sorted(costs)[2]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def children(self):
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            kids[s[PARENT]].append(i)
        return kids

    def self_times(self, root):
        """Self time per layer inside span `root` (root included).

        A span's self time is its duration minus the durations of its direct
        children, so the values add up to the root's duration.
        """
        kids = self.children()
        out = defaultdict(float)
        todo = [root]
        while todo:
            i = todo.pop()
            s = self.spans[i]
            child_time = sum(self.spans[c][END] - self.spans[c][START]
                             for c in kids[i])
            out[s[LAYER]] += (s[END] - s[START]) - child_time
            todo.extend(kids[i])
        return dict(out)

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def duration(self, idx):
        s = self.spans[idx]
        return s[END] - s[START]

    def within(self, roots):
        """Indices of all spans under any of `roots` (roots excluded)."""
        kids = self.children()
        out = []
        todo = list(roots)
        while todo:
            i = todo.pop()
            out.extend(kids[i])
            todo.extend(kids[i])
        return out
