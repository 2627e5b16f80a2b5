"""Spans around hpiso's public functions, recorded from outside the library.

``Tracer.install()`` wraps every function named in a layer module's
``__all__`` and the public methods of the public classes defined there, and
rebinds each wrapped name in every ``hpiso.*`` namespace that holds it
(modules import each other's functions by name).  A span records its name,
start, end and parent; the operation it belongs to is known from the
operation boundaries the benchmark marks with ``end_op``.

Spans sit in compact arrays while operations run.  Between operations, once
the buffer is large, they are folded into ``Stats`` (calls, self time,
durations of a few named functions, and counters read from arguments), and
the first ``KEEP_SPANS`` spans are kept for ``write``.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("moebius", "blaschke", "hardy", "isometries", "serialize", "cli")

#: functions whose individual durations are kept (for p50/p90 metrics)
TIMED = frozenset(
    {
        "moebius.compose",
        "moebius.classify",
        "moebius.iterate",
        "moebius.find_conjugator",
        "serialize.spec_from_json",
        "blaschke.eval_blaschke",
        "isometries.decide_crownover",
        "isometries.construct_nonzero_intersection",
        "isometries.decide_equivalent",
        "hardy.verify_isometry",
    }
)


def _orbit_terms(args, kwargs):
    # ZeroSequence.term(self, k) walks one term, terms_up_to(self, n) walks n
    return int(args[1]) if len(args) > 1 else int(kwargs["n"])


def _apply_isometry_evals(args, kwargs):
    spec, ctx = args[0], args[2]
    return ctx.grid_size * len(spec.psi_zeros)


def _composition_constant_evals(args, kwargs):
    grid = args[3] if len(args) > 3 else kwargs.get("grid_size", 256)
    return 3 * int(grid)  # three weight functions on the grid


#: span name -> (counter name, amount computed from the call's arguments)
COUNTERS = {
    "blaschke.ZeroSequence.term": ("blaschke.orbit_terms", lambda args, kwargs: 1),
    "blaschke.ZeroSequence.terms_up_to": ("blaschke.orbit_terms", _orbit_terms),
    "hardy.apply_isometry": ("hardy.grid_factor_evals", _apply_isometry_evals),
    "hardy.composition_constant": ("hardy.grid_factor_evals", _composition_constant_evals),
}


def self_times(start, end, parent):
    """Duration of each span minus the time its child spans cover.

    Children of one span never overlap (one thread, synchronous calls), so
    the covered time is the sum of their durations, capped at the parent's.
    ``parent[i]`` is the index of span ``i``'s parent, or -1.
    """
    start, end, parent = (np.asarray(x) for x in (start, end, parent))
    dur = end - start
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - np.minimum(covered, dur)


def under(parent, flag):
    """For each span, whether some proper ancestor has ``flag`` set."""
    parent = np.asarray(parent)
    flag = np.asarray(flag, dtype=bool)
    out = np.zeros(parent.size, dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return out
        out[live] |= flag[up[live]]
        up[live] = parent[up[live]]


class Stats:
    """Per-span-name totals, mergeable across processes."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.durations = {name: [] for name in TIMED}
        self.counters = {"blaschke.orbit_terms": 0, "hardy.grid_factor_evals": 0}
        self.parses = 0  # top-level *_from_json calls
        self.nested_validates = 0  # validate calls beneath them
        self.decisions = 0  # decide_equivalent calls
        self.decision_moebius_calls = 0  # moebius spans beneath them

    def layer_calls(self, layer):
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == layer)

    def layer_self_s(self, layer):
        return sum(s for name, s in self.self_s.items() if name.split(".")[0] == layer)

    def to_json(self):
        return dict(vars(self))

    def merge(self, other: dict):
        for key in ("calls", "self_s"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] = mine.get(name, 0) + value
        for name, values in other["durations"].items():
            self.durations[name].extend(values)
        for name, value in other["counters"].items():
            self.counters[name] += value
        for key in ("parses", "nested_validates", "decisions", "decision_moebius_calls"):
            setattr(self, key, getattr(self, key) + other[key])


#: spans kept for ``Tracer.write``; the statistics cover every span
KEEP_SPANS = 100_000
#: buffered spans that trigger folding into the statistics between operations
FLUSH_AT = 200_000


class Tracer:
    """Records spans for calls into hpiso while installed."""

    def __init__(self):
        self.names = []
        self.stats = Stats()
        self.kept = []  # (op ids, name ids, starts, ends, global parents)
        self.n_kept = 0
        self.n_spans = 0
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._stack = [-1]
        self._ops = []  # (op id, span count when the op ended)
        self._patched = []  # (namespace, attribute, original)

    # -- patching ------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, stack = (
            self._name, self._start, self._end, self._parent, self._stack,
        )
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counters = self.stats.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _rebind(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if (modname == "hpiso" or modname.startswith("hpiso.")) and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self._wrap(value.__func__, name))
            elif inspect.isfunction(value):
                wrapped = self._wrap(value, name)
            else:
                continue  # properties and data
            self._patched.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def install(self, layers=LAYERS):
        for layer in layers:
            mod = importlib.import_module(f"hpiso.{layer}")
            for public in mod.__all__:
                obj = getattr(mod, public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(obj, f"{layer}.{public}"))
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, layer)
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- operations ----------------------------------------------------

    def end_op(self, op_id: int):
        """Mark the end of operation ``op_id``; fold spans once the buffer is large."""
        self._ops.append((op_id, len(self._start)))
        if len(self._start) >= FLUSH_AT:
            self.flush()

    def flush(self):
        n = len(self._start)
        if n == 0:
            self._ops.clear()
            return
        name = np.array(self._name, dtype=np.int64)
        start = np.array(self._start)
        end = np.array(self._end)
        parent = np.array(self._parent, dtype=np.int64)
        op = np.full(n, -1, dtype=np.int64)
        lo = 0
        for op_id, hi in self._ops:
            op[lo:hi] = op_id
            lo = hi
        del self._name[:], self._start[:], self._end[:], self._parent[:]
        self._ops.clear()
        self._fold(op, name, start, end, parent)
        if self.n_kept < KEEP_SPANS:
            m = min(n, KEEP_SPANS - self.n_kept)
            glob = np.where(parent >= 0, parent + self.n_spans, -1)
            self.kept.append((op[:m], name[:m], start[:m], end[:m], glob[:m]))
            self.n_kept += m
        self.n_spans += n

    def _fold(self, op, name, start, end, parent):
        """Add one buffer of spans to ``stats``; spans outside operations are skipped."""
        st = self.stats
        own = self_times(start, end, parent)
        dur = end - start
        layer_of = np.array([n.split(".")[0] for n in self.names])
        is_fj = np.array([n.startswith("serialize.") and n.endswith("_from_json") for n in self.names])[name]
        in_fj = under(parent, is_fj)
        is_dec = np.array([n == "isometries.decide_equivalent" for n in self.names])[name]
        in_dec = under(parent, is_dec)
        keep = op >= 0
        name, own, dur = name[keep], own[keep], dur[keep]
        is_fj, in_fj, is_dec, in_dec = is_fj[keep], in_fj[keep], is_dec[keep], in_dec[keep]

        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        for nid in np.flatnonzero(calls):
            key = self.names[nid]
            st.calls[key] = st.calls.get(key, 0) + int(calls[nid])
            st.self_s[key] = st.self_s.get(key, 0.0) + float(selfs[nid])
            if key in TIMED:
                st.durations[key].extend((dur[name == nid] * 1e6).tolist())
        is_validate = np.array([n == "serialize.validate" for n in self.names])[name]
        st.parses += int(np.count_nonzero(is_fj & ~in_fj))
        st.nested_validates += int(np.count_nonzero(is_validate & in_fj))
        st.decisions += int(np.count_nonzero(is_dec))
        st.decision_moebius_calls += int(np.count_nonzero(in_dec & (layer_of[name] == "moebius")))

    def write(self, path):
        """Write the kept spans as one JSON object of parallel columns."""
        self.flush()
        cols = {"op": [], "name": [], "start": [], "end": [], "parent": []}
        for chunk in self.kept:
            for key, values in zip(cols, chunk):
                cols[key].extend(values.tolist())
        payload = {
            "names": self.names,
            "spans_recorded": self.n_spans,
            "spans_kept": self.n_kept,
            **cols,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
