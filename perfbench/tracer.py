"""Span recorder that wraps cantorlab's public functions from outside.

Every public function of the traced layer modules is replaced by a
wrapper, in its defining module and in every cantorlab module that
imported it by name, so calls between layers pass through the wrappers.
A span is ``[name, start, end, parent, excluded]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``excluded`` is time the
recorder itself spent inside the span (count hooks of its children),
which self time leaves out.  Counts are taken from return values at the
same boundaries.  Spans stay in memory until the process writes them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Layers, in the order their metrics are listed.  ``catalog`` only builds
# the sets during set-up and ``cli`` is not exercised, so neither is wrapped.
LAYERS = ("cantor_core", "setops", "intersect", "dimension", "spectra", "surd", "dynamics")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._set_keys: dict[int, tuple[object, str]] = {}
        self._seen_covers: set = set()
        from cantorlab import cantor_core

        self._set_to_json = cantor_core.set_to_json  # taken before install wraps it

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        """Wrap every public function of the layer modules and rebind it
        wherever a cantorlab module holds it by name."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cantorlab.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = self._wrap(name, fn, _HOOKS.get(name))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cantorlab" or modname.startswith("cantorlab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[1] = start
                span[2] = end
            if hook is not None:
                hook(self, args, kwargs, result)
                if stack:
                    spans[stack[-1]][4] += clock() - end
            return result

        return wrapper

    # ------------------------------------------------------------------
    # results

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name.  Self time is the span's
        duration minus its children's durations and the recorder's own
        time inside it."""
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent, excluded in self.spans:
            duration = end - start
            calls[name] += 1
            own[name] += duration - excluded
            if parent >= 0:
                own[self.spans[parent][0]] -= duration
        return dict(calls), dict(own)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "excluded"], "spans": self.spans}, fh)

    # ------------------------------------------------------------------
    # count hooks

    def set_key(self, K) -> str:
        """Canonical text of a set definition; equal sets share a key."""
        entry = self._set_keys.get(id(K))
        if entry is None:
            entry = (K, json.dumps(self._set_to_json(K), sort_keys=True, default=str))
            self._set_keys[id(K)] = entry  # holding K keeps its id unique
        return entry[1]

    def cover_request(self, K, cover) -> None:
        digest = hashlib.sha1(cover.los.tobytes() + cover.his.tobytes()).hexdigest()
        key = (self.set_key(K), digest)
        self.counts["cantor_core.cover_requests"] += 1
        self.counts["cantor_core.cover_intervals"] += len(cover)
        if key in self._seen_covers:
            self.counts["cantor_core.cover_repeats"] += 1
        else:
            self._seen_covers.add(key)


def _cover_hook(tracer, args, kwargs, cover):
    tracer.cover_request(args[0] if args else kwargs["K"], cover)


def _cover_sum_hook(tracer, args, kwargs, union):
    tracer.counts["setops.pairs"] += int(union.meta.get("pairs", 0))
    tracer.counts["setops.components"] += union.n_components
    tracer.counts["setops.capped"] += bool(union.meta.get("capped", False))


def _search_hook(tracer, args, kwargs, outcome):
    tracer.counts["intersect.sweeps"] += outcome.sweeps
    if outcome.found:
        tracer.counts["intersect.members_found"] += outcome.region.n_members


def _verify_hook(tracer, args, kwargs, result):
    ok, _reason = result
    if ok:
        doc = args[0] if args else kwargs["doc"]
        tracer.counts["intersect.cells_verified"] += sum(doc["mask_rle"][1::2])


def _k_alpha_hook(tracer, args, kwargs, value):
    tracer.counts["spectra.values"] += 1
    tracer.counts["spectra.exact_values"] += value.exact is not None


def _lagrange_hook(tracer, args, kwargs, values):
    tracer.counts["spectra.values"] += len(values)
    tracer.counts["spectra.exact_values"] += sum(v.exact is not None for v in values)


_HOOKS = {
    "cantor_core.refine": _cover_hook,
    "cantor_core.refine_to_length": _cover_hook,
    "setops.cover_sum": _cover_sum_hook,
    "intersect.recurrent_compact_search": _search_hook,
    "intersect.verify_certificate": _verify_hook,
    "spectra.k_alpha": _k_alpha_hook,
    "spectra.lagrange_sample": _lagrange_hook,
}
