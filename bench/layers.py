"""Outside-in per-module tracing for the benchmark.

`Tracer.install()` replaces every public function of each smstilt module
(only `main` in `cli`) and `complexes.HomSet.__init__` with a wrapper that
opens a span.  Calls inside the package go through module globals or
module attributes, so they pass the wrappers too.  A span's self time is
its duration minus the spans nested inside it; a layer's self time is the
sum of the self times of its spans.  `total_s` counts only the outermost
span of a function, so recursion is not counted twice.

Bookkeeping is kept per thread and merged by `report()`, so the
`--threads` path needs no lock and loses no count; with two threads the
times are summed over both and can exceed wall time.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("gf", "modcat", "complexes", "smscfg", "transport", "disc", "brauer", "cli")

# Functions whose distinct inputs are counted: the candidates for caching.
DISTINCT = ("modcat.min_left_approx", "complexes.two_term_mutate_tracked",
            "smscfg.sms_mutate_tracked", "transport.fmap_tracked")


def _freeze(x):
    """A hashable stand-in for a call argument."""
    try:
        hash(x)
        return x
    except TypeError:
        pass
    if isinstance(x, (set, frozenset)):
        return frozenset(_freeze(y) for y in x)
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(y) for y in x)
    if isinstance(x, dict):
        return frozenset((_freeze(k), _freeze(v)) for k, v in x.items())
    return repr(x)


def _rref_cells(st, args, kwargs, result, dt):
    M = args[0] if args else kwargs["M"]
    size = getattr(M, "size", None)
    if size is None:
        import numpy as np
        size = np.size(M)
    st.extra["gf.rref.cells"] += int(size)


def _p3_calls(st, args, kwargs, result, dt):
    p = kwargs.get("p", args[3] if len(args) > 3 else 2)
    if p == 3:
        st.extra["modcat.stable_hom_dim.p3_calls"] += 1


def _none_results(st, args, kwargs, result, dt):
    if result[0] is None:
        st.extra["complexes.two_term_mutate_tracked.none"] += 1


def _suite_time(st, args, kwargs, result, dt):
    suite = args[0] if args else kwargs["suite"]
    st.extra[f"transport.verify.{suite}.total_s"] += dt


HOOKS = {
    "gf.rref": _rref_cells,
    "modcat.stable_hom_dim": _p3_calls,
    "complexes.two_term_mutate_tracked": _none_results,
    "transport.verify": _suite_time,
}


class _ThreadStats:
    def __init__(self):
        self.stack: list[float] = []  # child seconds of each open span
        # name -> [calls, outermost seconds, self seconds, open depth]
        self.recs: defaultdict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.keys: defaultdict = defaultdict(set)
        self.extra: defaultdict = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._all: list[_ThreadStats] = []
        self._lock = threading.Lock()
        self.layer_of: dict[str, str] = {}

    def _new_stats(self) -> _ThreadStats:
        st = self._local.st = _ThreadStats()
        with self._lock:
            self._all.append(st)
        return st

    def _wrap(self, name: str, layer: str, fn):
        local, new_stats = self._local, self._new_stats
        hook = HOOKS.get(name)
        distinct = name in DISTINCT
        clock = time.perf_counter

        def span(*args, **kwargs):
            st = local.__dict__.get("st") or new_stats()
            if distinct:
                st.keys[name].add(_freeze((args, kwargs)))
            rec = st.recs[name]
            stack = st.stack
            stack.append(0.0)
            rec[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[2] += dt - stack.pop()
                rec[3] -= 1
                if not rec[3]:
                    rec[1] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(st, args, kwargs, result, dt)
            return result

        self.layer_of[name] = layer
        return span

    def install(self) -> "Tracer":
        """Wrap the package's public functions; call before any timed work."""
        for layer in LAYERS:
            mod = importlib.import_module(f"smstilt.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", layer, obj))
        HomSet = importlib.import_module("smstilt.complexes").HomSet
        HomSet.__init__ = self._wrap("complexes.HomSet", "complexes", HomSet.__init__)
        return self

    def report(self) -> dict[str, float]:
        """Flat metric dict: per-layer self time, per-function counts and
        times, distinct-input shares and the hook counters."""
        recs: defaultdict = defaultdict(lambda: [0, 0.0, 0.0])
        keys: defaultdict = defaultdict(set)
        extra: Counter = Counter()
        for st in self._all:
            for name, (calls, total, own, _) in st.recs.items():
                r = recs[name]
                r[0] += calls
                r[1] += total
                r[2] += own
            for name, v in st.keys.items():
                keys[name] |= v
            extra.update(st.extra)
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, layer in self.layer_of.items():
            calls, total, own = recs[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = own
            out[f"{layer}.self_s"] += own
        for name in DISTINCT:
            n = recs[name][0]
            out[f"{name}.distinct_frac"] = len(keys[name]) / n if n else 0.0
        n = recs["complexes.two_term_mutate_tracked"][0]
        nones = extra.pop("complexes.two_term_mutate_tracked.none", 0)
        out["complexes.two_term_mutate_tracked.none_frac"] = nones / n if n else 0.0
        out.update(extra)
        return out
