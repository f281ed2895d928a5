"""In-memory span tracer for the public functions of the ``vomps`` modules.

The modules import each other's functions by name (``truncation`` and
``models`` both hold ``environments``; ``umps`` and ``baseline`` both hold
``leading_eig``), so a function is replaced by its wrapper at every module
that holds it, not only where it is defined.  Each call records a span
``(name, start, end, parent)``; spans stay in memory until the caller writes
them out.  Counters that do not depend on the hardware are read from the
values the wrapped functions return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("tensor", "umps", "truncation", "baseline", "models", "io", "cli")


def _eig_counts(res, args, kwargs):
    return {"matvecs": res.iterations, "unconverged": int(not res.converged)}


def _env_counts(env, args, kwargs):
    return {"matvecs": env.matvecs, "unconverged": int(not env.converged)}


def _truncation_counts(out, args, kwargs):
    report = out[1]
    return {"outer_iters": len(report.iterations),
            "unconverged": int(not report.converged),
            "failed": int(not report.converged or report.orthogonal)}


def _power_counts(out, args, kwargs):
    return {"outer_iters": len(out[1].iterations)}


def _saved_bytes(out, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# counters read from return values: "<module>.<function>" -> (reader,
# the quantities it returns)
COUNTERS = {
    "tensor.leading_eig": (_eig_counts, ("matvecs", "unconverged")),
    "umps.environments": (_env_counts, ("matvecs", "unconverged")),
    "truncation.vomps_truncate": (_truncation_counts,
                                  ("outer_iters", "unconverged", "failed")),
    "truncation.power_method": (_power_counts, ("outer_iters",)),
    "io.save_state": (_saved_bytes, ("bytes",)),
}
TIME_QUANTITIES = ("s", "self_s", "overhead_s")


def is_count(metric: str) -> bool:
    """Whether a metric is a hardware-independent count, not a time."""
    return metric.rsplit(".", 1)[-1] not in TIME_QUANTITIES


def unit_of(metric: str) -> str:
    quantity = metric.rsplit(".", 1)[-1]
    if quantity in TIME_QUANTITIES:
        return "s"
    return "B" if quantity == "bytes" else "count"


def public_functions(layer: str):
    """``{name: function}`` for the public functions `layer` defines."""
    mod = importlib.import_module(f"vomps.{layer}")
    return {name: fn for name, fn in vars(mod).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == mod.__name__}


class Tracer:
    """Wraps the selected public functions of every layer.

    `select` names the ``<module>.<function>`` entries to wrap (all public
    functions when None).  While installed, every call appends a span and
    adds to ``calls`` and the return-value counters; a call that raises is
    counted in ``raised``.  :meth:`uninstall` restores the originals.
    """

    def __init__(self, select=None):
        self.select = None if select is None else set(select)
        self.names = []       # span name per name id
        self.spans = []       # (name id, start, end, parent span index)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []    # (module, attribute, original)

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter, _ = COUNTERS.get(qualname, (None, ()))
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[qualname + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
                counts[qualname + ".calls"] += 1
            if counter is not None:
                for key, value in counter(out, args, kwargs).items():
                    counts[f"{qualname}.{key}"] += value
            return out

        return functools.wraps(fn)(wrapper)

    def install(self):
        import vomps

        wrappers = {}   # original function -> wrapper
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                qualname = f"{layer}.{name}"
                if self.select is None or qualname in self.select:
                    wrappers[fn] = self._wrap(qualname, fn)
        missing = (self.select or set()) - set(self.names)
        if missing:
            raise KeyError(f"no public function {sorted(missing)}")
        holders = [vomps] + [importlib.import_module(f"vomps.{layer}")
                             for layer in LAYERS]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def times(self):
        """Inclusive and self seconds per function, from span nesting.

        A span's self time is its duration minus the durations of its
        direct children; calls are single-threaded, so children never
        overlap one another.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl = defaultdict(float)
        self_time = defaultdict(float)
        for k, (name_id, start, end, _) in enumerate(self.spans):
            name = self.names[name_id]
            incl[name] += end - start
            self_time[name] += end - start - child[k]
        return incl, self_time

    def metrics(self):
        """Flat ``{"<module>.<function>.<quantity>": value}`` for every
        wrapped function: counters plus ``s`` and ``self_s``."""
        incl, self_time = self.times()
        out = {}
        for name in self.names:
            _, counted = COUNTERS.get(name, (None, ()))
            for quantity in ("calls", "raised") + counted:
                out[f"{name}.{quantity}"] = self.counts[f"{name}.{quantity}"]
            out[f"{name}.s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
        return out

    def span_records(self):
        """Spans as ``[name, start, end, parent]`` lists, start-ordered."""
        return [[self.names[n], s, e, p] for n, s, e, p in self.spans]
