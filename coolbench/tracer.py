"""Spans and counts recorded from outside the package.

`Tracer.install()` replaces each traced public function of doppler_reabs
by a wrapper wherever the package holds a reference to it: the defining
module's attribute, every module that imported it by name, and
module-level dicts such as `cli._RUNNERS`.  `uninstall()` puts the
originals back.  A function that no longer exists is skipped, so the
benchmark keeps running while the package changes.

Span wrappers record (name, start, end, parent) and give the layer its
self time.  Count wrappers only count; their time stays with the caller,
which is how the integrator's stages (temperature_slope) and constant
look-ups (derive_constants) are charged to simulate, rates and kappa_set.
Every call is also counted under "<name>@simulate" when it happens inside
a simulate span.

`install(counting=False)` puts in the span wrappers alone, and they only
record spans: tens of thousands of counted calls per round would
otherwise charge their wrappers' cost to the callers' self times.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

SIMULATE = "dynamics.simulate"

# (module, function, metric name, kind)
TARGETS = (
    ("doppler_reabs.cli", "main", "cli.main", "span"),
    ("doppler_reabs.config", "parse_config", "config.parse_config", "span"),
    ("doppler_reabs.runners", "run_dynamics", "runners.run_dynamics", "span"),
    ("doppler_reabs.runners", "run_steady_state", "runners.run_steady_state", "span"),
    ("doppler_reabs.runners", "run_aspect_scan", "runners.run_aspect_scan", "span"),
    ("doppler_reabs.runners", "run_intensity_scan", "runners.run_intensity_scan", "span"),
    ("doppler_reabs.runners", "run_od_scan", "runners.run_od_scan", "span"),
    ("doppler_reabs.runners", "run_fit", "runners.run_fit", "span"),
    ("doppler_reabs.dynamics", "simulate", SIMULATE, "span"),
    ("doppler_reabs.dynamics", "rates", "dynamics.rates", "span"),
    ("doppler_reabs.dynamics", "temperature_slope", "dynamics.temperature_slope", "count"),
    ("doppler_reabs.reabsorption", "kappa_set", "reabsorption.kappa_set", "span"),
    ("doppler_reabs.atoms", "derive_constants", "atoms.derive_constants", "count"),
    ("doppler_reabs.fitting", "fit_exponential", "fitting.fit_exponential", "span"),
    ("doppler_reabs.fitting", "fit_intensity_scan", "fitting.fit_intensity_scan", "span"),
    ("doppler_reabs.fitting", "fit_od_scan", "fitting.fit_od_scan", "span"),
    ("doppler_reabs.fitting", "levenberg_marquardt", "fitting.levenberg_marquardt", "count"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._in_simulate = 0
        self._patches: list = []   # (container, key, original)

    # ----------------------------------------------------------- recording

    def _count(self, name: str):
        self.counts[name] += 1
        if self._in_simulate:
            self.counts[name + "@simulate"] += 1

    def _span(self, name, fn, on_return, counting):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counting:
                self._count(name)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            simulate = name == SIMULATE
            self._in_simulate += simulate
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._in_simulate -= simulate
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if counting and on_return is not None:
                on_return(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _levenberg_marquardt(self, name, fn):
        @functools.wraps(fn)
        def wrapper(residual_fn, *args, **kwargs):
            self._count(name)

            def counted(p):
                self.counts["fitting.model_evals"] += 1
                return residual_fn(p)

            result = fn(counted, *args, **kwargs)
            if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], int):
                self.counts["fitting.iterations"] += result[2]
            return result
        return wrapper

    def _rates_outcome(self, result):
        self.counts["dynamics.rates.capped_y"] += bool(getattr(result, "capped_y", False))
        self.counts["dynamics.rates.capped_z"] += bool(getattr(result, "capped_z", False))

    def _wrap(self, name, kind, fn, counting):
        if kind == "count" and not counting:
            return None
        if name == "fitting.levenberg_marquardt":
            return self._levenberg_marquardt(name, fn)
        if kind == "count":
            return self._counter(name, fn)
        return self._span(name, fn, self._rates_outcome if name == "dynamics.rates" else None,
                          counting)

    # ------------------------------------------------------------- patching

    def install(self, counting=True):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "doppler_reabs" or n.startswith("doppler_reabs."))]
        for module_name, attr, name, kind in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, kind, original, counting)
            if wrapper is None:
                continue
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(namespace, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, original, wrapper)

    def _patch(self, container, key, original, wrapper):
        container[key] = wrapper
        self._patches.append((container, key, original))

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def take(self):
        """Self time per span name [s] of the spans so far; clears them."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        self_time = Counter()
        for (name, _, _, _), t in zip(self.spans, own):
            self_time[name] += t
        spans, self.spans = self.spans, []
        return self_time, spans
