"""Spans around dynctl's public functions, installed from outside the library.

install() wraps every public module-level function of every dynctl module,
plus the F_p[t] and parsing methods the per-layer metrics name, and rebinds
each wrapper wherever the original was bound: `evaluate` lives in `maps` but
is also bound in `orbits`, `canonical` and `families`, so patching only
`maps.evaluate` would miss most calls.

A span records calls and self time (duration minus the time of the spans
nested in it). Observers attached to a few functions count work done:
points enumerated, orbit outcomes, peak coordinate bits. `map_chunks` gets a
special wrapper that hands the pool a picklable TaskCall; under the fork
context each worker returns its own spans with every result and the parent
merges them, so worker time is measured rather than inferred.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from time import perf_counter

LAYERS = ("points", "maps", "polynomials", "canonical", "orbits", "families",
          "funcfield", "parsing", "parallel", "reports", "cli")

# Methods wrapped in addition to module-level functions, by layer.
METHODS = {
    "funcfield": {"FFPoly": ("__mul__", "__divmod__", "gcd")},
    "parsing": {"MapExpression": ("to_rational_map", "to_family")},
}


class Stats:
    """What one process recorded: spans (name -> [calls, self_s]), summed
    counts, maxima, and sets of distinct keys."""

    __slots__ = ("spans", "counts", "peaks", "keys")

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, int] = {}
        self.keys: dict[str, set] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, v: int) -> None:
        if v > self.peaks.get(name, 0):
            self.peaks[name] = v

    def key(self, name: str, k) -> None:
        self.keys.setdefault(name, set()).add(k)

    def pack(self) -> tuple:
        """A compact picklable form; workers return one with every result."""
        return (tuple((name, calls, self_s) for name, (calls, self_s) in self.spans.items()),
                self.counts or None, self.peaks or None, self.keys or None)

    def merge(self, packed: tuple) -> None:
        spans, counts, peaks, keys = packed
        for name, calls, self_s in spans:
            rec = self.spans.get(name)
            if rec is None:
                self.spans[name] = [calls, self_s]
            else:
                rec[0] += calls
                rec[1] += self_s
        for name, n in (counts or {}).items():
            self.count(name, n)
        for name, v in (peaks or {}).items():
            self.peak(name, v)
        for name, ks in (keys or {}).items():
            self.keys.setdefault(name, set()).update(ks)


# The recording target and the open-span stack of this process. TaskCall
# swaps both for the duration of one pool task.
_stats = Stats()
_stack: list[float] = []
_parent_pid = os.getpid()


def stats() -> Stats:
    return _stats


def _span(name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            rec = _stats.spans.get(name)
            if rec is None:
                _stats.spans[name] = [1, dt - child]
            else:
                rec[0] += 1
                rec[1] += dt - child
        if observe is not None:
            t1 = perf_counter()
            observe(_stats, result, args)
            if stack:
                # Observing is tracing cost: charge it to no layer's self time.
                stack[-1] += perf_counter() - t1
        return result

    return wrapper


class TaskCall:
    """Picklable stand-in for the `fn` given to map_chunks.

    Runs one item against a fresh Stats and stack and returns
    (result, (seconds, pid, packed stats)). In the parent (the inline path of
    map_chunks) the task's time is also charged to the enclosing span as
    child time, exactly as a nested span would be.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        global _stats, _stack
        saved_stats, saved_stack = _stats, _stack
        _stats, _stack = Stats(), []
        t0 = perf_counter()
        try:
            result = self.fn(item)
        finally:
            dt = perf_counter() - t0
            task_stats = _stats
            _stats, _stack = saved_stats, saved_stack
        pid = os.getpid()
        if pid == _parent_pid and _stack:
            _stack[-1] += dt
        return result, (dt, pid, task_stats.pack())


def _traced_map_chunks(original):
    timed = _span("parallel.map_chunks", original)

    def map_chunks(fn, items, workers=1):
        items = list(items)
        t0 = perf_counter()
        pairs = timed(TaskCall(fn), items, workers)
        dt = perf_counter() - t0
        pooled = False
        for _, (task_s, pid, packed) in pairs:
            _stats.merge(packed)
            _stats.count("parallel.worker_busy_s", task_s)
            pooled = pooled or pid != _parent_pid
        _stats.count("parallel.tasks", len(items))
        # Capacity the map had: its wall time times the processes doing work.
        _stats.count("parallel.capacity_s", dt * (workers if pooled else 1))
        if _stack:
            # Merging is tracing cost: charge it to no layer's self time.
            _stack[-1] += perf_counter() - t0 - dt
        return [result for result, _ in pairs]

    return functools.wraps(original)(map_chunks)


def _observe_preperiodic(st: Stats, result, args) -> None:
    if not result:
        st.count("canonical.wandering")


def _observe_cofactors(st: Stats, result, args) -> None:
    m = args[0]
    st.key("maps.cofactors.maps", (m.numerator.coeffs, m.denominator.coeffs))


def _observe_evaluate(st: Stats, result, args) -> None:
    st.peak("maps.peak_coord_bits", max(abs(result.a), abs(result.b)).bit_length())


def _observe_scan(st: Stats, result, args) -> None:
    st.count("orbits." + result.truncation.value)


def _observe_enumerate(st: Stats, result, args) -> None:
    st.count("points.enumerated", len(result))


OBSERVERS = {
    "canonical.is_preperiodic": _observe_preperiodic,
    "maps.cofactors": _observe_cofactors,
    "maps.evaluate": _observe_evaluate,
    "orbits.scan_orbit": _observe_scan,
    "points.enumerate_points": _observe_enumerate,
}


def _dynctl_modules(package):
    for info in pkgutil.iter_modules(package.__path__):
        yield importlib.import_module(f"{package.__name__}.{info.name}")


def install() -> None:
    """Wrap the functions and rebind every binding of each original."""
    import dynctl

    modules = list(_dynctl_modules(dynctl))
    wrappers = {}  # id(original) -> wrapper
    for mod in modules:
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name == "parallel.map_chunks":
                wrappers[id(obj)] = _traced_map_chunks(obj)
            else:
                wrappers[id(obj)] = _span(name, obj, OBSERVERS.get(name))
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                obj = cls.__dict__[meth]
                wrappers[id(obj)] = _span(f"{layer}.{cls_name}.{meth}", obj)
    for mod in modules:
        targets = [mod] + [c for c in vars(mod).values()
                           if inspect.isclass(c) and c.__module__ == mod.__name__]
        for target in targets:
            for attr, obj in list(vars(target).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(target, attr, wrapper)


def layer_calls(st: Stats) -> dict[str, int]:
    calls = dict.fromkeys(LAYERS, 0)
    for name, (n, _) in st.spans.items():
        layer = name.partition(".")[0]
        calls[layer] = calls.get(layer, 0) + n
    return calls


def per_layer_metrics(st: Stats) -> dict[str, float]:
    """The per-layer metric values, by BENCHMARK.json name."""

    def calls(name):
        return st.spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.spans.get(name, (0, 0.0))[1]

    def layer_self_s(layer):
        return sum(s for name, (_, s) in st.spans.items() if name.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, span in (
        ("canonical.is_preperiodic", "canonical.is_preperiodic"),
        ("maps.cofactors", "maps.cofactors"),
        ("polynomials.solve_exact", "polynomials.solve_exact"),
        ("maps.evaluate", "maps.evaluate"),
        ("families.specialize", "families.specialize"),
        ("maps.make_map", "maps.make_map"),
        ("polynomials.resultant", "polynomials.resultant_from_coeffs"),
        ("orbits.scan", "orbits.scan_orbit"),
        ("funcfield.mul", "funcfield.FFPoly.__mul__"),
        ("funcfield.divmod", "funcfield.FFPoly.__divmod__"),
        ("funcfield.gcd", "funcfield.FFPoly.gcd"),
    ):
        out[metric + "_calls"] = calls(span)
        out[metric + "_s"] = self_s(span)
    out["canonical.wandering_frac"] = ratio(st.counts.get("canonical.wandering", 0),
                                            calls("canonical.is_preperiodic"))
    out["canonical.cofactor_solves_per_map"] = ratio(
        calls("maps.cofactors"), len(st.keys.get("maps.cofactors.maps", ())))
    out["maps.peak_coord_bits"] = st.peaks.get("maps.peak_coord_bits", 0)
    out["orbits.completed"] = st.counts.get("orbits.completed", 0)
    out["orbits.truncated_height_budget"] = st.counts.get("orbits.height_budget", 0)
    out["orbits.truncated_iteration_cap"] = st.counts.get("orbits.iteration_cap", 0)
    out["orbits.density_s"] = self_s("orbits.density_of_integral_preimages")
    out["points.enumerate_s"] = self_s("points.enumerate_points")
    out["points.enumerated"] = st.counts.get("points.enumerated", 0)
    busy = st.counts.get("parallel.worker_busy_s", 0.0)
    out["parallel.map_s"] = self_s("parallel.map_chunks")
    out["parallel.tasks"] = st.counts.get("parallel.tasks", 0)
    out["parallel.worker_busy_s"] = busy
    out["parallel.overhead_frac"] = (1.0 - ratio(busy, st.counts["parallel.capacity_s"])
                                     if st.counts.get("parallel.capacity_s") else 0.0)
    out["funcfield.evaluate_ff_s"] = self_s("funcfield.evaluate_ff")
    out["funcfield.scan_s"] = self_s("funcfield.ff_scan_orbit")
    out["funcfield.enumerate_s"] = self_s("funcfield.enumerate_ff_elements")
    out["parsing.parse_s"] = layer_self_s("parsing")
    out["reports.emit_s"] = layer_self_s("reports")
    out["cli.main_s"] = layer_self_s("cli")
    for layer, n in layer_calls(st).items():
        out[f"{layer}.calls"] = n
    return out
