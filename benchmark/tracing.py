"""Span tracing of arithdyn from outside the package.

`install` wraps every public function of each layer module (the names in
its `__all__`, or its public functions when it has none) and every public
method of its public classes, then rebinds each wrapped name wherever a
module of the package imported it, so calls between layers are seen too.
Each call records one span (name, start, end, parent) in flat arrays kept in
memory; `Tracer.save` writes them out once the run is over.

A few spans also feed per-call observers that read the arguments or the
result (distinct `factorize` arguments, sampled points per degree, empty
intersections), so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from time import process_time
from typing import Callable, Dict, List

import numpy as np

LAYERS = (
    "rationals",
    "polynomials",
    "nonarchimedean",
    "archimedean",
    "heights",
    "preperiodic",
    "survey",
    "cli",
)


class Tracer:
    def __init__(self, observers: Dict[str, Callable] = None):
        self.names: List[str] = []
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.observers = observers or {}
        self.observed: Dict[str, dict] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        observer = self.observers.get(name)
        stats = self.observed.setdefault(name, {}) if observer else None
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(process_time())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = process_time()
                stack.pop()
            if observer is not None:
                observer(stats, args, kwargs, result, end[idx] - start[idx])
            return result

        return traced

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its direct children."""
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        par = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        return dur - child

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        self_t = self.self_times()
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=self_t, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )


def _public(mod) -> List[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [k for k, v in vars(mod).items() if not k.startswith("_") and inspect.isfunction(v)]
    return names


def install(tracer: Tracer, package: str = "arithdyn") -> None:
    """Wrap the public callables of every layer module of `package`."""
    pkg = importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, mod in modules.items():
        for attr in _public(mod):
            obj = getattr(mod, attr)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for mname, raw in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{layer}.{attr}.{mname}"
                    if isinstance(raw, classmethod):
                        setattr(obj, mname, classmethod(tracer.wrap(name, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        setattr(obj, mname, staticmethod(tracer.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, mname, tracer.wrap(name, raw))
    for mod in [pkg, *modules.values()]:
        for k, v in list(vars(mod).items()):
            if id(v) in replaced:
                setattr(mod, k, replaced[id(v)])


# --- observers and the per-layer metrics ------------------------------------


def _distinct_first_arg(stats, args, kwargs, result, dt):
    stats.setdefault("args", set()).add(args[0] if args else next(iter(kwargs.values())))


def _sampled_points(stats, args, kwargs, result, dt):
    d = result.poly.d
    stats[("points", d)] = stats.get(("points", d), 0) + result.points.shape[0]
    stats[("s", d)] = stats.get(("s", d), 0.0) + dt


def _green_points(stats, args, kwargs, result, dt):
    stats["points"] = stats.get("points", 0) + result.shape[0]
    stats["s"] = stats.get("s", 0.0) + dt


def _empty_certificates(stats, args, kwargs, result, dt):
    stats["empty"] = stats.get("empty", 0) + (not result.points)


OBSERVERS = {
    "rationals.factorize": _distinct_first_arg,
    "archimedean.equilibrium_sample": _sampled_points,
    "archimedean.green_arch_many": _green_points,
    "preperiodic.prep_intersect": _empty_certificates,
}

# (metric name, unit, better); "<span>.<stat>" or "<layer>.self_s".
PER_LAYER = (
    ("rationals.factorize.calls", "count", "lower"),
    ("rationals.factorize.distinct_ratio", "ratio", "higher"),
    ("rationals.LogValue.from_rational.calls", "count", "lower"),
    ("rationals.self_s", "s", "lower"),
    ("polynomials.MonicPoly.denominator_primes.calls", "count", "lower"),
    ("polynomials.local_profile.calls", "count", "lower"),
    ("polynomials.local_profile.s", "s", "lower"),
    ("polynomials.self_s", "s", "lower"),
    ("nonarchimedean.julia_shells.calls", "count", "lower"),
    ("nonarchimedean.self_s", "s", "lower"),
    ("survey.classify_case.ms_per_call", "ms", "lower"),
    ("survey.self_s", "s", "lower"),
    ("heights.pairing_bounds.ms_per_call", "ms", "lower"),
    ("heights.self_s", "s", "lower"),
    ("preperiodic.prep_intersect.calls", "count", "lower"),
    ("preperiodic.prep_intersect.ms_per_call", "ms", "lower"),
    ("preperiodic.prep_intersect.empty_ratio", "ratio", "lower"),
    ("preperiodic.preperiodic_complex.s", "s", "lower"),
    ("preperiodic.self_s", "s", "lower"),
    ("preperiodic.is_rational_preperiodic.calls", "count", "lower"),
    ("heights.canonical_height_alg.calls", "count", "lower"),
    ("heights.canonical_height_alg.s", "s", "lower"),
    ("archimedean.equilibrium_sample.points_per_s.d2", "points/s", "higher"),
    ("archimedean.equilibrium_sample.points_per_s.d3", "points/s", "higher"),
    ("archimedean.equilibrium_sample.points_per_s.d4", "points/s", "higher"),
    ("archimedean.equilibrium_sample.points_per_s.d5", "points/s", "higher"),
    ("archimedean.green_arch_many.points_per_s", "points/s", "higher"),
    ("archimedean.self_s", "s", "lower"),
    ("heights.global_pairing.ms_per_call", "ms", "lower"),
)


def layer_metrics(tracer: Tracer) -> Dict[str, dict]:
    """Every PER_LAYER metric; a span never entered reads 0."""
    summ = tracer.summary()
    obs = tracer.observed
    layer_self: Dict[str, float] = {}
    for name, s in summ.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s["self_s"]

    def span(name):
        return summ.get(name, {"calls": 0, "s": 0.0})

    def rate(num, den):
        return num / den if den else 0.0

    out = {}
    for metric, unit, _ in PER_LAYER:
        head, stat = metric.rsplit(".", 1)
        if stat == "self_s":
            value = layer_self.get(head, 0.0)
        elif stat in ("calls", "s"):
            value = span(head)[stat]
        elif stat == "ms_per_call":
            value = 1e3 * rate(span(head)["s"], span(head)["calls"])
        elif stat == "distinct_ratio":
            value = rate(len(obs.get(head, {}).get("args", ())), span(head)["calls"])
        elif stat == "empty_ratio":
            value = rate(obs.get(head, {}).get("empty", 0), span(head)["calls"])
        elif stat == "points_per_s":
            st = obs.get(head, {})
            value = rate(st.get("points", 0), st.get("s", 0.0))
        else:  # <span>.points_per_s.d<k>
            st = obs.get(head.rsplit(".", 1)[0], {})
            d = int(stat[1:])
            value = rate(st.get(("points", d), 0), st.get(("s", d), 0.0))
        out[metric] = {"value": value, "unit": unit}
    return out
