"""Span tracing for the benchmark's traced runs.

The tracer wraps public library functions at runtime, in every
namespace that binds them: module globals (``cable`` imports
``cable_interval`` by name, ``oracle`` imports ``decide``) and class
attributes (``SlopeSet.__or__`` is an alias of ``SlopeSet.union``).
Each call records one span (name, parent, start, end).  Spans stay in
memory as flat arrays and are written out when the round ends.

A target that no longer exists in the library, for instance because it
was merged into another function, is skipped: its metrics are then
absent from the traced output instead of crashing the run.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array

# (span name, module, attribute path).  SlopeSet methods and the set
# images share one layer metric, exact.set_algebra.
TARGETS = (
    ("exact.SlopeSet.union", "cableslopes.exact", "SlopeSet.union"),
    ("exact.SlopeSet.intersect", "cableslopes.exact", "SlopeSet.intersect"),
    ("exact.SlopeSet.complement", "cableslopes.exact", "SlopeSet.complement"),
    ("exact.mobius_set_image", "cableslopes.exact", "mobius_set_image"),
    ("exact.parse_slope_set", "cableslopes.exact", "parse_slope_set"),
    ("seifert.normalize", "cableslopes.seifert", "normalize"),
    ("seifert.reduce_integral", "cableslopes.seifert", "reduce_integral"),
    ("jn.decide", "cableslopes.jn", "decide"),
    ("jn.witness_search", "cableslopes.jn", "witness_search"),
    ("intervals.extremal_slot_value", "cableslopes.intervals",
     "extremal_slot_value"),
    ("intervals.cable_interval", "cableslopes.intervals", "cable_interval"),
    ("cable.cable_detected_set", "cableslopes.cable", "cable_detected_set"),
    ("oracle.grid_scan_interval", "cableslopes.oracle", "grid_scan_interval"),
)

SET_ALGEBRA = ("exact.SlopeSet.union", "exact.SlopeSet.intersect",
               "exact.SlopeSet.complement", "exact.mobius_set_image",
               "exact.parse_slope_set")

# p50 of cable_interval latency by the denominator D of tau
D_BANDS = ((1, 16), (17, 40), (41, 80), (81, 160))


def _tau_denominator(args, kwargs):
    tau = kwargs["tau"] if "tau" in kwargs else args[2]
    return getattr(tau, "den", 1)


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_tag = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.points_tested = 0
        self.mismatches = 0
        self._stack = [-1]
        self.installed = []
        self.cache = None
        self._cache_base = None

    def reset(self):
        """Drop what was recorded so far; the timed phase starts now."""
        for arr in (self.span_name, self.span_parent, self.span_tag,
                    self.span_start, self.span_end):
            del arr[:]
        self.points_tested = 0
        self.mismatches = 0
        self.cache = None
        self._cache_base = cache_counts()

    def finish(self):
        """Record the decision cache's activity since reset()."""
        now = cache_counts()
        if now is not None:
            base = self._cache_base
            self.cache = {"hits": now["hits"] - base["hits"],
                          "misses": now["misses"] - base["misses"],
                          "entries": now["entries"]}

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, tags = self.span_name, self.span_parent, self.span_tag
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tag_of = _tau_denominator if name == "intervals.cable_interval" else None
        count_points = name == "oracle.grid_scan_interval"
        tracer = self

        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            tags.append(tag_of(args, kwargs) if tag_of else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_points:
                tracer.points_tested += result.tested_points
                tracer.mismatches += len(result.mismatches)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every target in every cableslopes namespace binding it."""
        import cableslopes  # noqa: F401  (loads every submodule)
        namespaces = []
        for modname, mod in list(sys.modules.items()):
            if modname == "cableslopes" or modname.startswith("cableslopes."):
                namespaces.append(mod)
                namespaces.extend(obj for obj in vars(mod).values()
                                  if inspect.isclass(obj)
                                  and obj.__module__ == mod.__name__)
        for name, modname, path in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                continue
            wrapped = self._wrapper(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
            self.installed.append(name)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON: parallel lists indexed by span.

        ``name`` indexes ``names``; ``parent`` is a span index or -1;
        ``tag`` is the denominator of tau for cable_interval, else -1;
        ``start`` and ``end`` are perf_counter seconds.
        """
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "tag": self.span_tag.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)

    # -- summary ----------------------------------------------------------

    def stats(self, wall):
        """Additive totals of the spans recorded over ``wall`` seconds.

        A span's self time is its duration minus the durations of its
        direct children (single-threaded, so children never overlap).
        Self times plus the time outside every root span must add up to
        the wall time; the second value returned says whether they do.
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = list(dur)
        root_total = 0.0
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= dur[i]
            else:
                root_total += dur[i]
        calls = {name: 0 for name in self.installed}
        self_s = {name: 0.0 for name in self.installed}
        incl_s = {name: 0.0 for name in self.installed}
        bands = {band_name(b): [] for b in D_BANDS}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self_time[i]
            incl_s[name] += dur[i]
            if name == "intervals.cable_interval":
                for lo, hi in D_BANDS:
                    if lo <= self.span_tag[i] <= hi:
                        bands[band_name((lo, hi))].append(dur[i])
        unspanned = wall - root_total
        ok = (unspanned >= 0.0 and abs(sum(self_s.values()) + unspanned - wall)
              <= 1e-6 * (1 + wall))
        return {"calls": calls, "self_s": self_s, "incl_s": incl_s,
                "bands": bands, "points_tested": self.points_tested,
                "mismatches": self.mismatches, "cache": self.cache,
                "wall": wall, "unspanned": unspanned}, ok


def band_name(band):
    return "D%03d-%03d" % band


def merge_stats(parts):
    """Sum the stats of several rounds (different chunks of one run)."""
    out = {"calls": {}, "self_s": {}, "incl_s": {},
           "bands": {band_name(b): [] for b in D_BANDS},
           "points_tested": 0, "mismatches": 0, "cache": None,
           "wall": 0.0, "unspanned": 0.0}
    for part in parts:
        for key in ("calls", "self_s", "incl_s"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for band, xs in part["bands"].items():
            out["bands"][band].extend(xs)
        for key in ("points_tested", "mismatches", "wall", "unspanned"):
            out[key] += part[key]
        if part["cache"] is not None:
            cache = out["cache"] or {"hits": 0, "misses": 0, "entries": 0}
            out["cache"] = {k: cache[k] + part["cache"][k] for k in cache}
    return out


def layer_metrics(stats):
    """The per-layer metrics; names of missing library functions are absent."""
    calls, self_s, incl_s = stats["calls"], stats["self_s"], stats["incl_s"]
    out = {}
    for name in ("intervals.extremal_slot_value", "intervals.cable_interval",
                 "jn.decide", "jn.witness_search", "seifert.normalize",
                 "cable.cable_detected_set"):
        if name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
    for name in ("seifert.reduce_integral", "oracle.grid_scan_interval"):
        if name in calls:
            out[name + ".self_s"] = self_s[name]
    if "intervals.cable_interval" in calls:
        for band, xs in stats["bands"].items():
            key = "intervals.cable_interval.p50_ms." + band
            out[key] = statistics.median(xs) * 1000 if xs else 0.0
    if "oracle.grid_scan_interval" in calls:
        busy = incl_s["oracle.grid_scan_interval"]
        out["oracle.points_tested"] = stats["points_tested"]
        out["oracle.points_per_s"] = (stats["points_tested"] / busy
                                      if busy > 0 else 0.0)
        out["oracle.mismatches"] = stats["mismatches"]
    algebra = [name for name in SET_ALGEBRA if name in calls]
    if algebra:
        out["exact.set_algebra.calls"] = sum(calls[x] for x in algebra)
        out["exact.set_algebra.self_s"] = sum(self_s[x] for x in algebra)
    cache = stats["cache"]
    if cache is not None:
        lookups = cache["hits"] + cache["misses"]
        out["jn.cache.hits"] = cache["hits"]
        out["jn.cache.misses"] = cache["misses"]
        out["jn.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        out["jn.cache.entries"] = cache["entries"]
    out["trace.wall_s"] = stats["wall"]
    out["trace.unspanned_s"] = stats["unspanned"]
    return out


def cache_counts():
    """Counters of the module-level decision cache, when it exists."""
    jn = sys.modules.get("cableslopes.jn")
    info = getattr(getattr(jn, "_decide", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
