"""Per-layer tracing from outside the package.

`Tracer.install()` replaces the package's public functions with wrappers on
every module attribute that holds them, because `harness`, `cli` and
`probes` import them by name.  Coarse calls (check, scan, classify, parse)
are recorded as spans with a parent; hot calls (products, probes) only
update counts and total times.  Both kinds take part in self-time
accounting: a frame's self time is its duration minus the time of the
frames opened inside it, credited to the frame's layer.  Everything stays
in memory until `report()` and `dump()` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("rings", "maps", "extension", "probes", "graded", "harness", "defio", "cli")


def _ring_cached(key):
    return lambda args, kwargs: key in args[0]._radical_cache


def _ni_cached(args, kwargs):
    scan = kwargs.get("scan", args[5] if len(args) > 5 else None)
    return scan is not None and scan.ni_result is not None


# (module, attribute, metric key, span?, skip(args, kwargs) -> True to run untraced)
# Calls answered from the program's own caches are skipped, so that times and
# counts describe work done.
TARGETS = [
    ("skewpbw.cli", "main", "cli", True, None),
    ("skewpbw.defio", "parse_definition", "defio.parse", True, None),
    ("skewpbw.harness", "run_check", "harness.check", True, None),
    ("skewpbw.rings", "classify_ring", "rings.classify", True, lambda a, k: a[0]._profile is not None),
    ("skewpbw.rings", "FiniteRing._require_tables", "rings.tables", True, lambda a, k: a[0]._mul_table is not None),
    ("skewpbw.rings", "jacobson_radical", "rings.jacobson", True, _ring_cached("J")),
    ("skewpbw.rings", "prime_radical", "rings.prime_radical", True, _ring_cached("Nstar_lower")),
    ("skewpbw.rings", "upper_nilradical", "rings.upper_nilradical", True, _ring_cached("Nstar_upper")),
    ("skewpbw.rings", "levitzki_radical", "rings.levitzki", True, _ring_cached("L")),
    ("skewpbw.maps", "is_sigma_compatible", "maps.predicates", True, None),
    ("skewpbw.maps", "is_delta_compatible", "maps.predicates", True, None),
    ("skewpbw.maps", "is_weak_sigma_compatible", "maps.predicates", True, None),
    ("skewpbw.maps", "is_weak_delta_compatible", "maps.predicates", True, None),
    ("skewpbw.maps", "is_sigma_rigid", "maps.predicates", True, None),
    ("skewpbw.maps", "is_sigma_rigid_subset", "maps.predicates", True, None),
    ("skewpbw.maps", "invariance", "maps.predicates", True, None),
    ("skewpbw.extension", "verify_presentation", "extension.verify", True, None),
    ("skewpbw.extension", "SkewPolynomial.__mul__", "extension.mul", False, None),
    ("skewpbw.probes", "enumerate_bounded_polys", "probes.enumerate", True, None),
    ("skewpbw.probes", "BoundedScan.__init__", "probes.scan", True, None),
    ("skewpbw.probes", "bounded_NI_check", "probes.closure", True, _ni_cached),
    ("skewpbw.probes", "bounded_skew_armendariz", "probes.armendariz", True, None),
    ("skewpbw.probes", "nilpotency_probe", "probes.probe", False, None),
    ("skewpbw.probes", "quasi_regularity_witness", "probes.qr", False, None),
    ("skewpbw.graded", "is_graded_extension", "graded", True, None),
    ("skewpbw.graded", "is_connected", "graded", True, None),
    ("skewpbw.graded", "homogeneous_components", "graded", False, None),
    ("skewpbw.graded", "polynomial_is_homogeneous", "graded", False, None),
]


# keys whose results feed counters in Tracer._after
AFTER_KEYS = {"probes.probe", "probes.enumerate", "probes.closure", "extension.verify"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span index or None]
        self.calls: dict = defaultdict(int)  # metric key -> calls
        self.total_s: dict = defaultdict(float)  # metric key -> time of outermost calls
        self.self_s: dict = defaultdict(float)  # layer -> self time
        self.counts: dict = defaultdict(int)  # derived counters
        self.rounds = 0
        self.cache_entries = {"push": 0, "mono": 0}
        self._stack: list = []  # open frames: [layer, key, start, child time, span index]
        self._depth: dict = defaultdict(int)
        self._presentations: dict = {}
        self._installed: list = []

    # -- frames ---------------------------------------------------------------

    def _open(self, key: str, name: str, span: bool) -> None:
        start = time.perf_counter()
        idx = None
        if span:
            parent = next((f[4] for f in reversed(self._stack) if f[4] is not None), None)
            idx = len(self.spans)
            self.spans.append([name, start, None, parent])
        self._stack.append([key.split(".")[0], key, start, 0.0, idx])
        self._depth[key] += 1

    def _close(self) -> None:
        end = time.perf_counter()
        layer, key, start, child, idx = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        self._depth[key] -= 1
        if not self._depth[key]:
            self.total_s[key] += duration
        self.calls[key] += 1
        if idx is not None:
            self.spans[idx][2] = end

    def _after(self, key: str, result) -> None:
        if key == "probes.probe":
            self.counts[f"probes.{result.status}"] += 1
        elif key == "probes.enumerate":
            self.counts["probes.polys_enumerated"] += len(result)
        elif key == "probes.closure":
            self.counts["probes.closure_checks"] += result.stats.get("closure_checks", 0)
        elif key == "extension.verify":
            self._presentations[id(result)] = result

    def _wrap(self, fn, key: str, name: str, span: bool, skip):
        tracer = self
        needs_after = key in AFTER_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args, kwargs):
                return fn(*args, **kwargs)
            tracer._open(key, name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if needs_after:
                tracer._after(key, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "skewpbw" or n.startswith("skewpbw.")]
        for modname, attr, key, span, skip in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, key, attr, span, skip))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, key, attr, span, skip)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._installed):
            setattr(owner, name, orig)
        self._installed.clear()

    def end_round(self) -> None:
        """Read the rewriting caches of the presentations verified in this round."""
        for A in self._presentations.values():
            self.cache_entries["push"] += len(A._push_cache)
            self.cache_entries["mono"] += len(A._mono_cache)
        self._presentations.clear()
        self.rounds += 1

    # -- results --------------------------------------------------------------

    def report(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-round per-layer metrics: (value, unit) by metric name."""
        n = max(1, self.rounds)
        t = {k: v / n for k, v in self.total_s.items()}
        c = {k: v / n for k, v in self.calls.items()}
        k = {key: v / n for key, v in self.counts.items()}

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        products, mul_s = c.get("extension.mul", 0), t.get("extension.mul", 0.0)
        probes, probe_s = c.get("probes.probe", 0), t.get("probes.probe", 0.0)
        checks, closure_s = k.get("probes.closure_checks", 0), t.get("probes.closure", 0.0)
        out = {
            "rings.classify_s": (t.get("rings.classify", 0.0), "s"),
            "rings.tables_s": (t.get("rings.tables", 0.0), "s"),
            "rings.prime_radical_s": (t.get("rings.prime_radical", 0.0), "s"),
            "rings.jacobson_s": (t.get("rings.jacobson", 0.0), "s"),
            "rings.upper_nilradical_s": (t.get("rings.upper_nilradical", 0.0), "s"),
            "rings.levitzki_s": (t.get("rings.levitzki", 0.0), "s"),
            "rings.rings_classified": (c.get("rings.classify", 0), "count"),
            "maps.predicates_s": (t.get("maps.predicates", 0.0), "s"),
            "maps.predicate_calls": (c.get("maps.predicates", 0), "count"),
            "extension.verify_s": (t.get("extension.verify", 0.0), "s"),
            "extension.products": (products, "count"),
            "extension.mul_s": (mul_s, "s"),
            "extension.products_per_s": (rate(products, mul_s), "1/s"),
            "extension.push_cache_entries": (self.cache_entries["push"] / n, "count"),
            "extension.mono_cache_entries": (self.cache_entries["mono"] / n, "count"),
            "probes.enumerate_s": (t.get("probes.enumerate", 0.0), "s"),
            "probes.polys_enumerated": (k.get("probes.polys_enumerated", 0), "count"),
            "probes.probes": (probes, "count"),
            "probes.probe_s": (probe_s, "s"),
            "probes.probes_per_s": (rate(probes, probe_s), "1/s"),
            "probes.nilpotent": (k.get("probes.nilpotent", 0), "count"),
            "probes.not_nilpotent": (k.get("probes.not_nilpotent", 0), "count"),
            "probes.unknown": (k.get("probes.unknown", 0), "count"),
            "probes.scan_s": (t.get("probes.scan", 0.0), "s"),
            "probes.closure_s": (closure_s, "s"),
            "probes.closure_checks": (checks, "count"),
            "probes.closure_checks_per_s": (rate(checks, closure_s), "1/s"),
            "probes.armendariz_s": (t.get("probes.armendariz", 0.0), "s"),
            "probes.qr_calls": (c.get("probes.qr", 0), "count"),
            "probes.qr_s": (t.get("probes.qr", 0.0), "s"),
            "graded.s": (t.get("graded", 0.0), "s"),
            "harness.checks": (c.get("harness.check", 0), "count"),
            "harness.check_s": (t.get("harness.check", 0.0), "s"),
            "defio.parse_s": (t.get("defio.parse", 0.0), "s"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s.get(layer, 0.0) / n, "s")
        self_sum = sum(self.self_s.values()) / n
        out["trace.self_sum_s"] = (self_sum, "s")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
        out["trace.overhead_pct"] = (100.0 * (traced_wall_s / untraced_wall_s - 1.0), "%")
        return out

    def dump(self, path, metrics: dict) -> None:
        doc = {
            "rounds": self.rounds,
            "metrics": {name: value for name, (value, _) in metrics.items()},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
