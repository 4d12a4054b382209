"""Spans and counters recorded around calls into the library's public functions.

A span is [name, start, end, parent index]; spans stay in memory and are
written out when the run ends.  A function is wrapped at every module that
binds it by name (``top_power`` lives in geometry, nef, invariants and the
package namespace), and ``Poly`` and ``HilbertFunction`` methods are wrapped on
the class.  ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

# (span name, defining module, function name, other modules binding it by name)
LIBRARY_SPANS = [
    ("invariants.report", "invariants", "report", ["catalog", ""]),
    ("invariants.s_invariant", "invariants", "s_invariant", [""]),
    ("invariants.vol_y", "invariants", "vol_y", [""]),
    ("nef.volume_profile", "nef", "volume_profile", ["invariants", ""]),
    ("nef.decompose", "nef", "decompose", [""]),
    ("geometry.top_power", "geometry", "top_power", ["nef", "invariants", ""]),
    ("refinement.a_m", "refinement", "a_m", [""]),
    ("refinement.basis_profile", "refinement", "basis_profile", [""]),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int | None = None) -> int:
        """Record a finished span measured elsewhere; by default under the open span."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            record = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(record)
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install_library(self, package) -> None:
        """Wrap the library's public functions and the Poly / Hilbert methods."""
        modules = {"": package}
        for name in ("exactmath", "geometry", "nef", "invariants", "refinement", "catalog"):
            modules[name] = getattr(package, name)
        for span, home, func, others in LIBRARY_SPANS:
            original = getattr(modules[home], func)
            wrapper = self.counted(span + "_calls", self.timed(span, original))
            for where in [home, *others]:
                self._patch(modules[where], func, wrapper)
        poly = modules["exactmath"].Poly
        mul = self.counted("exactmath.poly_mul", poly.__mul__)
        self._patch(poly, "__mul__", mul)
        self._patch(poly, "__rmul__", mul)
        self._patch(poly, "__pow__", self.counted("exactmath.poly_pow", poly.__pow__))
        self._patch(poly, "__init__", self.counted("exactmath.poly_new", poly.__init__))
        self._patch(poly, "integrate", self.timed("exactmath.integrate", poly.integrate))
        hilbert = modules["refinement"].HilbertFunction
        self._patch(hilbert, "__call__", self.counted("refinement.hilbert", hilbert.__call__))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> Counter:
        """Total self time in ms per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * 1000.0
        return totals

    def total_ms(self) -> Counter:
        totals: Counter = Counter()
        for name, start, end, _ in self.spans:
            totals[name] += (end - start) * 1000.0
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, handle)
