"""Outside-in tracing of the zpfspin layers.

The tracer replaces selected public functions of each layer with wrappers
that record a span (name, start, end, parent, run) per call. It patches
every module attribute bound to the original function, so a call is traced
under whichever name its caller looks up (`zpfspin.cli.trk_sum_rule`,
`zpfspin.spectral.circular_components`, ...). Nothing in the package is
edited; `uninstall` puts the originals back.

phase_algebra gets counters only: a span per exponent or coefficient
operation would swamp the trace.

Run `python3 perfbench/spans.py` to check the span arithmetic on a
hand-built tree.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# layer -> public functions traced with a span of their own
TRACED = {
    "oscillator": ("build_oscillator_table", "circular_components"),
    "spectral": ("trk_sum_rule", "lz_expectation", "polarized_momenta"),
    "modes": (
        "sample_zeta_ensemble",
        "sample_fields",
        "mode_observables",
        "make_mode",
        "sample_realization",
        "realization_totals",
        "analytic_mode_observables",
    ),
    "exchange": ("antisymmetrize", "derive_antisymmetry", "antiphase_feasible", "negate"),
    "internal_rotation": ("dichotomy_solve", "apply_spin_z"),
}


def _argument(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


# span name -> counter added per call, from the call's arguments and result
_WORK = {
    "oscillator.build_oscillator_table": lambda fn, a, k, r: {
        "oscillator.table_states": len(r.states)
    },
    "modes.sample_zeta_ensemble": lambda fn, a, k, r: {"modes.ensemble_rows": len(r[1])},
    "modes.sample_fields": lambda fn, a, k, r: {
        "modes.field_mode_points": len(_argument(fn, a, k, "real").modes) * (r[0].size // 3)
    },
    "modes.mode_observables": lambda fn, a, k, r: {
        "modes.quadrature_points": int(_argument(fn, a, k, "grid")) ** 3
    },
    "exchange.antisymmetrize": lambda fn, a, k, r: {
        "exchange.antisymmetrize.terms": math.factorial(len(_argument(fn, a, k, "labels")))
    },
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at the root
    run: int  # the CLI run the span belongs to


class Tracer:
    """Collects spans and counters in memory; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run)
            if work is not None:
                self.counts.update(work(fn, args, kwargs, result))
            return result

        return traced

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every binding of the traced functions in the loaded package."""
        modules = [m for k, m in list(sys.modules.items()) if k == "zpfspin" or k.startswith("zpfspin.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"zpfspin.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patch(module, name, wrapper)
        algebra = sys.modules["zpfspin.phase_algebra"]
        self._patch(algebra.PhaseExpression, "__init__",
                    self._count("phase_algebra.phase_exprs", algebra.PhaseExpression.__init__))
        self._patch(algebra.Coefficient, "__add__",
                    self._count("phase_algebra.coefficient_adds", algebra.Coefficient.__add__))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def take(self):
        """Return (spans, counts) gathered so far and start afresh."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlaps between
    children are counted once. Grandchildren are covered by their own parent.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(spans[index])
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[index], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def aggregate(spans: list) -> dict:
    """`<name>.s`, `<name>.self_s` and `<name>.calls` for every span name."""
    out: dict = {}
    for span, own in zip(spans, self_times(spans)):
        for key, value in (("s", span.end - span.start), ("self_s", own), ("calls", 1)):
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
    return out


def check_span_arithmetic():
    """Self times and totals on a hand-built tree, against values worked by hand."""
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: [1, 5] is covered once
        Span("c", 6.0, 7.0, 0, 0),
        Span("a", 6.25, 6.5, 3, 0),  # grandchild of root
        Span("d", 9.0, 11.0, 0, 0),  # runs past root: only [9, 10] counts
        Span("root", 20.0, 21.0, -1, 1),
    ]
    want_self = [10.0 - 4.0 - 1.0 - 1.0, 2.0, 3.0, 0.75, 0.25, 2.0, 1.0]
    got_self = self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got_self, want_self)):
        raise AssertionError(f"self times {got_self}, expected {want_self}")
    totals = aggregate(spans)
    want = {
        "root.s": 11.0, "root.self_s": 5.0, "root.calls": 2,
        "a.s": 2.25, "a.self_s": 2.25, "a.calls": 2,
        "c.s": 1.0, "c.self_s": 0.75,
    }
    for key, value in want.items():
        if abs(totals[key] - value) > 1e-12:
            raise AssertionError(f"{key} = {totals[key]}, expected {value}")


if __name__ == "__main__":
    check_span_arithmetic()
    print("span arithmetic: ok")
