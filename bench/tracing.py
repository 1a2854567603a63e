"""Span tracer for the benchmark's traced runs.

The tracer wraps every module-level binding of the public functions named
in ``TRACED``, so a call from any module of the ``transversals`` package
records a span: name, start, end, parent span and instance id.  Nothing in
the package itself changes; the wrappers are installed by rebinding module
attributes and the originals are restored on close.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Home module -> functions timed as that module's layer.  ``cli.main`` is the
# root span of every command, so each module's self time adds up to the
# traced wall time.
TRACED = {
    "exactla": (
        "standard_form_feasible",
        "lp_feasible",
        "strict_separation",
        "positive_functional",
        "rank",
        "solve_linear",
    ),
    "convex": ("common_point",),
    "transversal": ("check_colorful", "k_transversal", "verify_theorem"),
    "generators": (
        "gen_counterexample",
        "counterexample_from_points",
        "gen_colorful_random",
    ),
    "certificate": (
        "full_certificate",
        "assign_normals",
        "verify_claim",
        "build_chain_complex",
        "build_join",
        "origin_in_hull",
    ),
    "cli": ("main", "load_instance", "atomic_write"),
}

LAYERS = tuple(TRACED)

_NAME, _START, _END, _PARENT = range(4)


def _max_bits(solution) -> int:
    if solution is None:
        return 0
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in solution),
        default=0,
    )


def _count_standard_form(counters, args, result):
    rows = args[0]
    if rows:
        counters["exactla.standard_form_feasible.cells"] += len(rows) * len(rows[0])
    counters["exactla.standard_form_feasible.infeasible"] += result is None
    key = "exactla.standard_form_feasible.max_bits"
    counters[key] = max(counters[key], _max_bits(result))


def _count_atomic_write(counters, args, result):
    counters["cli.atomic_write.bytes"] += len(args[1].encode("utf-8"))


def _count_verify_claim(counters, args, result):
    counters["certificate.simplices"] += sum(
        1 for check in result.checks if check.name == "claim-simplex"
    )


# Counts recorded at a span's boundary, from its arguments and result.
_COUNTERS = {
    "exactla.standard_form_feasible": _count_standard_form,
    "cli.atomic_write": _count_atomic_write,
    "certificate.verify_claim": _count_verify_claim,
}


class Tracer:
    """Records spans while ``active`` is true; a no-op pass-through otherwise.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding.
    """

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index or -1, instance id]
        self.counters = Counter()
        self.active = False
        self.instance = 0
        self._stack = []
        self._restore = []

    def __enter__(self) -> "Tracer":
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "transversals" or name.startswith("transversals.")
        ]
        for home, names in TRACED.items():
            home_module = sys.modules[f"transversals.{home}"]
            for fname in names:
                original = getattr(home_module, fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()
        self.active = False

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.instance]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, instance."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def summary(self):
        """Per-function calls, inclusive and self seconds; per-layer self
        seconds; and the count of standard-form solves made inside a
        ``k_transversal`` call.

        A span's self time is its duration minus the durations of its
        direct children; calls are sequential, so children never overlap.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        calls = Counter()
        inclusive = Counter()
        self_time = Counter()
        layer_self = Counter()
        in_k_transversal = [False] * len(spans)
        lp_in_k_transversal = 0
        for i, span in enumerate(spans):
            name = span[_NAME]
            duration = span[_END] - span[_START]
            calls[name] += 1
            inclusive[name] += duration
            own = duration - child_time[i]
            self_time[name] += own
            layer_self[name.split(".", 1)[0]] += own
            parent = span[_PARENT]
            if parent >= 0:
                in_k_transversal[i] = in_k_transversal[parent] or (
                    spans[parent][_NAME] == "transversal.k_transversal"
                )
            if in_k_transversal[i] and name == "exactla.standard_form_feasible":
                lp_in_k_transversal += 1
        return {
            "calls": calls,
            "inclusive": inclusive,
            "self": self_time,
            "layer_self": layer_self,
            "lp_in_k_transversal": lp_in_k_transversal,
        }
