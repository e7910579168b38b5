"""Per-layer tracing of baxlab from outside the library.

The modules bind each other's functions by name (``from .perm import
is_baxter``), so a wrapper replaces the name in every loaded baxlab module
that bound the original; otherwise calls made inside the library would go
untraced.  Each wrapped call appends one span (name, parent, start, end) to
flat arrays kept in memory until the run ends; self time is a span's
duration minus the durations of its direct child spans.  For a generator
function the call itself is a zero-length span and each ``next()`` is a
further span, so its self time is the time spent producing items.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

from workloads import SUITES

# The public functions wrapped per layer (module of baxlab -> names).
TRACED: dict[str, tuple[str, ...]] = {
    "perm": ("is_baxter", "stat_profile", "generate_baxter", "insertion_slots", "shape_flags", "inverse"),
    "paths": ("enumerate_tlp", "is_nonintersecting", "tlp_parameters", "encode_set", "decode_path"),
    "laguerre": ("psi_fv", "psi_fv_inverse", "validate", "enumerate_histories"),
    "bijections": (
        "gamma",
        "gamma_prime",
        "psi",
        "phi",
        "phi_inverse",
        "psi_inverse",
        "gamma_prime_inverse",
        "gamma_inverse",
    ),
    "qseries": (
        "q_binomial",
        "exact_div",
        "baxter_polynomial_rhs",
        "baxter_polynomial_lhs",
        "baxter_number",
        "tlp_count_formula",
    ),
    "jsonio": ("perm_to_obj", "perm_from_obj", "triple_to_obj", "triple_from_obj"),
    "harness": ("run_suite",),
    "cli": ("main",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
        units[f"{module}.self_s"] = "s"
    for suite in SUITES:
        units[f"harness.{suite}_s"] = "s"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics()`` after."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.is_call = array("b")
        self.suite_of: dict[int, str] = {}  # run_suite span -> suite name
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, orig):
        name_of, parent, start, end, is_call = (
            self.name_of, self.parent, self.start, self.end, self.is_call
        )
        stack, clock = self._stack, time.perf_counter

        def open_span(call: int) -> int:
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            is_call.append(call)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(orig):

            def resumed(it):
                while True:
                    i = open_span(0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    yield item

            def wrapper(*args, **kwargs):
                i = open_span(1)
                try:
                    it = orig(*args, **kwargs)
                finally:
                    close_span(i)
                return resumed(it)

        else:
            suite_of = self.suite_of if self.names[nid] == "harness.run_suite" else None

            def wrapper(*args, **kwargs):
                i = open_span(1)
                if suite_of is not None:
                    suite_of[i] = args[0] if args else kwargs.get("name")
                try:
                    return orig(*args, **kwargs)
                finally:
                    close_span(i)

        return wrapper

    def __enter__(self) -> "Tracer":
        for module in TRACED:
            importlib.import_module(f"baxlab.{module}")
        modules = [m for key, m in sys.modules.items() if key == "baxlab" or key.startswith("baxlab.")]
        for nid, full in enumerate(self.names):
            module, name = full.split(".")
            orig = getattr(sys.modules[f"baxlab.{module}"], name)
            wrapper = self._wrap(nid, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Calls and self time per function, per-layer rollups, and the
        duration of each verify suite; the caller adds the overhead."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(len(start)):
            d = end[i] - start[i]
            nid = name_of[i]
            calls[nid] += self.is_call[i]
            self_s[nid] += d
            p = parent[i]
            if p >= 0:
                self_s[name_of[p]] -= d
        out: dict[str, float] = {}
        layer: dict[str, float] = {}
        for nid, full in enumerate(self.names):
            out[f"{full}.calls"] = calls[nid]
            out[f"{full}.self_s"] = self_s[nid]
            module = full.split(".")[0]
            layer[module] = layer.get(module, 0.0) + self_s[nid]
        for module, value in layer.items():
            out[f"{module}.self_s"] = value
        for suite in SUITES:
            out[f"harness.{suite}_s"] = 0.0
        for i, suite in self.suite_of.items():
            out[f"harness.{suite}_s"] += end[i] - start[i]
        out["trace.spans"] = len(start)
        return out
