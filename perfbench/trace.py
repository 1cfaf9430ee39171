"""Per-layer tracing of biham3 from outside the program.

Each layer is one biham3 module.  The tracer wraps that module's public
functions (and a few methods) in place, at every biham3 module that
imported them, so a call through any site enters the same span.  A span
is a call into a wrapped function; a call made directly inside a span of
the same name is not a new span (recursion, or ``triple`` calling
``dot``).  Spans of different names nest, also within one layer:
``determine_orientation`` runs as ``verify.orientation`` inside
``verify.structure``.  A span's self time is its duration minus the
time of the spans it caused.

Functions returned by ``compile_fn`` and ``compile_vector`` are
attributed to the layer that compiled them: inside the integrator they
are part of ``integrate.rhs`` and ``integrate.monitor``; everywhere else
each call is an ``expr.eval`` span.

Spans stay in memory and are written out when the run ends.  The
per-call leaf spans (``expr.eval``, ``integrate.rhs``,
``integrate.monitor``, ``sampling``) are only counted and timed, not
recorded one by one: a verify job makes about a million of them.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LEAF_SPANS = frozenset({"expr.eval", "integrate.rhs", "integrate.monitor", "sampling"})

_MODULES = ("expr", "vecfield", "poisson", "catalog", "sampling", "verify", "discover", "integrate", "cli")

# (module, function names, span name)
_FUNCTION_SPANS = (
    ("expr", ("parse",), "expr.parse"),
    ("expr", ("differentiate",), "expr.differentiate"),
    ("expr", ("expand",), "expr.expand"),
    ("expr", ("compile_fn", "compile_vector"), "expr.compile"),
    ("expr", ("evaluate",), "expr.eval"),
    ("expr", ("equal_numeric",), "expr.equal_numeric"),
    ("vecfield", "public", "vecfield.ops"),
    ("poisson", "public", "poisson.ops"),
    ("catalog", ("instantiate",), "catalog.instantiate"),
    ("sampling", ("random_polynomial",), "sampling"),
    ("verify", ("verify_structure",), "verify.structure"),
    ("verify", ("determine_orientation",), "verify.orientation"),
    ("verify", ("compare_printed",), "verify.compare_printed"),
    ("discover", ("build_basis",), "discover.basis"),
    (
        "discover",
        ("first_integral_search", "spatial_invariant_search", "multiplier_search"),
        "discover.search",
    ),
    ("discover", ("annotate",), "discover.annotate"),
    ("integrate", ("integrate", "ensemble"), "integrate"),
    ("cli", ("main",), "cli"),
    ("cli", ("_write",), "cli.report"),
)

# (module, class, method names, span name)
_METHOD_SPANS = (
    (
        "catalog",
        "SystemDef",
        ("bound_expr", "bound_scalar", "bound_field", "poisson_vectors", "nambu_structure"),
        "catalog.bind",
    ),
    ("sampling", "SeededSampler", ("point",), "sampling"),
    ("integrate", "Trajectory", ("to_csv",), "cli.report"),
    ("verify", "VerificationReport", ("to_json",), "cli.report"),
    ("discover", "DiscoveryResult", ("to_json",), "cli.report"),
)


def _node_count(e):
    n = 0
    todo = [e]
    while todo:
        node = todo.pop()
        n += 1
        todo.extend(node.children())
    return n


class Tracer:
    """Span and counter store plus the patches that feed it.

    ``install()`` puts the wrappers in place and ``uninstall()`` restores
    the original functions, so untraced and traced jobs can alternate in
    one process.
    """

    def __init__(self):
        self.stack = []  # frames: [span name, child seconds, record index]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.records = []  # (name, start, end, parent record, job)
        self.job = None
        self._patches = []
        self._planned = set()  # modules whose patches are in _patches

    # -- spans -------------------------------------------------------------
    def span(self, name, fn, after=None):
        """Wrap ``fn`` so that each call outside a span of the same name is
        a span called ``name``; ``after(result)`` updates counters."""
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        records = self.records
        leaf = name in LEAF_SPANS

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            t0 = perf_counter()
            if leaf:
                frame = [name, 0.0, None]
            else:
                frame = [name, 0.0, len(records)]
                records.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if not leaf:
                    records[frame[2]] = (
                        name,
                        t0,
                        t1,
                        parent[2] if parent is not None else None,
                        self.job,
                    )
            if after is not None:
                after(result)
            t2 = perf_counter()
            self_s[name] += (t1 - t0) - frame[1]
            calls[name] += 1
            if parent is not None:
                parent[1] += t2 - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _in_span(self, name):
        return any(frame[0] == name for frame in self.stack)

    # -- counters ----------------------------------------------------------
    def _after_expand(self, result):
        self.counts["expr.expand.out_nodes"] += _node_count(result)

    def _after_verify(self, report):
        self.counts["verify.checks"] += len(report.checks)

    def _after_search(self, result):
        self.counts["discover.candidates"] += len(result.candidates)

    def _after_integrate(self, result):
        trajs = result if isinstance(result, list) else [result]
        for traj in trajs:
            self.counts["integrate.steps_accepted"] += traj.accepted
            self.counts["integrate.steps_rejected"] += traj.rejected
            self.counts["integrate.samples"] += len(traj.times)

    def _after_report(self, text):
        if isinstance(text, str):
            self.counts["cli.report.bytes"] += len(text.encode())

    def _after_point(self, _):
        self.counts["sampling.points_drawn"] += 1

    def _compiled(self, fn):
        """Wrapper for compile_fn / compile_vector: the compiled function's
        calls become expr.eval spans unless the integrator compiled it."""

        def compile_traced(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._in_span("integrate"):
                return out
            return self.span("expr.eval", out)

        return compile_traced

    def _rhs_compiler(self, fn):
        def compile_traced(*args, **kwargs):
            return self.span("integrate.rhs", fn(*args, **kwargs))

        return compile_traced

    def _monitor_compiler(self, fn):
        def compile_traced(*args, **kwargs):
            return [(n, self.span("integrate.monitor", f)) for n, f in fn(*args, **kwargs)]

        return compile_traced

    # -- patching ----------------------------------------------------------
    def _after_for(self, span_name):
        return {
            "expr.expand": self._after_expand,
            "verify.structure": self._after_verify,
            "discover.search": self._after_search,
            "integrate": self._after_integrate,
            "cli.report": self._after_report,
        }.get(span_name)

    def _plan(self, mod_name, mod):
        """The patches for one biham3 module:
        (owner, attribute, original, wrapper, replace at every import site)."""
        plan = []
        for owner_name, names, span_name in _FUNCTION_SPANS:
            if owner_name != mod_name:
                continue
            if names == "public":
                names = [
                    n
                    for n, v in vars(mod).items()
                    if not n.startswith("_")
                    and callable(v)
                    and getattr(v, "__module__", None) == mod.__name__
                    and not isinstance(v, type)
                ]
            for n in names:
                fn = getattr(mod, n)
                if span_name == "expr.compile":
                    wrapped = self.span(span_name, self._compiled(fn))
                else:
                    wrapped = self.span(span_name, fn, self._after_for(span_name))
                plan.append((mod, n, fn, wrapped, True))
        for owner_name, cls_name, names, span_name in _METHOD_SPANS:
            if owner_name != mod_name:
                continue
            cls = getattr(mod, cls_name)
            after = self._after_point if cls_name == "SeededSampler" else self._after_for(span_name)
            for n in names:
                fn = vars(cls)[n]
                plan.append((cls, n, fn, self.span(span_name, fn, after), False))
        if mod_name == "integrate":
            plan.append((mod, "_compile_rhs", mod._compile_rhs, self._rhs_compiler(mod._compile_rhs), False))
            plan.append(
                (mod, "_compile_monitors", mod._compile_monitors,
                 self._monitor_compiler(mod._compile_monitors), False)
            )
        if mod_name == "discover":
            svd = self.span("discover.svd", mod.np.linalg.svd)
            plan.append((mod, "np", mod.np, _NumpyProxy(mod.np, svd), False))
        return plan

    def install(self):
        """Wrap every traced function of the biham3 modules loaded so far."""
        for mod_name in _MODULES:
            mod = sys.modules.get(f"biham3.{mod_name}")
            if mod is not None and mod_name not in self._planned:
                self._planned.add(mod_name)
                self._patches.extend(self._plan(mod_name, mod))
        for owner, attr, original, wrapper, scan in self._patches:
            self._swap(owner, attr, original, wrapper, scan)

    def uninstall(self):
        for owner, attr, original, wrapper, scan in self._patches:
            self._swap(owner, attr, wrapper, original, scan)

    @staticmethod
    def _swap(owner, attr, old, new, scan):
        if not scan:
            setattr(owner, attr, new)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "biham3" or mod_name.startswith("biham3.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, name, new)

    # -- results -----------------------------------------------------------
    def snapshot(self):
        """Totals so far, keyed by metric name."""
        out = {}
        for name, seconds in self.self_s.items():
            out[f"{name}.self_s"] = seconds
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        out.update(self.counts)
        return out

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def write(self, path, meta):
        """Write the recorded spans and the totals as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "job"],
            "spans": self.records,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _NumpyProxy:
    """Stands in for ``numpy`` inside ``biham3.discover`` so that its
    ``np.linalg.svd`` calls become ``discover.svd`` spans."""

    def __init__(self, numpy, svd):
        self.numpy = numpy
        self.linalg = _LinalgProxy(numpy.linalg, svd)

    def __getattr__(self, name):
        return getattr(self.numpy, name)


class _LinalgProxy:
    def __init__(self, linalg, svd):
        self._linalg = linalg
        self.svd = svd

    def __getattr__(self, name):
        return getattr(self._linalg, name)


def import_traced(tracer, src_dir):
    """Import biham3 with ``expr`` already wrapped, so that the catalog
    build that runs at import time parses through the traced ``parse``."""
    pkg_dir = os.path.join(src_dir, "biham3")
    spec = importlib.util.spec_from_file_location(
        "biham3", os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["biham3"] = pkg
    importlib.import_module("biham3.expr")
    tracer.install()
    spec.loader.exec_module(pkg)
    tracer.install()
    return pkg
