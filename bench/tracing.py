"""Per-module spans around calls into hybridfem, made from outside the library.

``install`` replaces each traced function by a wrapper under every name the
package's modules look it up by (``harness.assemble`` is the same function as
``methods.assemble`` and is replaced too), and methods of the mesh, basis
and local-field classes on their classes.  A wrapper opens a span, calls the
original and closes the span.  Spans nest: a span's self time is its
duration minus the durations of the spans opened inside it.

Spans stay in memory.  Per span name the tracer keeps the call count and the
total and self time; spans at depth below ``KEEP_DEPTH`` are also kept one by
one for the trace file.  ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Traced class methods, by module.  Everything in a module's ``__all__`` that
# is a plain function defined in that module is traced as well.
CLASS_METHODS = {
    "mesh": {"Mesh": ("__init__", "element_maps", "element_map")},
    "polyspaces": {
        "PolyFamily": ("eval", "grad"),
        "VectorBasis": ("eval", "div", "div_coeffs", "normal_trace"),
        "FaceBasis": ("eval_edge",),
    },
    "projections": {
        "LocalScalarField": ("__call__", "ref_values", "grad", "edge_values", "mean"),
        "LocalVectorField": ("__call__", "ref_values", "div", "normal_trace"),
        "ProjectionProblem": ("solve",),
    },
}
MODULES = ("mesh", "polyspaces", "piola", "projections", "methods", "postprocess", "harness", "cli")
KEEP_DEPTH = 3


class Tracer:
    def __init__(self):
        self.stack = []                  # open spans: [name, start, seconds in children]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []                  # (name, parent, depth, start, end)
        self.excluded_s = 0.0            # tracer bookkeeping kept out of self times
        self.lu_fill_nnz = 0

    def span(self, name, fn):
        """Wrap ``fn`` so that every call is a span called ``name``."""
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)

        return traced

    def _close(self, frame, end):
        name, start, children = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        depth = len(self.stack)
        if depth:
            self.stack[-1][2] += duration
        if depth < KEEP_DEPTH:
            parent = self.stack[-1][0] if depth else None
            self.spans.append((name, parent, depth, start, end))

    def exclude(self, seconds):
        """Count ``seconds`` spent inside the open span as a child, so that no
        self time includes them."""
        self.stack[-1][2] += seconds
        self.excluded_s += seconds

    def module_calls(self, module):
        return sum(n for name, n in self.calls.items() if name.startswith(module + "."))

    def module_self_s(self, module):
        return sum(s for name, s in self.self_s.items() if name.startswith(module + "."))

    def self_of(self, *names):
        return sum(self.self_s[name] for name in names)


class _FillCountingLinalg:
    """Stand-in for ``scipy.sparse.linalg`` inside ``hybridfem.methods``: the
    factorizations made by ``solve_hybridized`` report L.nnz + U.nnz."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, *args, **kwargs):
        lu = self._real.splu(*args, **kwargs)
        tracer = self._tracer
        if tracer.stack and tracer.stack[-1][0] == "methods.solve_hybridized":
            start = time.perf_counter()
            fill = lu.L.nnz + lu.U.nnz
            tracer.lu_fill_nnz = max(tracer.lu_fill_nnz, fill)
            tracer.exclude(time.perf_counter() - start)
        return lu


def _is_plain_function(obj, module):
    return callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module.__name__


def install(tracer, package):
    """Trace the package's public functions; return a function that undoes it."""
    wrappers = {}  # id(original) -> (original, wrapper)
    undo = []      # (owner, attribute, original value)
    prefix = package.__name__ + "."
    for short in MODULES:
        module = importlib.import_module(prefix + short)
        for attr in getattr(module, "__all__", ["main"]):
            obj = getattr(module, attr)
            if _is_plain_function(obj, module):
                wrappers[id(obj)] = (obj, tracer.span(f"{short}.{attr}", obj))
        for cls_name, names in CLASS_METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for attr in names:
                fn = cls.__dict__[attr]
                setattr(cls, attr, tracer.span(f"{short}.{cls_name}.{attr}", fn))
                undo.append((cls, attr, fn))
    for name, module in list(sys.modules.items()):
        if name != package.__name__ and not name.startswith(prefix):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, value))
    methods = sys.modules[prefix + "methods"]
    undo.append((methods, "spla", methods.spla))
    methods.spla = _FillCountingLinalg(methods.spla, tracer)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def layer_metrics(tracer):
    """The per-layer metrics of one traced round, by name."""
    t = tracer
    return {
        "mesh.build_s": t.self_of("mesh.Mesh.__init__", "mesh.unit_square", "mesh.uniform_refine",
                                  "mesh.load_mesh", "mesh.loads_mesh"),
        "mesh.element_maps_s": t.self_of("mesh.Mesh.element_maps", "mesh.Mesh.element_map",
                                         "mesh.build_reference_map"),
        "mesh.element_map_calls": t.calls["mesh.Mesh.element_map"] + t.calls["mesh.Mesh.element_maps"],
        "polyspaces.calls": t.module_calls("polyspaces"),
        "polyspaces.self_s": t.module_self_s("polyspaces"),
        "piola.self_s": t.module_self_s("piola"),
        "projections.calls": t.module_calls("projections"),
        "projections.self_s": t.module_self_s("projections"),
        "methods.assemble_s": t.self_of("methods.assemble"),
        "methods.condense_s": t.self_of("methods.condensed_system"),
        "methods.solve_s": t.self_of("methods.solve_hybridized"),
        "methods.lu_fill_nnz": t.lu_fill_nnz,
        "methods.saddle_s": t.self_of("methods.solve_saddle"),
        "methods.residual_s": t.self_of("methods.system_residual"),
        "methods.primal_s": t.self_of("methods.solve_primal", "methods.dirichlet_form"),
        "methods.diagnostics_s": t.self_of("methods.conservation_residuals", "methods.flux_jump_norms",
                                           "methods.energy_identity_residual"),
        "postprocess.stenberg_s": t.self_of("postprocess.stenberg"),
        "postprocess.gradient_s": t.self_of("postprocess.gradient_postprocess"),
        "harness.error_norms_s": t.self_of("harness.compute_error_norms"),
        "harness.study_self_s": t.self_of("harness.run_study", "harness.eoc", "harness.expected_orders"),
        "cli.self_s": t.self_of("cli.main"),
    }


LAYER_UNITS = {name: ("count" if name.endswith(("calls", "_nnz")) else "s")
               for name in layer_metrics(Tracer())}
