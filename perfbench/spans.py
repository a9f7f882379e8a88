"""Span tracing of spdflow's layers from outside the program.

`instrument(tracer)` swaps, for the duration of a `with` block, the names
each spdflow module imports from the layer below (and the methods of the
congruence and Siegel actions) for wrappers that record one span per call:
name, parent span, start and end.  The `*_model` constructors are wrapped so
that the ModelSpec they return carries wrapped callables.  No file of the
program changes, and every patched name is restored on exit.

A layer is the first component of a span name.  Its self time is the sum,
over its spans, of the span's duration minus the durations of its child
spans.  The tiny helpers `sym`, `asmat` and `pd_tol` are not wrapped: a span
would cost about as much as the call, so their time counts in the caller.
"""

import contextlib
import dataclasses
import importlib
import time

import numpy as np

LAYERS = ("cli", "integrators", "models", "actions", "manifold", "matcore", "kernels")

# (module, imported name, span name): the calls each layer makes into the
# layer below, at the place it looks the name up.
_FUNCTION_SPANS = (
    ("cli", "integrate", "integrators.integrate"),
    ("cli", "reference_trajectory", "integrators.reference_trajectory"),
    ("cli", "get_stepper", "integrators.get_stepper"),
    ("cli", "rk4_step", "integrators.rk4_step"),
    ("cli", "affine_distance", "manifold.affine_distance"),
    ("cli", "step_bounds", "manifold.step_bounds"),
    ("cli", "make_case_study", "models.make_case_study"),
    ("integrators", "affine_exp", "manifold.affine_exp"),
    ("integrators", "dexpinv", "matcore.dexpinv"),
    ("integrators", "is_spd", "matcore.is_spd"),
    ("models", "expm", "matcore.expm"),
    ("models", "is_spd", "matcore.is_spd"),
    ("models", "require_symmetric", "matcore.require_symmetric"),
    ("actions", "expm", "matcore.expm"),
    ("actions", "require_symmetric", "matcore.require_symmetric"),
    ("manifold", "expm", "matcore.expm"),
    ("manifold", "invsqrtm_spd", "matcore.invsqrtm_spd"),
    ("manifold", "is_spd", "matcore.is_spd"),
    ("manifold", "logm_spd", "matcore.logm_spd"),
    ("manifold", "require_symmetric", "matcore.require_symmetric"),
    ("manifold", "sqrtm_spd", "matcore.sqrtm_spd"),
    ("manifold", "sym_eig", "matcore.sym_eig"),
    ("kernels", "expm_dense", "kernels.expm_dense"),
    ("kernels", "dexpinv_series", "kernels.dexpinv_series"),
)
_METHOD_SPANS = (
    ("CongruenceAction", "act", "actions.congruence_act"),
    ("CongruenceAction", "exp", "actions.congruence_exp"),
    ("SiegelAction", "act", "actions.siegel_act"),
    ("SiegelAction", "exp", "actions.siegel_exp"),
)
# Constructors returning a ModelSpec, by the modules that call them.
_MODEL_CONSTRUCTORS = (
    ("models", ("linear_model", "ou_model", "gbm_model", "riccati_model")),
    ("cli", ("linear_model", "ou_model", "gbm_model", "riccati_model", "convergence_model")),
)
_SPEC_CALLABLES = ("xi", "tangent", "evolve_aux", "siegel_coeffs")
# Counters reported beside the per-layer totals.
LAYER_COUNTERS = (
    "integrators.reference_substeps",
    "models.evolve_aux.calls",
    "matcore.expm.calls",
    "matcore.is_spd.calls",
    "kernels.expm_dense.calls",
    "kernels.dexpinv_series.calls",
    "manifold.affine_distance.calls",
)


class Tracer:
    """In-memory span store plus event counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = []
        self.parent = []
        self.start = []
        self.end = []
        self.stack = [-1]
        self.counts = {}

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def count_under(self, counter, parent_name, fn):
        """Wrap fn to count calls made directly inside a span ``parent_name``."""
        pid = self._intern(parent_name)
        name_id, stack, counts = self.name_id, self.stack, self.counts
        counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            if stack[-1] >= 0 and name_id[stack[-1]] == pid:
                counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_model_constructor(self, ctor):
        def build(*args, **kwargs):
            spec = ctor(*args, **kwargs)
            wrapped = {
                k: self.wrap(f"models.{k}", getattr(spec, k))
                for k in _SPEC_CALLABLES
                if getattr(spec, k, None) is not None
            }
            return dataclasses.replace(spec, **wrapped)

        return self.wrap(f"models.{ctor.__name__}", build)

    def take(self):
        """Detach the recorded spans as arrays and reset the store."""
        out = {
            "names": list(self.names),
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "counts": dict(self.counts),
        }
        for lst in (self.name_id, self.parent, self.start, self.end):
            lst.clear()
        for k in self.counts:
            self.counts[k] = 0
        return out


@contextlib.contextmanager
def instrument(tracer):
    """Route spdflow's cross-layer calls through ``tracer`` inside the block.

    Raises LookupError, before patching anything, when a listed module,
    class or name is missing: a span that silently stopped would move its
    time into the caller and read as a speed-up.  Update the lists above
    together with the program.
    """
    modules = {layer: importlib.import_module(f"spdflow.{layer}") for layer in LAYERS}
    actions = modules["actions"]
    todo = []  # (where, owner, attribute, wrap)
    for mod, attr, name in _FUNCTION_SPANS:
        todo.append((mod, modules[mod], attr, lambda fn, name=name: tracer.wrap(name, fn)))
    for cls, attr, name in _METHOD_SPANS:
        klass = getattr(actions, cls, None)
        todo.append((f"actions.{cls}", klass, attr, lambda fn, name=name: tracer.wrap(name, fn)))
    for mod, ctors in _MODEL_CONSTRUCTORS:
        for ctor in ctors:
            todo.append((mod, modules[mod], ctor, tracer.wrap_model_constructor))
    # Reference substeps: rk4_step calls made by reference_trajectory.
    todo.append(("integrators", modules["integrators"], "rk4_step", lambda fn: tracer.count_under(
        "integrators.reference_substeps", "integrators.reference_trajectory", fn)))

    missing = [f"spdflow.{where}.{attr}" for where, obj, attr, _ in todo
               if obj is None or obj.__dict__.get(attr) is None]
    if missing:
        raise LookupError(f"spdflow lacks traced names: {', '.join(missing)}")
    saved = []
    try:
        for _, obj, attr, wrap in todo:
            old = obj.__dict__[attr]
            saved.append((obj, attr, old))
            setattr(obj, attr, wrap(old))
        yield tracer
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def aggregate(spans):
    """Per-layer self time and calls, and calls per span name, of one record."""
    names = spans["names"]
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names] or [0], dtype=np.int64)
    span_layer = layer_of[nid] if len(nid) else np.zeros(0, dtype=np.int64)
    layer_self = np.bincount(span_layer, weights=self_s, minlength=len(LAYERS))
    layer_calls = np.bincount(span_layer, minlength=len(LAYERS))
    name_calls = np.bincount(nid, minlength=len(names))
    out = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(layer_self[i])
        out[f"{layer}.calls"] = int(layer_calls[i])
    for i, name in enumerate(names):
        out[f"{name}.calls"] = int(name_calls[i])
    out.update(spans["counts"])
    return out
