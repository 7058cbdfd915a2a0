"""Span recorder that wraps orblocal's public callables from outside.

``install(tracer, orblocal)`` replaces, in every orblocal module namespace
that holds them, the module-level functions of the eight layer modules and
the methods of their classes with thin wrappers.  A function imported with
``from .ratlin import kernel_image_rank`` is bound separately in
``groups``, ``charts`` and ``germs``; every such binding gets the same
wrapper.

While ``tracer.on`` is true each wrapped call opens a span.  The tracer
keeps, per callable, the number of calls, the self time (span time minus
the time of its child spans), the number of child spans and how many spans
had a child of a given kind, and for named groups of callables the
inclusive time of their outermost activations and the number of spans
below them.  Span records (id, callable, start, end, parent id, op id) are
kept in memory up to ``span_cap`` and written out at the end.

A span costs the tracer time of its own: some inside the span's clock
reads, which lands in the span's self time, and some outside them, which
lands in its parent's self time.  ``calibrate()`` measures both on a
wrapped no-op, and ``layer_metrics`` subtracts them, so that the per-layer
figures estimate the program's time rather than the tracer's.

``FiniteMatrixGroup.mul`` is not wrapped: it is called tens of millions of
times per ladder pass, and a span per call would cost more than the call.
``count_products`` counts its calls and cache misses in a pass of its own.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time
import types

LAYERS = ("ratlin", "groups", "charts", "germs", "onedim", "serialize",
          "corpus", "cli")

# Dunder methods that do real work and are called as layer operations.
# __init__, __eq__ and __hash__ are left alone: they run inside dict lookups
# millions of times and would dominate the trace with bookkeeping.
WRAPPED_DUNDERS = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__",
                   "__post_init__")

# Private callables a per-layer metric needs to see.
WRAPPED_PRIVATE = {"germs": ("_classify_sample",)}

# Public one-line coercions and accessors, called once per matrix entry or
# element lookup, and the cached group product; their time stays with the
# caller.
UNWRAPPED = ("ratlin.rat", "ratlin.vec", "ratlin.Matrix.row",
             "ratlin.Matrix.column", "groups.FiniteMatrixGroup.element",
             "groups.FiniteMatrixGroup.mul")

# Inclusive-time groups: outermost activations of any member count once.
TIMERS = {
    "groups.closure": ("groups.generate_closure",),
    "groups.subgroup_check": ("groups.Subgroup.__post_init__",),
    "groups.verify_homomorphism": ("groups.verify_homomorphism",),
    "groups.invariant_search": ("groups.find_invariant_subspace",),
    "groups.quotient": ("groups.quotient",),
    "charts.stratify": ("charts.stratify",),
    "charts.isotropy": ("charts.isotropy_at",),
    "charts.suborbifold": ("charts.suborbifold_model",),
    "germs.build_germ": ("germs.build_germ",),
    "germs.regular_value": ("germs.is_regular_value",),
    "germs.projection": ("germs.invariant_projection",),
    "germs.cocycle": ("germs.cocycle_identities",),
    "germs.faithfulness": ("germs.faithfulness_check",),
    "germs.preimage": ("germs.preimage_model", "germs.preimage_model_boundary"),
    "germs.recenter": ("germs.recenter_germ",),
    "germs.obstruction": ("germs.obstruction_certificate",),
    "germs.sard": ("germs.sard_sample",),
}

# A span of the key callable is "marked" when one of its direct children is
# one of the listed callables: a sample classification that reached the
# gcd/Sturm confirmation.
MARKERS = {
    "germs._classify_sample": ("ratlin.poly_gcd", "ratlin.has_real_root"),
}

# Counters read off return values.
RESULT_COUNTERS = {
    "groups.FiniteMatrixGroup.all_subgroups": ("subgroups_enumerated", len),
    "charts.stratify": ("strata_found", lambda r: len(r.strata)),
    "germs.cocycle_identities": ("cocycle_pairs", lambda r: r.pairs_checked),
    "germs.sard_sample": ("sard_samples", lambda r: r.samples),
}


class Tracer:
    """Per-callable call counts and self times, timers, and a span log."""

    def __init__(self, span_cap: int = 300_000):
        self.on = False
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.kids: list[int] = []
        self.marked: list[int] = []
        self.timer_names = list(TIMERS)
        self.timer_active = [0] * len(TIMERS)
        self.timer_s = [0.0] * len(TIMERS)
        self.timer_calls = [0] * len(TIMERS)
        self.timer_spans = [0] * len(TIMERS)
        self.counters: dict[str, float] = {}
        # frame: [name id, child seconds, marked, span id, child spans]; the
        # root frame collects the top-level spans
        self.stack: list[list] = [[-1, 0.0, 0, 0, 0]]
        self.last_span = [0]
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = 0

    def wrap(self, name: str, layer: str, fn):
        """Register ``name`` and return ``fn`` wrapped in its span."""
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.kids.append(0)
        self.marked.append(0)
        return _wrap(self, idx, name, fn)

    def write_spans(self, path: str, meta: dict):
        header = {
            "meta": meta,
            "callables": [[n, layer, c, s] for n, layer, c, s in
                          zip(self.names, self.layer_of, self.calls, self.self_s)],
            "spans_dropped": self.spans_dropped,
            "columns": ["span", "callable", "start", "end", "parent", "op"],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write("%d %d %.9f %.9f %d %d\n" % s)


def _wrap(tr: Tracer, idx: int, name: str, fn):
    # everything the hot path needs is bound here, once
    clock = time.perf_counter
    stack, calls, self_s, kids, marked = tr.stack, tr.calls, tr.self_s, tr.kids, tr.marked
    timer_active, timer_s = tr.timer_active, tr.timer_s
    timer_calls, timer_spans = tr.timer_calls, tr.timer_spans
    spans, cap, last_span = tr.spans, tr.span_cap, tr.last_span
    timer = next((i for i, members in enumerate(TIMERS.values())
                  if name in members), -1)
    is_marker = any(name in kids for kids in MARKERS.values())
    marks_parent_of = {k for k, kids in MARKERS.items() if name in kids}
    hook = RESULT_COUNTERS.get(name)
    counters = tr.counters

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.on:
            return fn(*args, **kwargs)
        last_span[0] += 1
        frame = [idx, 0.0, 0, last_span[0], 0]
        stack.append(frame)
        if timer >= 0:
            timer_active[timer] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            dur = end - start
            calls[idx] += 1
            self_s[idx] += dur - frame[1]
            kids[idx] += frame[4]
            if frame[2]:
                marked[idx] += 1
            if timer >= 0:
                timer_active[timer] -= 1
                if not timer_active[timer]:
                    timer_s[timer] += dur
                    timer_calls[timer] += 1
                    timer_spans[timer] += last_span[0] - frame[3]
            parent = stack[-1]
            parent[1] += dur
            parent[4] += 1
            if is_marker and parent[0] >= 0 and tr.names[parent[0]] in marks_parent_of:
                parent[2] = 1
            if len(spans) < cap:
                spans.append((frame[3], idx, start, end, parent[3], tr.op_id))
            else:
                tr.spans_dropped += 1
        if hook is not None:
            counters[hook[0]] = counters.get(hook[0], 0) + hook[1](result)
        return result

    return wrapper


def calibrate(rounds: int = 9, calls: int = 20_000) -> tuple[float, float]:
    """Seconds the tracer adds per span: (inside its clock reads, outside).

    A wrapped parent calls a wrapped no-op child ``calls`` times; the same
    loop over the bare no-op is the reference.  The child's self time above
    the reference's per-call time is the cost inside the span, and the rest
    of the parent's extra time is the cost outside it.  Medians over
    ``rounds``.
    """
    clock = time.perf_counter

    def noop(a, b):
        return None

    def loop(f):
        for _ in range(calls):
            f(1, 2)

    inside, outside = [], []
    for _ in range(rounds):
        tr = Tracer(span_cap=calls + 1)
        child = tr.wrap("child", "calibration", noop)
        parent = tr.wrap("parent", "calibration", loop)
        tr.on = True
        parent(child)
        tr.on = False
        t0 = clock()
        loop(noop)
        plain = clock() - t0
        total = (tr.self_s[0] + tr.self_s[1] - plain) / calls
        c_in = max(0.0, (tr.self_s[0] - plain) / calls)
        inside.append(c_in)
        outside.append(max(0.0, total - c_in))
    return statistics.median(inside), statistics.median(outside)


def install(tracer: Tracer, package) -> None:
    """Wrap the public callables of the layer modules, in every namespace."""
    import importlib

    modules = {layer: importlib.import_module("%s.%s" % (package.__name__, layer))
               for layer in LAYERS}
    by_id: dict[int, object] = {}

    def wrap_function(layer, qualname, fn):
        wrapper = tracer.wrap("%s.%s" % (layer, qualname), layer, fn)
        by_id[id(fn)] = wrapper
        return wrapper

    for layer, mod in modules.items():
        private = WRAPPED_PRIVATE.get(layer, ())
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                if ((not name.startswith("_") or name in private)
                        and "%s.%s" % (layer, name) not in UNWRAPPED):
                    wrap_function(layer, name, obj)
            elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                  and not issubclass(obj, BaseException)):
                for attr, member in list(vars(obj).items()):
                    qual = "%s.%s" % (obj.__name__, attr)
                    if ((attr.startswith("_") and attr not in WRAPPED_DUNDERS)
                            or "%s.%s" % (layer, qual) in UNWRAPPED):
                        continue
                    if isinstance(member, types.FunctionType):
                        new = wrap_function(layer, qual, member)
                    elif isinstance(member, (classmethod, staticmethod)):
                        new = type(member)(wrap_function(layer, qual, member.__func__))
                    else:
                        continue
                    setattr(obj, attr, new)
    # rebind every name that refers to a wrapped function, in every
    # namespace that imported it (the package namespace included)
    for mod in list(modules.values()) + [package]:
        for name, obj in list(vars(mod).items()):
            wrapper = by_id.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)


def count_products(package, run_pass) -> tuple[int, int]:
    """Calls and cache misses of ``FiniteMatrixGroup.mul`` over ``run_pass()``.

    Only ``mul`` and ``Matrix.__mul__`` are wrapped, with counters, and
    nothing is timed.  A call misses the cache when it multiplies matrices.
    """
    group_cls, matrix_cls = package.groups.FiniteMatrixGroup, package.ratlin.Matrix
    mul, matmul = group_cls.mul, matrix_cls.__mul__
    n = [0, 0, 0]  # mul calls, mul misses, matrix products

    def counted_mul(self, *args):
        n[0] += 1
        before = n[2]
        result = mul(self, *args)
        if n[2] != before:
            n[1] += 1
        return result

    def counted_matmul(self, *args):
        n[2] += 1
        return matmul(self, *args)

    group_cls.mul, matrix_cls.__mul__ = counted_mul, counted_matmul
    try:
        run_pass()
    finally:
        group_cls.mul, matrix_cls.__mul__ = mul, matmul
    return n[0], n[1]


# --------------------------------------------------------------------------
# per-layer metrics

RATLIN_POLY_EXTRA = ("ratlin.sturm_real_root_count", "ratlin.has_real_root",
                     "ratlin.factor_rational_poly", "ratlin.charpoly_factor")
# test-only aliases of MultiPoly methods
RATLIN_MULTIPOLY_ALIASES = ("ratlin.poly_eval", "ratlin.poly_jacobian",
                            "ratlin.poly_identity_zero")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int, traced_wall: float,
                  untraced_pass: float, cost: tuple[float, float],
                  products: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer figures per traced pass, and the tracer cost per layer.

    ``traced_wall`` is the summed wall time of the traced passes,
    ``untraced_pass`` the mean untraced pass, ``cost`` the tracer's
    seconds per span from ``calibrate()`` and ``products`` the
    ``FiniteMatrixGroup.mul`` calls and misses of one pass from
    ``count_products``.  Self times and timers have the tracer's estimated
    cost taken out; the second dict holds what was taken out of each layer,
    per pass.  ``harness.self_s`` is the traced wall time outside every
    orblocal span, less its tracer cost.
    """
    c_in, c_out = cost
    ids = {n: i for i, n in enumerate(tr.names)}
    # self time less the tracer's cost inside the span and for its children
    tracer_s = [c_in * c + c_out * k for c, k in zip(tr.calls, tr.kids)]
    self_s = [s - t for s, t in zip(tr.self_s, tracer_s)]
    root_tracer_s = c_out * tr.stack[0][4]

    def calls(name):
        return tr.calls[ids[name]] if name in ids else 0

    def self_where(pred):
        return max(0.0, sum(s for n, s in zip(tr.names, self_s) if pred(n)))

    def calls_where(pred):
        return sum(c for n, c in zip(tr.names, tr.calls) if pred(n))

    def marked(name):
        return tr.marked[ids[name]] if name in ids else 0

    def is_poly(n):
        return ((n.startswith("ratlin.poly_") and n not in RATLIN_MULTIPOLY_ALIASES)
                or n in RATLIN_POLY_EXTRA)

    def is_subspace(n):
        return n.startswith("ratlin.Subspace.")

    # outermost activations, less their own span's cost and their subtree's
    timer = {name: max(0.0, s - c_in * n - (c_in + c_out) * below)
             for name, s, n, below in zip(tr.timer_names, tr.timer_s,
                                          tr.timer_calls, tr.timer_spans)}
    counter = tr.counters.get
    layer_self, layer_tracer = {}, {"harness": root_tracer_s}
    for layer, s, t in zip(tr.layer_of, self_s, tracer_s):
        layer_self[layer] = layer_self.get(layer, 0.0) + s
        layer_tracer[layer] = layer_tracer.get(layer, 0.0) + t
    trace_cost = sum(layer_tracer.values())
    program_self = sum(s for layer, s in layer_self.items() if layer in LAYERS)

    matmul = "ratlin.Matrix.__mul__"
    mul_calls, mul_misses = products
    sard_samples = counter("sard_samples", 0)
    enumerated = counter("subgroups_enumerated", 0)
    per_pass = {
        "ratlin.matmul_calls": calls(matmul),
        "ratlin.matmul_self_s": self_where(lambda n: n == matmul),
        "ratlin.rref_calls": calls("ratlin.Matrix.rref"),
        "ratlin.rref_self_s": self_where(lambda n: n == "ratlin.Matrix.rref"),
        "ratlin.subspace_calls": calls_where(is_subspace),
        "ratlin.subspace_self_s": self_where(is_subspace),
        "ratlin.poly_calls": calls_where(is_poly),
        "ratlin.poly_self_s": self_where(is_poly),
        "ratlin.multipoly_self_s": self_where(
            lambda n: n.startswith("ratlin.MultiPoly.") or n in RATLIN_MULTIPOLY_ALIASES),
        "groups.closure_s": timer["groups.closure"],
        "groups.subgroups_built": calls("groups.Subgroup.__post_init__"),
        "groups.subgroup_check_s": timer["groups.subgroup_check"],
        "groups.verify_homomorphism_s": timer["groups.verify_homomorphism"],
        "groups.invariant_search_s": timer["groups.invariant_search"],
        "groups.quotient_s": timer["groups.quotient"],
        "charts.stratify_s": timer["charts.stratify"],
        "charts.subgroups_enumerated": enumerated,
        "charts.strata_found": counter("strata_found", 0),
        "charts.isotropy_calls": calls("charts.isotropy_at"),
        "charts.isotropy_s": timer["charts.isotropy"],
        "charts.suborbifold_s": timer["charts.suborbifold"],
        "germs.build_germ_s": timer["germs.build_germ"],
        "germs.regular_value_s": timer["germs.regular_value"],
        "germs.projection_s": timer["germs.projection"],
        "germs.cocycle_s": timer["germs.cocycle"],
        "germs.cocycle_pairs": counter("cocycle_pairs", 0),
        "germs.faithfulness_s": timer["germs.faithfulness"],
        "germs.preimage_s": timer["germs.preimage"],
        "germs.recenter_s": timer["germs.recenter"],
        "germs.obstruction_s": timer["germs.obstruction"],
        "germs.sard_s": timer["germs.sard"],
        "harness.self_s": traced_wall - program_self - trace_cost,
        "harness.trace_cost_s": trace_cost,
        "harness.traced_wall_s": traced_wall,
    }
    for layer in LAYERS:
        per_pass["%s.self_s" % layer] = max(0.0, layer_self.get(layer, 0.0))
    out = {name: value / passes for name, value in per_pass.items()}
    out.update({
        "groups.mul_calls": mul_calls,
        "groups.mul_misses": mul_misses,
        "groups.mul_hit_ratio": _ratio(mul_calls - mul_misses, mul_calls),
        "charts.strata_yield": _ratio(counter("strata_found", 0), enumerated),
        "germs.sard_samples_per_s": _ratio(sard_samples, timer["germs.sard"]),
        "germs.sard_confirm_ratio": _ratio(marked("germs._classify_sample"),
                                           sard_samples),
        "harness.trace_overhead": _ratio(traced_wall / passes, untraced_pass),
        "harness.corrected_overhead": _ratio((traced_wall - trace_cost) / passes,
                                             untraced_pass),
    })
    return out, {layer: t / passes for layer, t in sorted(layer_tracer.items())}
