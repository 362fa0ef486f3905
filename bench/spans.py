"""Span recorder for the traced run.

Spans are recorded around calls into each layer's public functions by
wrapping them from outside the program: a wrapped function is replaced in
every `modtors` module that holds it, so calls through
`from .intlinalg import hnf` are seen as well as module-internal calls.
Spans stay in memory (id, parent id, name, start, end) under one run id
and are written out when the pass ends; self times are computed from them
afterwards.  Some wrappers also read arguments or results to count work
(terms swept, Tate pairs scanned, pipeline stages).
"""

import importlib
import json
import sys
import uuid
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []  # [id, parent id or None, name, start, end]
        self._stack = []
        self.counts = Counter()

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def layer_stats(self):
        """name -> (calls, self seconds); self time is the span's duration
        minus the durations of its direct children."""
        child = defaultdict(float)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0])
        for sid, _, name, start, end in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start - child[sid]
        return stats

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


# (metric prefix, module, attribute) of every traced entry point; the
# prefix names the layer the benchmark reports it under.
TARGETS = [
    ("modsym.build_space", "modtors.modsym.space", "build_space"),
    ("modsym.hecke_operator", "modtors.modsym.operators", "hecke_operator"),
    ("jacobian.rank.is_rank_zero", "modtors.jacobian", "is_rank_zero"),
    ("jacobian.local.jacobian_order_mod_p", "modtors.jacobian", "jacobian_order_mod_p"),
    ("jacobian.kernel.hecke_kernel_lattice", "modtors.jacobian", "hecke_kernel_lattice"),
    ("jacobian.classgroup.cuspidal_class_group", "modtors.jacobian", "cuspidal_class_group"),
    ("jacobian.classgroup.class_of_divisor", "modtors.jacobian",
     "ManinDrinfeldProjector.class_of_divisor"),
    ("jacobian.classgroup.md_projector", "modtors.jacobian", "ManinDrinfeldProjector.__init__"),
    ("jacobian.pipeline.torsion_is_cuspidal", "modtors.jacobian", "torsion_is_cuspidal"),
    ("jacobian.pipeline.hecke_bound_group", "modtors.jacobian", "hecke_bound_group"),
    *[
        (f"intlinalg.{fn}", "modtors.intlinalg", fn)
        for fn in ("solve_dixon", "solve_integer", "invert_rational", "det_bareiss",
                   "hnf", "smith_normal_form", "kernel_basis", "minpoly")
    ],
    *[
        (f"lattice.Lattice.{fn}", "modtors.lattice", f"Lattice.{fn}")
        for fn in ("intersect", "preimage", "sum", "contains_lattice")
    ],
    ("lattice.lattice_torsion_quotient", "modtors.lattice", "lattice_torsion_quotient"),
    ("ecff.tate_order_counts", "modtors.ecff", "tate_order_counts"),
    ("ecff.FiniteField.mul", "modtors.ecff", "FiniteField.mul"),
    ("ecff.exists_point_of_order", "modtors.ecff", "exists_point_of_order"),
    ("ecff.places_of_degree", "modtors.ecff", "places_of_degree"),
    ("immersion.rank_zero_quotient", "modtors.immersion", "rank_zero_quotient"),
    ("immersion.reduction_targets", "modtors.immersion", "reduction_targets"),
    ("immersion.joint_expansion_rows", "modtors.immersion", "joint_expansion_rows"),
    ("cli.main", "modtors.cli", "main"),
]

STAGES = ("trivial", "sandwich", "maximal-ideal", "index")


def count_name(prefix):
    """Metric name of a span's call count; the projector's constructor
    span counts projector builds."""
    return prefix + (".builds" if prefix.endswith(".md_projector") else ".calls")


# name -> (unit, better) of every per-layer metric, in report order
PER_LAYER = {}
for prefix, _, _ in TARGETS:
    PER_LAYER[count_name(prefix)] = ("count", "lower")
    PER_LAYER[prefix + ".self_s"] = ("s", "lower")
PER_LAYER.update({
    "modsym.dim_total": ("count", "lower"),
    "modsym.merel_family.entries": ("count", "lower"),
    "modsym.merel_family.hit_ratio": ("ratio", "higher"),
    "jacobian.rank.terms_swept": ("count", "lower"),
    "jacobian.rank.positive": ("count", "lower"),
    "jacobian.kernel.calls_per_level": ("calls/level", "lower"),
    **{f"jacobian.pipeline.stage.{s}": ("count", "lower" if s == "index" else "higher")
       for s in STAGES},
    "ecff.tate_pairs": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def install(recorder):
    """Wrap every target; returns a function computing the per-layer
    metrics (all but trace.overhead_frac) once the pass is over."""
    counts = recorder.counts
    built = set()
    kernel_levels = set()

    def on_build(args, space):
        if id(space) not in built:
            built.add(id(space))
            counts["modsym.dim_total"] += space.dim

    def on_rank(args, cert):
        if cert.is_rank_zero:
            counts["jacobian.rank.terms_swept"] += cert.certificate.get("hecke_range_used", 0)
        else:
            counts["jacobian.rank.positive"] += 1
            counts["jacobian.rank.terms_swept"] += cert.sturm_bound

    def on_kernel(args, result):
        kernel_levels.add(result[1].spec.label())

    def on_pipeline(args, result):
        counts[f"jacobian.pipeline.stage.{result[3]}"] += 1

    def on_tate(args, result):
        counts["ecff.tate_pairs"] += args[0] ** 2

    hooks = {
        "modsym.build_space": on_build,
        "jacobian.rank.is_rank_zero": on_rank,
        "jacobian.kernel.hecke_kernel_lattice": on_kernel,
        "jacobian.pipeline.torsion_is_cuspidal": on_pipeline,
        "ecff.tate_order_counts": on_tate,
    }
    for prefix, modname, attr in TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, recorder.wrap(prefix, cls.__dict__[meth], hooks.get(prefix)))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(prefix, original, hooks.get(prefix))
        for name, mod in list(sys.modules.items()):
            if name == "modtors" or name.startswith("modtors."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def metrics():
        from modtors.modsym.operators import merel_family

        stats = recorder.layer_stats()
        out = {}
        for prefix, _, _ in TARGETS:
            calls, self_s = stats.get(prefix, (0, 0.0))
            out[count_name(prefix)] = calls
            out[prefix + ".self_s"] = self_s
        info = merel_family.cache_info()
        lookups = info.hits + info.misses
        out["modsym.dim_total"] = counts["modsym.dim_total"]
        out["modsym.merel_family.entries"] = info.currsize
        out["modsym.merel_family.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["jacobian.rank.terms_swept"] = counts["jacobian.rank.terms_swept"]
        out["jacobian.rank.positive"] = counts["jacobian.rank.positive"]
        kernel_calls = stats.get("jacobian.kernel.hecke_kernel_lattice", (0, 0.0))[0]
        out["jacobian.kernel.calls_per_level"] = (
            kernel_calls / len(kernel_levels) if kernel_levels else 0.0
        )
        for s in STAGES:
            out[f"jacobian.pipeline.stage.{s}"] = counts[f"jacobian.pipeline.stage.{s}"]
        out["ecff.tate_pairs"] = counts["ecff.tate_pairs"]
        return out

    return metrics
