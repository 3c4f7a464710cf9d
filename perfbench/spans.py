"""Spans around the public functions of each ``altrank`` module.

The benchmark wraps the functions from its own files; nothing under
``src/altrank`` is edited.  A wrapped name is replaced in every ``altrank``
module namespace that binds it, since modules import each other's functions
by name.  Per-element ``FieldCtx`` methods are deliberately not wrapped:
they run hundreds of thousands of times per reduction, and their cost shows
up as self time of the ``matrices`` functions that call them.

Spans are kept in memory as ``[name, start, end, parent, job, work]`` and
written out when the run ends.  ``job`` is the label of the job that was
running, or ``None`` during set-up, so set-up spans are kept apart.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.yields: dict[tuple, int] = defaultdict(int)
        self.job: str | None = None
        self._stack: list[int] = []

    def span(self, name, fn, work=None):
        """``fn`` wrapped so that each call records a span; ``work(args, kwargs,
        result)`` returns the call's work counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(args, kwargs, out)
            return out
        return traced

    def counted_generator(self, name, fn):
        """``fn``, a generator function, wrapped to count the items it yields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.yields[(name, self.job is not None)] += 1
                yield item
        return traced

    def run_job(self, label, fn):
        self.job = label
        try:
            return self.span("job", fn)()
        finally:
            self.job = None

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _batch_work(args, kwargs, out):
    k, n, m = args[0].shape
    return {"members": k, "entries": k * n * m}


def _draws(args, kwargs, out):
    return {"draws": int(np.prod(args[2])) if args[2] else 1}


def _profile_work(args, kwargs, out):
    return {"members_" + out.method: out.checked}


# (module, attribute, work counter); "Class.method" patches the class.
TARGETS = [
    ("_engine", "batch_rank", _batch_work),
    ("_engine", "members_from_coords", None),
    ("_engine", "lex_coords", None),
    ("_engine", "uniform_block", _draws),
    ("_engine", "profile_ranks", None),
    ("_engine", "unit_eigen_hits", None),
    ("analyze", "rank_profile", _profile_work),
    ("analyze", "trivial_spectrum_check", None),
    ("analyze", "flanders_atkinson_check", None),
    ("analyze", "extract_range_lagrangian", None),
    ("matrices", "Matrix.__init__", None),
    ("matrices", "Matrix.rref", None),
    ("matrices", "Matrix.rank", None),
    ("matrices", "Matrix.det", None),
    ("matrices", "Matrix.inverse", None),
    ("matrices", "Matrix.__matmul__", None),
    ("matrices", "span_dim", None),
    ("matrices", "pfaffian", None),
    ("matrices", "pfaffian_expansion", None),
    ("spaces", "Span.__init__", None),
    ("spaces", "Span.contains", None),
    ("spaces", "AffineMatrixSpace.translation_contains", None),
    ("spaces", "AffineMatrixSpace.member_at", None),
    ("spaces", "congruence_act", None),
    ("spaces", "spaces_equal", None),
    ("spaces", "exhaustive_optimal_dimension", None),
    ("reduction", "canonical_reduction", None),
    ("reduction", "find_rank_r_member", None),
    ("reduction", "normalize_radical_to_tail", None),
    ("reduction", "reduce_full_row_rank", None),
    ("reduction", "unique_totally_singular_complement", None),
    ("reduction", "totally_singular_rejection", None),
    ("symplectic", "symplectic_basis", None),
    ("symplectic", "find_lagrangian", None),
    ("rand", "random_invertible", None),
]
GENERATORS = [("spaces", "echelon_bases")]
FAMILY_SPAN = "families.build"  # every families.build_* shares one span name


def span_name(module: str, attr: str) -> str:
    return f"{module.lstrip('_')}.{attr}"


def install(tracer: Tracer) -> None:
    """Replace each target, in every ``altrank`` namespace that binds it."""
    import altrank
    from altrank import families

    modules = [m for name, m in sys.modules.items() if name == "altrank" or name.startswith("altrank.")]

    def rebind(orig, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    for modname, attr, work in TARGETS:
        mod = getattr(altrank, modname)
        name = span_name(modname, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.span(name, cls.__dict__[meth], work))
        else:
            orig = getattr(mod, attr)
            rebind(orig, tracer.span(name, orig, work))
    for modname, attr in GENERATORS:
        orig = getattr(getattr(altrank, modname), attr)
        rebind(orig, tracer.counted_generator(span_name(modname, attr), orig))
    for attr, orig in list(vars(families).items()):
        if attr.startswith("build_") and callable(orig):
            rebind(orig, tracer.span(FAMILY_SPAN, orig))


REDUCTION_STAGES = (
    "canonical_reduction",
    "find_rank_r_member",
    "normalize_radical_to_tail",
    "reduce_full_row_rank",
    "unique_totally_singular_complement",
)


def aggregate(spans, in_jobs: bool):
    """Per span name: calls, self seconds, total seconds and summed work."""
    child = defaultdict(float)
    for name, t0, t1, parent, job, work in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": defaultdict(int)})
    for i, (name, t0, t1, parent, job, work) in enumerate(spans):
        if (job is not None) != in_jobs:
            continue
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += (t1 - t0) - child[i]
        a["total_s"] += t1 - t0
        for key, value in (work or {}).items():
            a["work"][key] += value
    return agg


def layer_metrics(tracer: Tracer, passes: int, threads: int, overhead_ratio: float) -> dict:
    """Every per-layer metric: job-phase values per pass, set-up values for the
    one traced set-up."""
    jobs = aggregate(tracer.spans, in_jobs=True)
    setup = aggregate(tracer.spans, in_jobs=False)

    def get(name, field):
        return jobs[name][field] / passes if name in jobs else 0

    def work(name, key):
        return jobs[name]["work"][key] / passes if name in jobs else 0

    out = {}
    for modname, attr, _ in TARGETS:
        name = span_name(modname, attr)
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = get(name, "self_s")
    for stage in REDUCTION_STAGES:
        out[f"reduction.{stage}.total_s"] = get(f"reduction.{stage}", "total_s")
    out["engine.batch_rank.members"] = work("engine.batch_rank", "members")
    out["engine.batch_rank.entries"] = work("engine.batch_rank", "entries")
    members = out["engine.batch_rank.members"]
    out["engine.batch_rank.us_per_member"] = (
        out["engine.batch_rank.self_s"] / members * 1e6 if members else 0
    )
    out["engine.uniform_block.draws"] = work("engine.uniform_block", "draws")
    out["engine.threads"] = threads
    out["analyze.rank_profile.members_exhaustive"] = work("analyze.rank_profile", "members_exhaustive")
    out["analyze.rank_profile.members_sampled"] = work("analyze.rank_profile", "members_sampled")
    queries = out["spaces.Span.contains.calls"]
    out["spaces.span_builds_per_query"] = out["spaces.Span.__init__.calls"] / queries if queries else 0
    out["spaces.echelon_bases.yielded"] = tracer.yields[("spaces.echelon_bases", True)] / passes
    out["families.build.calls"] = get(FAMILY_SPAN, "calls")
    out["families.build.self_s"] = get(FAMILY_SPAN, "self_s")
    for name in (FAMILY_SPAN, "rand.random_invertible"):
        out[f"setup.{name}.self_s"] = setup[name]["self_s"] if name in setup else 0
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def top_self_times(spans, passes: int, count: int = 8):
    """The span names with the largest job-phase self time per pass, largest first."""
    agg = aggregate(spans, in_jobs=True)
    ranked = sorted(((a["self_s"], name) for name, a in agg.items() if name != "job"), reverse=True)
    return [(name, s / passes) for s, name in ranked[:count]]
