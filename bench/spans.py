"""In-memory tracing of calls into parapose, from outside the package.

The tracer replaces module-level names (``parapose.groebner.normal_form``
and the like) with wrappers that record one span per call: name, start,
end, parent span and solve id.  ``GaussianRational`` operators run about
10^5 times per solve, so they are not stored one by one: each is counted
and timed as a leaf of the innermost open span.  Spans stay in memory
until ``write`` is called at the end of a run.

A span's self time is its duration minus the time of its child spans and
of its leaf operators, so the self times of all spans under a solve, plus
the leaf time, add up to that solve's duration.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from parapose import GaussianRational

# (module, attribute looked up at call time, span name)
SPANS = (
    ("parapose.kinematics", "build_ideal", "kinematics.build_ideal"),
    ("parapose.kinematics", "buchberger", "groebner.buchberger"),
    ("parapose.kinematics", "elimination_basis", "groebner.elimination_basis"),
    ("parapose.kinematics", "is_self_reciprocal", "inversive.self_reciprocal"),
    ("parapose.kinematics", "find_roots", "rootfind.find_roots"),
    ("parapose.kinematics", "back_substitute", "kinematics.back_substitute"),
    ("parapose.kinematics", "filter_physical", "kinematics.filter_physical"),
    ("parapose.kinematics", "residual_max", "kinematics.residual_max"),
    ("parapose.kinematics", "to_angles", "kinematics.to_angles"),
    ("parapose.groebner", "normal_form", "multipoly.normal_form"),
    ("parapose.groebner", "s_polynomial", "multipoly.s_polynomial"),
    ("parapose.groebner", "_inter_reduce", "groebner.inter_reduce"),
    ("parapose.cli", "parse_problem", "cli.parse_problem"),
    ("parapose.cli", "solve_posture", "kinematics.solve_posture"),
    ("parapose.cli", "report_to_json", "cli.report_to_json"),
    ("parapose.cli", "render_posture", "svgdraw.render_posture"),
)

# span record layout
NAME, START, END, PARENT, SOLVE, LEAF_NS, MUL, ADD, DIV = range(9)
LEAVES = (
    ("__add__", ADD),
    ("__radd__", ADD),
    ("__sub__", ADD),
    ("__mul__", MUL),
    ("__rmul__", MUL),
    ("__truediv__", DIV),
)
SOLVE_SPAN = "kinematics.solve_posture"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._top = None
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, solve_id):
        parent = self._stack[-1] if self._stack else -1
        if solve_id is None and parent >= 0:
            solve_id = self.spans[parent][SOLVE]
        rec = [name, perf_counter_ns(), 0, parent, solve_id, 0, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._top = rec
        return rec

    def _close(self, rec):
        rec[END] = perf_counter_ns()
        self._stack.pop()
        self._top = self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name, solve_id=None):
        rec = self._open(name, solve_id)
        try:
            yield rec
        finally:
            self._close(rec)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced name that this version of parapose defines."""
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr, None)
            if orig is not None:
                self._patch(module, attr, self._span_wrapper(orig, name))
        for attr, column in LEAVES:
            self._patch(
                GaussianRational, attr, self._leaf_wrapper(getattr(GaussianRational, attr), column)
            )

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _span_wrapper(self, orig, name):
        def traced(*args, **kwargs):
            rec = self._open(name, None)
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def _leaf_wrapper(self, orig, column):
        tracer = self

        def traced(a, b):
            t0 = perf_counter_ns()
            result = orig(a, b)
            dt = perf_counter_ns() - t0
            rec = tracer._top
            if rec is not None:
                rec[LEAF_NS] += dt
                rec[column] += 1
            return result

        return traced

    def absorb(self, records, solve_id):
        """Append the spans another process recorded, as solve solve_id."""
        base = len(self.spans)
        for rec in records:
            rec[SOLVE] = solve_id
            if rec[PARENT] >= 0:
                rec[PARENT] += base
        self.spans.extend(records)

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def per_solve(spans) -> dict:
    """Aggregate spans by solve id.

    For each solve: ``calls`` and inclusive ``ms`` per span name; and,
    for the ``solve_posture`` span and everything beneath it,
    ``solve_calls`` per span name, ``layer_self_ms`` per layer (the name's
    first component, with operator leaf time under ``gaussrat``),
    ``mul``/``add``/``div`` operator counts and the duration ``solve_ms``.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_ns[rec[PARENT]] += rec[END] - rec[START]
    in_solve = [False] * len(spans)
    out: dict = {}
    for i, rec in enumerate(spans):
        sid = rec[SOLVE]
        s = out.setdefault(sid, {
            "calls": defaultdict(int),
            "solve_calls": defaultdict(int),
            "ms": defaultdict(float),
            "layer_self_ms": defaultdict(float),
            "mul": 0, "add": 0, "div": 0,
            "solve_ms": 0.0,
        })
        name = rec[NAME]
        dur = rec[END] - rec[START]
        s["calls"][name] += 1
        s["ms"][name] += dur / 1e6
        in_solve[i] = name == SOLVE_SPAN or (rec[PARENT] >= 0 and in_solve[rec[PARENT]])
        if not in_solve[i]:
            continue
        s["solve_calls"][name] += 1
        if name == SOLVE_SPAN:
            s["solve_ms"] += dur / 1e6
        self_ns = dur - child_ns[i] - rec[LEAF_NS]
        s["layer_self_ms"][name.split(".")[0]] += self_ns / 1e6
        s["layer_self_ms"]["gaussrat"] += rec[LEAF_NS] / 1e6
        s["mul"] += rec[MUL]
        s["add"] += rec[ADD]
        s["div"] += rec[DIV]
    return out


def counters(solve: dict) -> dict:
    """The deterministic part of one solve's aggregate: call counts."""
    return {
        "calls": dict(sorted(solve["solve_calls"].items())),
        "mul": solve["mul"],
        "add": solve["add"],
        "div": solve["div"],
    }
