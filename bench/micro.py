"""Layer microbenchmarks on inputs taken from one workload problem.

``GaussianRational`` mul, add and div run on operand pairs drawn from the
problem's reduced basis; ``normal_form`` reduces each ideal generator by
that basis; ``s_polynomial`` forms the S-pair of the two loop closures;
``buchberger`` computes the basis of the problem's ideal from scratch.
Each figure is the median of REPEATS timings.
"""

from __future__ import annotations

import operator
import random
import statistics
from time import perf_counter_ns

from parapose import buchberger, build_ideal, normal_form, s_polynomial

REPEATS = 5
OPERAND_PAIRS = 400


def _median_ns(fn, per_call: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        fn()
        samples.append((perf_counter_ns() - t0) / per_call)
    return statistics.median(samples)


def run(problem, basis) -> dict:
    ideal = build_ideal(problem)
    elements = list(basis.elements)
    pool = [c for g in elements for _, c in g.terms]
    rng = random.Random(0)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(OPERAND_PAIRS)]

    def ops(op):
        return lambda: [op(a, b) for a, b in pairs]

    s_args = (ideal[0], ideal[1])
    return {
        "gaussrat.mul_ns": _median_ns(ops(operator.mul), len(pairs)),
        "gaussrat.add_ns": _median_ns(ops(operator.add), len(pairs)),
        "gaussrat.div_ns": _median_ns(ops(operator.truediv), len(pairs)),
        "multipoly.normal_form_fixed_us": _median_ns(
            lambda: [normal_form(f, elements) for f in ideal], len(ideal)
        ) / 1e3,
        "multipoly.s_polynomial_fixed_us": _median_ns(
            lambda: [s_polynomial(*s_args) for _ in range(50)], 50
        ) / 1e3,
        "groebner.buchberger_fixed_ms": _median_ns(lambda: buchberger(ideal), 1) / 1e6,
    }
