"""Numeric root extraction for univariate complex polynomials.

All roots are found simultaneously with the Aberth-Ehrlich iteration,
then polished with a fixed number of Newton steps.  Initial iterates
sit on the Cauchy-bound circle rotated by a fixed irrational phase, so
identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math

from ._record import Record
from .inversive import UniPoly

__all__ = ["RootSet", "ConvergenceError", "find_roots"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
NEWTON_POLISH_STEPS = 3
# relative: roots closer than this times the larger modulus are merged
CLUSTER_RADIUS = 1e-7

# rotation applied to the symmetric starting configuration; breaks the
# real-axis symmetry that can stall the iteration on real polynomials
_INITIAL_PHASE = math.pi * (3.0 - math.sqrt(5.0)) / 2.0


class ConvergenceError(RuntimeError):
    """Raised when the iteration fails; carries the best iterates seen."""

    def __init__(self, message, best_roots, residuals, iterations):
        super().__init__(message)
        self.best_roots = tuple(best_roots)
        self.residuals = tuple(residuals)
        self.iterations = iterations


class RootSet(Record):
    """Roots with multiplicity, their residuals, and iteration metadata."""

    __slots__ = ("roots", "residuals", "multiplicities", "iterations")


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) in one pass."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _eval_scale(coeffs, z):
    """Backward-error scale sum |c_i| |z|^i at the point z."""
    az = abs(z)
    scale = 0.0
    power = 1.0
    for c in coeffs:
        scale += abs(c) * power
        power *= az
    return scale


def _cauchy_radius(monic):
    n = len(monic) - 1
    return 1.0 + max(abs(monic[i]) for i in range(n))


def _initial_points(monic):
    n = len(monic) - 1
    radius = _cauchy_radius(monic)
    angles = [2.0 * math.pi * k / n + _INITIAL_PHASE for k in range(n)]
    # the same bits as cmath.exp(1j * t), without importing cmath
    return [radius * complex(math.cos(t), math.sin(t)) for t in angles]


def _aberth(monic):
    n = len(monic) - 1
    z = _initial_points(monic)
    iterations = 0
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        # each root stops on its own step, relative to its own modulus, so
        # roots far smaller than the largest converge too
        settled = True
        for k in range(n):
            p, dp = _horner_pair(monic, z[k])
            if p == 0:
                continue
            if dp == 0:
                # deterministic nudge off a stationary point
                z[k] *= 1.0 + 1e-6
                settled = False
                continue
            w = p / dp
            s = 0j
            for j in range(n):
                if j != k:
                    d = z[k] - z[j]
                    if d == 0:
                        d = complex(1e-12, 1e-12)
                    s += 1.0 / d
            denom = 1.0 - w * s
            step = w if denom == 0 else w / denom
            z[k] -= step
            if abs(step) > 1e-15 * abs(z[k]):
                settled = False
        if settled:
            break
        if all(
            abs(_horner_pair(monic, v)[0]) <= DEFAULT_TOL * _eval_scale(monic, v)
            for v in z
        ):
            break
    return z, iterations


def _newton_polish(monic, roots):
    out = []
    for z in roots:
        for _ in range(NEWTON_POLISH_STEPS):
            p, dp = _horner_pair(monic, z)
            if p == 0 or dp == 0:
                break
            step = p / dp
            if abs(step) > 1.0:
                break
            z = z - step
        out.append(z)
    return out


def _pair_conjugates(roots):
    """Symmetrise the root multiset of a real-coefficient polynomial."""
    real_axis_snap = [
        complex(z.real, 0.0) if abs(z.imag) <= 1e-10 * (1.0 + abs(z)) else z
        for z in roots
    ]
    upper = [z for z in real_axis_snap if z.imag > 0]
    lower = [z for z in real_axis_snap if z.imag < 0]
    reals = [z for z in real_axis_snap if z.imag == 0]
    upper.sort(key=lambda z: (z.real, z.imag))
    paired = []
    for z in upper:
        if not lower:
            paired.append(z)
            continue
        partner = min(lower, key=lambda w: abs(z - w.conjugate()))
        lower.remove(partner)
        mean = (z + partner.conjugate()) / 2.0
        paired.extend([mean, mean.conjugate()])
    paired.extend(lower)
    paired.extend(reals)
    return paired


def _cluster(roots):
    """Merge clusters of roots into repeated roots at their centroid.

    Roots within CLUSTER_RADIUS times the larger modulus of the pair are
    linked, and links are transitive: a chain of linked roots is one
    cluster even where its ends lie farther apart.  A link gives the
    second root's whole cluster the first root's label.
    """
    n = len(roots)
    label = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            scale = max(abs(roots[i]), abs(roots[j]))
            if abs(roots[i] - roots[j]) <= CLUSTER_RADIUS * scale:
                old = label[j]
                label = [label[i] if k == old else k for k in label]

    out, mult = [], []
    for i in range(n):
        # each cluster is summed in index order, so all its members agree
        group = [roots[k] for k in range(n) if label[k] == label[i]]
        out.append(sum(group) / len(group))
        mult.append(len(group))
    return out, mult


def find_roots(f: UniPoly) -> RootSet:
    """All complex roots of f, polished, sorted by (re, im).

    A root at 0 of multiplicity k is read from the exact coefficients
    (the k lowest are zero) and divided out; the rest are rounded to
    doubles once, a leading coefficient that rounds to zero being a
    ValueError and an iterate that overflows double range an
    OverflowError.

    The residual acceptance test normalises per root by the evaluation
    scale sum |c_i| |z|^i (relative backward error) with the fixed
    DEFAULT_TOL; failing it, or running out of the DEFAULT_MAX_ITER
    iterations while residuals are still large, raises ConvergenceError
    with the best iterates found.
    """
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    zeros = 0
    while f.coefficients[zeros].is_zero:
        zeros += 1
    coeffs = [c.to_complex() for c in f.coefficients]
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient is zero in double precision")
    monic = [c / lead for c in coeffs[zeros:]]

    roots, iterations = [], 0
    if len(monic) > 1:
        roots, iterations = _aberth(monic)
        roots = _newton_polish(monic, roots)
    if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in roots):
        raise OverflowError(
            f"a root iterate exceeds double range at iteration {iterations}"
        )

    if all(c.imag == 0.0 for c in coeffs):
        roots = _pair_conjugates(roots)

    # zeros stay apart from every nonzero root under the relative radius
    roots, multiplicities = _cluster(roots + [0j] * zeros)

    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    roots = [roots[i] for i in order]
    multiplicities = [multiplicities[i] for i in order]

    residuals = [abs(_horner_pair(coeffs, z)[0]) for z in roots]
    # written so that a NaN residual fails
    if not all(
        r <= DEFAULT_TOL * _eval_scale(coeffs, z) for r, z in zip(residuals, roots)
    ):
        raise ConvergenceError(
            f"root residuals exceed {DEFAULT_TOL} * ||f|| after {iterations} iterations",
            roots,
            residuals,
            iterations,
        )

    return RootSet(
        roots=tuple(roots),
        residuals=tuple(residuals),
        multiplicities=tuple(multiplicities),
        iterations=iterations,
    )
