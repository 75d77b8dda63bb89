"""Numeric root extraction for univariate complex polynomials.

All roots are found simultaneously with the Aberth-Ehrlich iteration,
then polished with a fixed number of Newton steps.  Initial iterates
sit on the Cauchy-bound circle rotated by a fixed irrational phase, so
identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import cmath
import math
from ._record import Record
from .gaussrat import GaussianRational
from .inversive import UniPoly

__all__ = ["RootSet", "ConvergenceError", "eval_poly", "find_roots"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
NEWTON_POLISH_STEPS = 3
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

    __slots__ = ("roots", "residuals", "poly_degree", "multiplicities", "iterations")

    @property
    def has_repeated_roots(self) -> bool:
        return any(m > 1 for m in self.multiplicities)


def eval_poly(f: UniPoly, z):
    """Horner evaluation: exact at a GaussianRational, in doubles otherwise."""
    if isinstance(z, GaussianRational):
        acc = GaussianRational(0)
        for c in reversed(f.coefficients):
            acc = acc * z + c
        return acc
    acc = 0j
    zz = complex(z)
    for c in reversed(f.coefficients):
        acc = acc * zz + c.to_complex()
    return acc


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
    return [
        radius * cmath.exp(1j * (2.0 * math.pi * k / n + _INITIAL_PHASE))
        for k in range(n)
    ]


def _aberth(monic, tol):
    n = len(monic) - 1
    z = _initial_points(monic)
    iterations = 0
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        moved = 0.0
        for k in range(n):
            p, dp = _horner_pair(monic, z[k])
            if p == 0:
                continue
            if dp == 0:
                # deterministic nudge off a stationary point
                z[k] *= 1.0 + 1e-6
                moved = math.inf
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
            moved = max(moved, abs(step))
        if moved <= 1e-15 * max(1.0, max(abs(v) for v in z)):
            break
        if all(
            abs(_horner_pair(monic, v)[0]) <= tol * _eval_scale(monic, v) for v in z
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
    """Merge clusters tighter than CLUSTER_RADIUS into repeated roots."""
    n = len(roots)
    group = list(range(n))

    def find(a):
        while group[a] != a:
            group[a] = group[group[a]]
            a = group[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= CLUSTER_RADIUS:
                group[find(i)] = find(j)

    members: dict = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)

    out = [0j] * n
    mult = [1] * n
    for idx_list in members.values():
        centroid = sum(roots[i] for i in idx_list) / len(idx_list)
        for i in idx_list:
            out[i] = centroid
            mult[i] = len(idx_list)
    return out, mult


def find_roots(f: UniPoly, tol: float = DEFAULT_TOL) -> RootSet:
    """All complex roots of f, polished, sorted by (re, im).

    The exact coefficients are rounded to doubles once; a leading
    coefficient that rounds to zero is a ValueError, and an iterate that
    overflows double range an OverflowError.

    The residual acceptance test normalises per root by the evaluation
    scale sum |c_i| |z|^i (relative backward error); failing it, or
    running out of the DEFAULT_MAX_ITER iterations while residuals are
    still large, raises ConvergenceError with the best iterates found.
    tol must be positive and finite: with NaN or infinity the residual
    test could never fail, and at zero or below it could never pass.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"root tolerance must be positive and finite, got {tol!r}")
    coeffs = [c.to_complex() for c in f.coefficients]
    if len(coeffs) < 2:
        raise ValueError("degree must be at least 1")
    n = len(coeffs) - 1
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient is zero in double precision")
    monic = [c / lead for c in coeffs]

    roots, iterations = _aberth(monic, tol)
    roots = _newton_polish(monic, roots)
    if not all(map(cmath.isfinite, roots)):
        raise OverflowError(
            f"a root iterate exceeds double range at iteration {iterations}"
        )

    if all(c.imag == 0.0 for c in coeffs):
        roots = _pair_conjugates(roots)

    roots, multiplicities = _cluster(roots)

    order = sorted(range(n), key=lambda i: (roots[i].real, roots[i].imag))
    roots = [roots[i] for i in order]
    multiplicities = [multiplicities[i] for i in order]

    residuals = [abs(_horner_pair(coeffs, z)[0]) for z in roots]
    # written so that a NaN residual fails
    if not all(
        r <= tol * _eval_scale(coeffs, z) for r, z in zip(residuals, roots)
    ):
        raise ConvergenceError(
            f"root residuals exceed {tol} * ||f|| after {iterations} iterations",
            roots,
            residuals,
            iterations,
        )

    return RootSet(
        roots=tuple(roots),
        residuals=tuple(residuals),
        poly_degree=n,
        multiplicities=tuple(multiplicities),
        iterations=iterations,
    )
