"""Forward-position pipeline for the planar 3RPR parallel manipulator.

Given the base geometry and the three prismatic strokes, the position
constraints are assembled as eight polynomials over Q(i) (two loop
closures, their formal conjugates, and four unit-modulus circle
conditions).  The reduced lex Groebner basis triangularises the system:
its level-7 elimination ideal holds a single univariate eliminant whose
roots seed a back-substitution through the shape-position basis.
Solutions are classified as physical postures when every direction
variable lies on the unit circle and its conjugate variable equals its
complex conjugate, both to within the fixed ``DEFAULT_PHYSICAL_TOL``
(1e-6).
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Sequence

from ._record import Record
from .gaussrat import GaussianRational, exact_rational
from .groebner import buchberger
from .inversive import UniPoly, is_self_reciprocal
from .multipoly import BAR_PARTNER, MultiPoly, N_VARS, VAR_NAMES
from .rootfind import find_roots

__all__ = [
    "ManipulatorProblem",
    "SolutionTuple",
    "PostureAngles",
    "SolutionReport",
    "ShapePositionError",
    "build_ideal",
    "filter_physical",
    "to_angles",
    "residual_max",
    "solve_posture",
]

DEFAULT_PHYSICAL_TOL = 1e-6


class ShapePositionError(RuntimeError):
    """The basis does not triangularise the requested extension."""


_LENGTHS = ("l_ab", "l_ac", "s_a", "s_b", "s_c")


def _exact(name: str, value):
    """A field by gaussrat's exact-scalar rule, its name leading any error."""
    try:
        if name in _LENGTHS:
            return exact_rational(value)
        return value if isinstance(value, GaussianRational) else GaussianRational(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


class ManipulatorProblem(Record):
    """Geometry constants and connector strokes, all exact.

    The platform triangle has sides l_ab, l_ac meeting at vertex A with
    interior direction cis_beta (must be exactly unit-modulus in Q(i));
    the base anchors B and C sit at d_ab and d_ac in the Gauss plane.
    The strokes s_a, s_b, s_c are the active prismatic joint lengths.
    """

    __slots__ = ("l_ab", "l_ac", "d_ab", "d_ac", "cis_beta", "s_a", "s_b", "s_c")

    def _check(self):
        for name in _LENGTHS + ("d_ab", "d_ac", "cis_beta"):
            value = _exact(name, getattr(self, name))
            if name in _LENGTHS and value <= 0:
                raise ValueError(f"{name}: lengths must be positive")
            object.__setattr__(self, name, value)
        if self.cis_beta.norm_sq() != 1:
            raise ValueError("cis_beta: must be exactly unit-modulus")
        if self.d_ab.is_zero:
            raise ValueError("d_ab: base anchor must be nonzero")
        if self.d_ac.is_zero:
            raise ValueError("d_ac: base anchor must be nonzero")
        if self.d_ab == self.d_ac:
            raise ValueError("d_ac: base anchors must be distinct")


class SolutionTuple(Record):
    """A variety point in the 8 chain-ordered coordinates."""

    __slots__ = ("coords", "physical", "residual_max")
    _defaults = {"physical": False, "residual_max": math.nan}


class PostureAngles(Record):
    """Connector and platform angles in degrees, each in (-180, 180]."""

    __slots__ = ("theta_a", "theta_b", "theta_c", "alpha")

    def _check(self):
        for name in self.__slots__:
            v = getattr(self, name)
            if not (math.isfinite(v) and -180.0 < v <= 180.0):
                raise ValueError(f"{name}: angle {v!r} outside (-180, 180]")

    def as_tuple(self):
        return (self.theta_a, self.theta_b, self.theta_c, self.alpha)


class SolutionReport(Record):
    """Everything the pipeline produced for one problem."""

    __slots__ = (
        "problem",
        "basis",
        "eliminant",
        "eliminant_self_reciprocal",
        "solutions",
        "postures",
        "empty_variety",
        "diagnostics",
        "timings_ms",
    )
    _defaults = {"empty_variety": False}


def build_ideal(problem: ManipulatorProblem) -> list:
    """The eight position polynomials f1..f8 with constants substituted."""
    ca, cb, cc, al = (MultiPoly.variable(i) for i in range(4))
    cca, ccb, ccc, ccal = (MultiPoly.variable(i) for i in range(4, 8))

    p = problem
    f1 = p.s_a * ca + p.l_ab * al - p.s_b * cb - MultiPoly.constant(p.d_ab)
    f2 = p.s_a * ca + (p.l_ac * p.cis_beta) * al - p.s_c * cc - MultiPoly.constant(p.d_ac)
    f3 = f1.formal_conjugate()
    f4 = f2.formal_conjugate()
    f5 = ca * cca - 1
    f6 = cb * ccb - 1
    f7 = cc * ccc - 1
    f8 = al * ccal - 1
    return [f1, f2, f3, f4, f5, f6, f7, f8]


def _extend(tails, root: complex) -> SolutionTuple:
    # every tail lies in Q(i)[CCAL] (see _read_shape), so it is evaluated
    # at the root alone
    point = (0j,) * (N_VARS - 1) + (complex(root),)
    values = [-tail.evaluate(point) for tail in tails]
    return SolutionTuple(coords=tuple(reversed(values)) + point[-1:])


def _is_physical(coords) -> bool:
    # the directions a, b, c, alpha are the first four variables
    for u_idx, bar_idx in enumerate(BAR_PARTNER[:4]):
        u = coords[u_idx]
        # written so that a NaN coordinate fails
        if not abs(coords[bar_idx] - u.conjugate()) <= DEFAULT_PHYSICAL_TOL:
            return False
        if not abs(abs(u) - 1.0) <= DEFAULT_PHYSICAL_TOL:
            return False
    return True


def filter_physical(tuples: Iterable[SolutionTuple]):
    """Mark tuples physical/discarded, to DEFAULT_PHYSICAL_TOL; nothing is dropped."""
    return [t.replace(physical=_is_physical(t.coords)) for t in tuples]


def to_angles(t: SolutionTuple) -> PostureAngles:
    """Angles (degrees) of cis_a, cis_b, cis_c, cis_alpha for a physical tuple."""
    if not t.physical:
        raise ValueError("posture angles are defined for physical tuples only")
    values = []
    for idx in range(4):
        z = t.coords[idx]
        deg = math.degrees(math.atan2(z.imag, z.real))
        if deg <= -180.0:
            deg += 360.0
        values.append(deg)
    return PostureAngles(*values)


def residual_max(t: SolutionTuple, ideal: Sequence[MultiPoly]) -> float:
    """Largest |f_i| over the ideal generators at the tuple's coordinates."""
    return max(abs(f.evaluate(t.coords)) for f in ideal)


def _read_shape(basis) -> tuple:
    """The eliminant and the tails of the linear elements for CCC down to CA.

    A reduced lex basis in shape position is {CA + g1(CCAL), ...,
    CCC + g7(CCAL), e(CCAL)} (Gianni & Mora 1989), so leading monomials
    alone place its elements: sorted descending, the eliminant e is last.
    A degree-0 eliminant (the unit ideal) has no tails.
    """
    *upper, last = basis.elements
    lm = last.leading_monomial
    if any(lm[:-1]):
        raise ShapePositionError(
            f"expected one univariate eliminant at level {N_VARS - 1}, found 0"
        )
    coeffs = [GaussianRational(0)] * (lm[-1] + 1)
    for mono, c in last.terms:
        coeffs[mono[-1]] = c
    eliminant = UniPoly(coeffs)
    if eliminant.degree == 0:
        return eliminant, ()
    by_lead = {g.leading_monomial: g for g in upper}
    tails = []
    for v in range(N_VARS - 2, -1, -1):
        g = by_lead.get(MultiPoly.variable(v).leading_monomial)
        if g is None:
            raise ShapePositionError(
                f"triangular extension unavailable: variable {VAR_NAMES[v]} "
                "has 0 linear basis elements"
            )
        # the tail is reduced modulo the other linear elements and e, so it
        # lies in Q(i)[CCAL] with degree below e's (the shape lemma)
        tails.append(MultiPoly._trusted(g.terms[1:]))
    return eliminant, tails


def solve_posture(problem: ManipulatorProblem) -> SolutionReport:
    """Run the full pipeline: ideal, basis, eliminant, roots, postures.

    The budgets and tolerances are module constants: the pair budget of
    ``buchberger``, the iteration budget and residual tolerance of
    ``find_roots``, and ``DEFAULT_PHYSICAL_TOL`` of ``filter_physical``.
    """
    timings: dict = {}
    t0 = time.monotonic()
    ideal = build_ideal(problem)
    t1 = time.monotonic()
    timings["build_ideal"] = (t1 - t0) * 1e3

    basis = buchberger(ideal)
    t2 = time.monotonic()
    timings["groebner"] = (t2 - t1) * 1e3

    # a basis not in shape position fails here, before any root is found
    eliminant, tails = _read_shape(basis)

    # AL*CCAL - 1 lies in the ideal, so CCAL is invertible modulo the
    # eliminant and its constant term is nonzero
    self_reciprocal = is_self_reciprocal(eliminant)

    # a degree-0 eliminant is a nonzero constant: the variety is empty
    empty_variety = eliminant.degree == 0
    roots, iterations = (), 0
    if not empty_variety:
        found = find_roots(eliminant)
        roots, iterations = found.roots, found.iterations
    t3 = time.monotonic()
    timings["rootfind"] = (t3 - t2) * 1e3

    tuples = [_extend(tails, r) for r in roots]
    tuples = filter_physical(tuples)
    tuples = [t.replace(residual_max=residual_max(t, ideal)) for t in tuples]
    postures = tuple(to_angles(t) for t in tuples if t.physical)
    timings["back_substitute"] = (time.monotonic() - t3) * 1e3
    timings["total"] = (time.monotonic() - t0) * 1e3

    # every BuchbergerStats field is a pair counter of the report
    stats = basis.stats
    diagnostics = {
        "basis_size": len(basis.elements),
        **{name: getattr(stats, name) for name in stats.__slots__},
        "eliminant_degree": eliminant.degree,
        "root_iterations": iterations,
        "physical_count": sum(1 for t in tuples if t.physical),
    }

    return SolutionReport(
        problem=problem,
        basis=basis,
        eliminant=eliminant,
        eliminant_self_reciprocal=self_reciprocal,
        solutions=tuple(tuples),
        postures=postures,
        empty_variety=empty_variety,
        diagnostics=diagnostics,
        timings_ms=timings,
    )
