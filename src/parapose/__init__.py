"""Exact forward-position solving for planar 3RPR parallel manipulators.

The package computes reduced lex Groebner bases over the Gaussian
rationals for the manipulator's position ideal, solves by elimination
and back-substitution, classifies physical postures, and ships the
inversive-geometry toolkit (circle inversion, self-inversive and
self-reciprocal polynomials, harmonic conjugates) that explains the
structure of the eliminants.
"""

from .gaussrat import GaussianRational, parse_gaussian, parse_rational
from .groebner import (
    GroebnerBasis,
    PairLimitExceeded,
    buchberger,
    is_groebner_basis,
)
from .inversive import (
    InversionCircle,
    UniPoly,
    conjugate_reciprocal,
    harmonic_conjugate_check,
    invert_in_circle,
    invert_unit,
    is_self_inversive,
    is_self_reciprocal,
    parse_unipoly,
    reciprocal,
)
from .kinematics import (
    ManipulatorProblem,
    PostureAngles,
    ShapePositionError,
    SolutionReport,
    SolutionTuple,
    build_ideal,
    filter_physical,
    residual_max,
    solve_posture,
    to_angles,
)
from .multipoly import (
    MultiPoly,
    N_VARS,
    VAR_NAMES,
    normal_form,
    s_polynomial,
)
from .rootfind import ConvergenceError, RootSet, find_roots
from .svgdraw import VertexMismatchError, render_posture

__version__ = "0.1.0"


def __getattr__(name):
    # the polynomial text grammar loads on first use, not with the package
    if name in ("parse_poly", "PolyParseError"):
        from . import polytext

        return getattr(polytext, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "GaussianRational",
    "parse_rational",
    "parse_gaussian",
    "MultiPoly",
    "N_VARS",
    "VAR_NAMES",
    "PolyParseError",
    "normal_form",
    "parse_poly",
    "s_polynomial",
    "GroebnerBasis",
    "PairLimitExceeded",
    "buchberger",
    "is_groebner_basis",
    "InversionCircle",
    "UniPoly",
    "parse_unipoly",
    "invert_in_circle",
    "invert_unit",
    "conjugate_reciprocal",
    "reciprocal",
    "is_self_inversive",
    "is_self_reciprocal",
    "harmonic_conjugate_check",
    "RootSet",
    "ConvergenceError",
    "find_roots",
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
    "VertexMismatchError",
    "render_posture",
    "__version__",
]
