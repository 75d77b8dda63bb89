import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parapose.gaussrat import GaussianRational
from parapose.kinematics import (
    ManipulatorProblem,
    ShapePositionError,
    SolutionTuple,
    build_ideal,
    filter_physical,
    residual_max,
    solve_posture,
    to_angles,
)
from parapose.groebner import BuchbergerStats, GroebnerBasis, buchberger
from parapose.kinematics import PostureAngles, _extend, _read_shape
from parapose.multipoly import MultiPoly, parse_poly
from parapose.rootfind import find_roots

from conftest import RIGHT_TRIANGLE_GEOMETRY, make_problem
from golden import POSTURES_EXAMPLE1, POSTURES_EXAMPLE2


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def match_postures(postures, expected, tol):
    remaining = [p.as_tuple() for p in postures]
    for want in expected:
        best = min(
            remaining,
            key=lambda got: max(abs(g - w) for g, w in zip(got, want)),
        )
        worst = max(abs(g - w) for g, w in zip(best, want))
        assert worst <= tol, f"posture {want} unmatched (nearest {best})"
        remaining.remove(best)


class TestManipulatorProblem:
    def test_accepts_reference_geometry(self, problem1):
        assert problem1.s_b == Fraction(7, 2)
        assert problem1.d_ac == gq(0, 8)

    @pytest.mark.parametrize("field", ["l_ab", "l_ac", "s_a", "s_b", "s_c"])
    def test_nonpositive_lengths_rejected(self, field):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=Fraction(2),
                      s_b=Fraction(7, 2), s_c=Fraction(5, 2))
        kwargs[field] = Fraction(0)
        with pytest.raises(ValueError, match=field):
            ManipulatorProblem(**kwargs)

    def test_float_rejected(self):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=2.0, s_b=Fraction(7, 2),
                      s_c=Fraction(5, 2))
        with pytest.raises(TypeError, match="s_a"):
            ManipulatorProblem(**kwargs)

    @pytest.mark.parametrize("value", ["1.5", "1e1", True], ids=repr)
    def test_problem_file_rule_for_lengths(self, value):
        # the rule of gaussrat.exact_rational, as in problem files
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=Fraction(2),
                      s_b=Fraction(7, 2), s_c=Fraction(5, 2))
        kwargs["l_ab"] = value
        with pytest.raises(ValueError, match="^l_ab: malformed rational"):
            ManipulatorProblem(**kwargs)
        kwargs["l_ab"] = "3/2"
        assert ManipulatorProblem(**kwargs).l_ab == Fraction(3, 2)

    def test_non_unit_direction_rejected(self):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=Fraction(2),
                      s_b=Fraction(7, 2), s_c=Fraction(5, 2))
        kwargs["cis_beta"] = gq(1, 1)
        with pytest.raises(ValueError, match="cis_beta"):
            ManipulatorProblem(**kwargs)

    def test_pythagorean_direction_accepted(self):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=Fraction(2),
                      s_b=Fraction(7, 2), s_c=Fraction(5, 2))
        kwargs["cis_beta"] = gq(Fraction(3, 5), Fraction(4, 5))
        assert ManipulatorProblem(**kwargs).cis_beta.norm_sq() == 1

    def test_degenerate_base_rejected(self):
        kwargs = dict(RIGHT_TRIANGLE_GEOMETRY, s_a=Fraction(2),
                      s_b=Fraction(7, 2), s_c=Fraction(5, 2))
        kwargs["d_ab"] = gq(0)
        with pytest.raises(ValueError, match="d_ab"):
            ManipulatorProblem(**kwargs)
        kwargs["d_ab"] = gq(0, 8)
        with pytest.raises(ValueError, match="d_ac"):
            ManipulatorProblem(**kwargs)


class TestBuildIdeal:
    def test_first_loop_closure(self, problem1, ideal1):
        assert ideal1[0] == parse_poly("2*CA + 3*AL - 7/2*CB - 6")

    def test_second_loop_uses_rotated_side(self, ideal1):
        al_mono = tuple(1 if i == 3 else 0 for i in range(8))
        assert dict(ideal1[1].terms)[al_mono] == gq(0, 4)

    def test_unit_circle_constraints(self, ideal1):
        assert ideal1[7] == parse_poly("AL*CCAL - 1")
        assert ideal1[4] == parse_poly("CA*CCA - 1")

    def test_conjugate_equations_are_formal_conjugates(self, ideal1):
        assert ideal1[2] == ideal1[0].formal_conjugate()
        assert ideal1[3] == ideal1[1].formal_conjugate()

    def test_stroke_independent_constraint(self):
        other = make_problem(5, 1, 7)
        assert build_ideal(other)[7] == parse_poly("AL*CCAL - 1")


class TestBackSubstitute:
    def test_extends_printed_partial_solutions(self, basis1):
        eliminant, tails = _read_shape(basis1)
        roots = find_roots(eliminant).roots
        lower = next(z for z in roots if abs(z - complex(0.944, -0.329)) < 1e-2)
        upper = next(z for z in roots if abs(z - complex(0.944, 0.329)) < 1e-2)
        t_lower = _extend(tails, lower)
        t_upper = _extend(tails, upper)
        assert abs(t_lower.coords[6] - complex(-0.135, 0.991)) < 1e-3
        assert abs(t_upper.coords[6] - complex(0.451, 0.892)) < 1e-3

    def test_base_step_residual(self, basis1):
        eliminant, _ = _read_shape(basis1)
        # the last basis element is the eliminant in CCAL
        for z in find_roots(eliminant).roots:
            assert abs(basis1.elements[-1].evaluate((0j,) * 7 + (z,))) < 1e-10

    def test_requires_shape_position(self, basis1):
        broken = GroebnerBasis(
            tuple(g for g in basis1.elements if g.leading_monomial[0] == 0)
        )
        with pytest.raises(ShapePositionError, match="CA"):
            _read_shape(broken)


class TestPhysicalFilter:
    def test_example_counts(self, problem1, problem2):
        rep1 = solve_posture(problem1)
        rep2 = solve_posture(problem2)
        assert sum(t.physical for t in rep1.solutions) == 2
        assert len(rep1.solutions) == 4
        assert sum(t.physical for t in rep2.solutions) == 4

    def test_real_off_circle_tuple_discarded(self, basis1):
        t = _extend(_read_shape(basis1)[1], 1.822 + 0j)
        marked = filter_physical([t])
        assert len(marked) == 1 and not marked[0].physical

    def test_nan_tuple_discarded(self):
        t = SolutionTuple((complex("nan+nanj"),) * 8)
        assert not filter_physical([t])[0].physical


class TestAngles:
    def test_platform_angle(self):
        t = SolutionTuple(
            coords=(
                complex(0.944, 0.329),
            ) * 4 + (
                complex(0.944, -0.329),
            ) * 4,
            physical=True,
        )
        angles = to_angles(t)
        assert angles.alpha == pytest.approx(19.18, abs=0.05)

    def test_axis_directions(self):
        t = SolutionTuple(coords=(1 + 0j, 1j, 1 + 0j, 1j, 1 - 0j, -1j, 1 + 0j, -1j),
                          physical=True)
        angles = to_angles(t)
        assert angles.theta_a == 0.0
        assert angles.theta_b == 90.0

    def test_negative_real_axis_maps_to_180(self):
        t = SolutionTuple(coords=(-1 + 0j,) * 4 + (-1 - 0j,) * 4, physical=True)
        assert to_angles(t).theta_a == 180.0

    def test_non_physical_rejected(self):
        t = SolutionTuple(coords=(1 + 0j,) * 8, physical=False)
        with pytest.raises(ValueError):
            to_angles(t)

    def test_angle_range_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            PostureAngles(0.0, 0.0, 0.0, float("nan"))
        with pytest.raises(ValueError, match="theta_a"):
            PostureAngles(-180.0, 0.0, 0.0, 0.0)


class TestResiduals:
    def test_exact_variety_point(self):
        ca_minus_one = parse_poly("CA - 1")
        t = SolutionTuple(coords=(1 + 0j,) + (0j,) * 7)
        assert residual_max(t, [ca_minus_one]) == 0.0

    def test_reported_tuples_satisfy_originals(self, problem1, ideal1):
        rep = solve_posture(problem1)
        for t in rep.solutions:
            assert residual_max(t, ideal1) < 1e-9

    def test_perturbation_detected(self, problem1, ideal1):
        rep = solve_posture(problem1)
        t = rep.solutions[0]
        bumped = t.replace(coords=(t.coords[0] + 0.1,) + t.coords[1:])
        assert residual_max(bumped, ideal1) > 0.01


class TestSolvePosture:
    @pytest.mark.parametrize("name", ["tol_root", "tol_physical"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerances_checked_before_groebner(self, problem1, monkeypatch, name, value):
        # the tolerances are fixed: any value for either keyword is a TypeError
        def unreachable(*args, **kwargs):
            raise AssertionError("buchberger ran before the keyword was rejected")

        monkeypatch.setattr("parapose.kinematics.buchberger", unreachable)
        with pytest.raises(TypeError):
            solve_posture(problem1, **{name: value})

    def test_example_one_postures(self, problem1):
        rep = solve_posture(problem1)
        assert len(rep.postures) == 2
        match_postures(rep.postures, POSTURES_EXAMPLE1, 0.05)
        assert rep.eliminant_self_reciprocal

    def test_example_two_postures(self, problem2):
        rep = solve_posture(problem2)
        assert len(rep.postures) == 4
        match_postures(rep.postures, POSTURES_EXAMPLE2, 0.05)
        assert rep.eliminant_self_reciprocal

    def test_posture_count_matches_physical_count(self, problem1):
        rep = solve_posture(problem1)
        assert len(rep.postures) == sum(t.physical for t in rep.solutions)

    def test_infeasible_strokes(self):
        rep = solve_posture(make_problem(100, Fraction(7, 2), Fraction(5, 2)))
        assert len(rep.postures) == 0
        assert not rep.empty_variety
        roots = find_roots(rep.eliminant).roots
        assert all(abs(abs(z) - 1.0) > 1e-3 for z in roots)

    @pytest.mark.parametrize("l_ab", [10**8, 10**15])
    def test_badly_scaled_eliminant(self, l_ab):
        # the eliminant's roots span 22 to 29 orders of magnitude, with a
        # pair at about 6 and 10 times 1/l_ab: each root must converge on
        # its own scale and stay apart from its near neighbour
        geometry = dict(RIGHT_TRIANGLE_GEOMETRY, l_ab=Fraction(l_ab))
        problem = ManipulatorProblem(
            **geometry, s_a=Fraction(2), s_b=Fraction(7, 2), s_c=Fraction(5, 2)
        )
        rep = solve_posture(problem)
        rs = find_roots(rep.eliminant)
        assert rs.multiplicities == (1,) * 6
        assert len(rep.solutions) == 6
        assert min(abs(z) for z in rs.roots) < 10 / l_ab

    def test_conjugate_swap_closure(self, problem1, problem2):
        for problem in (problem1, problem2):
            rep = solve_posture(problem)
            coords = [t.coords for t in rep.solutions]
            for c in coords:
                swapped = tuple(c[i + 4].conjugate() for i in range(4)) + tuple(
                    c[i].conjugate() for i in range(4)
                )
                nearest = min(
                    max(abs(a - b) for a, b in zip(swapped, other))
                    for other in coords
                )
                assert nearest < 1e-9

    def test_geometric_closure(self, problem1):
        rep = solve_posture(problem1)
        s_a, s_b, s_c = (float(getattr(rep.problem, k)) for k in ("s_a", "s_b", "s_c"))
        l_ab, l_ac = float(rep.problem.l_ab), float(rep.problem.l_ac)
        d_ab, d_ac = complex(rep.problem.d_ab), complex(rep.problem.d_ac)
        cis_beta = complex(rep.problem.cis_beta)
        for t in rep.solutions:
            if not t.physical:
                continue
            cis_a, cis_b, cis_c, cis_alpha = t.coords[:4]
            via_a = s_a * cis_a + l_ab * cis_alpha
            via_b = d_ab + s_b * cis_b
            assert abs(via_a - via_b) < 1e-8
            via_a_c = s_a * cis_a + l_ac * cis_beta * cis_alpha
            via_c = d_ac + s_c * cis_c
            assert abs(via_a_c - via_c) < 1e-8

    def test_eliminant_exposed_exactly(self, problem1):
        rep = solve_posture(problem1)
        assert rep.eliminant.to_text() == "1, -213/50, 165857/25600, -213/50, 1"

    def test_diagnostics_counters(self, problem1):
        rep = solve_posture(problem1)
        assert rep.diagnostics["basis_size"] == 8
        assert rep.diagnostics["eliminant_degree"] == 4
        assert rep.diagnostics["physical_count"] == 2
        assert rep.diagnostics["root_iterations"] > 0

    @pytest.mark.parametrize("name", ["problem1", "problem2"])
    def test_pair_counters_pinned(self, name, request):
        # the bundled problems share one pair trace; a change here is a
        # change of pair strategy and must be deliberate
        diag = solve_posture(request.getfixturevalue(name)).diagnostics
        counters = {k: v for k, v in diag.items() if k.startswith(("pairs_", "zero_"))}
        assert counters == {
            "pairs_considered": 68,
            "pairs_reduced": 11,
            "zero_reductions": 6,
            "pairs_dropped_coprime": 54,
            "pairs_dropped_mf": 2,
            "pairs_dropped_bk": 1,
        }

    @pytest.mark.parametrize("name", ["problem1", "problem2"])
    def test_diagnostics_carry_every_pair_counter(self, name, request):
        report = solve_posture(request.getfixturevalue(name))
        diag = report.diagnostics
        assert list(diag) == ["basis_size", *BuchbergerStats.__slots__,
                              "eliminant_degree", "root_iterations", "physical_count"]
        stats = report.basis.stats
        assert all(diag[f] == getattr(stats, f) for f in BuchbergerStats.__slots__)

    def test_inconsistent_system_reports_empty_variety(self, problem1, monkeypatch):
        import parapose.kinematics as kin
        from parapose.groebner import buchberger

        unit_ideal = buchberger([MultiPoly.constant(GaussianRational(1))])
        monkeypatch.setattr(kin, "buchberger", lambda gens, **kw: unit_ideal)
        rep = solve_posture(problem1)
        assert rep.empty_variety
        assert rep.solutions == () and rep.postures == ()
        assert rep.eliminant.degree == 0

    def test_missing_eliminant_is_shape_error(self, problem1, monkeypatch):
        import parapose.kinematics as kin
        from parapose.groebner import buchberger

        no_univariate = buchberger([MultiPoly.variable(0)])
        monkeypatch.setattr(kin, "buchberger", lambda gens, **kw: no_univariate)
        with pytest.raises(ShapePositionError, match="univariate eliminant"):
            solve_posture(problem1)

    def test_shape_checked_before_roots(self, problem1, monkeypatch):
        import parapose.kinematics as kin
        from parapose.groebner import buchberger

        def unreachable(*args, **kwargs):
            raise AssertionError("find_roots ran before the shape check")

        # the eliminant has degree 2, but CCC has no linear element
        not_shape = buchberger([parse_poly("CCAL^2 - 2"), parse_poly("CCC^2 - CCAL")])
        monkeypatch.setattr(kin, "buchberger", lambda gens, **kw: not_shape)
        monkeypatch.setattr(kin, "find_roots", unreachable)
        with pytest.raises(ShapePositionError) as info:
            solve_posture(problem1)
        assert str(info.value) == (
            "triangular extension unavailable: variable CCC has 0 linear basis elements"
        )

    def test_congruent_platform_is_shape_error(self):
        # the platform triangle equals the base triangle: a one-parameter
        # family of postures, so CCC leads no linear basis element
        problem = ManipulatorProblem(
            l_ab=6, l_ac=8, d_ab=gq(6), d_ac=gq(0, 8), cis_beta=gq(0, 1),
            s_a=3, s_b=3, s_c=3,
        )
        with pytest.raises(ShapePositionError) as info:
            solve_posture(problem)
        assert str(info.value) == (
            "triangular extension unavailable: variable CCC has 0 linear basis elements"
        )

    def test_collinear_design_reports_empty_variety(self):
        problem = ManipulatorProblem(
            l_ab=3, l_ac=6, d_ab=gq(6), d_ac=gq(12), cis_beta=gq(1),
            s_a=2, s_b=2, s_c=2,
        )
        rep = solve_posture(problem)
        assert rep.empty_variety
        assert rep.eliminant.degree == 0
        assert rep.solutions == () and rep.postures == ()


def generic_problem(rng):
    """Pythagorean cis_beta, rational lengths, anchors and strokes (eighths)."""

    def q(lo, hi):
        return Fraction(rng.randint(lo * 8, hi * 8), 8)

    m, n = rng.choice(((2, 1), (3, 2), (4, 1), (4, 3)))
    c = m * m + n * n
    cis_beta = gq(Fraction(rng.choice((1, -1)) * (m * m - n * n), c),
                  Fraction(rng.choice((1, -1)) * 2 * m * n, c))
    while True:
        d_ab, d_ac = gq(q(-8, 8), q(-8, 8)), gq(q(-8, 8), q(-8, 8))
        if not d_ab.is_zero and not d_ac.is_zero and d_ab != d_ac:
            break
    return ManipulatorProblem(
        l_ab=q(1, 6), l_ac=q(1, 6), d_ab=d_ab, d_ac=d_ac, cis_beta=cis_beta,
        s_a=q(1, 10), s_b=q(1, 10), s_c=q(1, 10),
    )


def assert_shape_lemma(basis):
    """Each tail that _read_shape takes lies in Q(i)[CCAL] and has degree
    below the eliminant's; returns the eliminant."""
    eliminant, tails = _read_shape(basis)
    for tail in tails:
        for mono, _ in tail.terms:
            assert not any(mono[:-1]) and mono[-1] < eliminant.degree, tail
    return eliminant


class TestShapeLemma:
    """In a reduced basis with leading monomials CA, ..., CCC and CCAL^d,
    no tail term is divisible by any of them, so _extend may evaluate each
    tail at the root alone."""

    def test_bundled_problems(self, basis1, basis2):
        for basis in (basis1, basis2):
            assert assert_shape_lemma(basis).degree == 4

    @given(st.integers(0, 2**32 - 1))
    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    def test_generic_draws(self, seed):
        basis = buchberger(build_ideal(generic_problem(random.Random(seed))))
        try:
            assert_shape_lemma(basis)
        except ShapePositionError:
            pass  # not in shape position: nothing is read from it


def assert_every_pair_accounted(stats):
    """In a finished run every pair considered was reduced or dropped."""
    assert stats.pairs_considered == (
        stats.pairs_reduced + stats.pairs_dropped_coprime
        + stats.pairs_dropped_mf + stats.pairs_dropped_bk
    ), stats


class TestPairAccounting:
    def test_bundled_problems(self, basis1, basis2):
        for basis in (basis1, basis2):
            assert_every_pair_accounted(basis.stats)

    @given(st.integers(0, 2**32 - 1))
    @settings(derandomize=True, database=None, max_examples=10, deadline=None)
    def test_generic_draws(self, seed):
        ideal = build_ideal(generic_problem(random.Random(seed)))
        assert_every_pair_accounted(buchberger(ideal).stats)


class TestEliminantConstantTerm:
    """AL*CCAL - 1 is in the ideal, so the eliminant in CCAL has a nonzero
    constant term and the exact predicates on it never reject it."""

    def test_bundled_problems(self, problem1, problem2):
        for problem in (problem1, problem2):
            assert not solve_posture(problem).eliminant.coefficients[0].is_zero

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_generic_problems(self, seed):
        rep = solve_posture(generic_problem(random.Random(seed)))
        assert rep.eliminant.degree == 6
        assert not rep.eliminant.coefficients[0].is_zero


def pythagorean_unit(m, n):
    """(m + n*i)^2 / (m^2 + n^2): an exact unit direction of Q(i)."""
    z = GaussianRational(m, n)
    return z * z / z.norm_sq()


def planted(units, lengths):
    """A problem built around the exact posture units = (CA, CB, CC, AL,
    cis_beta), and that posture as a point of the eight coordinates."""
    ca, cb, cc, al, beta = units
    s_a, s_b, s_c, l_ab, l_ac = lengths
    problem = ManipulatorProblem(
        l_ab=l_ab, l_ac=l_ac, cis_beta=beta, s_a=s_a, s_b=s_b, s_c=s_c,
        d_ab=s_a * ca + l_ab * al - s_b * cb,
        d_ac=s_a * ca + l_ac * beta * al - s_c * cc,
    )
    return problem, [ca, cb, cc, al] + [u.conjugate() for u in (ca, cb, cc, al)]


def assert_planted_point_is_exact_root(problem, point):
    """Every basis element vanishes exactly at the planted point; returns
    the basis."""
    basis = buchberger(build_ideal(problem))
    for g in basis.elements:
        assert g.evaluate(point).is_zero, g
    return basis


PLANTED_CASES = [
    ((pythagorean_unit(2, 1), pythagorean_unit(3, 2), pythagorean_unit(4, 1),
      pythagorean_unit(4, 3), pythagorean_unit(1, 1)),
     (Fraction(2), Fraction(7, 2), Fraction(5, 2), Fraction(3), Fraction(4))),
    ((pythagorean_unit(1, 2), pythagorean_unit(5, 2), pythagorean_unit(-3, 1),
      pythagorean_unit(2, -1), pythagorean_unit(3, 2)),
     (Fraction(9, 8), Fraction(5), Fraction(13, 4), Fraction(7, 2), Fraction(11, 8))),
    ((pythagorean_unit(4, -1), pythagorean_unit(1, 3), pythagorean_unit(2, 5),
      pythagorean_unit(-1, 4), pythagorean_unit(5, 1)),
     (Fraction(6), Fraction(3, 8), Fraction(17, 4), Fraction(5, 2), Fraction(9))),
]


class TestPlantedPosture:
    """Ground truth that does not come from the solver: problems built
    around a known exact posture (Pythagorean unit directions, rational
    strokes and sides, anchors d_ab = s_a*CA + l_ab*AL - s_b*CB and
    d_ac = s_a*CA + l_ac*cis_beta*AL - s_c*CC)."""

    @pytest.mark.parametrize("units, lengths", PLANTED_CASES)
    def test_fixed_cases(self, units, lengths):
        problem, point = planted(units, lengths)
        basis = assert_planted_point_is_exact_root(problem, point)
        eliminant = assert_shape_lemma(basis)
        assert eliminant.degree >= 1
        assert basis.elements[-1].evaluate((gq(0),) * 7 + (point[7],)).is_zero
        # the solver reports the planted posture among its physical ones
        report = solve_posture(problem)
        assert any(
            all(abs(cmath.rect(1.0, math.radians(a)) - complex(u)) <= 1e-6
                for a, u in zip(posture.as_tuple(), units))
            for posture in report.postures
        )

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5))
            .filter(lambda mn: mn != (0, 0))
            .map(lambda mn: pythagorean_unit(*mn)),
            min_size=5, max_size=5,
        ),
        st.lists(st.integers(8, 72).map(lambda k: Fraction(k, 8)), min_size=5, max_size=5),
    )
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    def test_random_cases(self, units, lengths):
        try:
            problem, point = planted(units, lengths)
        except ValueError:
            return  # coincident or zero anchors: not a valid design
        basis = assert_planted_point_is_exact_root(problem, point)
        try:
            assert_shape_lemma(basis)
        except ShapePositionError:
            return  # a degenerate design: no univariate eliminant to check
        # the last basis element is the eliminant in CCAL
        assert basis.elements[-1].evaluate((gq(0),) * 7 + (point[7],)).is_zero


# Two eliminants of one sweep geometry with two roots on the unit circle
# 1.7e-5 apart: DEFAULT_PHYSICAL_TOL marks one root of the pair physical and
# its twin not, and both tuples' residuals exceed 1e-6, because a double
# precision root is good to only ~1e-11 next to its twin.
NEAR_DOUBLE_GEOMETRY = dict(
    l_ab=Fraction(7, 2), l_ac=Fraction(21, 4),
    d_ab=gq(Fraction(9, 8), Fraction(7, 2)), d_ac=gq(Fraction(33, 8), Fraction(23, 4)),
    cis_beta=gq(Fraction(-4, 5), Fraction(-3, 5)),
)


@pytest.mark.xfail(strict=True, reason="the float tolerance splits a near-double "
                   "pair of circle roots; an exact posture count would decide both")
@pytest.mark.parametrize("strokes", [(Fraction(7, 4), 6, 2), (2, Fraction(21, 4), Fraction(3, 2))],
                         ids=["7/4-6-2", "2-21/4-3/2"])
def test_near_double_circle_roots(strokes):
    s_a, s_b, s_c = map(Fraction, strokes)
    report = solve_posture(ManipulatorProblem(**NEAR_DOUBLE_GEOMETRY, s_a=s_a, s_b=s_b, s_c=s_c))
    assert report.diagnostics["physical_count"] == 4
    assert all(t.residual_max <= 1e-6 for t in report.solutions if t.physical)
