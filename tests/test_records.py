"""Semantics of the package's slotted records.

Equality, hashing and repr are field-wise, as dataclasses define them;
the repr literals below were printed by the former dataclass versions.
"""

import copy
import pickle

import pytest

from parapose.cli import parse_problem
from parapose.gaussrat import GaussianRational
from parapose.groebner import BuchbergerStats, GroebnerBasis
from parapose.inversive import InversionCircle, UniPoly
from parapose.kinematics import (
    PostureAngles,
    SolutionReport,
    SolutionTuple,
    solve_posture,
)
from parapose.multipoly import MultiPoly
from parapose.rootfind import RootSet

from conftest import PROBLEMS_DIR


@pytest.fixture(scope="module")
def problem():
    return parse_problem(PROBLEMS_DIR / "example1.json")


@pytest.fixture(scope="module")
def report(problem):
    return solve_posture(problem)


def frozen_records(problem):
    return [
        problem,
        SolutionTuple((1j, 2.0), True, 0.5),
        PostureAngles(1.0, 2.0, 3.0, 4.0),
        GroebnerBasis((), stats=BuchbergerStats()),
        InversionCircle(1 + 2j, 3),
        RootSet((1j,), (0.0,), (1,), 3),
    ]


class TestRepr:
    def test_matches_dataclass_repr(self, problem):
        problem_repr = (
            "ManipulatorProblem(l_ab=Fraction(3, 1), l_ac=Fraction(4, 1), "
            "d_ab=GaussianRational(Fraction(6, 1), Fraction(0, 1)), "
            "d_ac=GaussianRational(Fraction(0, 1), Fraction(8, 1)), "
            "cis_beta=GaussianRational(Fraction(0, 1), Fraction(1, 1)), "
            "s_a=Fraction(2, 1), s_b=Fraction(7, 2), s_c=Fraction(5, 2))"
        )
        basis_repr = "GroebnerBasis(elements=())"
        cases = [
            (problem, problem_repr),
            (
                PostureAngles(60.7478257453869, 128.71961842608073,
                              -97.74922940654676, 19.183864311879923),
                "PostureAngles(theta_a=60.7478257453869, theta_b=128.71961842608073, "
                "theta_c=-97.74922940654676, alpha=19.183864311879923)",
            ),
            (
                BuchbergerStats(1, 2, 3),
                "BuchbergerStats(pairs_considered=1, pairs_reduced=2, "
                "zero_reductions=3, elements_added=0, pairs_dropped_coprime=0, "
                "pairs_dropped_mf=0, pairs_dropped_bk=0)",
            ),
            (GroebnerBasis((), stats=BuchbergerStats(5)), basis_repr),
            (InversionCircle(1 + 2j, 3), "InversionCircle(center=(1+2j), radius=3.0)"),
            (
                SolutionTuple((1j, 2.0), True, 0.5),
                "SolutionTuple(coords=(1j, 2.0), physical=True, residual_max=0.5)",
            ),
            (SolutionTuple(()), "SolutionTuple(coords=(), physical=False, residual_max=nan)"),
            (
                RootSet((1j,), (0.0,), (1,), 3),
                "RootSet(roots=(1j,), residuals=(0.0,), multiplicities=(1,), "
                "iterations=3)",
            ),
            (
                SolutionReport(problem, GroebnerBasis(()), UniPoly([1]), True, (), ()),
                f"SolutionReport(problem={problem_repr}, basis={basis_repr}, "
                "eliminant=UniPoly([GaussianRational(Fraction(1, 1), Fraction(0, 1))]), "
                "eliminant_self_reciprocal=True, solutions=(), postures=(), "
                "empty_variety=False, diagnostics={}, timings_ms={})",
            ),
            (GaussianRational(1, 2), "GaussianRational(Fraction(1, 1), Fraction(2, 1))"),
        ]
        for record, expected in cases:
            assert repr(record) == expected


class TestEqualityAndHash:
    def test_basis_ignores_stats(self, report):
        elements = report.basis.elements
        with_stats = GroebnerBasis(elements, stats=BuchbergerStats(1, 2, 3))
        without = GroebnerBasis(elements)
        assert with_stats == without == report.basis
        assert hash(with_stats) == hash(without)
        assert GroebnerBasis(elements[1:]) != without

    def test_mutable_records_unhashable(self, problem):
        report = SolutionReport(problem, GroebnerBasis(()), UniPoly([1]), True, (), ())
        for record in (BuchbergerStats(), report):
            with pytest.raises(TypeError):
                hash(record)

    def test_frozen_records_hash_by_fields(self, problem):
        for record in frozen_records(problem):
            assert hash(record) == hash(copy.copy(record))

    def test_equality_needs_same_class(self):
        assert GroebnerBasis(()) != ((),)
        assert SolutionTuple(()) != PostureAngles(1.0, 2.0, 3.0, 4.0)


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        t = SolutionTuple((1j,), residual_max=0.25)
        assert (t.coords, t.physical, t.residual_max) == ((1j,), False, 0.25)
        assert InversionCircle() == InversionCircle(0j, 1.0)
        assert BuchbergerStats(pairs_reduced=4).pairs_reduced == 4

    def test_factories_give_fresh_values(self, problem):
        a = SolutionReport(problem, GroebnerBasis(()), UniPoly([1]), True, (), ())
        b = SolutionReport(problem, GroebnerBasis(()), UniPoly([1]), True, (), ())
        a.diagnostics["k"] = 1
        assert b.diagnostics == {}

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),
            ((1, 2, 3, 4, 5), {}),
            ((1, 2, 3, 4), {"alpha": 4}),
            ((1, 2, 3, 4), {"beta": 4}),
        ],
    )
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            PostureAngles(*args, **kwargs)


class TestFrozen:
    def test_assignment_refused(self, problem):
        for record in frozen_records(problem) + [GaussianRational(1, 2)]:
            name = type(record).__slots__[0]
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert getattr(record, name) is before
            assert not hasattr(record, "__dict__")

    def test_mutable_records_accept_assignment(self, problem):
        stats = BuchbergerStats()
        stats.pairs_reduced += 2
        assert stats.pairs_reduced == 2
        report = SolutionReport(problem, GroebnerBasis(()), UniPoly([1]), True, (), ())
        report.empty_variety = True
        assert report.empty_variety is True
        with pytest.raises(AttributeError):
            stats.extra = 1


class TestReplace:
    def test_changes_one_field(self):
        p = PostureAngles(1.0, 2.0, 3.0, 4.0)
        q = p.replace(alpha=10.0)
        assert q == PostureAngles(1.0, 2.0, 3.0, 10.0)
        assert p.alpha == 4.0

    def test_validation_runs_again(self):
        with pytest.raises(ValueError):
            PostureAngles(1.0, 2.0, 3.0, 4.0).replace(alpha=200.0)

    def test_unknown_field(self):
        with pytest.raises(TypeError):
            SolutionTuple(()).replace(weight=1)

    def test_keeps_hidden_fields(self):
        stats = BuchbergerStats(3)
        basis = GroebnerBasis((), stats=stats).replace(elements=(MultiPoly.variable(0),))
        assert basis.stats is stats


class TestPickleAndCopy:
    def test_full_report_round_trips(self, report):
        assert report.solutions and report.postures
        for clone in (
            pickle.loads(pickle.dumps(report)),
            copy.copy(report),
            copy.deepcopy(report),
        ):
            assert type(clone) is SolutionReport
            assert clone == report
            assert clone.basis.stats == report.basis.stats
            assert clone.basis.stats.pairs_considered > 0
            assert clone.postures[0].as_tuple() == report.postures[0].as_tuple()
        deep = copy.deepcopy(report)
        assert deep.diagnostics is not report.diagnostics
        assert deep.basis.stats is not report.basis.stats

    def test_frozen_records_round_trip(self, problem):
        for record in frozen_records(problem):
            for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert type(clone) is type(record)
                assert clone == record
