import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parapose import gaussrat, groebner
from parapose.gaussrat import GaussianRational
from parapose.groebner import (
    GroebnerBasis,
    PairLimitExceeded,
    buchberger,
    is_groebner_basis,
)
from parapose.kinematics import ManipulatorProblem, _read_shape, build_ideal
from parapose.multipoly import MultiPoly, N_VARS, mono_divides, normal_form, parse_poly

from conftest import RIGHT_TRIANGLE_GEOMETRY

X, Y = MultiPoly.variable(0), MultiPoly.variable(1)


def random_system(rng, max_vars=3, max_degree=3):
    polys = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            mono = [0] * 8
            for v in range(rng.randint(1, max_vars)):
                mono[v] = rng.randint(0, max_degree)
            if sum(mono) > max_degree:
                continue
            c = GaussianRational(
                Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-2, 2))
            )
            if not c.is_zero:
                key = tuple(mono)
                terms[key] = terms.get(key, GaussianRational(0)) + c
        p = MultiPoly(terms)
        if not p.is_zero:
            polys.append(p)
    return polys


gauss_coeffs = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-2, 2)
).filter(lambda c: not c.is_zero)


@st.composite
def small_ideals(draw):
    """Two or three generators over three of the eight variables, degree <= 2.

    Returns the generators, a permutation of them and one nonzero scale
    per generator.
    """
    variables = draw(
        st.lists(st.integers(0, N_VARS - 1), min_size=3, max_size=3, unique=True)
    )

    def monomial(exps):
        mono = [0] * N_VARS
        for v, e in zip(variables, exps):
            mono[v] = e
        return tuple(mono)

    monomials = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda e: sum(e) <= 2)
    generators = draw(
        st.lists(
            st.dictionaries(monomials.map(monomial), gauss_coeffs, min_size=1, max_size=3),
            min_size=2,
            max_size=3,
        ).map(lambda gens: [MultiPoly(terms) for terms in gens])
    )
    order = draw(st.permutations(range(len(generators))))
    scales = draw(st.lists(gauss_coeffs, min_size=len(generators), max_size=len(generators)))
    return generators, order, scales


def assert_reduced_monic(elements):
    leads = [g.leading_monomial for g in elements]
    for idx, g in enumerate(elements):
        assert g.leading_coefficient == GaussianRational(1)
        for m, _ in g.terms:
            assert not any(mono_divides(lm, m) for k, lm in enumerate(leads) if k != idx)


def check_reduced_basis(generators, order, scales):
    """The basis is a reduced monic Groebner basis of <generators>, and
    permuting or rescaling the generators leaves it unchanged."""
    gb = buchberger(generators)
    elements = list(gb.elements)
    assert is_groebner_basis(elements)
    assert_reduced_monic(elements)
    s = gb.stats
    assert s.pairs_considered == s.pairs_reduced + s.pairs_dropped_coprime + (
        s.pairs_dropped_mf + s.pairs_dropped_bk
    )
    for f in generators:
        assert normal_form(f, elements).is_zero
    permuted = [generators[k] * scales[k] for k in order]
    assert list(buchberger(permuted).elements) == elements


# Small systems on which a wrong pair criterion loses a needed S-pair:
# B_k without its two lcm exceptions, or criterion F dropping every pair
# of a repeated lcm instead of keeping one.
CRITERIA_CASES = (
    "(-3+2*I)*CCA*CCB + 3*CCC ; (-1+I)*CCB ; (-1-2*I)*CCA",
    "(1-2*I)*CA*CB^2 + (-3+I) ; (-3+2*I)*CA^2*CB + 3*CA*AL^2",
    "(-3+I)*CA*CCAL^2 + (-3+I) ; (3-2*I)*CCC*CCAL^2 + (3+I)*CCC*CCAL",
    "-2*CA*CB ; (3-I)*CB*CC ; (2-I)*CA*CC^2 + (2-I)",
)


class TestBuchberger:
    def test_singleton(self):
        gb = buchberger([X])
        assert list(gb.elements) == [X]

    def test_two_generator_example(self):
        gb = buchberger([X * X - 1, X * Y - 1])
        assert list(gb.elements) == [X - Y, Y * Y - 1]

    def test_golden_example1(self, ideal1, golden_basis1):
        gb = buchberger(ideal1)
        assert list(gb.elements) == golden_basis1

    def test_golden_example2(self, ideal2, golden_basis2):
        gb = buchberger(ideal2)
        assert list(gb.elements) == golden_basis2

    def test_zero_generators_ignored(self):
        gb = buchberger([MultiPoly(), X])
        assert list(gb.elements) == [X]

    def test_unit_ideal_collapses_to_one(self):
        gb = buchberger([X, X + 1])
        assert list(gb.elements) == [MultiPoly.constant(GaussianRational(1))]

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            buchberger([MultiPoly()])

    def test_idempotent(self, basis1):
        again = buchberger(list(basis1.elements))
        assert again.elements == basis1.elements

    def test_generators_reduce_to_zero(self, ideal1, basis1):
        for f in ideal1:
            assert normal_form(f, list(basis1.elements)).is_zero

    def test_reduced_and_monic(self, basis1):
        assert_reduced_monic(list(basis1.elements))

    def test_elements_sorted_descending(self, basis1):
        leads = [g.leading_monomial for g in basis1.elements]
        assert all(leads[i] > leads[i + 1] for i in range(len(leads) - 1))

    def test_generator_order_independence(self, ideal1, basis1):
        rng = random.Random(7)
        shuffled = list(ideal1)
        rng.shuffle(shuffled)
        assert buchberger(shuffled).elements == basis1.elements

    def test_generator_scaling_invariance(self, ideal1, basis1):
        c = GaussianRational(Fraction(1), Fraction(2))
        for idx in (0, 5):
            scaled = list(ideal1)
            scaled[idx] = scaled[idx] * c
            assert buchberger(scaled).elements == basis1.elements
        assert buchberger([f * c for f in ideal1]).elements == basis1.elements

    def test_pair_limit(self, ideal1, monkeypatch):
        monkeypatch.setattr(groebner, "DEFAULT_PAIR_LIMIT", 3)
        with pytest.raises(PairLimitExceeded) as info:
            buchberger(ideal1)
        stats = info.value.stats
        # the budget is tested before a pair is taken: three pairs were
        # reduced and the next one is still pending
        assert stats.pairs_reduced == 3
        dropped = stats.pairs_dropped_coprime + stats.pairs_dropped_mf + stats.pairs_dropped_bk
        assert stats.pairs_considered > stats.pairs_reduced + dropped
        assert str(info.value) == (
            "pair reduction limit 3 exceeded (pairs considered: 45, reductions: 3)"
        )

    def test_pair_limit_reached_exactly_completes(self, ideal1, basis1, monkeypatch):
        monkeypatch.setattr(groebner, "DEFAULT_PAIR_LIMIT", basis1.stats.pairs_reduced)
        assert buchberger(ideal1).stats == basis1.stats

    def test_random_small_systems(self):
        rng = random.Random(20260809)
        checked = 0
        while checked < 8:
            system = random_system(rng)
            if not system:
                continue
            gb = buchberger(system)
            elements = list(gb.elements)
            assert is_groebner_basis(elements)
            for f in system:
                assert normal_form(f, elements).is_zero
            checked += 1

    @given(small_ideals())
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    def test_reduced_basis_property(self, case):
        check_reduced_basis(*case)

    @pytest.mark.parametrize("text", CRITERIA_CASES)
    def test_pair_criteria_keep_needed_pairs(self, text):
        generators = [parse_poly(t) for t in text.split(";")]
        n = len(generators)
        check_reduced_basis(generators, range(n)[::-1], [GaussianRational(0, 1)] * n)


class TestGroebnerPredicate:
    def test_golden_basis_passes(self, golden_basis1):
        assert is_groebner_basis(golden_basis1)

    def test_incomplete_pair_fails(self):
        assert not is_groebner_basis([X * X - 1, X * Y - 1])

    def test_scaled_golden_basis_passes(self, golden_basis1):
        scales = [GaussianRational(Fraction(-3, 7), 2), GaussianRational(5),
                  GaussianRational(0, Fraction(1, 3))]
        scaled = [g * scales[k % 3] for k, g in enumerate(golden_basis1)]
        assert all(g.leading_coefficient != GaussianRational(1) for g in scaled)
        assert is_groebner_basis(scaled)

    def test_scaled_incomplete_pair_fails(self):
        assert not is_groebner_basis([2 * (X * X - 1), GaussianRational(3, 1) * (X * Y - 1)])

    def test_singleton_passes(self):
        assert is_groebner_basis([X * Y - 1])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_groebner_basis([X, MultiPoly()])


class TestElimination:
    """The shape-position reader over the golden basis: the last element is
    the eliminant, and CCC's linear element comes just before it."""

    def test_deepest_level_is_eliminant(self, basis1, golden_basis1):
        eliminant, _ = _read_shape(basis1)
        g8 = golden_basis1[7]
        assert eliminant.degree == g8.leading_monomial[-1]
        assert list(eliminant.coefficients) == [
            dict(g8.terms).get((0,) * 7 + (k,), GaussianRational(0))
            for k in range(eliminant.degree + 1)
        ]

    def test_level_six(self, basis1, golden_basis1):
        _, tails = _read_shape(basis1)
        assert MultiPoly.variable(6) + tails[0] == golden_basis1[6]
        assert len(tails) == N_VARS - 1


class TestWorkingForm:
    def test_only_the_reduced_basis_is_boxed(self, ideal1, monkeypatch):
        # every boxed Q(i) value and polynomial built by the run is one of
        # the result's coefficients or elements
        built = {"values": 0, "polys": 0}
        make, trusted = gaussrat._make, MultiPoly._trusted.__func__

        def counted_make(re, im):
            built["values"] += 1
            return make(re, im)

        def counted_trusted(cls, terms):
            built["polys"] += 1
            return trusted(cls, terms)

        monkeypatch.setattr(gaussrat, "_make", counted_make)
        monkeypatch.setattr(MultiPoly, "_trusted", classmethod(counted_trusted))
        elements = buchberger(ideal1).elements
        assert built == {"values": sum(len(g.terms) for g in elements), "polys": len(elements)}


class TestStats:
    def test_stats_recorded(self, basis1):
        assert basis1.stats is not None
        assert basis1.stats.pairs_considered > 0
        assert basis1.stats.pairs_reduced > 0

    def test_stats_do_not_affect_equality(self, basis1):
        clone = GroebnerBasis(basis1.elements)
        assert clone == GroebnerBasis(basis1.elements, stats=basis1.stats)


# The bundled anchors with l_ac 4, strokes (2, 7/2, 5/2) and a tall l_ab:
# reduced bases of 741 (10^20) and 1472 bits (10^40), far above the
# ~140 bits of the benchmark corpora.  Digest: SHA-256 of the element texts
# joined by newlines, as bench/verify.py takes it.
TALL_BASES = [
    (20, "9a45894bb69fa9d4a3f745c81e785c33e89cbb5f9ce31662b45ec4bad86f7926", 6),
    (40, "7133e6f4aa8c86a5646a37c39a4035b8c1e4847998621a42146320cc11228b35", 6),
]


class TestTallBases:
    @pytest.mark.parametrize("exponent, digest, degree", TALL_BASES,
                             ids=[f"l_ab-1e{e}" for e, _, _ in TALL_BASES])
    def test_pinned(self, exponent, digest, degree):
        problem = ManipulatorProblem(
            **dict(RIGHT_TRIANGLE_GEOMETRY, l_ab=Fraction(10**exponent)),
            s_a=Fraction(2), s_b=Fraction(7, 2), s_c=Fraction(5, 2),
        )
        basis = buchberger(build_ideal(problem))
        text = "\n".join(g.to_text() for g in basis.elements)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert _read_shape(basis)[0].degree == degree
