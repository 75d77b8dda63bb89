import cmath
import random
from fractions import Fraction

import pytest

from parapose import rootfind
from parapose.gaussrat import GaussianRational
from parapose.inversive import UniPoly
from parapose.rootfind import ConvergenceError, find_roots

from golden import ROOTS_EXAMPLE1, ROOTS_EXAMPLE2


def gq(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


G8 = UniPoly(
    [gq(1), gq(Fraction(-213, 50)), gq(Fraction(165857, 25600)),
     gq(Fraction(-213, 50)), gq(1)]
)
H8 = UniPoly(
    [gq(1), gq(Fraction(-131, 100)), gq(Fraction(12409, 14400)),
     gq(Fraction(-131, 100)), gq(1)]
)


def expand_roots(roots, lead=1.0 + 0j):
    """Expansion oracle: multiply out lead * prod (z - r) in doubles."""
    coeffs = [lead]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= coeffs[i + 1] * r
    return coeffs


def poly_from_roots(roots, lead=1.0 + 0j):
    """The expansion as an exact polynomial with the same doubles."""
    coeffs = expand_roots(roots, lead)
    return UniPoly(gq(Fraction(c.real), Fraction(c.imag)) for c in coeffs)


def match_roots(found, seeds, tol):
    remaining = list(found)
    for s in seeds:
        best = min(remaining, key=lambda z: abs(z - s))
        assert abs(best - s) <= tol, f"seed {s} unmatched, nearest {best}"
        remaining.remove(best)


def sample_separated_roots(rng, n, radius=1.1, min_gap=0.15):
    seeds = []
    while len(seeds) < n:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if all(abs(z - s) >= min_gap for s in seeds):
            seeds.append(z)
    return seeds


class TestFindRoots:
    def test_reference_quartic_one(self):
        roots = find_roots(G8).roots
        match_roots(roots, ROOTS_EXAMPLE1, 1e-3)

    def test_reference_quartic_two(self):
        roots = find_roots(H8).roots
        match_roots(roots, ROOTS_EXAMPLE2, 1e-3)

    def test_pure_imaginary_pair(self):
        roots = find_roots(UniPoly([gq(1), gq(0), gq(1)])).roots
        match_roots(roots, [1j, -1j], 1e-12)

    def test_degree_counts(self):
        rng = random.Random(3)
        for n in range(1, 9):
            seeds = [
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)
            ]
            rs = find_roots(poly_from_roots(seeds))
            assert len(rs.roots) == n == len(rs.residuals) == len(rs.multiplicities)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol, monkeypatch):
        # the fixed tolerance is positive and finite, and no other can be passed;
        # no iterations would end in ConvergenceError: the keyword is rejected first
        assert 0.0 < rootfind.DEFAULT_TOL < float("inf")
        monkeypatch.setattr(rootfind, "DEFAULT_MAX_ITER", 0)
        with pytest.raises(TypeError):
            find_roots(G8, tol=tol)

    @pytest.mark.parametrize(
        "coeffs, roots, multiplicities",
        [
            ([0, 0, 0, 1], [0j] * 3, (3, 3, 3)),
            ([0, 1], [0j], (1,)),
            ([0, 0, -1, 1], [0j, 0j, 1 + 0j], (2, 2, 1)),
            ([0, -4, 0, 1], [-2 + 0j, 0j, 2 + 0j], (1, 1, 1)),
        ],
        ids=["z^3", "z", "z^2(z-1)", "z(z^2-4)"],
    )
    def test_roots_at_zero(self, coeffs, roots, multiplicities):
        rs = find_roots(UniPoly([gq(c) for c in coeffs]))
        # a zero root is read from the exact coefficients, not iterated to
        assert rs.roots.count(0j) == roots.count(0j)
        match_roots(rs.roots, roots, 1e-12)
        assert rs.multiplicities == multiplicities
        if not any(roots):
            assert rs.iterations == 0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_roots(UniPoly([gq(5)]))

    def test_leading_coefficient_below_double_range_rejected(self):
        # rounds to 0.0: dropping it would solve a polynomial of lower degree
        with pytest.raises(ValueError, match="leading coefficient"):
            find_roots(UniPoly([gq(1), gq(2), gq(Fraction(1, 10**400))]))

    def test_iterates_beyond_double_range_rejected(self):
        # z^2 + 10^300: the first iterate's square overflows, and the
        # iterates become NaN, which no residual comparison would reject
        with pytest.raises(OverflowError, match="double range"):
            find_roots(UniPoly([gq(10**300), gq(0), gq(1)]))

    def test_nan_residual_scale_fails_acceptance(self, monkeypatch):
        monkeypatch.setattr(rootfind, "_eval_scale", lambda coeffs, z: float("nan"))
        with pytest.raises(ConvergenceError):
            find_roots(G8)

    def test_reconstruction_oracle(self):
        rng = random.Random(20260809)
        for _ in range(30):
            n = rng.randint(1, 12)
            seeds = sample_separated_roots(rng, n)
            lead = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 6.28))
            expanded = expand_roots(seeds, lead)
            rs = find_roots(poly_from_roots(seeds, lead))
            rebuilt = expand_roots(rs.roots, lead)
            scale = max(abs(c) for c in expanded)
            for a, b in zip(rebuilt, expanded):
                assert abs(a - b) <= 1e-8 * scale

    def test_real_coefficients_conjugate_closure(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            coeffs = [Fraction(rng.uniform(-3, 3)) for _ in range(n)] + [1]
            rs = find_roots(UniPoly(coeffs))
            for z in rs.roots:
                assert any(abs(z.conjugate() - w) <= 1e-8 for w in rs.roots)

    def test_self_inversive_root_closure(self):
        roots = find_roots(G8).roots
        for z in roots:
            inverse = 1.0 / z.conjugate()
            assert min(abs(inverse - w) for w in roots) <= 1e-8

    def test_double_root_multiplicity_flag(self):
        # (z - 1)^2 (z + 2) = z^3 - 3z + 2
        f = UniPoly([gq(2), gq(-3), gq(0), gq(1)])
        rs = find_roots(f)
        assert sorted(rs.multiplicities) == [1, 2, 2]
        double = [z for z, m in zip(rs.roots, rs.multiplicities) if m == 2]
        assert double[0] == double[1]
        assert double[0] == pytest.approx(1.0, abs=1e-6)

    def test_close_small_roots_stay_distinct(self):
        # 6e-8 and 1e-7 lie within 1e-7 of each other, but far apart for
        # their size: the cluster radius is relative to the larger modulus
        a, b = Fraction(6, 10**8), Fraction(1, 10**7)
        f = UniPoly([gq(-a * b), gq(a * b + a + b), gq(-(a + b + 1)), gq(1)])
        rs = find_roots(f)
        assert rs.multiplicities == (1, 1, 1)
        for z, want in zip(rs.roots, (6e-8, 1e-7, 1.0)):
            assert abs(z - want) <= 1e-12 * want

    def test_cluster_is_transitive(self):
        # a~b and b~c lie within the radius, a~c does not: one cluster of three
        a, far = 1.0 + 0j, 5.0 + 0j
        b = a + 0.8 * rootfind.CLUSTER_RADIUS
        c = b + 0.8 * rootfind.CLUSTER_RADIUS
        assert abs(c - a) > rootfind.CLUSTER_RADIUS * abs(c)
        roots, mult = rootfind._cluster([c, far, a, b])
        centroid = (c + a + b) / 3
        assert mult == [3, 1, 3, 3]
        assert roots == [centroid, far, centroid, centroid]

    def test_determinism(self):
        a = find_roots(H8)
        b = find_roots(H8)
        assert a.roots == b.roots
        assert a.residuals == b.residuals
        assert a.iterations == b.iterations

    def test_nonconvergence_reports_iterates(self, monkeypatch):
        monkeypatch.setattr(rootfind, "DEFAULT_MAX_ITER", 0)
        with pytest.raises(ConvergenceError) as info:
            find_roots(G8)
        err = info.value
        assert len(err.best_roots) == 4
        assert len(err.residuals) == 4
        assert err.iterations == 0
