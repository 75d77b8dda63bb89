"""Reference outcomes and the checks that decide whether a solve failed.

An outcome is what a solve produced, reduced to the parts a reference can
pin: the SHA-256 of the reduced basis text, the exact eliminant
coefficients, the physical count and the posture angles, plus the
diagnostics counters.  The reduced monic lex basis of an ideal is unique,
so the basis digest is a strict oracle.

Every basis is certified (monic, reduced, every S-pair of non-coprime
leading monomials reduces to zero, every generator of the ideal reduces
to zero) and its last element must be the eliminant.  The solution
tuples are checked here, without parapose: the eight position equations
are evaluated from the problem document at the reported coordinates, and
the physical flags and posture angles are recomputed from them.

References: the bundled problems are checked against the golden bases
and posture angles in ``tests/golden.py``; the first problems of the
reference seeds against ``reference.txt`` (written by reference.py).
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from parapose import (
    GaussianRational,
    build_ideal,
    normal_form,
    parse_gaussian,
    parse_poly,
    s_polynomial,
)
from parapose.multipoly import mono_divides, mono_lcm, mono_mul

from corpus import ROOT, to_problem

BENCH = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH / "reference.txt"

# A tuple is physical when each direction variable is paired with its
# conjugate and lies on the unit circle, both to this tolerance: the
# solver's default --tol-physical.
PHYSICAL_TOL = 1e-6
# Largest |f_i| allowed at a physical posture: the same scale.
# Near-singular postures (two close physical roots) reach 1e-8.
# Discarded (non-physical) tuples are not bounded: back-substitution from
# an eliminant root of small modulus is ill-conditioned, and their
# residuals reach 1e-4 on generic problems.  The corpus report shows both.
RESIDUAL_BOUND = 1e-6
# A reported residual_max may differ from the one evaluated here only by
# rounding: the two evaluate the same equations in a different order
# (differences up to 6e-15 seen).
RESIDUAL_AGREE_ABS = 1e-12
RESIDUAL_AGREE_REL = 1e-3
# golden angles are rounded to 2 decimals, reference angles to 4
ANGLE_TOL_DEG = 0.05
REFERENCE_ANGLE_TOL_DEG = 1e-3
# hex digits of the basis digest kept in reference.txt
REFERENCE_DIGEST_HEX = 24

_ONE = GaussianRational(1)
SVG_TAG = "{http://www.w3.org/2000/svg}svg"


@dataclass(frozen=True)
class Outcome:
    basis_sha256: str
    eliminant: tuple
    physical_count: int
    angles: tuple
    coords: tuple
    physical: tuple
    residuals: tuple  # the residual_max reported for each tuple
    diagnostics: dict

    @property
    def solutions(self) -> int:
        return len(self.coords)


def digest(basis_lines) -> str:
    return hashlib.sha256("\n".join(basis_lines).encode()).hexdigest()


def from_report(report) -> Outcome:
    """Outcome of a library ``SolutionReport``."""
    return Outcome(
        basis_sha256=digest(g.to_text() for g in report.basis.elements),
        eliminant=tuple(str(c) for c in report.eliminant.coefficients),
        physical_count=report.diagnostics["physical_count"],
        angles=tuple(p.as_tuple() for p in report.postures),
        coords=tuple(tuple(t.coords) for t in report.solutions),
        physical=tuple(t.physical for t in report.solutions),
        residuals=tuple(t.residual_max for t in report.solutions),
        diagnostics=dict(report.diagnostics),
    )


def from_json(doc: dict) -> Outcome:
    """Outcome of a CLI report written with ``--emit-basis``."""
    return Outcome(
        basis_sha256=digest(doc["groebner_basis"]),
        eliminant=tuple(doc["eliminant"]["coefficients"]),
        physical_count=doc["diagnostics"]["physical_count"],
        angles=tuple(
            (p["theta_a"], p["theta_b"], p["theta_c"], p["alpha"]) for p in doc["postures"]
        ),
        coords=tuple(
            tuple(complex(z["re"], z["im"]) for z in t["coords"]) for t in doc["solutions"]
        ),
        physical=tuple(t["physical"] for t in doc["solutions"]),
        residuals=tuple(t["residual_max"] for t in doc["solutions"]),
        diagnostics=dict(doc["diagnostics"]),
    )


def _load_golden():
    path = ROOT / "tests" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(f"golden references not found: {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {
        "example1.json": (module.BASIS_EXAMPLE1, module.POSTURES_EXAMPLE1),
        "example2.json": (module.BASIS_EXAMPLE2, module.POSTURES_EXAMPLE2),
    }


GOLDEN = {
    name: (digest(parse_poly(t).to_text() for t in basis), postures)
    for name, (basis, postures) in _load_golden().items()
}


def certify(elements, generators) -> str | None:
    """None if ``elements`` is the reduced monic basis of <generators>.

    Pairs with coprime leading monomials are skipped: their
    S-polynomials reduce to zero (Buchberger's first criterion).
    """
    elements = list(elements)
    if not elements or any(g.is_zero for g in elements):
        return "empty or zero basis element"
    lead = [g.leading_monomial for g in elements]
    for i, g in enumerate(elements):
        if g.leading_coefficient != _ONE:
            return f"element {i} is not monic"
        for j, lm in enumerate(lead):
            if j != i and any(mono_divides(lm, m) for m, _ in g.terms):
                return f"element {i} is not reduced by element {j}"
    for j in range(len(elements)):
        for i in range(j):
            if mono_lcm(lead[i], lead[j]) == mono_mul(lead[i], lead[j]):
                continue
            if not normal_form(s_polynomial(elements[i], elements[j]), elements).is_zero:
                return f"S-pair ({i}, {j}) does not reduce to zero"
    for k, f in enumerate(generators):
        if not normal_form(f, elements).is_zero:
            return f"generator f{k + 1} does not reduce to zero"
    return None


def _eliminant_of(last) -> tuple:
    var = len(last.leading_monomial) - 1
    coeffs = ["0"] * (last.leading_monomial[var] + 1)
    for mono, c in last.terms:
        if any(mono[:var]):
            return ()
        coeffs[mono[var]] = str(c)
    return tuple(coeffs)


def _complex(obj) -> complex:
    return complex(float(Fraction(obj["re"])), float(Fraction(obj["im"])))


def residuals(doc: dict, coords) -> list:
    """Largest |f_i| of the eight position equations at each tuple.

    The equations are written out here from the problem document, in the
    variable order a, b, c, alpha and their formal conjugates.
    """
    g, s = doc["geometry"], doc["strokes"]
    s_a, s_b, s_c = (float(Fraction(s[k])) for k in ("s_a", "s_b", "s_c"))
    l_ab = float(Fraction(g["l_ab"]))
    k_ac = float(Fraction(g["l_ac"])) * _complex(g["cis_beta"])
    d_ab, d_ac = _complex(g["d_ab"]), _complex(g["d_ac"])
    out = []
    for a, b, c, al, a_, b_, c_, al_ in coords:
        f = (
            s_a * a + l_ab * al - s_b * b - d_ab,
            s_a * a + k_ac * al - s_c * c - d_ac,
            s_a * a_ + l_ab * al_ - s_b * b_ - d_ab.conjugate(),
            s_a * a_ + k_ac.conjugate() * al_ - s_c * c_ - d_ac.conjugate(),
            a * a_ - 1, b * b_ - 1, c * c_ - 1, al * al_ - 1,
        )
        out.append(max(abs(v) for v in f))
    return out


def is_physical(t) -> bool:
    return all(
        abs(t[j + 4] - t[j].conjugate()) <= PHYSICAL_TOL and abs(abs(t[j]) - 1) <= PHYSICAL_TOL
        for j in range(4)
    )


def angles_of(t) -> tuple:
    """Degrees of the four direction variables, each in (-180, 180]."""
    out = []
    for z in t[:4]:
        deg = math.degrees(math.atan2(z.imag, z.real))
        out.append(deg + 360.0 if deg <= -180.0 else deg)
    return tuple(out)


def check(name: str, doc: dict, outcome: Outcome, basis_elements, reference=None) -> str | None:
    """None if the outcome is correct for the problem, else the reason.

    ``reference`` is this problem's line of reference.txt, if it has one.
    """
    if outcome.solutions != len(outcome.eliminant) - 1:
        return "solution count differs from the eliminant degree"
    if _eliminant_of(basis_elements[-1]) != outcome.eliminant:
        return "eliminant is not the last basis element"
    reason = certify(basis_elements, build_ideal(to_problem(doc)))
    if reason:
        return "basis certificate failed: " + reason
    physical = tuple(is_physical(t) for t in outcome.coords)
    for k, (mine, reported) in enumerate(zip(residuals(doc, outcome.coords), outcome.residuals)):
        if not abs(reported - mine) <= RESIDUAL_AGREE_ABS + RESIDUAL_AGREE_REL * mine:
            return f"tuple {k}: reported residual_max {reported:.3g}, evaluated {mine:.3g}"
        if physical[k] and not mine <= RESIDUAL_BOUND:
            return f"tuple {k}: posture residual {mine:.3g} above {RESIDUAL_BOUND}"
    if physical != outcome.physical:
        return "physical flags differ from the unit-circle and conjugate test"
    if outcome.physical_count != sum(physical):
        return "physical count differs from the physical tuples"
    want = [angles_of(t) for t, p in zip(outcome.coords, physical) if p]
    if len(want) != len(outcome.angles) or any(
        abs(a - b) > 1e-9 for got, w in zip(outcome.angles, want) for a, b in zip(got, w)
    ):
        return "posture angles differ from the physical tuples' coordinates"
    if name in GOLDEN:
        want_digest, want_angles = GOLDEN[name]
        if outcome.basis_sha256 != want_digest:
            return "basis differs from the golden basis"
        if not _angles_match(outcome.angles, want_angles, ANGLE_TOL_DEG):
            return "posture angles differ from the golden postures"
    if reference is not None:
        want_digest, want_count, want_angles = reference
        if outcome.basis_sha256[:REFERENCE_DIGEST_HEX] != want_digest:
            return "basis differs from the reference basis"
        if outcome.physical_count != want_count:
            return "physical count differs from the reference"
        if not _angles_match(outcome.angles, want_angles, REFERENCE_ANGLE_TOL_DEG):
            return "posture angles differ from the reference postures"
    return None


def reference_line(workload: str, seed: int, name: str, outcome: Outcome) -> str:
    """One line of reference.txt: digest prefix, physical count, angles."""
    angles = " ".join(f"{a:.4f}" for p in outcome.angles for a in p)
    return (f"{workload} {seed} {name} {outcome.basis_sha256[:REFERENCE_DIGEST_HEX]} "
            f"{outcome.physical_count} {angles}").rstrip()


def references(workload: str, seed: int) -> dict:
    """name -> (digest prefix, physical count, angles) for one corpus."""
    out = {}
    if not REFERENCE_FILE.is_file():
        return out
    for line in REFERENCE_FILE.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        w, s, name, dig, count, *angles = line.split()
        if w == workload and int(s) == seed:
            values = [float(a) for a in angles]
            out[name] = (dig, int(count), [tuple(values[i:i + 4]) for i in range(0, len(values), 4)])
    return out


def _angles_match(got, want, tol) -> bool:
    if len(got) != len(want):
        return False
    remaining = list(got)
    for w in want:
        best = min(remaining, key=lambda g: max(abs(a - b) for a, b in zip(g, w)))
        if max(abs(a - b) for a, b in zip(best, w)) > tol:
            return False
        remaining.remove(best)
    return True


def basis_from_json(doc: dict) -> list:
    return [parse_poly(text) for text in doc["groebner_basis"]]


def coeff_bits(elements) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        max(
            c.re.numerator.bit_length(), c.re.denominator.bit_length(),
            c.im.numerator.bit_length(), c.im.denominator.bit_length(),
        )
        for g in elements
        for _, c in g.terms
    )


def check_svgs(svg_dir: Path, expected: int) -> str | None:
    """None if svg_dir holds one SVG document per physical posture."""
    files = sorted(svg_dir.glob("posture_*.svg")) if svg_dir.is_dir() else []
    if len(files) != expected:
        return f"{len(files)} SVG files for {expected} physical postures"
    for path in files:
        try:
            tag = ET.parse(path).getroot().tag
        except ET.ParseError as exc:
            return f"{path.name}: {exc}"
        if tag != SVG_TAG:
            return f"{path.name} is not an SVG document"
    return None


def root_residual_rel(outcome: Outcome) -> float:
    """Largest relative backward error |f(z)| / sum |c_i| |z|^i over the roots."""
    coeffs = [complex(parse_gaussian(c)) for c in outcome.eliminant]
    worst = 0.0
    for z in (t[-1] for t in outcome.coords):
        value, scale, power = 0j, 0.0, 1.0
        for i, c in enumerate(coeffs):
            value += c * z**i
            scale += abs(c) * power
            power *= abs(z)
        worst = max(worst, abs(value) / scale)
    return worst

