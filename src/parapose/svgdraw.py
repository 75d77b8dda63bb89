"""SVG rendering of manipulator postures.

One document per posture: the base triangle anchored at the origin, the
platform triangle placed by the solution, the three prismatic
connectors, and an angle legend.  Coordinates use the screen convention
(y axis flipped) and are auto-scaled to fit with a 10% margin.

Before anything is drawn, each shared platform vertex is computed along
both of its kinematic routes; a disagreement beyond 1e-6 drawing units
aborts the render.
"""

from __future__ import annotations

from .kinematics import ManipulatorProblem, PostureAngles, SolutionTuple

__all__ = ["VertexMismatchError", "render_posture"]

CANVAS = 560.0
MARGIN_FRACTION = 0.10
VERTEX_TOL = 1e-6  # drawing units

_BASE_STYLE = 'fill="#dbe4f0" stroke="#33415c" stroke-width="2"'
_PLATFORM_STYLE = 'fill="#f6d7a8" stroke="#7a3b06" stroke-width="2"'


class VertexMismatchError(ValueError):
    """The two routes to a shared platform vertex disagree."""


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _escape_text(text: str) -> str:
    """Escape character data; attribute values here are never free text."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_posture(
    problem: ManipulatorProblem,
    solution: SolutionTuple,
    posture: PostureAngles,
    *,
    title: str = "",
) -> str:
    """Render one posture as a standalone SVG 1.1 document string."""
    cis_a, cis_b, cis_c, cis_alpha = solution.coords[:4]
    s_a = float(problem.s_a)
    s_b = float(problem.s_b)
    s_c = float(problem.s_c)
    l_ab = float(problem.l_ab)
    l_ac = float(problem.l_ac)
    d_ab = complex(problem.d_ab)
    d_ac = complex(problem.d_ac)
    cis_beta = complex(problem.cis_beta)

    base = [0j, d_ab, d_ac]
    p_a = s_a * cis_a
    p_b_via_a = p_a + l_ab * cis_alpha
    p_b_via_b = d_ab + s_b * cis_b
    p_c_via_a = p_a + l_ac * cis_beta * cis_alpha
    p_c_via_c = d_ac + s_c * cis_c

    world = base + [p_a, p_b_via_a, p_b_via_b, p_c_via_a, p_c_via_c]
    min_x = min(z.real for z in world)
    max_x = max(z.real for z in world)
    min_y = min(z.imag for z in world)
    max_y = max(z.imag for z in world)
    extent = max(max_x - min_x, max_y - min_y, 1e-9)
    margin = CANVAS * MARGIN_FRACTION
    scale = (CANVAS - 2.0 * margin) / extent

    def to_svg(z: complex):
        return (
            margin + (z.real - min_x) * scale,
            margin + (max_y - z.imag) * scale,
        )

    for name, u, v in (("B", p_b_via_a, p_b_via_b), ("C", p_c_via_a, p_c_via_c)):
        # written so that a NaN fails
        if not abs(u - v) * scale <= VERTEX_TOL:
            raise VertexMismatchError(
                f"platform vertex {name} differs between routes by "
                f"{abs(u - v) * scale:.3e} drawing units"
            )

    p_b = (p_b_via_a + p_b_via_b) / 2.0
    p_c = (p_c_via_a + p_c_via_c) / 2.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
        f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">'
    ]

    def polygon(points, style):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        parts.append(f'<polygon points="{coords}" {style} />')

    def line(a, b, color):
        (x1, y1), (x2, y2) = to_svg(a), to_svg(b)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="1.5" stroke-dasharray="6 3" />'
        )

    def dot(z, color):
        x, y = to_svg(z)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{color}" />')

    def label(z, text, dx=6.0, dy=-6.0):
        x, y = to_svg(z)
        parts.append(
            f'<text x="{_fmt(x + dx)}" y="{_fmt(y + dy)}" font-size="13" '
            f'font-family="sans-serif" fill="#222">{text}</text>'
        )

    polygon([to_svg(z) for z in base], _BASE_STYLE)
    polygon([to_svg(z) for z in (p_a, p_b, p_c)], _PLATFORM_STYLE)
    line(base[0], p_a, "#555")
    line(base[1], p_b, "#555")
    line(base[2], p_c, "#555")
    for z, color in ((base[0], "#33415c"), (base[1], "#33415c"), (base[2], "#33415c"),
                     (p_a, "#7a3b06"), (p_b, "#7a3b06"), (p_c, "#7a3b06")):
        dot(z, color)
    label(base[0], "A0")
    label(base[1], "B0")
    label(base[2], "C0")
    label(p_a, "A1")
    label(p_b, "B1")
    label(p_c, "C1")

    legend_lines = [_escape_text(title)] if title else []
    ta, tb, tc, al = posture.as_tuple()
    legend_lines.append(
        f"theta_a={ta:.2f}  theta_b={tb:.2f}  theta_c={tc:.2f}  alpha={al:.2f}"
    )
    for i, text in enumerate(legend_lines):
        parts.append(
            f'<text x="12" y="{_fmt(20.0 + 16.0 * i)}" font-size="13" '
            f'font-family="sans-serif" fill="#111">{text}</text>'
        )

    parts.append("</svg>\n")
    return "".join(parts)
