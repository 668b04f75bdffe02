"""Self-contained SVG line charts for rhythm sequences.

No drawing dependency: the chart is assembled as plain SVG markup so tests
can assert its structure (series count, point count, reference line) by
parsing the XML.
"""

from __future__ import annotations

import sys

from .rhythm import RhythmSequence

__all__ = ["line_chart"]

_WIDTH = 720
_HEIGHT = 420
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 52
_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")
# Level of the reference line: a ratio of 1 means as cited as expected.
_REFERENCE = 1.0


# XML 1.0 allows no C0 control but tab, LF and CR, no lone surrogate and
# neither U+FFFE nor U+FFFF: each prints as U+FFFD.
_FORBIDDEN = [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF]
# A parser reads a literal CR as LF, and in an attribute value it reads a
# literal tab, LF or CR as a space, so those are written as references.
_TEXT_ESCAPES = {
    **dict.fromkeys(_FORBIDDEN, "\ufffd"),
    **{ord(c): f"&{name};" for c, name in (("&", "amp"), ("<", "lt"), (">", "gt"), ('"', "quot"))},
    ord("\r"): "&#13;",
}
_ATTRIBUTE_ESCAPES = {**_TEXT_ESCAPES, ord("\t"): "&#9;", ord("\n"): "&#10;"}


def _escape(text: str, escapes: dict[int, str] = _TEXT_ESCAPES) -> str:
    """XML-escape text for an element, or with ``_ATTRIBUTE_ESCAPES`` for a
    double-quoted attribute, so that a parser reads back every character
    but those XML forbids, which become U+FFFD."""
    return text.translate(escapes)


def _ticks(upper: float, count: int = 5) -> list[float]:
    step = upper / count
    return [step * i for i in range(count + 1)]


def line_chart(title: str, sequences: list[tuple[str, RhythmSequence]]) -> str:
    """Draw each labelled sequence's defined ratios as one line over the
    first sequence's years, with a horizontal reference line (class
    ``refline``) at 1; the first of two lines is dashed. The y axis always
    starts at 0 and leaves 10% headroom above the largest ratio, or as
    much as the largest float allows."""
    years = sequences[0][1].years
    lines = [
        (label, [(y, r) for y, r in zip(seq.years, seq.ratios) if r is not None])
        for label, seq in sequences
    ]
    dashes = [' stroke-dasharray="6,4"', ""] if len(lines) == 2 else [""] * len(lines)
    # Past the largest float the axis would be inf and every coordinate nan.
    y_max = min(max([_REFERENCE] + [v for _, points in lines for _, v in points]) * 1.1,
                sys.float_info.max)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(year: int) -> float:
        if len(years) == 1:
            return _MARGIN_LEFT + plot_w / 2
        t = (year - years[0]) / (years[-1] - years[0])
        return _MARGIN_LEFT + t * plot_w

    def y(value: float) -> float:
        return _MARGIN_TOP + (1 - value / y_max) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    out.append(
        f'<text class="title" x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15">{_escape(title)}</text>'
    )

    axis_bottom = _MARGIN_TOP + plot_h
    out.append(
        f'<g class="axis" stroke="#444" stroke-width="1">'
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" y2="{axis_bottom}"/>'
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_bottom}" x2="{_WIDTH - _MARGIN_RIGHT}" y2="{axis_bottom}"/>'
        f"</g>"
    )

    for tick in _ticks(y_max):
        ty = y(tick)
        out.append(
            f'<line class="grid" x1="{_MARGIN_LEFT}" y1="{ty:.1f}" '
            f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{ty:.1f}" stroke="#ddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{ty + 4:.1f}" text-anchor="end">{tick:.2f}</text>'
        )
    out.append(
        f'<text transform="rotate(-90)" x="{-(_MARGIN_TOP + plot_h / 2):.1f}" y="16" '
        f'text-anchor="middle">ratio</text>'
    )

    label_step = max(1, len(years) // 15)
    for idx, year in enumerate(years):
        if idx % label_step:
            continue
        tx = x(year)
        out.append(
            f'<line x1="{tx:.1f}" y1="{axis_bottom}" x2="{tx:.1f}" y2="{axis_bottom + 4}" '
            f'stroke="#444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{tx:.1f}" y="{axis_bottom + 18}" text-anchor="middle">{year}</text>'
        )

    ry = y(_REFERENCE)
    out.append(
        f'<line class="refline" data-level="{_REFERENCE:g}" x1="{_MARGIN_LEFT}" '
        f'y1="{ry:.1f}" x2="{_WIDTH - _MARGIN_RIGHT}" y2="{ry:.1f}" '
        f'stroke="#888" stroke-width="1" stroke-dasharray="2,3"/>'
    )

    for idx, ((label, points), dash) in enumerate(zip(lines, dashes)):
        if not points:
            continue
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{x(yr):.1f},{y(v):.1f}" for yr, v in points)
        out.append(
            f'<polyline class="series" data-label="{_escape(label, _ATTRIBUTE_ESCAPES)}" points="{pts}" '
            f'fill="none" stroke="{color}" stroke-width="2"{dash}/>'
        )

    legend_y = _MARGIN_TOP + 6
    for idx, ((label, _), dash) in enumerate(zip(lines, dashes)):
        color = _COLORS[idx % len(_COLORS)]
        ly = legend_y + idx * 18
        out.append(
            f'<g class="legend"><line x1="{_MARGIN_LEFT + 10}" y1="{ly}" '
            f'x2="{_MARGIN_LEFT + 38}" y2="{ly}" stroke="{color}" stroke-width="2"{dash}/>'
            f'<text x="{_MARGIN_LEFT + 44}" y="{ly + 4}">{_escape(label)}</text></g>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
