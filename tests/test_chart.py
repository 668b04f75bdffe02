import math
import re
import xml.etree.ElementTree as ET

from citerhythm import PCMatrix, internal_rhythm
from citerhythm.chart import line_chart

SVG = "{http://www.w3.org/2000/svg}"
LABEL = 'Smith "Lab" & <Co>'


# Characters XML 1.0 forbids; each prints as U+FFFD. Tab, LF and CR stay.
FORBIDDEN = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
             "\ud800", "\udfff", "\ufffe", "\uffff"]


def test_markup_characters_in_text_and_attributes_round_trip():
    kept = [LABEL, "S\tX", "S\nX", "S\rX", "S\r\nX\tY\n"]
    cases = [(label, label) for label in kept] + [(f"S{c}X", "S\ufffdX") for c in FORBIDDEN]
    for label, shown in cases:
        m = PCMatrix(first_year=2020, pubs=(2.0, 1.0), cites=((1.0, 3.0), (2.0,)), label=label)
        seq = internal_rhythm(m)
        root = ET.fromstring(line_chart(f"Title {label}", [(seq.observed_label, seq)]))
        (polyline,) = [el for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]
        assert polyline.get("data-label") == shown
        (legend,) = [el for el in root.iter(f"{SVG}g") if el.get("class") == "legend"]
        assert legend.find(f"{SVG}text").text == shown
        (title,) = [el for el in root.iter(f"{SVG}text") if el.get("class") == "title"]
        assert title.text == f"Title {shown}"


def _chart(m: PCMatrix, label: str = "a"):
    return ET.fromstring(line_chart("t", [(label, internal_rhythm(m))]))


def _series(root):
    return [el for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]


def test_one_year_is_drawn_mid_axis():
    (polyline,) = _series(_chart(PCMatrix(2020, (2.0,), ((3.0,),))))
    assert polyline.get("points").split(",")[0] == "382.0"


def test_thirty_years_label_every_second_year():
    n = 30
    root = _chart(PCMatrix(2000, (1.0,) * n, tuple((1.0,) * (n - t) for t in range(n))))
    years = [el.text for el in root.iter(f"{SVG}text") if el.text and el.text.isdigit()]
    assert years == [str(y) for y in range(2000, 2000 + n, 2)]


def test_series_without_a_defined_ratio_keeps_its_legend_entry():
    root = _chart(PCMatrix(2020, (1.0, 1.0), ((0.0, 0.0), (0.0,))), label="empty")
    assert _series(root) == []
    (legend,) = [el for el in root.iter(f"{SVG}g") if el.get("class") == "legend"]
    assert legend.find(f"{SVG}text").text == "empty"


# Attributes that hold names, colours or a transform rather than numbers.
TEXT_ATTRIBUTES = {"class", "data-label", "fill", "font-family", "stroke", "text-anchor",
                   "transform"}


def test_ratios_near_the_largest_float_keep_every_coordinate_finite():
    # Year 2001's ratio is 1.7e308: ten percent of headroom above it passes
    # the largest float.
    m = PCMatrix(2000, (1.7e308, 1.0), ((0.0, 0.0), (1e25,)))
    assert max(internal_rhythm(m).ratios) > 1.7e308 / 1.1
    root = _chart(m)
    for el in root.iter():
        for name, value in el.attrib.items():
            if name not in TEXT_ATTRIBUTES:
                assert all(math.isfinite(float(v)) for v in re.split("[ ,]+", value)), (name, value)
    assert len(_series(root)) == 1
