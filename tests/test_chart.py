import xml.etree.ElementTree as ET

from citerhythm import PCMatrix, internal_rhythm
from citerhythm.chart import line_chart

SVG = "{http://www.w3.org/2000/svg}"
LABEL = 'Smith "Lab" & <Co>'


def test_markup_characters_in_text_and_attributes_round_trip():
    m = PCMatrix(first_year=2020, pubs=(2.0, 1.0), cites=((1.0, 3.0), (2.0,)), label=LABEL)
    seq = internal_rhythm(m)
    root = ET.fromstring(line_chart(f"Title {LABEL}", [(seq.observed_label, seq)]))
    (polyline,) = [el for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]
    assert polyline.get("data-label") == LABEL
    (legend,) = [el for el in root.iter(f"{SVG}g") if el.get("class") == "legend"]
    assert legend.find(f"{SVG}text").text == LABEL
    (title,) = [el for el in root.iter(f"{SVG}text") if el.get("class") == "title"]
    assert title.text == f"Title {LABEL}"
