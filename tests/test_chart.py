import xml.etree.ElementTree as ET

from citerhythm.chart import ChartSeries, line_chart

SVG = "{http://www.w3.org/2000/svg}"
LABEL = 'Smith "Lab" & <Co>'


def test_markup_characters_in_text_and_attributes_round_trip():
    series = [ChartSeries(label=LABEL, points=((2020, 0.5), (2021, 1.5)))]
    root = ET.fromstring(line_chart((2020, 2021), series, title=f"Title {LABEL}"))
    (polyline,) = [el for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]
    assert polyline.get("data-label") == LABEL
    (legend,) = [el for el in root.iter(f"{SVG}g") if el.get("class") == "legend"]
    assert legend.find(f"{SVG}text").text == LABEL
    (title,) = [el for el in root.iter(f"{SVG}text") if el.get("class") == "title"]
    assert title.text == f"Title {LABEL}"
