import html
import subprocess
import sys
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from flowline_risk.figures import (
    HIGH_COLOR,
    LOW_COLOR,
    render_bar_chart,
    render_pca_clusters,
    render_risk_map,
    render_silhouette_chart,
)


def svg_text(path):
    ET.parse(path)  # must be well-formed XML
    return path.read_text()


class TestRiskMap:
    def test_empty_high_risk_set_keeps_legend(self, tmp_path):
        payload = [{"risk": 0, "lines": [[[0.0, 0.0], [10.0, 5.0]]]},
                   {"risk": 0, "lines": [[[3.0, 1.0], [8.0, 9.0]]]}]
        out = tmp_path / "map.svg"
        render_risk_map(payload, out)
        text = svg_text(out)
        assert "high risk" in text and "low risk" in text
        assert text.count(HIGH_COLOR) == 1  # legend only, no high-risk strokes

    def test_risk_coloring(self, tmp_path):
        payload = [{"risk": 1, "lines": [[[0.0, 0.0], [10.0, 5.0]]]}]
        out = tmp_path / "map.svg"
        render_risk_map(payload, out)
        assert svg_text(out).count(HIGH_COLOR) == 2  # legend + stroke

    def test_empty_payload_is_valid(self, tmp_path):
        out = tmp_path / "map.svg"
        render_risk_map([], out)
        svg_text(out)


class TestBarChart:
    def test_rows_render(self, tmp_path):
        table = {"name": "fluid_type", "rows": [
            {"label": "CRUDE_OIL", "risk": 0, "count": 90, "proportion": 0.9},
            {"label": "CRUDE_OIL", "risk": 1, "count": 10, "proportion": 0.1},
        ]}
        out = tmp_path / "bar.svg"
        render_bar_chart(table, "Risk by fluid", out)
        text = svg_text(out)
        assert "CRUDE_OIL" in text
        assert LOW_COLOR in text and HIGH_COLOR in text

    def test_deterministic_bytes(self, tmp_path):
        table = {"name": "x", "rows": [{"label": "A", "risk": 0, "count": 3, "proportion": 1.0}]}
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_bar_chart(table, "t", a)
        render_bar_chart(table, "t", b)
        assert a.read_bytes() == b.read_bytes()


class TestSilhouetteChart:
    def test_x_axis_is_k_range(self, tmp_path):
        out = tmp_path / "sil.svg"
        render_silhouette_chart({2: 0.9, 3: 0.5, 4: 0.4, 5: 0.3}, out)
        text = svg_text(out)
        for k in (2, 3, 4, 5):
            assert f">{k}</text>" in text


class TestPcaClusters:
    def test_two_panels(self, tmp_path):
        scores = [[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]
        out = tmp_path / "pca.svg"
        render_pca_clusters(scores, [0, 0, 1], [0, 1, 0], out)
        text = svg_text(out)
        assert "predicted" in text and "actual" in text
        assert text.count("<circle") == 6  # every point in both panels


class TestTextEscaping:
    """SVG text goes through html.escape(text, quote=False), which escapes
    the same three characters as xml.sax.saxutils.escape without importing
    urllib.request, http.client, ssl and email."""

    @settings(max_examples=300)
    @given(st.text(alphabet=st.sampled_from("&<>\"'a; #xé"), max_size=30) | st.text(max_size=30))
    def test_same_strings_as_saxutils(self, text):
        from xml.sax.saxutils import escape
        assert html.escape(text, quote=False) == escape(text)

    def test_quotes_stay_and_markup_is_escaped(self, tmp_path):
        label = "A&B <x> \"q\" 'p'"
        assert html.escape(label, quote=False) == "A&amp;B &lt;x&gt; \"q\" 'p'"
        out = tmp_path / "bars.svg"
        render_bar_chart({"rows": [{"label": label, "risk": 1, "count": 2}]}, label, out)
        text = svg_text(out)
        assert text.count("A&amp;B &lt;x&gt; \"q\" 'p'</text>") == 1  # the title
        assert text.count("A&amp;B &lt;x&gt; \"q\"") == 2  # and the shortened bar label

    def test_the_cli_does_not_import_the_network_stack(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, flowline_risk.cli; "
             "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email') if m in sys.modules))"],
            capture_output=True, text=True,
        )
        assert proc.stdout.strip() == "[]", proc.stderr
