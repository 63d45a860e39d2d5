"""Static SVG renderings of the run report payloads.

Deliberately hand-assembled markup: no plotting dependency, byte-stable
output for a given payload, valid XML checked by the test suite.
"""

from __future__ import annotations

from html import escape

from .fileio import write_text_atomic

LOW_COLOR = "#3b6fb5"
HIGH_COLOR = "#cc3333"
CLUSTER_PALETTE = ("#5b2a86", "#d9b611", "#2a9d8f", "#e76f51", "#264653")
AXIS_COLOR = "#444444"

_W, _H = 640, 420
_MARGIN = 56


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _header(width=_W, height=_H) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _title(parts: list[str], text: str, width=_W) -> None:
    parts.append(
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#111111">{escape(text, quote=False)}</text>'
    )


def _legend(parts: list[str], items: list[tuple[str, str]], x: int, y: int) -> None:
    for i, (label, color) in enumerate(items):
        yy = y + 18 * i
        parts.append(f'<rect x="{x}" y="{yy}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 18}" y="{yy + 10}" font-family="sans-serif" '
            f'font-size="11" fill="#111111">{escape(label, quote=False)}</text>'
        )


def _axes(parts: list[str], x0, y0, x1, y1) -> None:
    parts.append(
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="{AXIS_COLOR}" stroke-width="1"/>'
    )


def render_risk_map(flowlines: list[dict], path) -> None:
    """Flowline polylines colored by risk label; legend always present."""
    parts = _header()
    _title(parts, "Spatial distribution of flowline risk")

    xs, ys = [], []
    for f in flowlines:
        for member in f["lines"]:
            for x, y in member:
                xs.append(x)
                ys.append(y)
    if xs:
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
        span = max(max_x - min_x, max_y - min_y, 1e-9)
        plot = min(_W, _H) - 2 * _MARGIN

        def to_px(x, y):
            px = _MARGIN + (x - min_x) / span * plot
            py = _H - _MARGIN - (y - min_y) / span * plot
            return px, py

        # Low risk first so the rare high-risk lines draw on top.
        for want_risk in (0, 1):
            for f in flowlines:
                if f["risk"] != want_risk:
                    continue
                color = HIGH_COLOR if f["risk"] else LOW_COLOR
                width = "1.6" if f["risk"] else "0.8"
                for member in f["lines"]:
                    pts = " ".join(
                        f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in member)
                    )
                    parts.append(
                        f'<polyline points="{pts}" fill="none" stroke="{color}" '
                        f'stroke-width="{width}"/>'
                    )
    _legend(parts, [("low risk", LOW_COLOR), ("high risk", HIGH_COLOR)], _W - 140, 40)
    parts.append("</svg>")
    _write(path, parts)


def render_bar_chart(table: dict, title: str, path) -> None:
    """Grouped low/high risk counts per category label."""
    rows = table["rows"]
    labels = []
    for r in rows:
        if r["label"] not in labels:
            labels.append(r["label"])
    counts = {(r["label"], r["risk"]): r["count"] for r in rows}
    max_count = max((r["count"] for r in rows), default=1)

    parts = _header()
    _title(parts, title)
    x0, y0, x1, y1 = _MARGIN, 40, _W - _MARGIN, _H - _MARGIN
    _axes(parts, x0, y0, x1, y1)

    plot_w = x1 - x0
    plot_h = y1 - y0
    slot = plot_w / max(len(labels), 1)
    bar_w = min(24.0, slot / 3.0)

    for i, label in enumerate(labels):
        cx = x0 + slot * (i + 0.5)
        for j, risk in enumerate((0, 1)):
            c = counts.get((label, risk), 0)
            h = plot_h * c / max_count
            bx = cx - bar_w + j * bar_w
            color = HIGH_COLOR if risk else LOW_COLOR
            parts.append(
                f'<rect x="{_fmt(bx)}" y="{_fmt(y1 - h)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(h)}" fill="{color}"/>'
            )
        shown = label if len(label) <= 12 else label[:11] + "~"
        parts.append(
            f'<text x="{_fmt(cx)}" y="{y1 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" fill="#111111">{escape(shown, quote=False)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        yy = y1 - plot_h * frac
        parts.append(
            f'<text x="{x0 - 6}" y="{_fmt(yy + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10" fill="#111111">{int(max_count * frac)}</text>'
        )
    _legend(parts, [("low risk", LOW_COLOR), ("high risk", HIGH_COLOR)], _W - 140, 44)
    parts.append("</svg>")
    _write(path, parts)


def render_silhouette_chart(scores: dict[int, float], path) -> None:
    """Mean silhouette score against the number of clusters."""
    ks = sorted(scores)
    parts = _header()
    _title(parts, "Silhouette score by cluster number")
    x0, y0, x1, y1 = _MARGIN, 40, _W - _MARGIN, _H - _MARGIN
    _axes(parts, x0, y0, x1, y1)

    lo = min(min(scores.values()), 0.0)
    hi = max(max(scores.values()), 1e-9)
    span = hi - lo if hi > lo else 1.0

    def to_px(k, s):
        px = x0 + (k - ks[0]) / max(ks[-1] - ks[0], 1) * (x1 - x0)
        py = y1 - (s - lo) / span * (y1 - y0)
        return px, py

    pts = [to_px(k, scores[k]) for k in ks]
    path_d = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in pts)
    parts.append(
        f'<polyline points="{path_d}" fill="none" stroke="{LOW_COLOR}" stroke-width="2"/>'
    )
    for (px, py), k in zip(pts, ks):
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{HIGH_COLOR}"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{y1 + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#111111">{k}</text>'
        )
        parts.append(
            f'<text x="{_fmt(px + 8)}" y="{_fmt(py - 8)}" font-family="sans-serif" '
            f'font-size="10" fill="#111111">{scores[k]:.3f}</text>'
        )
    parts.append("</svg>")
    _write(path, parts)


def render_pca_clusters(scores, predicted, actual, path) -> None:
    """Two scatter panels in PC1/PC2: k-means clusters and actual labels."""
    width = 2 * _W
    parts = _header(width=width)
    _title(parts, "PCA scores: predicted clusters (left) and actual risk (right)", width=width)

    xs = [p[0] for p in scores]
    ys = [p[1] for p in scores]
    min_x, max_x = (min(xs), max(xs)) if xs else (0.0, 1.0)
    min_y, max_y = (min(ys), max(ys)) if ys else (0.0, 1.0)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)

    def panel(offset_x, labels, colors, caption):
        x0, y0 = offset_x + _MARGIN, 48
        x1, y1 = offset_x + _W - _MARGIN, _H - _MARGIN
        _axes(parts, x0, y0, x1, y1)
        parts.append(
            f'<text x="{offset_x + _W // 2}" y="{_H - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#111111">{escape(caption, quote=False)}</text>'
        )
        for (sx, sy), label in zip(scores, labels):
            px = x0 + (sx - min_x) / span_x * (x1 - x0)
            py = y1 - (sy - min_y) / span_y * (y1 - y0)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" '
                f'fill="{colors[label % len(colors)]}" fill-opacity="0.7"/>'
            )

    panel(0, predicted, CLUSTER_PALETTE, "predicted: k-means clusters on PCA scores")
    panel(_W, actual, (LOW_COLOR, HIGH_COLOR), "actual: risk labels on PCA scores")
    parts.append("</svg>")
    _write(path, parts)


def _write(path, parts: list[str]) -> None:
    write_text_atomic(path, "\n".join(parts) + "\n")
