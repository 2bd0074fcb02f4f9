"""Plot the CSV of `zetacorr curve --out` as a self-contained SVG.

    python tools/plot_curve.py curve.csv curve.svg

Two panels: ratio vs delta on top, moment vs delta (log10 scale) below.
Every marker carries its row's CSV fields, unchanged, in data
attributes.  A table that is empty or not a curve CSV, a field that is
not a finite number or a non-positive moment exits 1 with a one-line
message and writes nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

COLUMNS = ("delta", "moment", "prediction", "ratio", "nsw_F",
           "step_halving_delta")


def _coords(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        return [0.5 * (out_lo + out_hi) for _ in vals]
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def read_rows(path) -> list:
    """The CSV's rows as {column: field text}, header and widths checked."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if not lines or tuple(lines[0]) != COLUMNS:
        raise ValueError(f"{path}: header is not {','.join(COLUMNS)}")
    for number, fields in enumerate(lines[1:], start=2):
        if len(fields) != len(COLUMNS):
            raise ValueError(f"{path}: line {number} has {len(fields)} fields, "
                             f"not {len(COLUMNS)}")
    return [dict(zip(COLUMNS, fields)) for fields in lines[1:]]


def plot_svg(rows) -> str:
    """Two-panel SVG of curve rows given as CSV field text."""
    if not rows:
        raise ValueError("cannot plot an empty curve table")
    values = [{k: float(r[k]) for k in COLUMNS} for r in rows]
    if not all(math.isfinite(x) for v in values for x in v.values()):
        raise ValueError("curve fields must be finite numbers")
    if any(v["moment"] <= 0 for v in values):
        raise ValueError("log-scale moment panel needs positive moments")
    deltas = [v["delta"] for v in values]
    ratios = [v["ratio"] for v in values]
    logm = [math.log10(v["moment"]) for v in values]

    width, height, margin = 800.0, 600.0, 60.0
    panel_h = (height - 3 * margin) / 2.0
    x = _coords(deltas, min(deltas), max(deltas), margin, width - margin)
    y1 = _coords(ratios, min(ratios), max(ratios), margin + panel_h, margin)
    y2 = _coords(logm, min(logm), max(logm),
                 height - margin, height - margin - panel_h)

    def polyline(xs, ys, color):
        if len(xs) < 2:
            return ""
        pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(xs, ys))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{margin}" y="{margin - 20}" font-family="monospace" '
        f'font-size="14">ratio vs delta</text>',
        f'<text x="{margin}" y="{margin + panel_h + margin - 20}" '
        f'font-family="monospace" font-size="14">moment vs delta '
        f'(log10 scale)</text>',
        polyline(x, y1, "#1f6feb"),
        polyline(x, y2, "#d1242f"),
    ]
    for i, r in enumerate(rows):
        parts.append(
            f'<circle cx="{x[i]:.3f}" cy="{y1[i]:.3f}" r="3" fill="#1f6feb" '
            f'data-delta="{r["delta"]}" data-ratio="{r["ratio"]}" '
            f'data-nsw-f="{r["nsw_F"]}"/>')
        parts.append(
            f'<circle cx="{x[i]:.3f}" cy="{y2[i]:.3f}" r="3" fill="#d1242f" '
            f'data-delta="{r["delta"]}" data-moment="{r["moment"]}" '
            f'data-prediction="{r["prediction"]}" '
            f'data-step-halving-delta="{r["step_halving_delta"]}"/>')
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("csv", help="a curve CSV, as `zetacorr curve --out` writes")
    parser.add_argument("svg", help="the SVG file to write")
    args = parser.parse_args(argv)
    if os.path.realpath(args.csv) == os.path.realpath(args.svg):
        parser.error("the SVG would replace the CSV")
    try:
        svg = plot_svg(read_rows(args.csv))
        with open(args.svg, "wb") as fh:
            fh.write(svg.encode("utf-8"))
    except (OSError, ValueError, csv.Error) as exc:
        print(f"plot_curve: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
