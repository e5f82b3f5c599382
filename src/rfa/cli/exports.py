"""Tabular and graphical export of trajectories.

CSV rows carry one time step each with columns ``t``, then per variable
``<var>_re``, ``<var>_fu`` and per alpha ``<var>_a<alpha>_lo`` /
``<var>_a<alpha>_hi``.  Serialisation uses 17 significant digits so a
re-read reproduces every double bit-exactly.  The JSON form mirrors the
table and additionally maps each alpha key to its band columns.  SVG output
is self-contained: nothing but polylines, a frame and text labels.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ..dynamics import Trajectory

__all__ = [
    "ExportTable",
    "band_color",
    "emit_svg",
    "export_csv",
    "export_json",
    "read_csv",
    "trajectory_table",
]

# Rows per formatted or encoded block: a file is written a block at a
# time, so no writer holds a whole document in memory.
_BLOCK_ROWS = 1024
_SVG_SIZE = (800, 600)  # width and height of every figure, in pixels


@dataclass
class ExportTable:
    columns: list[str]
    rows: np.ndarray
    alphas: tuple[float, ...] = ()
    band_columns: dict = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.columns)
        rows = np.asarray(self.rows, dtype=np.float64)
        # no rows at all (``[]``, a header-only CSV) is a table of the header's width
        self.rows = rows.reshape(0, width) if rows.shape[:1] == (0,) else rows
        if self.rows.ndim != 2 or self.rows.shape[1] != width:
            raise ValueError(f"rows of shape {self.rows.shape} do not match the header's {width} columns")
        if len(set(self.columns)) != width:
            raise ValueError(f"column names repeat in {self.columns}")

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def alpha_key(alpha: float) -> str:
    return f"{alpha:g}"


def trajectory_table(traj: Trajectory) -> ExportTable:
    """One row per time step of ``traj``, bands included when attached.

    The row is the time, then each variable's ``re``/``fu`` pair, then, when
    bands are attached, each variable's ``lo``/``hi`` edge per alpha level.
    Every step becomes a row, so a caller that exports fewer rows samples
    the trajectory first (and attaches the bands to the sample).
    """
    columns = ["t", *(f"{name}_{part}" for name in traj.names for part in ("re", "fu"))]
    blocks = [traj.times[:, None], traj.coeffs]
    band_columns: dict = {}
    if traj.bands is not None:
        for name in traj.names:
            band_columns[name] = {}
            for alpha in traj.alphas:
                key = alpha_key(alpha)
                band_columns[name][key] = [f"{name}_a{key}_lo", f"{name}_a{key}_hi"]
                columns.extend(band_columns[name][key])
            # (n, alphas, 2) -> lo, hi of each alpha in turn, as in the header
            blocks.append(traj.bands[name].reshape(len(traj), -1))
    return ExportTable(columns, np.hstack(blocks), tuple(traj.alphas or ()), band_columns)


def export_csv(table: ExportTable, path) -> None:
    """Header through ``csv.writer``, then ``%.17g`` cells and ``\\r\\n`` per row.

    Cells are numbers, which never need quoting, so each block of rows is
    one format of the repeated row pattern and one ``write``.
    """
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(table.columns)
        for i in range(0, len(table.rows), _BLOCK_ROWS):
            block = table.rows[i : i + _BLOCK_ROWS]
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path) -> ExportTable:
    """``csv`` reads the header and ``np.loadtxt`` the body; a header alone is an empty table."""
    with open(path, newline="") as fh:
        columns = next(csv.reader(fh), None)
        if columns is None:
            raise ValueError(f"{path} is empty: no header")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    return ExportTable(columns, rows)


def export_json(table: ExportTable, path) -> None:
    """The bytes of ``json.dump`` of ``{columns, alphas, bands, rows}``.

    ``json.dump`` encodes in pure Python; ``json.dumps`` uses the C
    encoder.  The head and each block of rows are encoded on their own, so
    the whole document is never one string.
    """
    head = json.dumps({"columns": table.columns, "alphas": list(table.alphas), "bands": table.band_columns})
    with open(path, "w") as fh:
        fh.write(head[:-1] + ', "rows": [')
        for i in range(0, len(table.rows), _BLOCK_ROWS):
            if i:
                fh.write(", ")
            fh.write(json.dumps(table.rows[i : i + _BLOCK_ROWS].tolist())[1:-1])
        fh.write("]}")


def band_color(alpha: float) -> str:
    """Grayscale stroke for an alpha level: white at 0 through black at 1."""
    gray = round(235 * (1.0 - alpha))
    return f"#{gray:02x}{gray:02x}{gray:02x}"


def _svg_points(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pairs at 6 significant digits, one format over the interleaved pairs."""
    xy = np.empty(2 * len(px))
    xy[0::2], xy[1::2] = px, py
    return " ".join(["%.6g,%.6g"] * len(px)) % tuple(xy.tolist())


def emit_svg(series, path, x_label: str = "", y_label: str = "") -> None:
    """Write polyline series to a standalone SVG file.

    ``series`` is an iterable of ``(xs, ys, stroke, width)``; data is
    scaled into the viewport with a small margin and the y axis pointing
    up.
    """
    series = [
        (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), stroke, width)
        for xs, ys, stroke, width in series
    ]
    if not series:
        raise ValueError("nothing to plot")
    x_min = min(s[0].min() for s in series)
    x_max = max(s[0].max() for s in series)
    y_min = min(s[1].min() for s in series)
    y_max = max(s[1].max() for s in series)
    if x_max == x_min:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max == y_min:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    # an axis whose span overflows a double is measured in halves;
    # a finite span keeps the factor 1.0, which rounds nothing
    kx = 1.0 if math.isfinite(float(x_max) - float(x_min)) else 0.5
    ky = 1.0 if math.isfinite(float(y_max) - float(y_min)) else 0.5
    w, h = _SVG_SIZE
    margin = 50.0
    sx = (w - 2 * margin) / (x_max * kx - x_min * kx)
    sy = (h - 2 * margin) / (y_max * ky - y_min * ky)

    def to_px(xs, ys):
        px = margin + (xs * kx - x_min * kx) * sx
        py = h - margin - (ys * ky - y_min * ky) * sy
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{w - 2 * margin}" '
        f'height="{h - 2 * margin}" fill="none" stroke="#888" stroke-width="1"/>',
    ]
    for xs, ys, stroke, width in series:
        px, py = to_px(xs, ys)
        pts = _svg_points(px, py)
        parts.append(
            f'<polyline fill="none" stroke="{stroke}" stroke-width="{width:g}" points="{pts}"/>'
        )
    label_style = 'font-family="sans-serif" font-size="14"'
    parts.append(f'<text x="{w / 2:.0f}" y="{h - 12}" {label_style} text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{h / 2:.0f}" {label_style} text-anchor="middle" '
        f'transform="rotate(-90 16 {h / 2:.0f})">{y_label}</text>'
    )
    for value, px, py, anchor in (
        (x_min, margin, h - margin + 16, "middle"),
        (x_max, w - margin, h - margin + 16, "middle"),
        (y_min, margin - 6, h - margin, "end"),
        (y_max, margin - 6, margin + 4, "end"),
    ):
        parts.append(f'<text x="{px:.0f}" y="{py:.0f}" {label_style} text-anchor="{anchor}">{value:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
