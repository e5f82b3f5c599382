"""Tabular and graphical export of trajectories.

CSV rows carry one time step each with columns ``t``, then per variable
``<var>_re``, ``<var>_fu`` and per alpha ``<var>_a<alpha>_lo`` /
``<var>_a<alpha>_hi``.  CSV cells carry 17 significant digits and JSON
cells the shortest digits of ``repr``, so a re-read of either reproduces
every double bit-exactly.  The JSON form mirrors the table and
additionally maps each alpha key to its band columns.  SVG output
is self-contained: nothing but polylines, a frame and text labels.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from collections.abc import Callable
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


# -- number cells: the bytes of ``%.17g`` or of ``repr`` for a block at once --
#
# Both write x in fixed notation when its decimal exponent k lies in
# -4..16 (``%.17g``) or -4..15 (``repr``), and read every digit string
# there off |x| * 10^q with q = 16 - k, which has 17 digits before the
# point.  10^q is a double for q <= 22, and Dekker's product gives
# |x| * 10^q exactly as p + e (one ufunc per operation, so nothing fuses
# into an FMA).  p >= 10^16 > 2^53 is an even integer, so N17 = p + rint(e)
# rounds as dtoa does, ties to even.  k comes from ``log10``, and a cell
# is kept only when the exact pair shows that k was right.  ``%.17g``
# writes N17.  ``repr`` writes the shortest digits that read back as x
# (Steele & White, PLDI 1990; Adams, "Ryu", PLDI 2018): the 15-digit
# rounding of p + e when it lies inside the rounding interval of x, else
# the 16-digit one, else N17.  The interval is half an ulp of x on either
# side, exact at the scale of p.  Every other cell is formatted on its own
# by the writer's text function: exponent notation, inf, nan, a tie at 16
# digits, a carry into the next decade and whatever fails the check of k.

_CELLS_PER_BLOCK = 16384
_POW10 = np.array([float(10**q) for q in range(21)])
_GROUPS = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), "<u4")  # "0000" .. "9999"
_TRAILING_ZEROS = (_GROUPS.view(np.uint8).reshape(-1, 4)[:, ::-1] == ord("0")).cumprod(axis=1).sum(axis=1)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits each, ``a = hi + lo``."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _exact_product(a, b, bh, bl):
    """``a * b`` exactly, as the rounded product ``p`` and its error ``e`` (Dekker's product).

    ``bh + bl`` is Veltkamp's split of ``b``.
    """
    p = a * b
    ah, al = _split(a)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


# Each cell is formatted from 28 source bytes, four per ``<u4`` word:
#   0 sign ("-" or NUL), 1 ".", 2 "0", 3..19 the 17 digits of N,
#   20..23 the separator, NUL-padded, 24..27 NUL
# A layout gathers the bytes of the cell's slot from them: the sign, the
# text and NUL padding, then the separator.  A cell the kernel leaves has
# the empty layout, and its text (at most 24 characters) is written over
# the start of the slot.  The NULs are deleted from the finished block.
_SIGN, _DOT, _ZERO, _DIGITS, _SEPARATOR, _NUL = 0, 1, 2, 3, 20, 24
_HEAD = int.from_bytes(b"\0.00", "little")  # word 0 with the lead digit "0" and no sign


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(4, b"\0"), "little")


def _fixed(k: int, sig: int, integral):
    """The fixed text of N at exponent ``k``, whose digits after the ``sig``-th are zeros.

    ``integral`` ends a text without a fractional digit.
    """
    digits = range(_DIGITS, _DIGITS + 17)
    if k < 0:
        return [_ZERO, _DOT, *[_ZERO] * (-k - 1), *digits[:sig]]
    if sig <= k + 1:
        return [*digits[: k + 1], *integral]
    return [*digits[: k + 1], _DOT, *digits[k + 1 : sig]]


def _layouts(integral, zero, separator_bytes: int) -> np.ndarray:
    """Layout ``(k + 4) * 17 + sig - 1`` for k in -4..16 and sig in 1..17, then the zero's, then the empty one."""
    texts = [_fixed(k, sig, integral) for k in range(-4, 17) for sig in range(1, 18)] + [zero, []]
    separator = range(_SEPARATOR, _SEPARATOR + separator_bytes)
    return np.array([[_SIGN, *text, *[_NUL] * (23 - len(text)), *separator] for text in texts], dtype=np.intp)


@dataclass(frozen=True)
class _Cells:
    """One writer's number text: its layouts, its widest fixed exponent,
    whether it writes the shortest digits, and the text of a cell the
    kernel leaves."""

    layouts: np.ndarray
    k_max: int
    shortest: bool
    text: Callable[[float], str]


_CSV = _Cells(_layouts([], [_ZERO], 2), 16, False, "%.17g".__mod__)
_JSON = _Cells(_layouts([_DOT, _ZERO], [_ZERO, _DOT, _ZERO], 4), 15, True, json.dumps)
_ZERO_LAYOUT, _LEFT_LAYOUT = -2, -1  # the last two rows of every table


def _shortest(ax, q, p, e, n17):
    """The 17-digit N of the shortest digits that read back as ``ax``, and where the kernel decides them.

    p is rounded and its ulp is 2 to 16, so the remainder r of p past the
    kept digits and r + e can differ by a carry: the rounding comes from
    the exact r + e.  No rounding lies on an end of the interval, which is
    an odd multiple of half an ulp with 54 significant bits, so whether
    the ends count never arises.  The interval reaches at most 11.1 to
    either side at this scale, so a tie at 15 digits, 50 from p + e, is
    never inside it.  Powers of two, whose interval is narrower below,
    get ``repr``'s digits all the same (``tests/test_exports.py`` checks
    every one).
    """
    whole = p.astype(np.int64)
    half_ulp = np.spacing(ax) * _POW10[q] * 0.5
    r15 = whole % 100
    r16 = r15 % 10
    s15, s16 = r15 + e, r16 + e  # p + e = whole - r + s, exactly
    up15 = (s15 > 50).astype(np.int64)
    up16 = (s16 > 5).astype(np.int64) + (s16 > 15) - (s16 < -5)
    n = np.where(
        np.abs(up15 * 100 - s15) < half_ulp,
        whole - r15 + up15 * 100,
        np.where(np.abs(up16 * 10 - s16) < half_ulp, whole - r16 + up16 * 10, n17),
    )
    return n, s16 % 10 != 5


def _cells(block: np.ndarray, separators: np.ndarray, kind: _Cells) -> bytes:
    """The text of every cell of ``block``, each followed by its separator (broadcast over the block)."""
    x = block.ravel()
    n = len(x)
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(ax))
    fixed = (k >= -4) & (k <= kind.k_max)  # false for zeros, inf, nan
    # a cell left to the text function computes as 1.0, so every cast below is defined
    k = np.where(fixed, k, 0.0).astype(np.intp)
    ax = np.where(fixed, ax, 1.0)
    q = 16 - k
    p, e = _exact_product(ax, _POW10[q], _POW10_HI[q], _POW10_LO[q])  # exact |x| * 10^q = p + e
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fixed &= (p > 1e16) | ((p == 1e16) & (e >= 0))
    if kind.shortest:
        digits, decided = _shortest(ax, q, p, e, digits)
        fixed &= decided
    fixed &= digits < 10**17
    upper, lower = np.divmod(digits, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    groups = (*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))
    src = np.empty((n, 7), "<u4")
    src[:, 0] = _HEAD + (lead.astype(np.uint32) << 24) + np.signbit(x) * np.uint32(ord("-"))
    trailing = np.zeros(n, np.intp)
    for column, g in enumerate(groups, 1):
        src[:, column] = _GROUPS.take(g)
        # zeros after the last nonzero digit; the lead digit of a fixed cell is nonzero
        trailing = np.where(g == 0, trailing + 4, _TRAILING_ZEROS.take(g))
    src.reshape(block.shape + (7,))[..., 5] = separators
    src[:, 6] = 0
    which = np.where(fixed, (k + 4) * 17 + 16 - trailing, np.where(x == 0.0, _ZERO_LAYOUT, _LEFT_LAYOUT))
    index = kind.layouts.take(which, axis=0)
    index += (np.arange(n) * 28)[:, None]  # 28 source bytes per cell
    out = src.view(np.uint8).ravel().take(index)
    left = np.flatnonzero(which == _LEFT_LAYOUT)
    if len(left):
        texts = np.array([kind.text(v) for v in x[left].tolist()], "S24")
        out[left, :24] = texts.view(np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")


def _blocks(rows: np.ndarray) -> list[np.ndarray]:
    """``rows`` (at least one column wide) as blocks of whole rows, about ``_CELLS_PER_BLOCK`` cells each."""
    step = max(1, _CELLS_PER_BLOCK // rows.shape[1])
    return [rows[i : i + step] for i in range(0, len(rows), step)]


def export_csv(table: ExportTable, path) -> None:
    """Header through ``csv.writer``, then ``%.17g`` cells and ``\\r\\n`` per row.

    Cells are numbers, which never need quoting.  The cell kernel formats
    them a block of whole rows at a time.
    """
    n_rows, width = table.rows.shape
    separators = np.full(width, _word(b","), "<u4")
    separators[-1:] = _word(b"\r\n")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(table.columns)
        if not width:  # rows without cells
            fh.write("\r\n" * n_rows)
            return
        for block in _blocks(table.rows):
            fh.write(_cells(block, separators, _CSV).decode("ascii"))


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

    ``json.dumps`` encodes the head, and the cell kernel the rows with the
    digits of ``repr``, a block of whole rows at a time, so the whole
    document is never one string.  ``json.dump`` writes ASCII only, so the
    file is written in binary.
    """
    head = json.dumps({"columns": table.columns, "alphas": list(table.alphas), "bands": table.band_columns})
    n_rows, width = table.rows.shape
    with open(path, "wb") as fh:
        fh.write(head[:-1].encode("ascii") + b', "rows": [')
        if not n_rows or not width:
            fh.write(b", ".join([b"[]"] * n_rows) + b"]}")
            return
        fh.write(b"[")
        separators = np.full(width, _word(b", "), "<u4")
        separators[-1] = _word(b"], [")
        *blocks, last = _blocks(table.rows)
        for block in blocks:
            fh.write(_cells(block, separators, _JSON))
        # the last cell closes its row, the rows and the document
        separators = np.tile(separators, (len(last), 1))
        separators[-1, -1] = _word(b"]]}")
        fh.write(_cells(last, separators, _JSON))


def band_color(alpha: float) -> str:
    """Grayscale stroke for an alpha level: white at 0 through black at 1."""
    gray = round(235 * (1.0 - alpha))
    return f"#{gray:02x}{gray:02x}{gray:02x}"


# -- SVG pixels: the bytes of ``%.6g`` for coordinates in [10, 1000) --
#
# A pixel of a finite span lies in [50, 750].  For v in [10, 1000),
# v * 10^d with d = 4 below 100 and 3 from 100 has the 6 significant
# digits of ``%.6g`` before the point, and Dekker's product gives it
# exactly as p + e.  p < 2^20, so f = floor(p) and (p - f) - 0.5 are
# exact, and the rounded sum ((p - f) - 0.5) + e has the sign of the
# exact remainder less a half, since rounding keeps signs: above zero
# rounds up, zero is a tie and goes to even.  Scaled to 4 decimals, the
# rounded N splits into an integer part 10..1000 (999.9995 carries to
# 1000) and a fraction 0..9999.  Each part is one NUL-padded table word:
# the integer's digits, and the fraction as ``.dddd`` without trailing
# zeros (nothing for 0).  The separator goes in the last byte of the
# fraction word, and the NULs are deleted from the text.  Every other
# coordinate (below 10, from 1000, negative, nan, inf) goes to ``%.6g``
# on its own.

_INTEGERS = _GROUPS[:1001].astype(np.uint64) >> (  # the digits of 0 .. 1000 without leading zeros
    8 * (np.arange(1001) < np.array([[10], [100], [1000]])).sum(axis=0).astype(np.uint64)
)
_FRACTIONS = np.where(  # "", ".0001" .. ".9999" for 0 .. 9999, without trailing zeros
    np.arange(10000) == 0,
    np.uint64(0),
    ((_GROUPS.astype(np.uint64) << np.uint64(8)) | np.uint64(ord(".")))
    & ((np.uint64(1) << (8 * (5 - _TRAILING_ZEROS)).astype(np.uint64)) - np.uint64(1)),
)
_PAIR_SEPARATORS = np.array([ord(","), ord(" ")], np.uint64) << np.uint64(56)  # after x, after y


def _svg_points(px: np.ndarray, py: np.ndarray) -> str:
    """``x,y`` pairs at 6 significant digits (the bytes of ``%.6g``), separated by single spaces."""
    xy = np.empty(2 * len(px))
    xy[0::2], xy[1::2] = px, py
    inside = (xy >= 10.0) & (xy < 1000.0)  # false for nan
    v = np.where(inside, xy, 10.0)
    small = v < 100.0
    scale = np.where(small, 1e4, 1e3)
    p, e = _exact_product(v, scale, scale, 0.0)  # 10^4 and 10^3 are their own high halves
    f = np.floor(p)
    s = ((p - f) - 0.5) + e
    n = f.astype(np.int64)
    n += (s > 0.0) | ((s == 0.0) & (n & 1).astype(bool))
    whole, fraction = np.divmod(np.where(small, n, n * 10), 10000)
    words = np.empty((len(xy), 2), "<u8")
    words[:, 0] = _INTEGERS.take(whole)
    words[:, 1] = _FRACTIONS.take(fraction)
    left = np.flatnonzero(~inside)
    if len(left):
        texts = np.array(["%.6g" % c for c in xy[left].tolist()], "S16")  # at most 13 bytes
        words[left] = texts.view("<u8").reshape(-1, 2)
    words.reshape(-1, 2, 2)[:, :, 1] |= _PAIR_SEPARATORS
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


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
