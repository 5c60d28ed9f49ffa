"""Per-neuron interpretability: activation heatmaps, attribution, exports.

Heatmaps aggregate ungated probe activations so every unit is observable on
every group, regardless of how the switch would gate it. Probes are computed
per group block through the network's column kernel, bit for bit equal to
`unit_forward` on each observation. The SVG writer escapes its labels itself
(`_escape`), so importing this module loads no XML library.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .data import Dataset
from .errors import AnalysisError
from .jsonio import write_json
from .network import ModularNetwork, _group_blocks, _mean, _unit_column

STATISTICS = ("mean", "max")

_LIGHT = (247, 251, 255)
_DARK = (8, 48, 107)
_CELL_W = 150
_CELL_H = 40
_LEFT = 170
_TOP = 70


@dataclass(frozen=True)
class HeatmapMatrix:
    values: tuple[tuple[float, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    statistic: str

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise AnalysisError(f"unknown statistic {self.statistic!r}")
        if len(self.values) != len(self.row_labels):
            raise AnalysisError("one row label per unit row required")
        for row, row_label in zip(self.values, self.row_labels):
            if len(row) != len(self.col_labels):
                raise AnalysisError("one column label per group column required")
            # a non-finite value has no place on the colour scale and no CSV text to compare
            for value, col_label in zip(row, self.col_labels):
                if not math.isfinite(value):
                    raise AnalysisError(f"heatmap value {value} at {row_label!r}, {col_label!r} is not finite")

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def n_cols(self) -> int:
        return len(self.col_labels)


@dataclass(frozen=True)
class AttributionRow:
    unit_index: int
    group: int
    margin: float


@dataclass(frozen=True)
class AttributionReport:
    rows: tuple[AttributionRow, ...]

    def to_json(self) -> list:
        return [{"unit": r.unit_index, "group": r.group, "margin": r.margin} for r in self.rows]


def heatmap(net: ModularNetwork, ids, dataset: Dataset, statistic: str = "mean") -> HeatmapMatrix:
    """Probe-activation intensity per (unit, group) over the evaluation ids.

    Entry (u, g) is the statistic of unit u's ungated activation across the
    ids belonging to group g. Columns follow group id order.
    """
    if statistic not in STATISTICS:
        raise AnalysisError(f"unknown statistic {statistic!r}")
    ids = tuple(ids)
    if not ids:
        raise AnalysisError("heatmap needs at least one observation id")
    groups = sorted(dataset.groups)
    blocks = {block.group: block for block in _group_blocks(net, ids, dataset)}
    empty = [g for g, _ in groups if g not in blocks]
    if empty:
        raise AnalysisError(f"groups {empty} have no observations among the evaluation ids")
    probes = {g: [_unit_column(unit, blocks[g].features).tolist() for unit in net.units]
              for g, _ in groups}
    values = []
    for u in range(net.n_units):
        row = []
        for g, _ in groups:
            samples = probes[g][u]
            row.append(max(samples) if statistic == "max" else _mean(samples))
        values.append(tuple(row))
    return HeatmapMatrix(values=tuple(values),
                         row_labels=tuple(f"unit {u}" for u in range(net.n_units)),
                         col_labels=tuple(name for _, name in groups),
                         statistic=statistic)


def attribute(matrix: HeatmapMatrix) -> AttributionReport:
    """Argmax group per unit row, ties broken toward the lowest group id.

    Margin is the gap between the top and second values of the row (0 for a
    single-column matrix).
    """
    if matrix.n_rows == 0 or matrix.n_cols == 0:
        raise AnalysisError("attribution needs a non-empty matrix")
    rows = []
    for u, row in enumerate(matrix.values):
        best = 0
        for g in range(1, len(row)):
            if row[g] > row[best]:
                best = g
        rest = [v for g, v in enumerate(row) if g != best]
        margin = row[best] - max(rest) if rest else 0.0
        rows.append(AttributionRow(unit_index=u, group=best, margin=margin))
    return AttributionReport(rows=tuple(rows))


def export_heatmap_csv(matrix: HeatmapMatrix, path) -> None:
    """CSV with header `unit,<group names...>`, values at 6 decimal places."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit"] + list(matrix.col_labels))
        for label, row in zip(matrix.row_labels, matrix.values):
            writer.writerow([label] + [f"{v:.6f}" for v in row])


def save_attribution(report: AttributionReport, path) -> None:
    write_json(report.to_json(), path)


def _cell_color(v: float, lo: float, hi: float) -> tuple[str, float]:
    # constant matrices degenerate to the scale midpoint
    t = 0.5 if hi == lo else (v - lo) / (hi - lo)
    rgb = tuple(round(l + t * (d - l)) for l, d in zip(_LIGHT, _DARK))
    return "#%02x%02x%02x" % rgb, t


def _escape(text: str) -> str:
    """XML-escape text content: `&` first, then `<` and `>` (what
    `xml.sax.saxutils.escape` does, without loading the XML and HTTP stack)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_heatmap_svg(matrix: HeatmapMatrix, path) -> None:
    """Standalone SVG heatmap: one rect per cell, linear light-to-dark scale,
    row/column labels, the numeric value in each cell. Byte-deterministic."""
    flat = [v for row in matrix.values for v in row]
    lo, hi = min(flat), max(flat)
    width = _LEFT + _CELL_W * matrix.n_cols + 20
    height = _TOP + _CELL_H * matrix.n_rows + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif">',
        f'<text x="{_LEFT}" y="22" font-size="14" font-weight="bold">'
        f'Unit activation heatmap ({_escape(matrix.statistic)})</text>',
    ]
    for j, label in enumerate(matrix.col_labels):
        cx = _LEFT + j * _CELL_W + 8
        cy = _TOP - 10
        parts.append(f'<text x="{cx}" y="{cy}" font-size="11" '
                     f'transform="rotate(-18 {cx} {cy})">{_escape(label)}</text>')
    for i, label in enumerate(matrix.row_labels):
        ty = _TOP + i * _CELL_H + _CELL_H // 2 + 4
        parts.append(f'<text x="{_LEFT - 8}" y="{ty}" font-size="12" '
                     f'text-anchor="end">{_escape(label)}</text>')
    for i, row in enumerate(matrix.values):
        for j, v in enumerate(row):
            x = _LEFT + j * _CELL_W
            y = _TOP + i * _CELL_H
            fill, t = _cell_color(v, lo, hi)
            text_fill = "#ffffff" if t > 0.55 else "#1a1a1a"
            parts.append(f'<rect x="{x}" y="{y}" width="{_CELL_W}" height="{_CELL_H}" '
                         f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>')
            parts.append(f'<text x="{x + _CELL_W // 2}" y="{y + _CELL_H // 2 + 4}" font-size="12" '
                         f'text-anchor="middle" fill="{text_fill}">{v:.3f}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
