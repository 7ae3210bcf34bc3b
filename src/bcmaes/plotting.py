"""Convergence plot data and a self-contained SVG chart from trace CSVs."""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from typing import Optional, Sequence

from .errors import SchemaError

CSV_HEADER = ["iter", "f_best_iter", "f_min_so_far", "error_vs_min", "cov_norm", "retrial", "event"]

LOG_FLOOR = 1e-16

_STRATEGY_COLORS = {"s1": "#ff7f0e", "s2": "#1f77b4"}
_FALLBACK_COLOR = "#2ca02c"

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 16, 44


def _read_error_series(path: str) -> list[Optional[float]]:
    """The error column of one trace CSV, None for each leading +inf cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise SchemaError(f"{path}: header {header!r} does not match the trace schema")
        leading, errors = 0, []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise SchemaError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields")
            try:
                int(row[0])
                error = float(row[3])
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: unparseable numeric field") from exc
            # a run whose first evaluations are all +inf has no best value yet,
            # so its curve starts at the first finite cell; -inf plots at the
            # log floor, and NaN, or +inf after a finite cell, has no coordinate
            if error == math.inf and not errors:
                leading += 1
                continue
            if math.isnan(error) or error == math.inf:
                raise SchemaError(f"{path}:{lineno}: error_vs_min is {error!r}")
            errors.append(error)
    if not errors:
        raise SchemaError(f"{path}: no finite error_vs_min" if leading else f"{path}: no data rows")
    return [None] * leading + errors


def emit_plot_data(csv_paths: Sequence[str], out_dir: str) -> tuple[str, str]:
    """Write an aligned wide data file and an SVG convergence chart.

    The data file has one iteration column and one error column per input
    run, with blank cells before each run's first finite error and past its
    end. The chart plots
    ``log10(error + 1e-16)`` against iteration, one polyline per run, with
    strategy-coded colors and a text legend. Returns the two output paths.

    Raises
    ------
    SchemaError
        On an empty input list or any CSV that does not match the schema.
    """
    if not csv_paths:
        raise SchemaError("no input CSV files given")
    series = [_read_error_series(p) for p in csv_paths]
    stems = [os.path.splitext(os.path.basename(p))[0] for p in csv_paths]

    # (strategy, seed) of each <function>_<strategy>_<seed> stem, None for any other run
    parsed = [parts[1:] if len(parts) == 3 and parts[1] in _STRATEGY_COLORS else None
              for parts in (stem.rsplit("_", 2) for stem in stems)]
    total = Counter(p[0] for p in parsed if p is not None)
    labels, colors = [], []
    for stem, p in zip(stems, parsed):
        if p is None:
            labels.append(stem)
            colors.append(_FALLBACK_COLOR)
        else:
            strategy, seed = p
            seed_note = f" seed {seed}" if total[strategy] > 1 else ""
            labels.append(f"B-CMA-ES {strategy.upper()}{seed_note}")
            colors.append(_STRATEGY_COLORS[strategy])

    os.makedirs(out_dir, exist_ok=True)
    data_path = os.path.join(out_dir, "plot_data.csv")
    n_rows = max(len(s) for s in series)
    with open(data_path, "w", newline="") as fh:
        # a file name with a comma or a quote is one quoted cell
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter"] + stems)
        for i in range(n_rows):
            writer.writerow([str(i + 1)] + [repr(s[i]) if i < len(s) and s[i] is not None else ""
                                            for s in series])

    svg_path = os.path.join(out_dir, "convergence.svg")
    with open(svg_path, "w", newline="\n") as fh:
        fh.write(_render_svg(series, labels, colors))
    return data_path, svg_path


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _render_svg(series: list[list[Optional[float]]], labels: list[str], colors: list[str]) -> str:
    # errors can dip a hair below zero when the reference minimum is an
    # approximate minimizer; clamp before the floored log
    logs = [{i + 1: math.log10(max(e, 0.0) + LOG_FLOOR) for i, e in enumerate(s) if e is not None}
            for s in series]
    x_max = max(len(s) for s in series)
    y_lo = min(min(s.values()) for s in logs)
    y_hi = max(max(s.values()) for s in logs)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(it: float) -> float:
        return _MARGIN_L + (it - 1) / max(x_max - 1, 1) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    axis_y = _MARGIN_T + plot_h
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_MARGIN_L + plot_w}" y2="{axis_y}" '
        'stroke="black"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" stroke="black"/>'
    )
    for tx in _ticks(1, x_max):
        px = sx(tx)
        out.append(f'<line x1="{px:.1f}" y1="{axis_y}" x2="{px:.1f}" y2="{axis_y + 5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.1f}" y="{axis_y + 18}" font-size="11" text-anchor="middle">{tx:.0f}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" y2="{py:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" font-size="11" text-anchor="end">{ty:.1f}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 8}" font-size="12" '
        'text-anchor="middle">iteration</text>'
    )
    out.append(
        f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">log10(error + 1e-16)</text>'
    )
    for vals, color in zip(logs, colors):
        pts = " ".join(f"{sx(it):.2f},{sy(v):.2f}" for it, v in vals.items())
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    lx = _MARGIN_L + plot_w - 170
    ly = _MARGIN_T + 10
    for i, (label, color) in enumerate(zip(labels, colors)):
        yy = ly + i * 18
        out.append(f'<line x1="{lx}" y1="{yy}" x2="{lx + 22}" y2="{yy}" stroke="{color}" stroke-width="2"/>')
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{lx + 28}" y="{yy + 4}" font-size="12">{text}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
