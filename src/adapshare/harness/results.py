"""Every result file: sweep and detail CSVs, learning curves, SVG charts.

This module alone knows the result-file formats; the sweep and the CLI
write through it. Every data file is reproducible byte-for-byte from
(dataset, spec, seed): floats go through `repr`, so they also read back
exactly, and each distinct float is formatted once. Wall-clock
timestamps and timings go only into the run_metadata.json sidecar so
reruns diff clean.
"""

import json
import os
import time
from datetime import datetime, timezone

import numpy as np

from ..domain import AgentKind, read_csv_rows
from .config import _finite

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

SWEEP_HEADER = "zeta,n_r,agent,s_a,s_b,fairness,mean_j"
DETAIL_HEADER = "t,n_a,n_b,d_a,d_b,j"
CURVE_HEADER = "step,reward_moving_avg"


def _fmt(value):
    return f"{value:g}"


def _nice_ticks(lo, hi, target=5):
    """Round tick positions covering [lo, hi] using a 1/2/5 step."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(v) < step * 1e-6 else v)
        v += step
    return ticks


def svg_line_chart(lines, title, x_label, y_label):
    """Render labeled (xs, ys) polylines to a 720 x 440 SVG document string."""
    width, height = 720, 440
    margin_l, margin_r, margin_t, margin_b = 62, 16, 34, 46
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in lines])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in lines])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        if not x_lo <= tick <= x_hi:
            continue
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" y2="{margin_t + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin_t + plot_h + 16}" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        if not y_lo <= tick <= y_hi:
            continue
        y = py(tick)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 4:.2f}" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for i, (label, xs, ys) in enumerate(lines):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(xs, ys)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 + 15 * i
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 23}" y="{ly}">{label}</text>')
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.2f}" y="{height - 10}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_t + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2:.2f})">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(header, rows):
    return "\n".join([header, *rows]) + "\n"


def sweep_row(zeta, n_r, agent, report):
    """One sweep CSV line."""
    label = agent.value if isinstance(agent, AgentKind) else str(agent)
    return "%r,%r,%s,%r,%r,%r,%r" % (
        float(zeta), float(n_r), label, report.s_a, report.s_b, report.fairness, report.mean_j
    )


def write_sweep_csv(cells, path):
    """A sweep CSV with one row per (zeta, n_r, agent, report) cell."""
    _write(path, _csv(SWEEP_HEADER, (sweep_row(*cell) for cell in cells)))


def _float_text(col, known, like=None):
    """repr of each float in col. A column in `known` (text keyed by its
    bytes, so -0.0 is not 0.0) or of one value is formatted once; a value
    whose bits equal its row's in `like`, a known column, reuses its text."""
    text = known.get(col.tobytes())
    if text is not None:
        return text
    values, bits = col.tolist(), col.view(np.uint64)
    if values and (bits == bits[0]).all():
        return [repr(values[0])] * len(values)
    if like is None:
        return list(map(repr, values))
    same = (bits == like.view(np.uint64)).tolist()
    return [hit if s else repr(v) for v, s, hit in zip(values, same, known[like.tobytes()])]


def write_detail_csv(report, path, _known=None):
    """One detail CSV line per row of the report's per_step matrix, each
    float its repr, formatted once per distinct value or column; `_known`
    is the split-column text that emit_results shares between cells."""
    known = {} if _known is None else _known
    t, n_a, n_b, d_a, d_b, j = columns = np.ascontiguousarray(report.per_step.T)
    for col in (t, d_a, d_b):
        known[col.tobytes()] = _float_text(col, known)
    likes = (None, d_a, d_b, None, None, None)  # a grant may reuse its demand's text
    text = [_float_text(col, known, like) for col, like in zip(columns, likes)]
    _write(path, _csv(DETAIL_HEADER, map(",".join, zip(*text))))


def write_curve_csv(curve, path):
    """A learning curve: step index and window-100 reward average."""
    _write(path, _csv(CURVE_HEADER, (f"{i},{float(value)!r}" for i, value in enumerate(curve))))


def _cell_stub(agent, n_r, zeta):
    return f"{agent}_nr{n_r:g}_z{zeta:.4g}"


def check_cell_stubs(cells):
    """Refuse (agent, n_r, zeta) cells whose result files share a name."""
    seen = {}
    for cell in cells:
        stub = _cell_stub(*cell)
        if stub in seen:
            raise ValueError(f"cells {seen[stub]} and {cell} would both write detail_{stub}.csv")
        seen[stub] = cell


def emit_results(table, out_dir):
    """Write sweep.csv, per-cell detail/curve CSVs, SVG charts, and the sidecar.

    Returns the list of written file paths (sidecar last).
    """
    started = time.perf_counter()
    if not table:
        raise ValueError("empty sweep table, nothing to emit")
    check_cell_stubs((row.agent_kind.value, row.n_r, row.zeta) for row in table)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    known = {}  # every cell's split-column text, made once, before any file
    for row in table:
        for col in row.report.per_step.T[[0, 3, 4]]:
            known[col.tobytes()] = _float_text(col, known)

    path = os.path.join(out_dir, "sweep.csv")
    write_sweep_csv(((row.zeta, row.n_r, row.agent_kind, row.report) for row in table), path)
    written.append(path)

    for row in table:
        stub = _cell_stub(row.agent_kind.value, row.n_r, row.zeta)
        path = os.path.join(out_dir, f"detail_{stub}.csv")
        write_detail_csv(row.report, path, _known=known)
        written.append(path)
        if row.curve is not None and len(row.curve) > 0:
            path = os.path.join(out_dir, f"curve_{stub}.csv")
            write_curve_csv(row.curve, path)
            written.append(path)

    basic = [
        (row.n_r, row.zeta, row.agent_kind.value,
         row.report.s_a, row.report.s_b, row.report.fairness)
        for row in table
    ]
    curves = {
        (row.agent_kind.value, row.n_r, row.zeta): row.curve
        for row in table
        if row.curve is not None and len(row.curve) > 0
    }
    written.extend(emit_charts(basic, curves, out_dir))

    sidecar = os.path.join(out_dir, "run_metadata.json")
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "cells": len(table),
        "files": [os.path.basename(p) for p in written],
        "cell_seconds": [row.seconds for row in table],
        "emit_seconds": time.perf_counter() - started,
    }
    _write(sidecar, json.dumps(meta, indent=2) + "\n")
    written.append(sidecar)
    return written


def emit_charts(basic_rows, curves, out_dir):
    """SVG charts from plain tuples; shared by emit_results and replot.

    basic_rows: (n_r, zeta, agent, s_a, s_b, fairness) per cell.
    curves: {(agent, n_r, zeta): moving-average array}.
    """
    written = []
    n_r_values = sorted({row[0] for row in basic_rows})
    for n_r in n_r_values:
        cells = sorted((r for r in basic_rows if r[0] == n_r), key=lambda r: r[1])
        agents = []
        for row in cells:
            if row[2] not in agents:
                agents.append(row[2])
        surplus_lines = []
        fairness_lines = []
        for agent in agents:
            sub = [r for r in cells if r[2] == agent]
            zetas = [r[1] for r in sub]
            surplus_lines.append((f"{agent} A", zetas, [r[3] for r in sub]))
            surplus_lines.append((f"{agent} B", zetas, [r[4] for r in sub]))
            fairness_lines.append((agent, zetas, [r[5] for r in sub]))
        if len({r[1] for r in cells}) > 1:
            path = os.path.join(out_dir, f"surplus_nr{n_r:g}.svg")
            _write(path, svg_line_chart(
                surplus_lines,
                title=f"Mean surplus/deficit, pool {n_r:g} PRB",
                x_label="priority weight",
                y_label="fractional surplus",
            ))
            written.append(path)
            path = os.path.join(out_dir, f"fairness_nr{n_r:g}.svg")
            _write(path, svg_line_chart(
                fairness_lines,
                title=f"Jain fairness, pool {n_r:g} PRB",
                x_label="priority weight",
                y_label="fairness index",
            ))
            written.append(path)
    by_agent_nr = {}
    for (agent, n_r, zeta), curve in sorted(curves.items()):
        by_agent_nr.setdefault((agent, n_r), []).append((zeta, curve))
    for (agent, n_r), entries in by_agent_nr.items():
        chart_lines = [
            (f"z={zeta:.4g}", np.arange(len(curve)), curve) for zeta, curve in entries
        ]
        path = os.path.join(out_dir, f"curves_{agent}_nr{n_r:g}.svg")
        _write(path, svg_line_chart(
            chart_lines,
            title=f"{agent} reward (window-100 average), pool {n_r:g} PRB",
            x_label="training step",
            y_label="mean reward",
        ))
        written.append(path)
    return written


def _read_csv(path, header, parse):
    with open(path, newline="", encoding="utf-8") as fh:
        return read_csv_rows(fh, header, parse, path)


def _chart_row(cells):
    zeta, n_r, s_a, s_b, fairness, _mean_j = map(_finite, cells[:2] + cells[3:])
    return n_r, zeta, cells[2], s_a, s_b, fairness


def _curve_value(cells):
    step, value = cells
    int(step)  # checked only: the charts number the steps themselves
    return _finite(value)


def read_sweep_csv(path):
    """Parse sweep.csv back into the (n_r, zeta, agent, s_a, s_b, fairness)
    tuples emit_charts takes."""
    return _read_csv(path, SWEEP_HEADER, _chart_row)


def replot(out_dir):
    """Rebuild the SVG charts from the CSVs already in out_dir."""
    basic = read_sweep_csv(os.path.join(out_dir, "sweep.csv"))
    curves = {}
    for n_r, zeta, agent, *_ in basic:
        stub = _cell_stub(agent, n_r, zeta)
        path = os.path.join(out_dir, f"curve_{stub}.csv")
        if os.path.exists(path):
            curves[(agent, n_r, zeta)] = np.asarray(_read_csv(path, CURVE_HEADER, _curve_value))
    return emit_charts(basic, curves, out_dir)
