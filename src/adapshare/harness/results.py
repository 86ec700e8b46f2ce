"""Every result file: sweep and detail CSVs, learning curves, SVG charts.

This module alone knows the result-file formats; the sweep and the CLI
write through it. Every data file is reproducible byte-for-byte from
(dataset, spec, seed): floats go through `repr`, so they also read back
exactly, and each distinct float is formatted once. The charts are drawn
only from the CSVs, by replot, which emit_results calls once they are
written, so a sweep and a later `adapshare plot` draw the same bytes.
sweep.csv and the curve CSVs are read back through domain.read_table,
whose rules (every cell converts, every float is finite) are all these
formats have. Wall-clock timestamps, timings and the cells' derived seeds
go only into the run_metadata.json sidecar so reruns diff clean.
"""

import json
import os
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..domain import AgentKind, load_json, read_table

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

SWEEP_HEADER = "zeta,n_r,agent,s_a,s_b,fairness,mean_j"
DETAIL_HEADER = "t,n_a,n_b,d_a,d_b,j"
CURVE_HEADER = "step,reward_moving_avg"
# as read back; an agent name of 16 bytes or more takes read_table's row reader
_SWEEP_DTYPE = [(name, "S16" if name == "agent" else np.float64) for name in SWEEP_HEADER.split(",")]
_CURVE_DTYPE = [("step", np.int64), ("reward_moving_avg", np.float64)]


def _fmt(value):
    return f"{value:g}"


def _nice_ticks(lo, hi):
    """About five round tick positions covering [lo, hi], a 1/2/5 step apart."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
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
    for tick in (t for t in _nice_ticks(x_lo, x_hi) if x_lo <= t <= x_hi):
        x = px(tick)
        parts += [
            f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" y2="{margin_t + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>',
            f'<text x="{x:.2f}" y="{margin_t + plot_h + 16}" text-anchor="middle">{_fmt(tick)}</text>',
        ]
    for tick in (t for t in _nice_ticks(y_lo, y_hi) if y_lo <= t <= y_hi):
        y = py(tick)
        parts += [
            f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>',
            f'<text x="{margin_l - 6}" y="{y + 4:.2f}" text-anchor="end">{_fmt(tick)}</text>',
        ]
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


def _float_text(col, known):
    """repr of each float in col. A column in `known` (text keyed by its
    bytes, so -0.0 is not 0.0) or of one value is formatted once."""
    text = known.get(col.tobytes())
    if text is not None:
        return text
    values, bits = col.tolist(), col.view(np.uint64)
    if values and (bits == bits[0]).all():
        return [repr(values[0])] * len(values)
    return list(map(repr, values))


def write_detail_csv(report, path, _known=None):
    """One detail CSV line per row of the report's per_step matrix, each
    float its repr, a constant or known column formatted once; `_known`
    is the split-column text that emit_results shares between cells."""
    known = _known or {}
    text = [_float_text(col, known) for col in np.ascontiguousarray(report.per_step.T)]
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
    """Write sweep.csv, per-cell detail/curve CSVs and the sidecar, and draw
    the charts from those CSVs through replot.

    A cell without a curve removes any curve CSV of its name, so the charts
    show only curves this table wrote. A file that the directory's earlier
    sidecar lists and this emit does not write is removed, so the sidecar
    lists every result file the directory holds. Returns the list of
    written file paths (sidecar last).
    """
    started = time.perf_counter()
    if not table:
        raise ValueError("empty sweep table, nothing to emit")
    check_cell_stubs((row.agent_kind.value, row.n_r, row.zeta) for row in table)
    os.makedirs(out_dir, exist_ok=True)
    sidecar = os.path.join(out_dir, "run_metadata.json")
    earlier = _sidecar_files(sidecar) if os.path.exists(sidecar) else []
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
        path = os.path.join(out_dir, f"curve_{stub}.csv")
        if row.curve is not None and len(row.curve) > 0:
            write_curve_csv(row.curve, path)
            written.append(path)
        elif os.path.exists(path):
            os.remove(path)

    written.extend(replot(out_dir))
    for name in set(earlier) - {os.path.basename(p) for p in written}:
        if os.path.isfile(os.path.join(out_dir, name)):
            os.remove(os.path.join(out_dir, name))

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "cells": len(table),
        "files": [os.path.basename(p) for p in written],
        "cell_seeds": [row.seed for row in table],
        "cell_seconds": [row.seconds for row in table],
        "emit_seconds": time.perf_counter() - started,
    }
    _write(sidecar, json.dumps(meta, indent=2) + "\n")
    written.append(sidecar)
    return written


def _sidecar_files(path):
    """The basenames a run_metadata.json lists under "files"; a sidecar
    that does not parse into a list of names is an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            files = load_json(fh.read())["files"]
        if not isinstance(files, list):
            raise TypeError(f"'files' is not a list: {files!r}")
        return [os.path.basename(name) for name in files]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a sweep sidecar: {exc}") from exc


def _no_rule(table):
    """The sweep and curve CSVs have no rule beyond read_table's own."""
    return None


def read_sweep_csv(path):
    """Parse sweep.csv back into the (n_r, zeta, agent, s_a, s_b, fairness)
    tuples replot charts; a non-finite metric is refused, naming path:line."""
    table = read_table(path, Path(path).open, _SWEEP_DTYPE, _no_rule)
    return table[["n_r", "zeta", "agent", "s_a", "s_b", "fairness"]].tolist()


def replot(out_dir):
    """Draw the SVG charts from the CSVs in out_dir, the only way any chart
    is drawn: emit_results calls it after writing them, and so does
    `adapshare plot`. Each pool with two or more priority weights gets a
    surplus and a fairness chart from sweep.csv; each (agent, pool) with a
    curve CSV for a sweep.csv cell gets a learning-curve chart.
    Returns the written paths.
    """
    rows = read_sweep_csv(os.path.join(out_dir, "sweep.csv"))
    written = []
    for n_r in sorted({row[0] for row in rows}):
        cells = sorted((r for r in rows if r[0] == n_r), key=lambda r: r[1])
        if len({r[1] for r in cells}) < 2:
            continue
        surplus_lines = []
        fairness_lines = []
        for agent in dict.fromkeys(r[2] for r in cells):
            sub = [r for r in cells if r[2] == agent]
            zetas = [r[1] for r in sub]
            surplus_lines.append((f"{agent} A", zetas, [r[3] for r in sub]))
            surplus_lines.append((f"{agent} B", zetas, [r[4] for r in sub]))
            fairness_lines.append((agent, zetas, [r[5] for r in sub]))
        for name, chart, title, y_label in (
            ("surplus", surplus_lines, "Mean surplus/deficit", "fractional surplus"),
            ("fairness", fairness_lines, "Jain fairness", "fairness index"),
        ):
            path = os.path.join(out_dir, f"{name}_nr{n_r:g}.svg")
            _write(path, svg_line_chart(chart, f"{title}, pool {n_r:g} PRB", "priority weight", y_label))
            written.append(path)
    curves = {}  # (agent, n_r) -> one chart line per zeta, zetas ascending
    for agent, n_r, zeta in sorted({(r[2], r[0], r[1]) for r in rows}):
        path = os.path.join(out_dir, f"curve_{_cell_stub(agent, n_r, zeta)}.csv")
        if os.path.exists(path):
            # the step column is checked only: the charts number the steps themselves
            curve = read_table(path, Path(path).open, _CURVE_DTYPE, _no_rule)
            curves.setdefault((agent, n_r), []).append(
                (f"z={zeta:.4g}", np.arange(len(curve)), curve["reward_moving_avg"]))
    for (agent, n_r), chart_lines in curves.items():
        path = os.path.join(out_dir, f"curves_{agent}_nr{n_r:g}.svg")
        _write(path, svg_line_chart(
            chart_lines,
            title=f"{agent} reward (window-100 average), pool {n_r:g} PRB",
            x_label="training step",
            y_label="mean reward",
        ))
        written.append(path)
    return written
