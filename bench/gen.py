"""Seeded benchmark inputs.

Everything the program receives is made here from the run's seed and
written to the run's work directory: demand series CSVs, DCI trace
CSVs and service request lines. The same seed gives the same bytes.
"""

import json

import numpy as np

from adapshare import domain, synthgen

FIXTURE = "fixtures/lte_hourly.csv"
EPOCH_S = 1_674_000_000  # a whole hour, so hourly windows align with the epoch
HOUR_MS = 3_600_000
DATA_FORMAT = "2B"
OTHER_FORMATS = ("1A", "0", "1", "2A")


def rng(seed, *labels):
    """A generator for one input component; labels are small ints."""
    return np.random.default_rng([int(seed), *labels])


def synthetic_series(stats, length, seed, label):
    """Two-sided series: both columns drawn from the fixture's fitted stats,
    as the project's experiments build their 860-step dataset."""
    seeds = rng(seed, label).integers(0, 2**31, 2)
    gen_a = synthgen.generate(stats, length, int(seeds[0]), side="a")
    gen_b = synthgen.generate(stats, length, int(seeds[1]), side="b")
    return domain.DemandSeries(gen_a.timestamps, gen_a.d_a, gen_b.d_b, 3600)


def fixture_stats(root):
    return synthgen.fit(domain.read_series_csv(root / FIXTURE), side="a")


class DciTrace:
    """Columns of one generated DCI capture, kept for the independent check."""

    def __init__(self, seed, label, n_rows, hours):
        g = rng(seed, label)
        # a daily load cycle: busy hours carry more grants per millisecond
        hour = np.arange(hours)
        grants_per_ms = 1.5 + 2.0 * (0.5 - 0.5 * np.cos(2 * np.pi * (hour % 24) / 24.0))
        grants_per_ms *= np.exp(0.15 * g.standard_normal(hours))
        weight = grants_per_ms.copy()
        interior = np.arange(1, hours - 1)
        empty = g.choice(interior, size=max(1, hours // 30), replace=False)
        weight[empty] = 0.0
        rows_hour = np.sort(g.choice(hours, size=n_rows - 2, p=weight / weight.sum()))
        rows_hour = np.concatenate(([0], rows_hour, [hours - 1]))
        counts = np.bincount(rows_hour, minlength=hours)
        # rows of one hour share ms slots, so several grants land in one ms
        slots = np.maximum(1, np.round(counts / grants_per_ms)).astype(np.int64)
        slot = np.floor(g.random(n_rows) * slots[rows_hour]).astype(np.int64)
        ms = rows_hour * HOUR_MS + slot * (HOUR_MS // slots[rows_hour])
        order = np.argsort(ms, kind="stable")
        self.timestamp = EPOCH_S * 1000 + ms[order]
        self.prb = g.integers(1, 51, n_rows)
        self.mcs = g.integers(0, 29, n_rows)
        self.rnti = g.integers(1, 65_536, n_rows)
        fmt = np.where(g.random(n_rows) < 0.8, DATA_FORMAT, g.choice(OTHER_FORMATS, n_rows))
        fmt[0] = fmt[-1] = DATA_FORMAT  # both traces span the same windows
        self.dci_format = fmt
        self.n_rows = n_rows

    def write(self, path):
        ts = self.timestamp
        sfn = (ts // 10) % 1024
        sub = ts % 10
        cols = zip(sfn.tolist(), sub.tolist(), self.rnti.tolist(), self.prb.tolist(),
                   self.mcs.tolist(), self.dci_format.tolist(), ts.tolist())
        lines = ["sfn,subframe,rnti,prb_count,mcs,dci_format,timestamp"]
        lines += [f"{a},{b},{c},{d},{e},{f},{t}" for a, b, c, d, e, f, t in cols]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def hourly_means(self):
        """Reference resample, written apart from adapshare.ingest: per-ms
        PRB totals of the data rows, averaged per hour, 0 for empty hours.
        PRB counts are integers, so every sum is exact and order-free."""
        keep = self.dci_format == DATA_FORMAT
        ms, inverse = np.unique(self.timestamp[keep], return_inverse=True)
        totals = np.bincount(inverse, weights=self.prb[keep])
        window = ms // HOUR_MS
        k0 = int(window[0])
        n = int(window[-1]) - k0 + 1
        sums = np.bincount(window - k0, weights=totals, minlength=n)
        counts = np.bincount(window - k0, minlength=n)
        means = np.divide(sums, counts, out=np.zeros(n), where=counts > 0)
        return (k0 + np.arange(n)) * 3600, means


def bad_lines(window_n):
    """Lines the service must answer with an error object."""
    short = json.dumps([[1.0, 2.0]] * window_n)
    full = json.dumps([[1.0, 2.0]] * (window_n + 1))
    return (
        "not json",
        "[1, 2]",
        '{"demand_history": %s, "n_r": 20, "zeta": 0.5}' % short,
        '{"demand_history": %s, "n_r": 20, "zeta": 1.5}' % full,
        '{"demand_history": [[NaN, 1.0]%s], "n_r": 20, "zeta": 0.5}' % (", [1.0, 1.0]" * window_n),
        '{"demand_history": %s, "zeta": 0.5}' % full,
    )


def request_pool(series, window_n, n_lines, seed):
    """Service request lines: histories of window_n + 1 pairs and of a
    day (24 pairs), several pool sizes and weights, and about 5 % lines
    that the service must reject. Returns (lines, kinds)."""
    g = rng(seed, 7)
    depth = max(window_n + 1, 24)
    bad = bad_lines(window_n)
    lines, kinds = [], []
    for i in range(n_lines):
        if g.random() < 0.05:
            lines.append(bad[i % len(bad)])
            kinds.append("bad")
            continue
        t = int(g.integers(depth, len(series)))
        length = window_n + 1 if g.random() < 0.5 else 24
        hist = [[float(series.d_a[t - k]), float(series.d_b[t - k])] for k in range(length)]
        n_r = float(g.choice((20.0, 60.0, 100.0)))
        zeta = float(g.choice((0.2, 0.5, 0.8)))
        lines.append(json.dumps({"demand_history": hist, "n_r": n_r, "zeta": zeta}))
        kinds.append("ok")
    return lines, kinds
