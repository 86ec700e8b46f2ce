"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs each workload end to end for about a second of work, checks that
every metric BENCHMARK.json declares is printed with its unit, and that
corrupted program outputs are counted as failures.
"""

import json
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import phases  # noqa: E402
import run as bench_run  # noqa: E402
from adapshare.domain import Allocation, DemandSeries  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_declared(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    result = _result(_bench(ROOT, workload, 0))
    _assert_declared(result, SPEC["end_to_end"])
    for m in result["metrics"].values():
        assert m["value"] > 0


def test_traced_run_prints_every_layer_metric():
    result = _result(_bench(ROOT, SPEC["workloads"][0]["name"], 1))
    _assert_declared(result, SPEC["per_layer"])
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert all(v > 0 for v in calls.values()), [k for k, v in calls.items() if v == 0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def tiny_run(tmp_path):
    run = phases.Run(ROOT, tmp_path, bench_run.WORKLOADS["paper_policy"], 5, 1, None)
    return run, phases.make_inputs(run)


def test_changed_sweep_row_fails_the_rerun_digest(tiny_run, monkeypatch):
    run, _ = tiny_run
    emit = phases.results.emit_results
    calls = []

    def emit_then_tamper(table, out_dir):
        written = emit(table, out_dir)
        calls.append(out_dir)
        if len(calls) == 2:
            csv = Path(out_dir) / "sweep.csv"
            lines = csv.read_text().splitlines()
            lines[1] = lines[1].replace(",opt_oracle,", ",opt_base,")
            csv.write_text("\n".join(lines) + "\n")
        return written

    monkeypatch.setattr(phases.results, "emit_results", emit_then_tamper)
    phase = phases.SweepPhase(run)
    for rnd in range(3):
        phase.round(rnd)
    assert run.failed == 1
    assert any("differs from the first" in m for m in run.messages)


def test_tampered_replies_are_counted_as_failures(tiny_run):
    run, paths = tiny_run
    phase = phases.ServePhase(run, paths)
    assert run.failed == 0
    ok = [i for i, e in enumerate(phase.expected) if e is not None]
    for i in ok[:10]:
        phase.expected[i] = dict(phase.expected[i], n_a=phase.expected[i]["n_a"] + 1e-9)
    phase.round(0)
    assert run.failed > 0
    assert any("throughput loop" in m for m in run.messages)


class _StallingServer:
    """Answers the first `answered` lines of each connection with the
    expected reply, then reads on and never replies again."""

    def __init__(self, replies, answered):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.replies = replies
        self.answered = answered
        self.conns = []
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.conns.append(conn)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        reader = conn.makefile("rb")
        try:
            for n, line in enumerate(reader):
                if n < self.answered:
                    conn.sendall(self.replies[line])
        except OSError:
            pass

    def close(self):
        self.listener.close()
        for conn in self.conns:
            conn.close()


def test_stalled_server_counts_missing_replies(tiny_run, monkeypatch):
    run, paths = tiny_run
    phase = phases.ServePhase(run, paths)
    replies = {payload: json.dumps(e if e is not None else {"error": "bad"}).encode() + b"\n"
               for payload, e in zip(phase.payloads, phase.expected)}
    server = _StallingServer(replies, answered=5)
    monkeypatch.setattr(phases, "IO_TIMEOUT_S", 0.3)
    try:
        timed, _ = phases._closed_loop(server.address, phase.payloads, 1.0, 0, 2)
    finally:
        server.close()
    assert len(timed) == 2 * 6  # five replies and one missing per connection
    assert np.isinf(phase._record("throughput", timed)).sum() == 2
    assert run.failed == 2
    assert phase._quantiles_ms(phase.latencies["throughput"])[1] == 1e3 * 0.3


def _ticks(labels, gaps):
    ticks = phases.Ticks([])
    ticks.labels = list(labels)
    ticks.times = [0.0, *np.cumsum(gaps)]
    return ticks


def test_fast_seconds_costs_like_work_at_its_fastest():
    ms = 1e-3
    labels = ["enter"] + ["step"] * 41 + ["exit"]
    # set-up, 8 warm-up steps, 32 learning steps alternating in cost
    # (TD3's delayed actor update), the tail; one round runs slower
    learn = [0.4 * ms, 0.8 * ms] * 16
    slow = _ticks(labels, [1.5 * ms] + [0.2 * ms] * 8 + [1.5 * g for g in learn] + [3 * ms])
    fast = _ticks(labels, [1 * ms] + [0.1 * ms] * 8 + learn[:16] + [2 * g for g in learn[16:]] + [2 * ms])
    # 1 + 8 * 0.1 + 32 * (0.4 + 0.8) / 2 + 2, in ms
    assert phases.fast_seconds([slow, fast], split={"step": 8}) == pytest.approx(23.0 * ms)
    # rounds whose calls differ count whole, the fastest one
    other = _ticks(["enter", "exit"], [20 * ms])
    assert phases.fast_seconds([slow, other]) == pytest.approx(20 * ms)


def test_reply_check():
    expected = {"n_a": 10.5, "n_b": 20.25, "j_estimate": 0.125}
    assert checks.reply(expected, json.dumps(expected).encode())
    assert not checks.reply(expected, json.dumps(dict(expected, n_b=20.250000001)).encode())
    assert not checks.reply(expected, b'{"error": "bad"}\n')
    assert not checks.reply(expected, None)
    assert checks.reply(None, b'{"error": "bad"}\n')
    assert not checks.reply(None, json.dumps(expected).encode())


def test_allocation_and_series_checks():
    inside = [Allocation(10.0, 50.0)]
    assert checks.allocations(inside, [-0.1], 60.0) == []
    assert checks.allocations([Allocation(10.0, 50.1)], [-0.1], 60.0)
    assert checks.allocations(inside, [0.5], 60.0)
    assert checks.allocations([Allocation(float("inf"), 1.0)], [-0.1], 60.0)
    ts = np.arange(3) * 3600
    series = DemandSeries(ts, [1.0, 2.0, 3.0], [0.0, 1.0, 0.0], 3600)
    assert checks.series_equal(series, ts, [1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    assert not checks.series_equal(series, ts, [1.0, 2.0, 3.0000001], [0.0, 1.0, 0.0])
