"""The phases of one benchmark run: train, sweep, serve, ingest.

Each phase calls the program only through its public modules, times
the calls a user would wait for, checks what they return, and adds its
numbers to the run's `Run` object. A run is a few rounds; every round
runs train, sweep and ingest once and visits the service after each of
them.

On the shared 2-vCPU VM the benchmark was tuned on, a neighbour slows
the same work by up to 40 % in stretches of a millisecond to minutes,
and the share of slowed time changes from minute to minute. A rate
taken over a whole run follows that share. The time of like work at
its fastest does not. Over 3 minutes of TD3 training cut into
20-second windows, the windows' mean rates spread by 15-24 %
(interquartile range over median) and their fastest 4-step blocks by
2-6 %. So each end-to-end rate and latency reports the work's
fastest timing: training steps, solver calls, parsed lines and
generated series in short blocks of like work and one-off calls in
their fastest round (`fast_seconds`), service replies in blocks of
REPLY_BLOCK. The plain wall-clock rate of every round is in the run
record.
"""

import contextlib
import itertools
import math
import os
import resource
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import types
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from adapshare import agents, domain, ingest, metrics, synthgen
from adapshare.agents import AgentConfig
from adapshare.domain import AgentKind, EnvConfig, ExperimentConfig
from adapshare.harness import results, service, sweep

import checks
import gen

ZETA = 0.5
TRAIN_SERIES_LENGTH = 860
KS_BOUND = 0.1  # the acceptance bound on synthetic-demand fidelity
# Open loop on one connection at 1,000 req/s, well below the
# closed-loop capacity. The server keeps Nagle's algorithm on, so a
# reply can wait for the client's next packet, and a connection flips
# between that state and prompt replies: open-loop latency is bimodal
# and is reported per layer, not bounded.
OPEN_LOOP_RATE = 1000.0
OPEN_LOOP_CONNECTIONS = 1
# throughput with two callers; latency with one, because with two a
# request either has the server's interpreter to itself or waits behind
# the other caller's, and the median of that mixture jumps between runs
THROUGHPUT_CONNECTIONS = 2
LATENCY_CONNECTIONS = 1
WARMUP_REQUESTS = 50
IO_TIMEOUT_S = 10.0
SERVE_CHECKPOINT_STEPS = 600
REQUEST_POOL = 2000
# the learned sweep of demos/05_resource_sweep.py
LEARNED_SWEEP_N_R = (20.0, 60.0)
LEARNED_SWEEP_ZETAS = (0.2, 0.5, 0.8)
LEARNED_SWEEP_AGENTS = (AgentKind.TD3, AgentKind.OPT_ORACLE, AgentKind.OPT_BASE)


# timed blocks of like work span about this long (`_block_size`)
BLOCK_SECONDS = 0.002
# fewer like intervals in a row than this are costed one by one
LIKE_RUN = 8
# service replies per timed block
REPLY_BLOCK = 20
# DCI trace lines the parser gets per tick
LINE_BLOCK = 256
# samples per generated synthetic series
SYNTH_SERIES_LENGTH = 1_000


class Ticks:
    """While entered, notes a tick (label, time) as each call of the given
    functions starts, at the attributes the program's own code calls
    them through, plus a tick on entering and one on leaving. `targets`
    holds (label, owner, attribute)."""

    def __init__(self, targets):
        self.targets = targets
        self.labels = []
        self.times = []

    def _wrap(self, label, fn):
        labels, times = self.labels.append, self.times.append

        def ticked(*args, **kwargs):
            labels(label)
            times(perf_counter())
            return fn(*args, **kwargs)

        return ticked

    def tick(self, label):
        self.labels.append(label)
        self.times.append(perf_counter())

    def __enter__(self):
        self.originals = [getattr(owner, attr) for _, owner, attr in self.targets]
        for (label, owner, attr), fn in zip(self.targets, self.originals):
            setattr(owner, attr, self._wrap(label, fn))
        self.labels.append("enter")
        self.times.append(perf_counter())
        return self

    def __exit__(self, *exc):
        self.labels.append("exit")
        self.times.append(perf_counter())
        for (_, owner, attr), fn in zip(self.targets, self.originals):
            setattr(owner, attr, fn)

    @property
    def seconds(self):
        return self.times[-1] - self.times[0]


@contextlib.contextmanager
def ticked_lines(ticks):
    """While entered, a file that adapshare.ingest opens hands its lines
    out in blocks of LINE_BLOCK and ticks "lines" as the reader asks for
    each block, so the parser's progress through a trace is timed."""

    class TickedPath(type(Path())):
        def open(self, *args, **kwargs):
            return _LineBlocks(super().open(*args, **kwargs), ticks)

    original = ingest.Path
    ingest.Path = TickedPath
    try:
        yield
    finally:
        ingest.Path = original


class _LineBlocks:
    def __init__(self, fh, ticks):
        self.fh = fh
        self.ticks = ticks

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __iter__(self):
        return itertools.chain.from_iterable(self._blocks())

    def _blocks(self):
        while True:
            block = list(itertools.islice(self.fh, LINE_BLOCK))
            # a short block is other work than a full one
            self.ticks.tick("lines" if len(block) == LINE_BLOCK else "last lines")
            if not block:
                return
            yield block


def _like_runs(kinds, split):
    """(lo, hi, lead) for each maximal run [lo, hi) of equal interval
    kinds. A run of (label, label) is cut after its first split[label]
    intervals; lead marks that leading part."""
    lo = 0
    for hi in range(1, len(kinds) + 1):
        if hi < len(kinds) and kinds[hi] == kinds[lo]:
            continue
        a, b = kinds[lo]
        cut = lo + split.get(a, 0) if a == b else lo
        if lo < cut < hi:
            yield lo, cut, True
            lo = cut
        yield lo, hi, False
        lo = hi


def fast_seconds(rounds, split=None):
    """Seconds of the work the `rounds` (Ticks, one per round: the same
    calls on like inputs) timed, at the host's fast end.

    An interval between two ticks is the work from one call's start to
    the next, and its kind is the pair of labels. A run of at least
    LIKE_RUN intervals of one kind repeats like work (a training step, a
    solver call, a block of lines), and so do the runs of that kind
    elsewhere in the round: each interval costs the fastest block of
    consecutive ones among them, in any round, divided by the block's
    length (`_block_size`). Any other interval costs the fastest
    interval of its kind in any round (the same step of each sweep cell,
    the parse of each trace). `split` maps a label to the count of
    leading intervals of its runs that are other work (training's
    warm-up steps). If the rounds' ticks differ, the fastest round
    counts whole."""
    labels = rounds[0].labels
    if any(r.labels != labels for r in rounds):
        return min(r.seconds for r in rounds)
    gaps = np.diff(np.array([r.times for r in rounds]), axis=1)
    kinds = list(zip(labels[:-1], labels[1:]))
    groups = {}  # (kind, leading part, like run) -> [(lo, hi)]
    for lo, hi, lead in _like_runs(kinds, split or {}):
        groups.setdefault((kinds[lo], lead, hi - lo >= LIKE_RUN), []).append((lo, hi))
    total = 0.0
    for (_, _, like), spans in groups.items():
        if like:
            size = _block_size(np.median(np.concatenate([gaps[:, lo:hi] for lo, hi in spans], axis=1)))
            fastest = min(_fastest_per_interval(gaps[:, lo:hi], size) for lo, hi in spans)
        else:
            fastest = min(float(gaps[:, lo:hi].min()) for lo, hi in spans)
        total += fastest * sum(hi - lo for lo, hi in spans)
    return total


def _block_size(typical):
    """Like intervals per timed block: about BLOCK_SECONDS of work, and an
    even count, so that a block of TD3 steps holds as many delayed actor
    updates; one interval if it alone takes that long."""
    if typical >= BLOCK_SECONDS:
        return 1
    return 2 * math.ceil(BLOCK_SECONDS / (2 * typical))


def _fastest_per_interval(gaps, size):
    """Fastest block of `size` consecutive intervals (rounds x intervals
    of one run), per interval."""
    size = min(size, gaps.shape[1])
    n = gaps.shape[1] // size
    return float(gaps[:, : n * size].reshape(len(gaps), n, size).sum(axis=2).min()) / size


class Sizes:
    """Work per round, proportional to the run's --seconds so that a run
    measures for about that long; floors keep tiny runs meaningful."""

    def __init__(self, seconds):
        s = float(seconds)
        self.rounds = 3
        self.train_steps = max(700, round(40 * s))
        self.sweep_length = max(400, round(500 * s))
        self.sweep_cell_steps = max(300, round(37.5 * s))
        # per visit to the service, three visits a round
        self.closed_loop_s = max(0.1, 0.0075 * s)
        self.latency_loop_s = max(0.05, 0.0075 * s)
        self.open_loop_requests = max(50, round(6.25 * s))
        self.dci_rows = max(3000, round(5000 * s))
        self.dci_hours = max(48, self.dci_rows // 200)
        self.synth_length = max(2000, round(7500 * s))


class Run:
    """State and results of one benchmark run."""

    def __init__(self, root, workdir, settings, seed, seconds, recorder):
        self.root = root
        self.workdir = workdir
        self.n_r = settings["n_r"]
        self.agent_overrides = settings["agent"]
        self.learned_sweep = settings["learned_sweep"]
        self.seed = seed
        self.sizes = Sizes(seconds)
        self.recorder = recorder  # None when untraced
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.e2e = {}
        self.layer = {}
        self.quality = {}
        self.per_round = {}  # metric -> its value in each round, for the run record
        self.children = []

    def tally(self, what, attempted, failed, detail=""):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(f"{what}: {failed} of {attempted} failed {detail}".rstrip())

    def check(self, problems, what, operations=1):
        """Count `operations` attempted; a non-empty problem list fails them."""
        self.tally(what, operations, operations if problems else 0, "; ".join(problems))

    def experiment(self, seed, train_steps):
        return ExperimentConfig(env=EnvConfig(n_r=self.n_r, zeta=ZETA), seed=seed,
                                train_steps=train_steps, agent=AgentConfig(**self.agent_overrides))

    def note(self, metric, value):
        self.per_round.setdefault(metric, []).append(value)

    def traced(self, phase, on=True):
        """Context for a region whose layer calls are recorded."""
        return _Tracing(self.recorder if on else None, phase)


class _Tracing:
    def __init__(self, recorder, phase):
        self.recorder = recorder
        self.phase = phase

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.start(self.phase)

    def __exit__(self, *exc):
        if self.recorder is not None:
            self.recorder.stop()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_inputs(run):
    """Generate and write every input of the run; returns their paths."""
    sz = run.sizes
    stats = gen.fixture_stats(run.root)
    paths = types.SimpleNamespace()
    run.train_series = gen.synthetic_series(stats, TRAIN_SERIES_LENGTH, run.seed, 1)
    paths.series = [("train", run.workdir / "train_series.csv", run.train_series)]
    if run.learned_sweep:  # demo 05 sweeps the training data
        run.sweep_series = run.train_series
    else:
        run.sweep_series = gen.synthetic_series(stats, sz.sweep_length, run.seed, 2)
        paths.series.append(("sweep", run.workdir / "sweep_series.csv", run.sweep_series))
    for _, path, series in paths.series:
        domain.write_series_csv(series, path)
    run.traces = [gen.DciTrace(run.seed, 3 + k, sz.dci_rows, sz.dci_hours) for k in range(2)]
    paths.dci = [run.workdir / f"dci_{side}.csv" for side in "ab"]
    for trace, path in zip(run.traces, paths.dci):
        trace.write(path)
    # the served policy: a short TD3 run on the training series
    cfg = run.experiment(run.seed, SERVE_CHECKPOINT_STEPS)
    agent, _ = agents.train(AgentKind.TD3, run.train_series, cfg)
    paths.checkpoint = run.workdir / "agent.json"
    agents.save_agent(agent, cfg, paths.checkpoint)
    run.requests, run.request_kinds = gen.request_pool(
        run.train_series, cfg.env.window_n, REQUEST_POOL, run.seed
    )
    return paths


# ---------------------------------------------------------------- train


class TrainPhase:
    """DDPG then TD3 on the 860-step series with the workload's n_r and
    AgentConfig, each followed by greedy evaluation. Each round trains
    with its own seed. steps/s is train_steps over the wall time of
    agents.train(), warm-up included, at the fast end: each step starts
    with one env.step call, so the steps are the intervals between those
    calls (`fast_seconds`)."""

    def __init__(self, run):
        self.run = run
        series = run.train_series
        base = run.experiment(run.seed, run.sizes.train_steps)
        self.warmup = base.agent.warmup_steps
        self.demands = [series.demand(t) for t in agents.eval_timesteps(series, base)]
        oracle = agents.greedy_policy(AgentKind.OPT_ORACLE, series, base)
        self.oracle_j = metrics.build_report(oracle, self.demands, ZETA, base.env.d_min).mean_j
        # a traced run also trains untraced, to measure the tracing overhead
        self.passes = ("untraced", "traced") if run.recorder is not None else ("untraced",)
        self.train_s = {(p, k): 0.0 for p in self.passes for k in ("ddpg", "td3")}
        self.wall_s = {p: 0.0 for p in self.passes}
        self.ticks = {"ddpg": [], "td3": []}  # untraced: each call's env.step ticks
        self.gaps = {"ddpg": [], "td3": []}

    def round(self, rnd):
        run = self.run
        steps = run.sizes.train_steps
        seed = int(gen.rng(run.seed, 10, rnd).integers(2**31))
        cfg = run.experiment(seed, steps)
        for pass_name in self.passes:
            for kind in (AgentKind.DDPG, AgentKind.TD3):
                untraced = pass_name == "untraced"
                ticks = Ticks([("step", agents, "step")])
                with run.traced("train", on=not untraced):
                    with ticks if untraced else contextlib.nullcontext():
                        t0 = perf_counter()
                        agent, result = agents.train(kind, run.train_series, cfg)
                        t1 = perf_counter()
                    allocs = agents.greedy_policy(agent, run.train_series, cfg)
                    report = metrics.build_report(allocs, self.demands, ZETA, cfg.env.d_min)
                    t2 = perf_counter()
                self.train_s[(pass_name, kind.value)] += t1 - t0
                self.wall_s[pass_name] += t2 - t0
                run.check(checks.allocations(allocs, result.rewards, run.n_r),
                          f"train {kind.value} round {rnd}")
                if untraced:
                    self.ticks[kind.value].append(ticks)
                    run.note(f"train_{kind.value}_steps_per_s", steps / (t1 - t0))
                    self.gaps[kind.value].append(report.mean_j - self.oracle_j)

    def finish(self):
        run = self.run
        total_steps = run.sizes.rounds * run.sizes.train_steps
        wall_td3 = total_steps / self.train_s[("untraced", "td3")]
        for kind in ("ddpg", "td3"):
            fast_s = fast_seconds(self.ticks[kind], split={"step": self.warmup})
            run.e2e[f"train_{kind}_steps_per_s"] = run.sizes.train_steps / fast_s
            run.quality[f"{kind}_oracle_gap"] = float(np.mean(self.gaps[kind]))
            run.layer[f"train.{kind}_oracle_gap"] = run.quality[f"{kind}_oracle_gap"]
        rec = run.recorder
        if rec is None:
            return
        self_sum = rec.phase_self_s("train")
        traced = self.wall_s["traced"]
        run.layer["train.wall_s_untraced"] = self.wall_s["untraced"]
        run.layer["train.wall_s_traced"] = traced
        run.layer["train.layer_self_s_sum"] = self_sum
        run.layer["train.trace_overhead_s"] = traced - self.wall_s["untraced"]
        run.layer["train.trace_overhead_td3_steps_per_s"] = (
            total_steps / self.train_s[("traced", "td3")] - wall_td3
        )
        run.layer["train.nn.flop_per_train_step"] = rec.flops.get("train", 0) / (2 * total_steps)
        # the spans partition the traced calls, so their self times add up
        # to the traced wall time less the benchmark's own timer calls
        run.check(
            [] if abs(self_sum - traced) <= 0.02 * traced
            else [f"span self times {self_sum:.3f}s vs traced wall {traced:.3f}s"],
            "train trace accounting",
        )


# ---------------------------------------------------------------- sweep


class SweepPhase:
    """A sweep with its CSV and SVG output. Either solver-only (opt_oracle,
    opt_base) over the default 3 n_r x 11 zeta grid on a long series, or
    demo 05's learned sweep: TD3, opt_oracle and opt_base over 2 n_r x 3
    zeta on the training series, each TD3 cell trained with the workload's
    AgentConfig. cells/s is cells over the wall time of run_sweep +
    emit_results at the fast end (`fast_seconds`). Every round must
    write the same sweep.csv."""

    def __init__(self, run):
        self.run = run
        if run.learned_sweep:
            self.spec = sweep.SweepSpec(
                base=run.experiment(run.seed, run.sizes.sweep_cell_steps),
                n_r_values=LEARNED_SWEEP_N_R,
                zeta_values=LEARNED_SWEEP_ZETAS,
                agent_kinds=LEARNED_SWEEP_AGENTS,
            )
        else:
            self.spec = sweep.SweepSpec(
                base=ExperimentConfig(env=EnvConfig(n_r=sweep.DEFAULT_N_R[0]), seed=run.seed),
                agent_kinds=(AgentKind.OPT_ORACLE, AgentKind.OPT_BASE),
            )
        self.warmup = self.spec.base.agent.warmup_steps
        self.ticks = []
        self.first_digest = None

    def round(self, rnd):
        run = self.run
        out = run.workdir / f"sweep_{rnd}"
        # the calls each cell repeats per step: training steps, solver
        # calls and policy evaluations; then one detail file per cell
        ticks = Ticks([
            ("run_cell", sweep, "run_cell"),
            ("step", agents, "step"),
            ("solve_opt", agents, "solve_opt"),
            ("solve_opt_base", agents, "solve_opt_base"),
            ("project_action", agents, "project_action"),
            ("emit_results", results, "emit_results"),
            ("write_detail_csv", results, "write_detail_csv"),
        ])
        with run.traced("sweep"), ticks:
            table = sweep.run_sweep(self.spec, run.sweep_series)
            written = results.emit_results(table, str(out))
        self.ticks.append(ticks)
        run.note("sweep_cells_per_s", len(table) / ticks.seconds)
        self.cells = len(table)
        problems = checks.sweep_table(table)
        run.tally(f"sweep round {rnd} cells", len(table), len(problems), "; ".join(problems[:3]))
        digest = checks.file_digest(out / "sweep.csv")
        if self.first_digest is None:
            self.first_digest = digest
            run.layer["sweep.harness.results.bytes_written"] = float(
                sum(os.path.getsize(p) for p in written)
            )
        else:
            run.check([] if digest == self.first_digest else ["sweep.csv differs from the first round's"],
                      f"sweep rerun {rnd}")
        shutil.rmtree(out)

    def finish(self):
        run = self.run
        run.e2e["sweep_cells_per_s"] = self.cells / fast_seconds(self.ticks, split={"step": self.warmup})
        if run.recorder is not None:
            cells = run.recorder.durations.get(("sweep", "harness.sweep.run_cell"), [0.0])
            run.layer["sweep.harness.sweep.run_cell.p50_ms"] = 1e3 * statistics.median(cells)
            run.layer["sweep.harness.sweep.run_cell.max_ms"] = 1e3 * max(cells)


# ---------------------------------------------------------------- serve


class Server:
    """`adapshare serve` as a child process on a loopback port."""

    def __init__(self, run, checkpoint):
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = str(run.root / "src")
        self.log = open(run.workdir / "server.log", "ab")
        # -u: serve() prints its address, and a pipe would buffer that line
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "adapshare.harness.cli", "serve",
             "--checkpoint", str(checkpoint), "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env, cwd=run.root,
        )
        run.children.append(self)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _connect(address):
    sock = socket.create_connection(address, timeout=IO_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def _run_threads(threads):
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _closed_loop(address, payloads, duration, first, connections):
    """Each connection sends its next request when the previous reply is
    in. Returns ([(pool index, reply, seconds from send to reply, time
    the reply was in)], seconds)."""
    done = [[] for _ in range(connections)]
    start = perf_counter()
    stop_at = start + duration
    finished = [start] * connections

    def client(c):
        i = first + c
        try:
            sock, reader = _connect(address)
        except OSError:
            done[c].append((i % len(payloads), None, None, perf_counter()))
            return
        try:
            while perf_counter() < stop_at:
                idx = i % len(payloads)
                sent = perf_counter()
                try:
                    sock.sendall(payloads[idx])
                    reply = reader.readline()
                except OSError:  # includes the reply timeout
                    reply = b""
                if not reply:
                    # no reply: this request fails and the connection is done
                    done[c].append((idx, None, None, perf_counter()))
                    break
                now = perf_counter()
                done[c].append((idx, reply, now - sent, now))
                i += connections
        finally:
            finished[c] = perf_counter()
            reader.close()
            sock.close()

    _run_threads([threading.Thread(target=client, args=(c,)) for c in range(connections)])
    return [item for per_conn in done for item in per_conn], max(finished) - start


def _open_loop(address, payloads, n_requests, rate, first, connections):
    """Requests fall due on a fixed schedule whatever the replies do, and
    each is timed from when it was due. Returns (latencies, [(pool index,
    reply or None)], how late the sender ran at worst)."""
    due = [i / rate for i in range(n_requests)]
    arrived = [None] * n_requests
    replies = [None] * n_requests
    lag = [0.0] * connections
    conns = [_connect(address) for _ in range(connections)]
    t0 = perf_counter() + 0.05

    def sender(c):
        sock = conns[c][0]
        for i in range(c, n_requests, connections):
            wait = t0 + due[i] - perf_counter()
            if wait > 0:
                sleep(wait)
            lag[c] = max(lag[c], perf_counter() - t0 - due[i])
            try:
                sock.sendall(payloads[(first + i) % len(payloads)])
            except OSError:  # the unsent requests get no reply and count as failed
                return

    def receiver(c):
        reader = conns[c][1]
        for i in range(c, n_requests, connections):
            try:
                line = reader.readline()
            except OSError:
                return
            if not line:
                return
            arrived[i] = perf_counter()
            replies[i] = line

    threads = [threading.Thread(target=f, args=(c,))
               for c in range(connections) for f in (sender, receiver)]
    try:
        _run_threads(threads)
    finally:
        for sock, reader in conns:
            reader.close()
            sock.close()
    latencies = [None if a is None else a - t0 - d for a, d in zip(arrived, due)]
    indexed = [((first + i) % len(payloads), r) for i, r in enumerate(replies)]
    return latencies, indexed, max(lag)


class ServePhase:
    """Each visit cold-starts the `adapshare serve` CLI (that start, with
    loading the run's series and checkpoint in-process, is the set-up
    time), then runs a closed loop on two connections (throughput), one
    on one connection (latency) and, in a traced run, an open loop at a
    fixed rate on one connection. Every reply is checked against the
    policy evaluated in-process."""

    def __init__(self, run, paths):
        self.run = run
        self.paths = paths
        self.payloads = [line.encode() + b"\n" for line in run.requests]
        self.agent, self.experiment = agents.load_agent(paths.checkpoint)
        self.expected = [checks.expected_reply(self.agent, self.experiment, line) for line in run.requests]
        mismatch = sum((e is None) != (k == "bad") for e, k in zip(self.expected, run.request_kinds))
        run.tally("request pool", len(self.expected), mismatch, "classified differently from the generator")
        self.probe = run.request_kinds.index("ok")
        self.setup_s = []
        self.reply_spans = []  # closed loop, 2 connections: seconds per REPLY_BLOCK replies
        self.block_p50s = []  # closed loop, 1 connection: median latency per REPLY_BLOCK requests
        self.latencies = {"throughput": [], "latency": [], "open": []}
        self.max_lag = 0.0
        self.next_request = 0

    def _cold_start(self):
        """Launch to first correct reply, plus the in-process loads."""
        run = self.run
        start = perf_counter()
        server = Server(run, self.paths.checkpoint)
        sock, reader = _connect(server.address)
        try:
            sock.sendall(self.payloads[self.probe])
            first = reader.readline()
            loaded = [domain.read_series_csv(path) for _, path, _ in self.paths.series]
            agents.load_agent(self.paths.checkpoint)
            self.setup_s.append(perf_counter() - start)
            for i in range(WARMUP_REQUESTS):
                sock.sendall(self.payloads[i])
                reader.readline()
        finally:
            reader.close()
            sock.close()
        problems = [] if checks.reply(self.expected[self.probe], first) else ["first reply wrong"]
        for (name, _, want), got in zip(self.paths.series, loaded):
            if not checks.series_equal(got, want.timestamps, want.d_a, want.d_b):
                problems.append(f"{name} series CSV does not read back exactly")
        run.check(problems, "cold start")
        return server

    def _record(self, loop, timed):
        """Check (pool index, reply, latency, ...) tuples; a wrong or
        missing reply counts as missing every latency limit. Returns the
        latencies."""
        bad = 0
        latencies = []
        for idx, raw, latency, *_ in timed:
            ok = latency is not None and checks.reply(self.expected[idx], raw)
            bad += not ok
            latencies.append(latency if ok else float("inf"))
        self.latencies[loop] += latencies
        self.run.tally(f"{loop} loop replies", len(timed), bad, "wrong or missing")
        return latencies

    def round(self, rnd):
        run = self.run
        sz = run.sizes
        server = self._cold_start()
        opened = None
        try:
            timed, seconds = _closed_loop(server.address, self.payloads, sz.closed_loop_s,
                                          self.next_request, THROUGHPUT_CONNECTIONS)
            self.next_request += len(timed)
            single, _ = _closed_loop(server.address, self.payloads, sz.latency_loop_s,
                                     self.next_request, LATENCY_CONNECTIONS)
            self.next_request += len(single)
            if run.recorder is not None:  # its numbers are per-layer metrics only
                opened = _open_loop(server.address, self.payloads, sz.open_loop_requests,
                                    OPEN_LOOP_RATE, self.next_request, OPEN_LOOP_CONNECTIONS)
                self.next_request += sz.open_loop_requests
        finally:
            server.stop()
            run.children.remove(server)
        latencies = self._record("throughput", timed)
        replied = np.sort([item[3] for item, lat in zip(timed, latencies) if lat != float("inf")])
        self.reply_spans += list(replied[REPLY_BLOCK::REPLY_BLOCK] - replied[:-REPLY_BLOCK:REPLY_BLOCK])
        run.note("serve_rps", len(replied) / seconds)
        latencies = self._record("latency", single)
        n = len(latencies) // REPLY_BLOCK
        self.block_p50s += list(np.median(np.reshape(latencies[: n * REPLY_BLOCK], (n, REPLY_BLOCK)), axis=1))
        run.note("serve_p50_ms", self._quantiles_ms(latencies)[0])
        if opened is not None:
            latencies, replies, lag = opened
            self._record("open", [(idx, raw, lat) for (idx, raw), lat in zip(replies, latencies)])
            self.max_lag = max(self.max_lag, lag)

    @staticmethod
    def _quantiles_ms(latencies):
        """p50 and p99 in ms; a failed request reads as the reply timeout,
        which no latency limit allows."""
        return 1e3 * np.quantile(np.minimum(latencies, IO_TIMEOUT_S), [0.5, 0.99])

    def finish(self):
        run = self.run
        run.e2e["setup_s"] = statistics.median(self.setup_s)
        # Single-caller latency sits at one of two levels (about 0.09 and
        # 0.17 ms on the tuning VM) for up to seconds at a time, so a
        # median over a run follows the share of time at each level;
        # the medians of short blocks of requests at their fast end do not.
        # With no full block, every visit failed, and the failures count.
        spans, p50s = self.reply_spans, self.block_p50s
        run.e2e["serve_rps"] = REPLY_BLOCK / min(spans) if spans else 0.0
        run.e2e["serve_p50_ms"] = 1e3 * min([IO_TIMEOUT_S, *p50s])
        if run.recorder is not None:
            run.layer["serve.closed_loop_p99_ms"] = self._quantiles_ms(self.latencies["latency"])[1]
            p50, p99 = self._quantiles_ms(self.latencies["open"])
            run.layer["serve.open_loop_p50_ms"] = p50
            run.layer["serve.open_loop_p99_ms"] = p99
            run.layer["serve.open_loop_max_lag_ms"] = 1e3 * self.max_lag
            self._replay(1e3 * run.e2e["serve_p50_ms"])

    def _replay(self, socket_p50_us):
        """AllocationServer.answer in-process on the same lines: first
        timed alone (answer_us), then under the span recorder."""
        run = self.run
        host = types.SimpleNamespace(agent=self.agent, experiment=self.experiment)
        times = []
        for line, exp in zip(run.requests, self.expected):
            if exp is not None:
                t0 = perf_counter()
                service.AllocationServer.answer(host, line)
                times.append(perf_counter() - t0)
        answer_us = 1e6 * statistics.median(times)
        wrong = 0
        with run.traced("serve"):
            for line, exp in zip(run.requests, self.expected):
                try:
                    got = service.AllocationServer.answer(host, line)
                except service.MalformedRequest:
                    got = None
                wrong += got != exp
        run.tally("in-process answers", len(run.requests), wrong, "differ from the expected reply")
        run.layer["serve.harness.service.answer_us"] = answer_us
        run.layer["serve.harness.service.transport_us"] = socket_p50_us - answer_us


# ---------------------------------------------------------------- ingest


class IngestPhase:
    """Decode and merge the two DCI traces and write the series CSV, then
    read it back; then fit each side and generate synthetic series of
    SYNTH_SERIES_LENGTH samples from it, alternating sides. rows/s
    counts every DCI row over parse -> filter -> resample -> merge ->
    write; samples/s counts generated samples over fit + generate. Both
    at the fast end (`fast_seconds`): the parser is timed per block of
    lines it reads (`ticked_lines`), the generator per series."""

    def __init__(self, run, paths):
        self.run = run
        self.paths = paths
        self.rows = sum(t.n_rows for t in run.traces)
        self.reference = [t.hourly_means() for t in run.traces]
        self.out_csv = run.workdir / "ingested.csv"
        n_series = max(2, run.sizes.synth_length // SYNTH_SERIES_LENGTH)
        self.seeds = [int(s) for s in gen.rng(run.seed, 20).integers(0, 2**31, 2 * n_series)]
        self.ingest_ticks = []
        self.synth_ticks = []

    def round(self, rnd):
        run = self.run
        ticks = Ticks([
            ("parse_dci_csv", ingest, "parse_dci_csv"),
            ("filter_data_transmissions", ingest, "filter_data_transmissions"),
            ("resample_mean", ingest, "resample_mean"),
            ("merge_series", ingest, "merge_series"),
            ("write_series_csv", domain, "write_series_csv"),
        ])
        with run.traced("ingest"):
            with ticks, ticked_lines(ticks):
                parts = []
                for side, path in zip("ab", self.paths.dci):
                    records = ingest.parse_dci_csv(path)
                    data = ingest.filter_data_transmissions(records)
                    parts.append(ingest.resample_mean(data, 3600, side_tag=side))
                merged = ingest.merge_series(*parts)
                domain.write_series_csv(merged, self.out_csv)
            back = domain.read_series_csv(self.out_csv)
        self.ingest_ticks.append(ticks)
        run.note("ingest_rows_per_s", self.rows / ticks.seconds)
        (ts_a, means_a), (ts_b, means_b) = self.reference
        problems = []
        if not (np.array_equal(ts_a, ts_b) and checks.series_equal(merged, ts_a, means_a, means_b)):
            problems.append("merged series differs from the reference resample")
        if not checks.series_equal(back, merged.timestamps, merged.d_a, merged.d_b):
            problems.append("series CSV does not read back exactly")
        run.check(problems, f"ingest round {rnd}")

        ticks = Ticks([("fit", synthgen, "fit"), ("generate", synthgen, "generate")])
        generated = {"a": [], "b": []}
        with run.traced("ingest"):
            with ticks:
                stats = {"a": synthgen.fit(merged, side="a"), "b": synthgen.fit(merged, side="b")}
                for k, seed in enumerate(self.seeds):
                    side = "ab"[k % 2]
                    series = synthgen.generate(stats[side], SYNTH_SERIES_LENGTH, seed, side=side)
                    generated[side].append(series.column(side))
            ks = max(synthgen.ks_distance(np.concatenate(generated[side]), merged.column(side))
                     for side in "ab")
        self.synth_ticks.append(ticks)
        run.note("synth_samples_per_s", self.samples / ticks.seconds)
        run.check([] if ks <= KS_BOUND else [f"KS {ks:.4f} above {KS_BOUND}"], f"synth round {rnd}")
        run.quality["synth_ks"] = ks
        run.layer["ingest.synth_ks"] = ks

    @property
    def samples(self):
        return len(self.seeds) * SYNTH_SERIES_LENGTH

    def finish(self):
        run = self.run
        run.e2e["ingest_rows_per_s"] = self.rows / fast_seconds(self.ingest_ticks)
        run.e2e["synth_samples_per_s"] = self.samples / fast_seconds(self.synth_ticks)


def layer_calls(run, phase_layers):
    """Per-layer calls and self seconds from the recorder; a layer that
    never fired in the phase meant to load it fails the run."""
    rec = run.recorder
    silent = []
    for phase, layers in phase_layers.items():
        for layer in layers:
            calls = rec.calls(phase, layer)
            run.layer[f"{phase}.{layer}.calls"] = float(calls)
            run.layer[f"{phase}.{layer}.self_s"] = rec.self_s(phase, layer)
            if calls == 0:
                silent.append(f"{phase}.{layer}")
    run.check([f"never called: {', '.join(silent)}"] if silent else [], "layer coverage")
