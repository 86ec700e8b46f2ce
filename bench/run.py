"""adapshare benchmark: one run of one workload.

    python3 bench/run.py --workload paper_policy --seed 1 --seconds 40 --trace 0

Run from the repository root. Each run generates its inputs from the
seed, then times the paper's whole loop on them, in rounds: DDPG and
TD3 training with greedy evaluation, the solver sweep with its result
files, the allocation service over loopback (cold start included),
and DCI ingestion with demand synthesis. Every output is checked. The last stdout line
is the result: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. The line before
it is the run record (versions, seed, quality numbers).

The design, the workloads and the layer-to-metric map are in
bench/README.md.
"""

import os

# One BLAS thread and one CPU for the whole run, the server child
# included (it inherits both): the project's design point is one core.
# On a VM, a reply that has to wake another, idle vCPU also waits on the
# hypervisor, and that wait swings with the host's load: with client
# and server on two vCPUs, closed-loop req/s varied twice as much.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# What each workload sets: the pool size n_r, the AgentConfig fields
# that differ from the defaults, and whether the sweep trains TD3 cells.
WORKLOADS = {
    # the paper's setting: default AgentConfig, n_r 60, and the
    # solver-only sweep over the default grid
    "paper_policy": {"n_r": 60.0, "agent": {}, "learned_sweep": False},
    # the policy of demos/05_resource_sweep.py and 06_allocation_service.py
    # (one hidden layer of 32, warm-up 200, n_r 20) and demo 05's sweep
    # with trained TD3 cells
    "small_policy": {
        "n_r": 20.0,
        "agent": {"hidden_dims": (32,), "warmup_steps": 200},
        "learned_sweep": True,
    },
}

# the layers each phase is meant to load, as <module>.<function>
PHASE_LAYERS = {
    "train": (
        "nn.forward", "nn.forward_cache", "nn.backward", "nn.adam_step", "nn.soft_update",
        "agents.train", "agents.act", "agents.update", "agents.buffer_add",
        "agents.buffer_sample", "agents.greedy_policy",
        "env.observe", "env.step", "env.project_action", "env.objective_j",
        "metrics.moving_average", "metrics.build_report",
    ),
    "sweep": (
        "harness.sweep.run_cell", "harness.results.emit_results", "agents.greedy_policy",
        "oracle.solve_opt", "env.objective_j", "metrics.build_report",
    ),
    "serve": ("harness.service.answer", "nn.forward", "env.project_action"),
    "ingest": (
        "ingest.parse_dci_csv", "ingest.filter_data_transmissions", "ingest.resample_mean",
        "ingest.merge_series", "domain.write_series_csv", "domain.read_series_csv",
        "synthgen.fit", "synthgen.generate", "synthgen.ks_distance",
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one adapshare benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="about how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit_id():
    """HEAD's commit when the checkout is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "adapshare" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {SRC / 'adapshare'} or {spec_path} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    import numpy
    import scipy

    import phases
    import spans

    workdir = ROOT / ".benchrun" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    recorder = spans.SpanRecorder() if args.trace else None
    run = phases.Run(ROOT, workdir, WORKLOADS[args.workload], args.seed, args.seconds, recorder)
    try:
        paths = phases.make_inputs(run)
        train, sweep, serve, ingest = parts = [
            phases.TrainPhase(run), phases.SweepPhase(run),
            phases.ServePhase(run, paths), phases.IngestPhase(run, paths),
        ]
        for rnd in range(run.sizes.rounds):
            # the service is visited after each other phase, so that its
            # short loops and cold starts sample the whole round
            for part in (train, serve, sweep, serve, ingest, serve):
                part.round(rnd)
        for part in parts:
            part.finish()
        run.e2e["peak_rss_mb"] = phases.peak_rss_mb()
        if recorder is not None:
            phases.layer_calls(run, PHASE_LAYERS)
            recorder.write(ROOT / ".benchrun" / f"spans-{args.workload}-seed{args.seed}.csv")
    finally:
        for child in list(run.children):
            child.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.layer if args.trace else run.e2e
    mismatched = sorted({m["name"] for m in wanted} ^ set(values))
    if mismatched:
        print(f"error: measured and declared metrics differ: {mismatched}", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "quality": run.quality,
        "per_round": run.per_round,
        "fail_frac": run.failed / max(run.attempted, 1),
        "failures": run.messages,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
