"""Command-line entry point.

Subcommands: ingest, synth, train, eval, sweep, serve, plot. Settings
resolve in precedence order: built-in defaults, then --config file,
then the ADAPSHARE_SEED environment variable, then explicit flags and
--set key=value overrides. A settings flag is stored under its config
key (--n-r as env.n_r) and parsed by that key's parser, like --set.
"""

import argparse
import math
import os
import sys

import numpy as np

from ..agents import TRAINABLE, evaluate, load_agent, save_agent, train
from ..domain import AgentKind, DemandSeries, read_series_csv, write_series_csv
from ..ingest import AlignmentMismatch, filter_data_transmissions, merge_series, parse_dci_csv, resample_mean
from ..synthgen import fit, generate, ks_distance
from . import results as results_mod
from .config import (COERCERS, SWEEP_KEYS, ConfigFileError, _kind, build_experiment, coerce_overrides,
                     parse_config_file)
from .service import serve
from .sweep import SweepSpec, run_sweep


def _sources(args):
    """The coerced settings of --config, ADAPSHARE_SEED, the flags (each
    stored under its config key) and --set, in that (ascending)
    precedence order."""
    file_kv = parse_config_file(args.config) if getattr(args, "config", None) else {}
    env_kv = {}
    env_seed = os.environ.get("ADAPSHARE_SEED")
    if env_seed is not None:
        try:
            env_kv["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigFileError(f"ADAPSHARE_SEED must be an integer: {env_seed!r}") from exc
    flags = {key: value for key, value in vars(args).items() if key in COERCERS and value is not None}
    set_kv = {}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigFileError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        set_kv.update(coerce_overrides({key.strip(): value.strip()}))
    return file_kv, env_kv, coerce_overrides(flags), set_kv


def _collect_mapping(args):
    """Merge config sources into one coerced mapping (last write wins)."""
    mapping = {}
    for source in _sources(args):
        mapping.update(source)
    return mapping


# the network's input width and scale; a checkpoint was trained on them
OBSERVATION_KEYS = ("env.window_n", "env.capacity_norm")


def _add_experiment_flags(parser, with_agent=True):
    # each flag is stored under its config key and parsed like --set
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--n-r", dest="env.n_r", metavar="N_R", help="resource pool size in PRB")
    parser.add_argument("--zeta", dest="env.zeta", metavar="ZETA", help="priority weight for network A")
    parser.add_argument("--seed", help="base seed")
    parser.add_argument("--steps", dest="train_steps", metavar="STEPS", help="training steps")
    if with_agent:
        parser.add_argument("--agent", dest="agent_kind", metavar="AGENT", help="agent kind: ddpg or td3")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (repeatable), e.g. --set agent.actor_lr=5e-5",
    )


def _report_line(tag, report):
    return (
        f"{tag}: mean_j={report.mean_j:.6f} s_a={report.s_a:+.4f} "
        f"s_b={report.s_b:+.4f} fairness={report.fairness:.4f}"
    )


def cmd_ingest(args):
    granularity = args.granularity
    traces = []
    for side, path in (("a", args.dci_a), ("b", args.dci_b)):
        records = parse_dci_csv(path)
        data = filter_data_transmissions(records, args.dci_format)
        if len(data) == 0:
            raise ConfigFileError(f"--dci-{side} {path}: no rows of DCI format {args.dci_format}")
        series = resample_mean(data, granularity, side_tag=side)
        # resample_mean's windows that no data row falls in read 0
        empty = len(series) - np.unique(data.timestamp // (granularity * 1000)).size
        print(
            f"network {side.upper()}: {len(records)} rows, {len(data)} data transmissions, "
            f"{len(series)} windows of {granularity}s ({empty} empty)"
        )
        traces.append((f"--dci-{side} {path}", series))
        del records, data  # free trace A's tables before trace B is parsed
    (_, a), (_, b) = traces
    try:
        merged = merge_series(a, b)
    except AlignmentMismatch as exc:
        longer = "--dci-a" if len(a) > len(b) else "--dci-b" if len(b) > len(a) else None
        spans = "; ".join(
            f"{name} covers {len(s)} windows, t = {s.timestamps[0]} to {s.timestamps[-1]} s"
            for name, s in traces
        )
        reason = f"{longer} is longer" if longer else exc
        raise ConfigFileError(f"the traces do not line up ({reason}): {spans}") from exc
    write_series_csv(merged, args.out)
    print(f"wrote {args.out}")


def cmd_synth(args):
    granularity = args.granularity
    seed = _collect_mapping(args).get("seed", 42)
    if seed < 0:
        raise ConfigFileError(
            f"seed must be a nonnegative integer for synth (column B uses seed + 1), got {seed}"
        )
    ref = read_series_csv(args.ref)
    side = args.side if args.side != "auto" else ref.populated_side()
    if side is None:
        raise ConfigFileError("--ref has both columns populated; pick one with --side")
    stats = fit(ref, side=side)
    if granularity is None:
        granularity = ref.granularity
    gen_a = generate(stats, args.length, seed, side="a", granularity=granularity)
    gen_b = generate(stats, args.length, seed + 1, side="b", granularity=granularity)
    series = DemandSeries(gen_a.timestamps, gen_a.d_a, gen_b.d_b, granularity)
    write_series_csv(series, args.out)
    ref_col = ref.column(side)
    print(
        f"fit: {stats.length} samples, lag1={stats.lag1_corr:.4f}, max={stats.max_demand:g}"
    )
    print(
        f"generated {args.length} samples (seeds {seed}/{seed + 1}): "
        f"ks_a={ks_distance(series.d_a, ref_col):.4f} ks_b={ks_distance(series.d_b, ref_col):.4f}"
    )
    print(f"wrote {args.out}")


def cmd_train(args):
    series = read_series_csv(args.data)
    cfg = build_experiment(_collect_mapping(args))
    agent, result = train(cfg.agent_kind, series, cfg)
    tail = result.curve[-1] if len(result.curve) else float("nan")
    print(
        f"trained {cfg.agent_kind.value} for {cfg.train_steps} steps "
        f"(n_r={cfg.env.n_r:g}, zeta={cfg.env.zeta:g}, seed={cfg.seed}); "
        f"final avg reward {tail:.5f}"
    )
    report = evaluate(agent, series, cfg)
    oracle_report = evaluate(AgentKind.OPT_ORACLE, series, cfg)
    print(_report_line(cfg.agent_kind.value, report))
    print(_report_line("opt_oracle", oracle_report))
    if args.out:
        save_agent(agent, cfg, args.out)
        print(f"wrote {args.out}")
    if args.curve_out:
        results_mod.write_curve_csv(result.curve, args.curve_out)
        print(f"wrote {args.curve_out}")


def cmd_eval(args):
    series = read_series_csv(args.data)
    if (args.checkpoint is None) == (args.agent is None):
        raise ConfigFileError("eval needs exactly one of --checkpoint or --agent")
    if args.checkpoint:
        agent, cfg = load_agent(args.checkpoint)
        # the checkpoint fixes every setting but the env.* keys that leave
        # the observation alone; ADAPSHARE_SEED, which only seeds new runs,
        # is left out
        file_kv, _, flag_kv, set_kv = _sources(args)
        mapping = {**file_kv, **flag_kv, **set_kv}
        fixed = sorted(
            key for key in mapping if not key.startswith("env.") or key in OBSERVATION_KEYS
        )
        if fixed:
            raise ConfigFileError(
                f"--checkpoint fixes {', '.join(fixed)}; only env.* keys other than "
                f"{' and '.join(OBSERVATION_KEYS)} may be changed"
            )
        if mapping:
            cfg = cfg.with_env(**{key[len("env."):]: value for key, value in mapping.items()})
        label = cfg.agent_kind.value
    else:
        kind = _kind(args.agent, "--agent")
        if kind in TRAINABLE:
            raise ConfigFileError("RL agents need --checkpoint; --agent is for the solvers")
        mapping = _collect_mapping(args)
        if "agent_kind" in mapping:
            raise ConfigFileError("agent_kind is chosen by eval --agent; set it in no config file or --set")
        cfg = build_experiment(mapping)
        agent, label = kind, kind.value
    report = evaluate(agent, series, cfg)
    print(_report_line(label, report))
    if report.zero_alloc_steps:
        print(f"note: {report.zero_alloc_steps} all-zero allocation steps (fairness convention 1)")
    if args.out:
        results_mod.write_sweep_csv([(cfg.env.zeta, cfg.env.n_r, label, report)], args.out)
        print(f"wrote {args.out}")
    if args.detail_out:
        results_mod.write_detail_csv(report, args.detail_out)
        print(f"wrote {args.detail_out}")


def cmd_sweep(args):
    series = read_series_csv(args.data)
    mapping = _collect_mapping(args)
    sweep_lists = {key: mapping.pop(key) for key in SWEEP_KEYS if key in mapping}
    if "agent_kind" in mapping:
        raise ConfigFileError("agent_kind is chosen by sweep's agent_kinds; set it in no config file or --set")
    # no cell runs at the base's pool size; the smallest positive float
    # passes every EnvConfig rule on n_r that a positive capacity_norm can,
    # so SweepSpec checks each n_r_values entry, the first included
    mapping.setdefault("env.n_r", math.ulp(0.0))
    base = build_experiment(mapping)
    spec = SweepSpec(base=base, **sweep_lists)

    def progress(done, total, row):
        print(
            f"[{done}/{total}] {row.agent_kind.value} n_r={row.n_r:g} zeta={row.zeta:.4g} "
            f"mean_j={row.report.mean_j:.5f}"
        )

    table = run_sweep(spec, series, progress=progress)
    written = results_mod.emit_results(table, args.out_dir)
    print(f"wrote {len(written)} files under {args.out_dir}")


def cmd_serve(args):
    serve(args.checkpoint, host=args.host, port=args.port)


def cmd_plot(args):
    written = results_mod.replot(args.dir)
    for path in written:
        print(f"wrote {path}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adapshare",
        description="Spectrum-sharing bandit lab: data pipeline, agents, sweeps, service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="decode DCI capture CSVs into a demand series")
    p.add_argument("--dci-a", required=True, help="DCI capture CSV for network A")
    p.add_argument("--dci-b", required=True, help="DCI capture CSV for network B")
    p.add_argument("--granularity", type=int, default=3600, help="window seconds (default 3600)")
    p.add_argument("--dci-format", default="2B", help="data-transmission DCI format (default 2B)")
    p.add_argument("--out", required=True, help="output demand series CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="fit a demand series and synthesize a longer one")
    p.add_argument("--ref", required=True, help="reference demand series CSV")
    p.add_argument("--side", choices=["a", "b", "auto"], default="auto",
                   help="which column of --ref to fit (default: the populated one)")
    p.add_argument("--length", type=int, default=860, help="samples to generate (default 860)")
    p.add_argument("--seed", help="seed for column A; column B uses seed+1")
    p.add_argument("--granularity", type=int, help="output spacing seconds (default: ref's)")
    p.add_argument("--out", required=True, help="output demand series CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train an agent and checkpoint it")
    p.add_argument("--data", required=True, help="demand series CSV")
    _add_experiment_flags(p)
    p.add_argument("--out", help="checkpoint path to write")
    p.add_argument("--curve-out", help="write the learning curve CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or solver on the held-out split")
    p.add_argument("--data", required=True, help="demand series CSV")
    p.add_argument("--checkpoint", help="agent checkpoint to evaluate")
    p.add_argument("--agent", help="solver kind: opt_oracle or opt_base")
    _add_experiment_flags(p, with_agent=False)
    p.add_argument("--out", help="write a one-row sweep-format CSV here")
    p.add_argument("--detail-out", help="write per-step detail CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run the full (n_r x zeta x agent) grid")
    p.add_argument("--data", required=True, help="demand series CSV")
    p.add_argument("--out-dir", required=True, help="directory for CSVs and charts")
    _add_experiment_flags(p, with_agent=False)
    p.add_argument("--n-r-values", help="comma list, e.g. 20,60,100")
    p.add_argument("--zeta-values", help="comma list, e.g. 0,0.1,...,1")
    p.add_argument("--agents", dest="agent_kinds", metavar="AGENTS",
                   help="comma list, e.g. td3,opt_oracle,opt_base")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("serve", help="answer allocation requests over TCP")
    p.add_argument("--checkpoint", required=True, help="agent checkpoint to serve")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7447)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("plot", help="rebuild SVG charts from an existing sweep directory")
    p.add_argument("--dir", required=True, help="sweep output directory")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
