"""Golden SHA-256 digests of fixed-seed training and sweep output.

Each digest covers the exact float64 bytes of the trained networks and
reward traces plus the bytes of the agent checkpoint (format version 3),
the exact bytes of the files `emit_results` writes (all but the
wall-clock `run_metadata.json` sidecar), or the exact bytes of the
result files the CLI's `train` and `eval` write. A change that is
meant to be a pure speed-up or refactor must leave every digest
unchanged; a change that means to alter results updates the digests
and says why.

The training digests pass through BLAS matrix products, whose rounding
depends on the OpenBLAS kernel class that runs them, not only on the
numpy build. They were captured with numpy 2.4.6 (OpenBLAS 0.3.31, built
for every x86-64 kernel) on an AVX-512 CPU, where OpenBLAS picks its
SkylakeX kernel. The same wheel on the same CPU, with
OPENBLAS_CORETYPE=Haswell forcing the kernel meant for AVX2 CPUs, fails 6
of these tests: the four trained-agent cases, the learned sweep files and
the CLI result files (ROADMAP, "Committed bytes that hold on any x86-64
BLAS kernel"). On another kernel class or build, recapture them from the
unchanged code before judging a change. A digest failure names the kernel
that ran (tests/blas_kernel.py reads it as CI prints it).
"""

import hashlib
import os

import numpy as np
import pytest

from adapshare import AgentKind, DemandSeries, EnvConfig, ExperimentConfig, fit, generate, train
from adapshare.agents import AgentConfig, evaluate, greedy_policy, save_agent
from adapshare.domain import write_series_csv
from adapshare.harness.cli import main
from adapshare.harness.results import emit_results
from adapshare.harness.sweep import SweepSpec, run_sweep
from adapshare.metrics import build_report
from blas_kernel import openblas_corename

TRAIN_STEPS = 1500
# the OpenBLAS kernel class every digest below was captured under
CAPTURED_KERNEL = "SkylakeX"

AGENT_DIGESTS = {
    ("ddpg", (64, 64)): {
        "actor": "5a9424d11c26d0bb4c4ce4f5410ac67f62660bf1da4b33ac6f0de6acb5ff64e2",
        "critics": "c78032f913ea8c568e608427b64ae3dcdc51e8a147636748931c55124baca45c",
        "targets": "41d970b854a005405887c853d2543ca9d74abc4198702fb39be87dee3aa7ad53",
        "rewards": "29713a034fd8199c18120e84cf9be61e5f513232fcf28ac0ec20c6c55214774a",
        "curve": "44719de9fae60195e9a81a47d009649562440d1798c7b0ed990a2b26a4fb9ecb",
        "checkpoint": "418672d28648dd09a6e6f0335e43a33e5bf3be72a61d73b655f673ac97f2b587",
    },
    ("ddpg", (32,)): {
        "actor": "652da0355b597fcb1babc639d3340fb3add47dd848a2f42dddaaf644260477a1",
        "critics": "9c66ea9b059d14841c7d22ff60bbffaf4e385826590df37f60ec0dada689e94b",
        "targets": "b13d4c88e1ba57e23c3f6fee8ebb1c9f9aa4926036dbb9bf6e463dd47a00d7f4",
        "rewards": "ec45bffc6437ba847f381dd92d3174fc64a065ff10279c3bf91a6bc6e492db4c",
        "curve": "726983c49e378216b9257f3c965d9d25a47f373cc2684064483d670ad0dcdc55",
        "checkpoint": "21e23f012fc93534c4aa4fa6b95cfdcd011032042b3c5e1e766fde13d0cdaa8e",
    },
    ("td3", (64, 64)): {
        "actor": "893fb5e6904deff185895baa39fb06bffcc6fdb461c346956401a40297d98b8c",
        "critics": "6f1d8915a53f00f49f955d573c98fb55bc2f8a9c3524df45c2a7e792fdbb5eee",
        "targets": "0f07bae1fb79929aee6e43e227a7502492164069613a7919ec78a0e377761c2c",
        "rewards": "72037eb1c44ca76faf3ddc8155c44d7cc5f0847a2c4f70e3e35d570784dff8a7",
        "curve": "c1fe934bafd54ac8821f2e81253da5e0b01614a61a952ec55d7c7b07b67e98c1",
        "checkpoint": "c800064c160e00824aa1056ba98c9aec444ac8ae6c24979db60d61fb9447b6ae",
    },
    ("td3", (32,)): {
        "actor": "3395fdf85dc095ef6e242edd8a7991742cd48e53e2b28a74847c233c29bb054d",
        "critics": "f4c125b9accd662172a9040943d581db9741852655e1d81c7aa0a7c7343d882f",
        "targets": "3c56bd2d1285108840180c4c67e6d55db218131b2f88983d8e967c4470e32912",
        "rewards": "f7e2e24d151e9cdfcc56004f3d911d45600853ca934571de0d440d975d3b12a3",
        "curve": "df8a20490cf1943bc8a14fee9dc1523fcc482a2a57b59ed9709263659d264ac6",
        "checkpoint": "6b93cfcd110afef0a7b6d0fc681b78d68796df80ec05a112ecb10e69b3bd4355",
    },
}

# (file count, digest of the "name sha256" manifest, digest of sweep.csv)
SOLVER_SWEEP_DIGEST = (
    73,
    "0a210725c25b50b39a4733db9985b3ab06b8eda8b5902cac6734e10d0c51c2e8",
    "465d18fc17ae632ec0d1a86c01c37282e51ac805bdd27a8099906a71d91c9496",
)
LEARNED_SWEEP_DIGEST = (
    31,
    "af35d0519cfbe4d0283e6330d73a84fe154a7e60c708811238a623b7bb4a9500",
    "a3a3c999f0acfeed4c9b63ff017c53a8e64110e97217352f1459fc0a8371d082",
)

# train --curve-out, then eval --out and --detail-out for the trained
# checkpoint and for the opt_base solver, on the demo 05 series
CLI_FILE_DIGESTS = {
    "curve.csv": "f92c99bc38623aff153f9ce3cee3bf1c7007f77da584bf3497fcdc106e0b6722",
    "row_td3.csv": "47bf108102f66e17d6c3cedf0308926607555024d36bc1884f4595538ec8594c",
    "detail_td3.csv": "78e5b9eeae6a95563d9df0b347ac2d838e006dee2191ce84b16de9ccc69e3136",
    "row_opt_base.csv": "dc42230469b3bde2b9780999e92b71beb7e22c11e4a9161dd8f5fa9b104bd0af",
    "detail_opt_base.csv": "02c5c75fe7e2d0549819335050fa17fa796e5d4ad8979ac486bc4d68db902ff0",
}


def kernel_note():
    """The message of a digest failure: which kernel ran, and which one
    the digests hold for."""
    return (f"OpenBLAS ran its {openblas_corename()} kernel; these digests were captured "
            f"under {CAPTURED_KERNEL}, and other kernel classes round BLAS products differently")


def _array_digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _net_arrays(nets):
    return [p for net in nets for p in net.params()]


def agent_digests(kind, hidden, series, checkpoint):
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=60.0, zeta=0.5),
        seed=3,
        train_steps=TRAIN_STEPS,
        agent=AgentConfig(hidden_dims=hidden),
    )
    agent, result = train(kind, series, cfg)
    save_agent(agent, cfg, checkpoint)
    with open(checkpoint, "rb") as fh:
        checkpoint_digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "actor": _array_digest(_net_arrays([agent.actor])),
        "critics": _array_digest(_net_arrays([agent.critic])),
        "targets": _array_digest(_net_arrays([agent.target_actor, agent.target_critic])),
        "rewards": _array_digest([result.rewards]),
        "curve": _array_digest([result.curve]),
        "checkpoint": checkpoint_digest,
    }


def bundle_digest(out_dir):
    manifest = []
    for name in sorted(os.listdir(out_dir)):
        if name == "run_metadata.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            manifest.append(f"{name} {hashlib.sha256(fh.read()).hexdigest()}")
    with open(os.path.join(out_dir, "sweep.csv"), "rb") as fh:
        sweep_csv = hashlib.sha256(fh.read()).hexdigest()
    text = "\n".join(manifest).encode()
    return len(manifest), hashlib.sha256(text).hexdigest(), sweep_csv


def file_digests(paths):
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def two_sided_series(ref_series, length, seed_a, seed_b):
    stats = fit(ref_series, side="a")
    gen_a = generate(stats, length, seed_a, side="a")
    gen_b = generate(stats, length, seed_b, side="b")
    return DemandSeries(gen_a.timestamps, gen_a.d_a, gen_b.d_b, 3600)


def solver_sweep_spec():
    """Both solver baselines over the default n_r x zeta grid."""
    return SweepSpec(
        base=ExperimentConfig(env=EnvConfig(n_r=20.0), seed=11),
        agent_kinds=(AgentKind.OPT_ORACLE, AgentKind.OPT_BASE),
    )


def learned_sweep_spec():
    """The sweep of demos/05_resource_sweep.py."""
    return SweepSpec(
        base=ExperimentConfig(
            env=EnvConfig(n_r=20.0),
            seed=7,
            train_steps=1500,
            agent=AgentConfig(hidden_dims=(32,), warmup_steps=200),
        ),
        n_r_values=(20.0, 60.0),
        zeta_values=(0.2, 0.5, 0.8),
        agent_kinds=(AgentKind.TD3, AgentKind.OPT_ORACLE, AgentKind.OPT_BASE),
    )


@pytest.mark.parametrize("kind,hidden", sorted(AGENT_DIGESTS))
def test_trained_agent_bits(kind, hidden, synth_series, tmp_path):
    digests = agent_digests(kind, hidden, synth_series, tmp_path / "agent.json")
    assert digests == AGENT_DIGESTS[(kind, hidden)], kernel_note()


def test_solver_sweep_files(ref_series, tmp_path):
    series = two_sided_series(ref_series, 2000, 5, 6)
    emit_results(run_sweep(solver_sweep_spec(), series), str(tmp_path))
    assert bundle_digest(tmp_path) == SOLVER_SWEEP_DIGEST, kernel_note()


def test_learned_sweep_files(ref_series, tmp_path):
    series = two_sided_series(ref_series, 300, 42, 43)
    emit_results(run_sweep(learned_sweep_spec(), series), str(tmp_path))
    assert bundle_digest(tmp_path) == LEARNED_SWEEP_DIGEST, kernel_note()


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_cli_result_files(ref_series, tmp_path):
    data = tmp_path / "series.csv"
    write_series_csv(two_sided_series(ref_series, 300, 42, 43), data)
    agent = tmp_path / "agent.json"
    assert run_cli(
        "train", "--data", data, "--n-r", "60", "--zeta", "0.3", "--seed", "3",
        "--steps", "600", "--set", "agent.hidden_dims=32", "--set", "agent.warmup_steps=200",
        "--out", agent, "--curve-out", tmp_path / "curve.csv",
    ) == 0
    assert run_cli(
        "eval", "--data", data, "--checkpoint", agent,
        "--out", tmp_path / "row_td3.csv", "--detail-out", tmp_path / "detail_td3.csv",
    ) == 0
    assert run_cli(
        "eval", "--data", data, "--agent", "opt_base", "--n-r", "60", "--zeta", "0.3",
        "--out", tmp_path / "row_opt_base.csv", "--detail-out", tmp_path / "detail_opt_base.csv",
    ) == 0
    assert file_digests([tmp_path / name for name in CLI_FILE_DIGESTS]) == CLI_FILE_DIGESTS, kernel_note()


@pytest.mark.parametrize("kind", list(AgentKind))
def test_evaluate_is_greedy_policy_then_build_report(kind, synth_series):
    cfg = ExperimentConfig(
        env=EnvConfig(n_r=60.0, zeta=0.3),
        seed=5,
        train_steps=300,
        agent=AgentConfig(hidden_dims=(8,), warmup_steps=100),
    )
    policy = train(kind, synth_series, cfg)[0] if kind in (AgentKind.DDPG, AgentKind.TD3) else kind
    allocs = greedy_policy(policy, synth_series, cfg)
    steps = range(len(synth_series) - len(allocs), len(synth_series))
    demands = [synth_series.demand(t) for t in steps]
    timestamps = [synth_series.timestamps[t] for t in steps]
    expected = build_report(allocs, demands, 0.3, cfg.env.d_min, timestamps=timestamps)
    report = evaluate(policy, synth_series, cfg)
    assert report == expected
    assert np.array_equal(report.per_step, expected.per_step)
    assert report.per_step.shape == (len(steps), 6)
