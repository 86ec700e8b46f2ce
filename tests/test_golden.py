"""Golden SHA-256 digests of fixed-seed training and sweep output.

Each digest covers the exact float64 bytes of the trained networks and
reward traces plus the bytes of the agent checkpoint, or the exact bytes of the files `emit_results` writes
(all but the wall-clock `run_metadata.json` sidecar). A change that is
meant to be a pure speed-up or refactor must leave every digest
unchanged; a change that means to alter results updates the digests
and says why.

The training digests pass through BLAS matrix products, whose rounding
depends on the numpy build and on the CPU kernels it selects. They were
captured with numpy 2.4.6 (OpenBLAS) on x86-64; on another build,
recapture them from the unchanged code before judging a change.
"""

import hashlib
import os

import numpy as np
import pytest

from adapshare import AgentKind, DemandSeries, EnvConfig, ExperimentConfig, fit, generate, train
from adapshare.agents import AgentConfig, save_agent
from adapshare.harness.results import emit_results
from adapshare.harness.sweep import SweepSpec, run_sweep

TRAIN_STEPS = 1500

AGENT_DIGESTS = {
    ("ddpg", (64, 64)): {
        "actor": "5a9424d11c26d0bb4c4ce4f5410ac67f62660bf1da4b33ac6f0de6acb5ff64e2",
        "critics": "c78032f913ea8c568e608427b64ae3dcdc51e8a147636748931c55124baca45c",
        "targets": "41d970b854a005405887c853d2543ca9d74abc4198702fb39be87dee3aa7ad53",
        "rewards": "29713a034fd8199c18120e84cf9be61e5f513232fcf28ac0ec20c6c55214774a",
        "curve": "44719de9fae60195e9a81a47d009649562440d1798c7b0ed990a2b26a4fb9ecb",
        "checkpoint": "0cb14a193d4b75e1249d3c03a8b4c67d6ce89a1000ad480b7f915c6a20a1852a",
    },
    ("ddpg", (32,)): {
        "actor": "652da0355b597fcb1babc639d3340fb3add47dd848a2f42dddaaf644260477a1",
        "critics": "9c66ea9b059d14841c7d22ff60bbffaf4e385826590df37f60ec0dada689e94b",
        "targets": "b13d4c88e1ba57e23c3f6fee8ebb1c9f9aa4926036dbb9bf6e463dd47a00d7f4",
        "rewards": "ec45bffc6437ba847f381dd92d3174fc64a065ff10279c3bf91a6bc6e492db4c",
        "curve": "726983c49e378216b9257f3c965d9d25a47f373cc2684064483d670ad0dcdc55",
        "checkpoint": "cef3429f518fe379dbf7a1b8bf7ba4db0be15f09e91c636166c317e8860f68ed",
    },
    ("td3", (64, 64)): {
        "actor": "893fb5e6904deff185895baa39fb06bffcc6fdb461c346956401a40297d98b8c",
        "critics": "b859a5cae40cc84e80a0830e2b545e3c52381ded7ab92fb2d876163b666f7a09",
        "targets": "b10438857ce1a5bed19c3751e948cb43b08f8b9f19c3ed65a74b34be7b44bb09",
        "rewards": "72037eb1c44ca76faf3ddc8155c44d7cc5f0847a2c4f70e3e35d570784dff8a7",
        "curve": "c1fe934bafd54ac8821f2e81253da5e0b01614a61a952ec55d7c7b07b67e98c1",
        "checkpoint": "01b9825e23d50c2de01d0ecb013ddce19b17779dbb95371fd5faac40d564cf1b",
    },
    ("td3", (32,)): {
        "actor": "3395fdf85dc095ef6e242edd8a7991742cd48e53e2b28a74847c233c29bb054d",
        "critics": "5d0b3a061592f2570ddd08ab156644a6a6a5f79a8e2aa41591970f9bfa89188b",
        "targets": "1f54d0006ae481cf9321a644d83941688f57d088cff0c429ecc24dc1f6be3547",
        "rewards": "f7e2e24d151e9cdfcc56004f3d911d45600853ca934571de0d440d975d3b12a3",
        "curve": "df8a20490cf1943bc8a14fee9dc1523fcc482a2a57b59ed9709263659d264ac6",
        "checkpoint": "bdc21fc1d689217ea501f5bdafda27b17af14a2b6cff0599b04ecb91d1dcdd7b",
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
        "critics": _array_digest(_net_arrays(agent.critics)),
        "targets": _array_digest(_net_arrays([agent.target_actor] + agent.target_critics)),
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
    assert digests == AGENT_DIGESTS[(kind, hidden)]


def test_solver_sweep_files(ref_series, tmp_path):
    series = two_sided_series(ref_series, 2000, 5, 6)
    emit_results(run_sweep(solver_sweep_spec(), series), str(tmp_path))
    assert bundle_digest(tmp_path) == SOLVER_SWEEP_DIGEST


def test_learned_sweep_files(ref_series, tmp_path):
    series = two_sided_series(ref_series, 300, 42, 43)
    emit_results(run_sweep(learned_sweep_spec(), series), str(tmp_path))
    assert bundle_digest(tmp_path) == LEARNED_SWEEP_DIGEST
