"""
Serving allocations over a line-delimited TCP socket
====================================================

Trains a small agent on constant demand until it converges, checkpoints
it, serves it on an ephemeral port, and talks to it like a client
would: one JSON object per line in, one per line out. Malformed lines
get an error object and the connection stays open.
"""

import json
import socket
import threading
from pathlib import Path

from adapshare import DemandSeries, EnvConfig, ExperimentConfig, train
from adapshare.agents import AgentConfig, save_agent
from adapshare.domain import AgentKind
from adapshare.harness.service import start_server

import numpy as np

repo = Path(__file__).resolve().parents[1]
out_dir = repo / "demos" / "out"
out_dir.mkdir(parents=True, exist_ok=True)

# constant (5, 5) demand on a 20-PRB pool: the policy should converge to
# granting a quarter of the pool to each network
steps = 240
ts = np.arange(steps, dtype=np.float64) * 3600.0
series = DemandSeries(ts, np.full(steps, 5.0), np.full(steps, 5.0), 3600)

cfg = ExperimentConfig(
    env=EnvConfig(n_r=20.0, zeta=0.5, window_n=2),
    seed=3,
    train_steps=6000,
    agent=AgentConfig(
        hidden_dims=(32,),
        actor_lr=5e-3,
        critic_lr=2e-3,
        batch_size=32,
        warmup_steps=100,
        sigma_decay=0.999,
    ),
)
agent, _ = train(AgentKind.TD3, series, cfg)
checkpoint = out_dir / "service_agent.json"
save_agent(agent, cfg, checkpoint)
print(f"trained and saved {checkpoint.relative_to(repo)}")

# port 0 binds a free ephemeral port; the daemon thread ends with the demo
server = start_server(checkpoint)
threading.Thread(target=server.serve_forever, daemon=True).start()
host, port = server.server_address
print(f"serving on {host}:{port}")

requests = [
    # history is newest-first and must cover window_n + 1 = 3 steps;
    # with the trained 20-PRB pool the reply lands near (5, 5)
    json.dumps({"demand_history": [[5, 5], [5, 5], [5, 5]], "n_r": 20, "zeta": 0.5}),
    # the raw action is a fraction of the requested pool, so a 6-PRB pool
    # scales the same policy down and n_a + n_b <= n_r always holds
    json.dumps({"demand_history": [[5, 5], [5, 5], [5, 5]], "n_r": 6, "zeta": 0.5}),
    # garbage: the server answers with an error object and keeps listening
    "definitely not json",
    # same allocation, different priority weight in the reported objective
    json.dumps({"demand_history": [[5, 5], [5, 5], [5, 5]], "n_r": 20, "zeta": 0.9}),
]

with socket.create_connection((host, port), timeout=10) as sock:
    fh = sock.makefile("rwb")
    for line in requests:
        fh.write(line.encode("utf-8") + b"\n")
        fh.flush()
        reply = json.loads(fh.readline().decode("utf-8"))
        print(f"  > {line[:60]}")
        print(f"  < {reply}")

server.shutdown()
server.server_close()
print("server stopped")
