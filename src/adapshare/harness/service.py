"""Line-delimited JSON allocation service over TCP.

One request object per line; the response is the loaded policy's
projected allocation for the supplied demand history. Malformed lines
get an error object and the connection stays open; a line longer than
MAX_LINE bytes gets an error object and the connection is closed. The
policy is loaded once and never mutated while serving.
"""

import json
import math
import socketserver

import numpy as np

from ..agents import load_agent
from ..domain import load_json
from ..env import Observation, objective_j, project_action


MAX_LINE = 64 * 1024  # bytes per request line, newline included


class CheckpointInvalid(ValueError):
    """Checkpoint file missing, malformed, or not an agent checkpoint."""


class MalformedRequest(ValueError):
    """Request line failed parsing or validation."""


def _parse_request(line, window_n):
    try:
        payload = load_json(line)
    except ValueError as exc:
        raise MalformedRequest(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedRequest("request must be an object")
    for key in ("demand_history", "n_r", "zeta"):
        if key not in payload:
            raise MalformedRequest(f"missing field {key!r}")
    history = payload["demand_history"]
    if not isinstance(history, list) or len(history) < window_n + 1:
        raise MalformedRequest(
            f"demand_history must list at least {window_n + 1} (d_a, d_b) pairs, newest first"
        )
    # JSON true and false would pass as 1.0 and 0.0
    scalars = {}
    for key in ("n_r", "zeta"):
        if isinstance(payload[key], bool):
            raise MalformedRequest(f"{key} must be a number, got {json.dumps(payload[key])}")
        try:
            scalars[key] = float(payload[key])
        except (OverflowError, TypeError, ValueError) as exc:
            raise MalformedRequest(f"{key} must be a number: {exc}") from exc
    if any(isinstance(x, bool) for pair in history if isinstance(pair, list) for x in pair):
        raise MalformedRequest("demand_history entries must be numeric pairs, got a boolean")
    try:
        pairs = np.asarray(history, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise MalformedRequest(f"demand_history entries must be numeric pairs: {exc}") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.isfinite(pairs).all() or (pairs < 0).any():
        raise MalformedRequest("demand_history entries must be finite nonnegative pairs")
    n_r, zeta = scalars["n_r"], scalars["zeta"]
    if not np.isfinite(n_r) or n_r <= 0:
        raise MalformedRequest(f"n_r must be positive, got {payload['n_r']!r}")
    if not 0.0 <= zeta <= 1.0:
        raise MalformedRequest(f"zeta must lie in [0, 1], got {payload['zeta']!r}")
    return pairs[: window_n + 1], n_r, zeta


class AllocationHandler(socketserver.StreamRequestHandler):
    def handle(self):
        server = self.server
        for raw in iter(lambda: self.rfile.readline(MAX_LINE + 1), b""):
            if len(raw) > MAX_LINE:
                self._reply({"error": f"request line longer than {MAX_LINE} bytes"})
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                response = server.answer(line)
            except MalformedRequest as exc:
                response = {"error": str(exc)}
            self._reply(response)

    def _reply(self, response):
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()


class AllocationServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind, agent, experiment):
        self.agent = agent
        self.experiment = experiment
        super().__init__(bind, AllocationHandler)

    def answer(self, line):
        env = self.experiment.env
        pairs, n_r, zeta = _parse_request(line, env.window_n)
        obs = Observation(pairs=pairs / env.capacity_norm)
        raw = self.agent.act(obs, explore=False)
        alloc = project_action(raw, n_r)
        current = (float(pairs[0, 0]), float(pairs[0, 1]))
        j = objective_j(alloc, current, zeta, env.d_min)
        # json.dumps would write Infinity or NaN, which is not JSON
        if not math.isfinite(j):
            raise MalformedRequest(f"n_r {n_r!r} is too large: its j_estimate overflows")
        return {"n_a": alloc.n_a, "n_b": alloc.n_b, "j_estimate": j}


def start_server(checkpoint, host="127.0.0.1", port=0):
    """Load a checkpoint and return a bound (not yet serving) server."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must lie in 0..65535, got {port}")
    try:
        agent, experiment = load_agent(checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointInvalid(f"cannot load {checkpoint}: {exc}") from exc
    try:
        return AllocationServer((host, port), agent, experiment)
    except OSError as exc:
        raise OSError(f"cannot bind {host}:{port}: {exc}") from exc


def serve(checkpoint, host="127.0.0.1", port=7447):
    """Serve allocations until interrupted; blocks the calling thread."""
    server = start_server(checkpoint, host, port)
    bound = server.server_address
    print(f"serving {checkpoint} on {bound[0]}:{bound[1]}")
    try:
        server.serve_forever()
    finally:
        server.server_close()

