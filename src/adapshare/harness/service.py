"""Line-delimited JSON allocation service over TCP.

One request object per line; the response is the loaded policy's
projected allocation for the supplied demand history. Numbers are JSON
numbers: a string, a boolean or null where a number goes is malformed,
and so is an integer past float range. Malformed lines get an error
object and the connection stays open; a line longer than MAX_LINE bytes
gets an error object and the connection is closed, and so is, without
a reply, a connection that sends no line or reads no reply for
IDLE_TIMEOUT_S seconds, so a silent client does not hold its handler
thread. The policy is loaded once and never mutated while serving.
"""

import json
import math
import socketserver

import numpy as np

from ..agents import load_agent
from ..domain import load_json
from ..env import objective_j, project_action


MAX_LINE = 64 * 1024  # bytes per request line, newline included
IDLE_TIMEOUT_S = 60  # seconds a connection may wait to read a request or to write a reply


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
    # numbers are JSON numbers: float() would read true and false as 1.0
    # and 0.0, and parse a string such as "60"
    scalars = {}
    for key in ("n_r", "zeta"):
        value = payload[key]
        if type(value) not in (int, float):
            raise MalformedRequest(f"{key} must be a number: got {json.dumps(value)}")
        try:
            scalars[key] = float(value)
        except OverflowError as exc:
            raise MalformedRequest(f"{key} must be a number: {exc}") from exc
    # one pass over the lists json.loads returned, naming faults in the
    # order the checks on a numpy array of the history did: an entry that
    # is not iterable, a boolean, another value that is not a number,
    # entries of different lengths (an empty string or object is an entry
    # of none), an int past float range, then a width other than 2 or a
    # value that is not finite and nonnegative
    values, widths = [], set()
    try:
        for pair in history:
            values += pair  # a string or an object adds its characters or keys
            widths.add(len(pair))
    except TypeError:  # a pair that is not iterable, such as a number
        raise MalformedRequest("demand_history entries must be numeric pairs") from None
    kinds = set(map(type, values))
    if bool in kinds:
        raise MalformedRequest("demand_history entries must be numeric pairs, got a boolean")
    if not kinds <= {int, float}:
        raise MalformedRequest("demand_history entries must be numeric pairs")
    if len(widths) > 1:
        raise MalformedRequest("demand_history entries must be numeric pairs: entries differ in length")
    if widths == {0} and set(map(type, history)) != {list}:  # empty strings or objects
        raise MalformedRequest("demand_history entries must be numeric pairs")
    if int in kinds:
        try:
            values = list(map(float, values))
        except OverflowError as exc:
            raise MalformedRequest(f"demand_history entries must be numeric pairs: {exc}") from exc
    # NaN is not finite, so min sees only numbers that compare
    if widths != {2} or not all(map(math.isfinite, values)) or min(values) < 0.0:
        raise MalformedRequest("demand_history entries must be finite nonnegative pairs")
    n_r, zeta = scalars["n_r"], scalars["zeta"]
    if not 0.0 < n_r < math.inf:
        raise MalformedRequest(f"n_r must be positive, got {payload['n_r']!r}")
    if not 0.0 <= zeta <= 1.0:
        raise MalformedRequest(f"zeta must lie in [0, 1], got {payload['zeta']!r}")
    return np.array(values[: 2 * window_n + 2]).reshape(window_n + 1, 2), n_r, zeta


class AllocationHandler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_S  # setup() sets it on the connection's socket

    def handle(self):
        server = self.server
        try:
            for raw in iter(lambda: self.rfile.readline(MAX_LINE + 1), b""):
                if len(raw) > MAX_LINE:
                    self._reply(json.dumps({"error": f"request line longer than {MAX_LINE} bytes"}))
                    return
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    reply = server.answer(line)
                except MalformedRequest as exc:
                    self._reply(json.dumps({"error": str(exc)}))
                    continue
                # json.dumps writes each float as float.__repr__ does, and answer
                # refused a non-finite one, so these are json.dumps's bytes
                self._reply('{"n_a": %r, "n_b": %r, "j_estimate": %r}'
                            % (reply["n_a"], reply["n_b"], reply["j_estimate"]))
        except TimeoutError:  # an idle client, or one that stopped reading replies
            return

    def _reply(self, text):
        self.wfile.write((text + "\n").encode("utf-8"))
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
        # the vector Observation(pairs / capacity_norm).vector() returns
        raw = self.agent.action((pairs / env.capacity_norm).ravel())
        alloc = project_action(raw, n_r)
        current = (float(pairs[0, 0]), float(pairs[0, 1]))
        j = objective_j(alloc, current, zeta, env.d_min)
        # json.dumps would write Infinity or NaN, which is not JSON
        if not math.isfinite(j):
            raise MalformedRequest(f"n_r {n_r!r} is too large: its j_estimate overflows")
        return {"n_a": alloc.n_a, "n_b": alloc.n_b, "j_estimate": j}


def start_server(checkpoint, host="127.0.0.1", port=0):
    """Load a checkpoint and return a bound (not yet serving) server."""
    if type(port) is not int:
        raise ValueError(f"port must be an int, got {port!r}")
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


def serve(checkpoint, host, port):
    """Serve allocations on host:port until interrupted; blocks the caller."""
    server = start_server(checkpoint, host, port)
    bound = server.server_address
    print(f"serving {checkpoint} on {bound[0]}:{bound[1]}")
    try:
        server.serve_forever()
    finally:
        server.server_close()

