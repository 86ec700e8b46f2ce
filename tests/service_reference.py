"""The service's request parser as it stood when it checked the demand
history on a numpy array (set of value types, np.asarray, then a range
check over the array's values), kept as the reference the one-pass
parser in adapshare.harness.service is checked against.
"""

import json
import math

import numpy as np

from adapshare.domain import load_json
from adapshare.harness.service import MalformedRequest


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
    # numbers are JSON numbers: float() and np.asarray would read true and
    # false as 1.0 and 0.0, and parse a string such as "60"
    scalars = {}
    for key in ("n_r", "zeta"):
        value = payload[key]
        if type(value) not in (int, float):
            raise MalformedRequest(f"{key} must be a number: got {json.dumps(value)}")
        try:
            scalars[key] = float(value)
        except OverflowError as exc:
            raise MalformedRequest(f"{key} must be a number: {exc}") from exc
    try:
        kinds = {type(x) for pair in history for x in pair}
    except TypeError:  # a pair that is not iterable, such as a number
        kinds = {None}
    if bool in kinds:
        raise MalformedRequest("demand_history entries must be numeric pairs, got a boolean")
    if not kinds <= {int, float}:
        raise MalformedRequest("demand_history entries must be numeric pairs")
    try:
        pairs = np.asarray(history, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise MalformedRequest(f"demand_history entries must be numeric pairs: {exc}") from exc
    # NaN fails both comparisons; Python floats compare without numpy's masks
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not all(0 <= x < math.inf for x in pairs.ravel().tolist()):
        raise MalformedRequest("demand_history entries must be finite nonnegative pairs")
    n_r, zeta = scalars["n_r"], scalars["zeta"]
    if not 0.0 < n_r < math.inf:
        raise MalformedRequest(f"n_r must be positive, got {payload['n_r']!r}")
    if not 0.0 <= zeta <= 1.0:
        raise MalformedRequest(f"zeta must lie in [0, 1], got {payload['zeta']!r}")
    return pairs[: window_n + 1], n_r, zeta
