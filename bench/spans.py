"""In-memory span recorder for the traced benchmark run.

While a phase is traced, each public function the benchmark measures
is replaced by a wrapper at every module attribute that holds it (a
function imported with `from .env import observe` lives on in
`adapshare.agents` as well as in `adapshare.env`), and at the class
attribute for methods; outside traced regions the originals are back
in place. Each call becomes a span: name, phase, start, end, parent
span. A span's self time is its duration minus the time its child
spans cover.

Aggregates (calls, total and self seconds per phase and name) are kept
exactly; the raw span log keeps the first `RAW_SPAN_CAP` spans so that
a long traced run cannot exhaust memory.
"""

import functools
import importlib
import sys
import threading
from time import perf_counter

RAW_SPAN_CAP = 200_000

# (layer name, module, attribute); a dotted attribute is a method
TARGETS = (
    ("nn.forward", "adapshare.nn", "forward"),
    ("nn.forward_cache", "adapshare.nn", "forward_cache"),
    ("nn.backward", "adapshare.nn", "backward"),
    ("nn.adam_step", "adapshare.nn", "adam_step"),
    ("nn.soft_update", "adapshare.nn", "soft_update"),
    ("agents.train", "adapshare.agents", "train"),
    ("agents.act", "adapshare.agents", "DdpgAgent.act"),
    ("agents.update", "adapshare.agents", "DdpgAgent.update"),
    ("agents.update", "adapshare.agents", "Td3Agent.update"),
    ("agents.buffer_add", "adapshare.agents", "ReplayBuffer.add"),
    ("agents.buffer_sample", "adapshare.agents", "ReplayBuffer.sample"),
    ("agents.greedy_policy", "adapshare.agents", "greedy_policy"),
    ("env.observe", "adapshare.env", "observe"),
    ("env.step", "adapshare.env", "step"),
    ("env.project_action", "adapshare.env", "project_action"),
    ("env.objective_j", "adapshare.env", "objective_j"),
    ("oracle.solve_opt", "adapshare.oracle", "solve_opt"),
    ("metrics.build_report", "adapshare.metrics", "build_report"),
    ("metrics.moving_average", "adapshare.metrics", "moving_average"),
    ("harness.sweep.run_cell", "adapshare.harness.sweep", "run_cell"),
    ("harness.results.emit_results", "adapshare.harness.results", "emit_results"),
    ("harness.service.answer", "adapshare.harness.service", "AllocationServer.answer"),
    ("ingest.parse_dci_csv", "adapshare.ingest", "parse_dci_csv"),
    ("ingest.filter_data_transmissions", "adapshare.ingest", "filter_data_transmissions"),
    ("ingest.resample_mean", "adapshare.ingest", "resample_mean"),
    ("ingest.merge_series", "adapshare.ingest", "merge_series"),
    ("domain.write_series_csv", "adapshare.domain", "write_series_csv"),
    ("domain.read_series_csv", "adapshare.domain", "read_series_csv"),
    ("synthgen.fit", "adapshare.synthgen", "fit"),
    ("synthgen.generate", "adapshare.synthgen", "generate"),
    ("synthgen.ks_distance", "adapshare.synthgen", "ks_distance"),
)

# spans whose individual durations are kept for percentiles
KEEP_DURATIONS = ("harness.sweep.run_cell",)


def _dense_flops(net, rows):
    # matmul (2 per multiply-add) plus the bias add, per dense layer
    return sum(rows * (2 * i + 1) * o for i, o in zip(net.dims[:-1], net.dims[1:]))


def _rows(x):
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _count_forward(args):
    return _dense_flops(args[0], _rows(args[1]))


def _count_backward(args):
    net, cache = args[0], args[1]
    rows = cache[1][0].shape[0]
    # weight gradient and input gradient are one matmul each per layer
    return sum(4 * rows * i * o for i, o in zip(net.dims[:-1], net.dims[1:]))


def _count_adam(args):
    # 14 element-wise operations per parameter, as written in nn.adam_step
    return 14 * sum(p.size for p in args[1])


def _count_soft_update(args):
    return 3 * sum(p.size for p in args[0].params())


# nn flop counters computed from the layer shapes each call sees
FLOP_COUNTERS = {
    "nn.forward": _count_forward,
    "nn.forward_cache": _count_forward,
    "nn.backward": _count_backward,
    "nn.adam_step": _count_adam,
    "nn.soft_update": _count_soft_update,
}


class SpanRecorder:
    """Collects spans from the wrappers; one recorder per traced run."""

    def __init__(self):
        self.bindings = _bindings(self)
        self.phase = ""
        self.next_id = 0
        self.raw = []  # (id, parent id or -1, phase, name, start, end, self)
        self.dropped = 0
        self.agg = {}  # (phase, name) -> [calls, total_s, self_s]
        self.durations = {}  # (phase, name) -> [seconds]
        self.flops = {}  # phase -> nn flop count
        self._local = threading.local()

    def start(self, phase):
        """Record the calls made from now on under `phase`."""
        self.phase = phase
        for owner, attr, _, wrapper in self.bindings:
            setattr(owner, attr, wrapper)

    def stop(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        span_id = self.next_id
        self.next_id += 1
        frame = [span_id, 0.0]
        parent = stack[-1][0] if stack else -1
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self._close(span_id, parent, name, start, end, duration - frame[1])
            counter = FLOP_COUNTERS.get(name)
            if counter is not None:
                self.flops[self.phase] = self.flops.get(self.phase, 0) + counter(args)

    def _close(self, span_id, parent, name, start, end, self_s):
        key = (self.phase, name)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        if name in KEEP_DURATIONS:
            self.durations.setdefault(key, []).append(end - start)
        if len(self.raw) < RAW_SPAN_CAP:
            self.raw.append((span_id, parent, self.phase, name, start, end, self_s))
        else:
            self.dropped += 1

    def calls(self, phase, name):
        return self.agg.get((phase, name), [0, 0.0, 0.0])[0]

    def self_s(self, phase, name):
        return self.agg.get((phase, name), [0, 0.0, 0.0])[2]

    def phase_self_s(self, phase):
        return sum(entry[2] for (p, _), entry in self.agg.items() if p == phase)

    def write(self, path):
        """Write the raw span log as CSV; the last line notes dropped spans."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,phase,name,start_s,end_s,self_s\n")
            for span in self.raw:
                fh.write("%d,%d,%s,%s,%r,%r,%r\n" % span)
            fh.write(f"# dropped {self.dropped} spans beyond the first {RAW_SPAN_CAP}\n")


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs)

    return wrapper


def _bindings(recorder):
    """(owner, attribute, original, wrapper) for every place a target is
    bound in the loaded adapshare modules."""
    out = []
    package = [m for n, m in sys.modules.items() if n == "adapshare" or n.startswith("adapshare.")]
    for name, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[meth]
            out.append((cls, meth, fn, _wrap(recorder, name, fn)))
            continue
        fn = getattr(module, attr)
        wrapper = _wrap(recorder, name, fn)
        out.extend((mod, key, fn, wrapper) for mod in package
                   for key, value in vars(mod).items() if value is fn)
    return out
