"""Per-layer tracing by wrapping the public functions of pcq's modules.

Nothing in the package changes: install() replaces functions and methods in
the pcq modules (and numpy.tensordot/numpy.pad with call counters), and
uninstall() puts the originals back, so untraced rounds run the unmodified
code.

Layer boundaries become spans (name, parent span, start, end) kept in memory
and written to one JSON file at the end. A span's self time is its duration
minus the time its child spans cover. Model forward spans exist only for the
MODULE_PATHS below, so each one's self time includes the unnamed submodules and
ops inside it. Ops are too numerous for spans: each public op in pcq.ops gets a
call count, a forward self time (nested op calls excluded) and the time of the
backward closures it built. Each closure is also charged to the innermost named
module that was running when the op built it.
"""

import json
import sys
import time
from collections import defaultdict
from weakref import WeakKeyDictionary, WeakSet

import numpy as np

from pcq import data, dsp, nn, ops, optim, tensor, training
from pcq.network import PcqNetwork

MODULE_PATHS = ("mlcnn.layers.0", "mlcnn.layers.1", "mlcnn.layers.2", "mlcnn.layers.3",
                "encoder", "qproj", "csq.0", "csq.1", "csq.2", "fc1", "fc2")

# public ops the workloads call; every workload runs the same model code
OPS = ("conv2d", "conv1d", "bilinear_resize", "adaptive_avg_pool", "global_avg_pool",
       "max_pool2x2", "linear", "relu", "sigmoid", "mul", "scale", "concat",
       "slice_channels", "mean_channels", "reshape", "transpose2d", "dropout",
       "softmax_cross_entropy", "softmax_probs")
NO_BACKWARD = ("softmax_probs",)   # returns a numpy array, never a graph node

FUNCTION_SPANS = ((dsp, "batch_features"), (dsp, "segment_clip"), (dsp, "spectrogram"),
                  (dsp, "write_feature"), (dsp, "read_feature"), (data, "read_wav"),
                  (training, "build_dataset"), (training, "train_epoch"),
                  (training, "evaluate_clips"), (training, "run_cv"))
METHOD_SPANS = ((PcqNetwork, "forward", "network.forward"), (PcqNetwork, "predict", "network.predict"),
                (tensor.Tensor, "backward", "tensor.backward"), (optim.AdamW, "step", "optim.step"),
                (nn.Module, "state_dict", "nn.state_dict"))


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [("dsp.spectrogram.ms_per_segment", "ms"), ("dsp.segment_clip.ms_per_clip", "ms"),
             ("dsp.write_feature.ms_per_segment", "ms"), ("data.read_wav.ms_per_clip", "ms"),
             ("dsp.read_feature.ms_per_segment", "ms"),
             ("training.build_dataset.self_ms_per_segment", "ms")]
    specs += [(f"fwd.{p}.self_ms_per_segment", "ms") for p in MODULE_PATHS]
    specs += [(f"bwd.{p}.ms_per_segment", "ms") for p in MODULE_PATHS]
    for op in OPS:
        specs += [(f"ops.{op}.calls_per_segment", "count"), (f"ops.{op}.fwd_ms_per_segment", "ms")]
        if op not in NO_BACKWARD:
            specs.append((f"ops.{op}.bwd_ms_per_segment", "ms"))
    specs += [("tensor.backward.self_ms_per_batch", "ms"), ("tensor.graph_nodes_per_segment", "count"),
              ("numpy.tensordot.calls_per_segment", "count"), ("numpy.pad.calls_per_segment", "count"),
              ("optim.step.ms_per_step", "ms"), ("training.train_epoch.self_s", "s"),
              ("training.evaluate_clips.self_s", "s"), ("nn.state_dict.ms", "ms"),
              ("trace.overhead_ratio", "ratio")]
    return specs


def _module_paths(root):
    """(dotted path, submodule) pairs of a module tree."""
    stack = [("", root)]
    while stack:
        prefix, mod = stack.pop()
        for name, sub in mod._modules.items():
            path = f"{prefix}{name}"
            yield path, sub
            stack.append((f"{path}.", sub))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self._open = []          # indices of spans not yet ended
        self.module_stack = []   # named module paths currently running
        self._op_stack = []      # time spent in nested op calls, per open op call
        self.op_calls = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.path_bwd = defaultdict(float)
        self.np_calls = defaultdict(int)
        self.graph_nodes = 0
        self._paths = WeakKeyDictionary()
        self._registered = WeakSet()
        self._saved = []         # (owner, attribute, original) to restore

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, module, attr, new):
        """Swap a function everywhere pcq imported it by name."""
        orig = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if (name == "pcq" or name.startswith("pcq.")) and mod.__dict__.get(attr) is orig:
                self._replace(mod, attr, new)

    def install(self):
        for module, attr in FUNCTION_SPANS:
            self._replace_function(module, attr,
                                   self._spanned(f"{module.__name__.split('.')[-1]}.{attr}",
                                                 getattr(module, attr)))
        for cls, attr, name in METHOD_SPANS:
            self._replace(cls, attr, self._spanned(name, cls.__dict__[attr]))
        self._replace(PcqNetwork, "forward", self._registering(PcqNetwork.forward))
        self._replace(nn.Module, "__call__", self._module_call(nn.Module.__dict__["__call__"]))
        for op in OPS:
            self._replace_function(ops, op, self._op(op, getattr(ops, op)))
        self._replace_function(tensor, "_topo_order", self._counting_topo(tensor._topo_order))
        for fn in ("tensordot", "pad"):
            self._replace(np, fn, self._np_counter(fn, np.__dict__[fn]))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- wrappers ---------------------------------------------------------

    def _begin(self, name):
        self.spans.append([name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0])
        self._open.append(len(self.spans) - 1)

    def _end(self):
        self.spans[self._open.pop()][3] = time.perf_counter()

    def _spanned(self, name, fn):
        def wrapped(*args, **kwargs):
            self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end()
        return wrapped

    def _registering(self, forward):
        """Map a network's submodules to their dotted paths on its first forward."""
        def wrapped(net, *args, **kwargs):
            if net not in self._registered:
                self._registered.add(net)
                for path, mod in _module_paths(net):
                    if path in MODULE_PATHS:
                        self._paths[mod] = path
            return forward(net, *args, **kwargs)
        return wrapped

    def _module_call(self, call):
        def wrapped(mod, *args, **kwargs):
            path = self._paths.get(mod)
            if path is None:
                return call(mod, *args, **kwargs)
            self.module_stack.append(path)
            self._begin(f"fwd.{path}")
            try:
                return call(mod, *args, **kwargs)
            finally:
                self._end()
                self.module_stack.pop()
        return wrapped

    def _op(self, name, fn):
        def wrapped(*args, **kwargs):
            self.op_calls[name] += 1
            self._op_stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.op_fwd[name] += elapsed - self._op_stack.pop()
                if self._op_stack:
                    self._op_stack[-1] += elapsed
            back = getattr(out, "_backward", None)
            if back is not None and not getattr(back, "traced", False):
                out._backward = self._timed_backward(name, back)
            return out
        return wrapped

    def _timed_backward(self, op, backward):
        path = self.module_stack[-1] if self.module_stack else "network"

        def timed(grad):
            start = time.perf_counter()
            backward(grad)
            elapsed = time.perf_counter() - start
            self.op_bwd[op] += elapsed
            self.path_bwd[path] += elapsed
        timed.traced = True
        return timed

    def _counting_topo(self, topo):
        def wrapped(root):
            order = topo(root)
            self.graph_nodes += len(order)
            return order
        return wrapped

    def _np_counter(self, name, fn):
        def wrapped(*args, **kwargs):
            self.np_calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # -- reporting --------------------------------------------------------

    def span_totals(self):
        """name -> (count, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _, start, end), inner in zip(self.spans, child):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - inner
        return totals

    def metrics(self, overhead_ratio: float) -> dict:
        totals = self.span_totals()

        def count(name):
            return totals[name][0]

        def mean_ms(name):
            return 1e3 * totals[name][1] / count(name)

        fwd_segments = count("network.forward")
        bwd_segments = count("tensor.backward")
        steps = count("optim.step")
        loaded = count("dsp.read_feature")
        values = {
            "dsp.spectrogram.ms_per_segment": mean_ms("dsp.spectrogram"),
            "dsp.segment_clip.ms_per_clip": mean_ms("dsp.segment_clip"),
            "dsp.write_feature.ms_per_segment": mean_ms("dsp.write_feature"),
            "data.read_wav.ms_per_clip": mean_ms("data.read_wav"),
            "dsp.read_feature.ms_per_segment": mean_ms("dsp.read_feature"),
            "training.build_dataset.self_ms_per_segment": 1e3 * totals["training.build_dataset"][2] / loaded,
        }
        for p in MODULE_PATHS:
            values[f"fwd.{p}.self_ms_per_segment"] = 1e3 * totals[f"fwd.{p}"][2] / fwd_segments
            values[f"bwd.{p}.ms_per_segment"] = 1e3 * self.path_bwd[p] / bwd_segments
        for op in OPS:
            values[f"ops.{op}.calls_per_segment"] = self.op_calls[op] / fwd_segments
            values[f"ops.{op}.fwd_ms_per_segment"] = 1e3 * self.op_fwd[op] / fwd_segments
            if op not in NO_BACKWARD:
                values[f"ops.{op}.bwd_ms_per_segment"] = 1e3 * self.op_bwd[op] / bwd_segments
        closures = sum(self.op_bwd.values())
        values.update({
            "tensor.backward.self_ms_per_batch": 1e3 * (totals["tensor.backward"][1] - closures) / steps,
            "tensor.graph_nodes_per_segment": self.graph_nodes / bwd_segments,
            "numpy.tensordot.calls_per_segment": self.np_calls["tensordot"] / fwd_segments,
            "numpy.pad.calls_per_segment": self.np_calls["pad"] / fwd_segments,
            "optim.step.ms_per_step": mean_ms("optim.step"),
            "training.train_epoch.self_s": totals["training.train_epoch"][2] / count("training.train_epoch"),
            "training.evaluate_clips.self_s":
                totals["training.evaluate_clips"][2] / count("training.evaluate_clips"),
            "nn.state_dict.ms": mean_ms("nn.state_dict"),
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_specs()}

    def write(self, path, meta: dict):
        t0 = self.spans[0][2] if self.spans else 0.0
        doc = dict(meta,
                   span_fields=["name", "parent", "start_s", "end_s"],
                   spans=[[n, p, round(s - t0, 7), round(e - t0, 7)] for n, p, s, e in self.spans],
                   op_calls=dict(self.op_calls), op_fwd_s=dict(self.op_fwd), op_bwd_s=dict(self.op_bwd),
                   module_bwd_s=dict(self.path_bwd), numpy_calls=dict(self.np_calls),
                   graph_nodes=self.graph_nodes)
        path.write_text(json.dumps(doc) + "\n")
