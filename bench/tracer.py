"""Spans around the public functions of each pedintent layer.

`Tracer.install()` replaces layer functions, in the module namespaces
that call them, with wrappers that time every call; `uninstall()` puts
the originals back. The program itself is not modified: a wrapper calls
the original function with the original arguments and returns its result
unchanged, so traced and untraced runs compute bit-identical outputs.

Spans are aggregated in memory by label (inclusive seconds and call
count). A call of a label that is already open (for example
`build_local_surround` calling `build_local_context`, or `forward` calling
`forward_batch`) is counted once, by its outermost span.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

MIB = float(1 << 20)

# Tensor-op function name -> op name as listed in tensor.core.REGISTERED_OPS.
OP_FUNCTIONS = {
    "matmul": "matmul",
    "add": "add",
    "mul": "mul",
    "relu": "relu",
    "gelu": "gelu",
    "sigmoid": "sigmoid",
    "tanh": "tanh",
    "log": "log",
    "clamp": "clamp",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "mean_over_axis": "mean_over_axis",
    "tensor_sum": "tensor_sum",
    "concat_along_axis": "concat_along_axis",
    "tensor_slice": "slice",
    "transpose": "transpose",
    "reshape": "reshape",
    "broadcast_to": "broadcast_to",
    "dropout": "dropout",
}

# Modules whose code calls tensor ops through their own imported names.
# tensor.core itself is listed for the operator methods of Tensor.
OP_NAMESPACES = (
    "pedintent.tensor.core",
    "pedintent.model.assembly",
    "pedintent.model.embeddings",
    "pedintent.model.encoder",
    "pedintent.model.vivit",
    "pedintent.model.fusion",
    "pedintent.training",
)


def _prefix_key(args, kwargs) -> str:
    prefix = kwargs["prefix"] if "prefix" in kwargs else args[3]
    return prefix.rstrip(".")


class Tracer:
    """Timing wrappers plus the aggregates they fill."""

    def __init__(self):
        self.seconds = defaultdict(float)  # label -> inclusive seconds
        self.calls = defaultdict(int)  # label -> completed outermost calls
        self.items = defaultdict(int)  # label -> windows returned (extraction)
        self.bytes = defaultdict(int)  # label -> computed bytes
        self.step_seconds: list[float] = []
        self.missing: list[str] = []
        self._open: set = set()
        self._depth = 0
        self._timed_root = False
        self._step_start = None
        self._patches: list = []
        self.root_seconds = 0.0  # wall time of timed roots
        self.covered = 0.0  # time of spans directly under a timed root

    # -- roots --------------------------------------------------------------

    @contextmanager
    def root(self, timed: bool):
        """Span of one call the benchmark makes. Coverage counts the time
        of layer spans directly under timed roots."""
        self._depth, self._timed_root = 1, timed
        start = time.perf_counter()
        try:
            yield
        finally:
            if timed:
                self.root_seconds += time.perf_counter() - start
            self._depth, self._timed_root = 0, False

    def timed_root(self):
        return self.root(timed=True)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, label, key=None, hook=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = label if key is None else f"{label}.{key(args, kwargs)}"
            if name in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(name)
            depth = tracer._depth = tracer._depth + 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                tracer._depth = depth - 1
                tracer._open.discard(name)
                tracer.seconds[name] += dur
                tracer.calls[name] += 1
                if depth == 2 and tracer._timed_root:
                    tracer.covered += dur
            if hook is not None:
                hook(name, args, kwargs, out, start, start + dur)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module_name: str, attr: str, label: str, key=None, hook=None):
        module = importlib.import_module(module_name)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, label, key, hook))
        else:
            replacement = self._wrap(original, label, key, hook)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    # -- hooks --------------------------------------------------------------

    def _count_windows(self, name, args, kwargs, out, start, end):
        self.items[name] += len(out) if isinstance(out, list) else 1

    def _count_scores(self, name, args, kwargs, out, start, end):
        x, n_heads = args[0], (kwargs["n_heads"] if "n_heads" in kwargs else args[3])
        seq = x.shape[-2]
        lead = x.data.size // x.shape[-1]  # product of the leading axes times seq
        self.bytes[name] += lead * seq * n_heads * x.data.itemsize

    def _count_output(self, name, args, kwargs, out, start, end):
        if not args or out is not args[0]:  # eval-mode dropout returns its input
            self.bytes["tensor.core.op"] += out.data.nbytes

    def _step_begins(self, name, args, kwargs, out, start, end):
        if kwargs.get("training"):  # the train loop's forward opens a step
            self._step_start = start

    def _step_ends(self, name, args, kwargs, out, start, end):
        if self._step_start is not None:
            self.step_seconds.append(end - self._step_start)
            self._step_start = None

    # -- install / uninstall --------------------------------------------------

    def install(self):
        self.missing = []
        patch = self._patch
        patch("pedintent.data.io", "load_annotations", "data.io.load")
        patch("pedintent.data.io", "FrameStore.load", "data.io.load")
        patch("pedintent.model.assembly", "load_checkpoint", "tensor.checkpoint.load")
        for fn in ("extract_windows", "extract_window_at"):
            patch("pedintent.data.preprocess", fn, "data.preprocess.extract", hook=self._count_windows)
        for fn in ("build_local_context", "build_local_surround", "build_global_context"):
            patch("pedintent.data.preprocess", fn, "data.preprocess.crop")
        patch("pedintent.training", "forward_batch", "model.assembly.forward", hook=self._step_begins)
        for fn in ("forward", "forward_batch"):
            patch("pedintent.model.assembly", fn, "model.assembly.forward")
        patch("pedintent.model.assembly", "stack_windows", "model.assembly.stack")
        patch("pedintent.model.assembly", "feature_tokenize", "model.embeddings.tokenize")
        patch("pedintent.model.vivit", "tubelet_embed", "model.embeddings.tubelet")
        for module in ("pedintent.model.assembly", "pedintent.model.vivit", "pedintent.model.fusion"):
            patch(module, "encode", "model.encoder.encode", key=_prefix_key)
        patch("pedintent.model.encoder", "multi_head_attention", "model.encoder.attention", hook=self._count_scores)
        patch("pedintent.model.assembly", "vivit_forward", "model.vivit.forward", key=_prefix_key)
        patch("pedintent.model.assembly", "fuse", "model.fusion.fuse")
        patch("pedintent.model.assembly", "head", "model.fusion.head")
        core = importlib.import_module("pedintent.tensor.core")
        ops = {fn: getattr(core, fn) for fn in OP_FUNCTIONS}  # before core is patched
        for module_name in OP_NAMESPACES:
            module = importlib.import_module(module_name)
            for fn, op in OP_FUNCTIONS.items():
                if getattr(module, fn, None) is ops[fn]:
                    patch(module_name, fn, f"tensor.core.op.{op}", hook=self._count_output)
        patch("pedintent.training", "backward", "tensor.core.backward")
        patch("pedintent.training", "adam_step", "training.adam", hook=self._step_ends)
        for fn in ("early_stopping", "restore_best"):
            patch("pedintent.training", fn, "training.snapshot")
        patch("pedintent.training", "evaluate_loss", "training.val")
        patch("pedintent.training", "weighted_bce", "training.loss")
        patch("pedintent.training", "plateau_scheduler", "training.schedule")
        patch("pedintent.training", "class_weights", "training.schedule")
        patch("pedintent.training", "predict_scores", "training.predict")
        patch("pedintent.metrics", "evaluate", "metrics.evaluate")
        return self

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# Prefixes `encode` and `vivit_forward` are called with by the named
# configs; every one is reported, as 0 where a model has no such branch.
ENCODE_PREFIXES = (
    "nonvisual.enc",
    "local_context.spatial",
    "local_surround.spatial",
    "global_context.spatial",
    "local_surround.temporal",
    "global_context.temporal",
    "fusion.enc",
)
VIVIT_PREFIXES = ("local_context", "local_surround", "global_context")


def layer_metrics(t: Tracer, units: int, setups: int) -> dict:
    """Per-layer figures from the aggregates: setup loads per set-up,
    extraction per window, crops per crop call, and all model, tensor and
    training figures per unit of timed work (a training step, or a scored
    window)."""

    def per_unit_ms(label):
        return 1e3 * t.seconds[label] / units

    def ratio(num, den):
        return num / den if den else 0.0

    ops = sorted({op for op in OP_FUNCTIONS.values()})
    op_calls = sum(t.calls[f"tensor.core.op.{op}"] for op in ops)
    op_seconds = sum(t.seconds[f"tensor.core.op.{op}"] for op in ops)
    windows = t.items["data.preprocess.extract"]
    crops = t.calls["data.preprocess.crop"]
    out = {
        "data.io.load_ms": 1e3 * t.seconds["data.io.load"] / setups,
        "tensor.checkpoint.load_ms": 1e3 * t.seconds["tensor.checkpoint.load"] / setups,
        "data.preprocess.extract_ms_per_window": 1e3 * ratio(t.seconds["data.preprocess.extract"], windows),
        "data.preprocess.crop_ms_per_frame": 1e3 * ratio(t.seconds["data.preprocess.crop"], crops),
        "data.preprocess.crop_calls": ratio(crops, windows),
        "model.assembly.stack_ms": per_unit_ms("model.assembly.stack"),
        "model.assembly.forward_ms": per_unit_ms("model.assembly.forward"),
        "model.embeddings.tubelet_ms": per_unit_ms("model.embeddings.tubelet"),
        "model.embeddings.tokenize_ms": per_unit_ms("model.embeddings.tokenize"),
    }
    for prefix in ENCODE_PREFIXES:
        out[f"model.encoder.encode_ms.{prefix}"] = per_unit_ms(f"model.encoder.encode.{prefix}")
    out["model.encoder.attention_ms"] = per_unit_ms("model.encoder.attention")
    out["model.encoder.score_mib"] = t.bytes["model.encoder.attention"] / MIB / units
    for prefix in VIVIT_PREFIXES:
        out[f"model.vivit.forward_ms.{prefix}"] = per_unit_ms(f"model.vivit.forward.{prefix}")
    out["model.fusion.fuse_ms"] = per_unit_ms("model.fusion.fuse")
    out["model.fusion.head_ms"] = per_unit_ms("model.fusion.head")
    out["tensor.core.op_calls"] = op_calls / units
    out["tensor.core.us_per_op"] = 1e6 * ratio(op_seconds, op_calls)
    for op in ops:
        out[f"tensor.core.op_ms.{op}"] = per_unit_ms(f"tensor.core.op.{op}")
    out["tensor.core.backward_ms"] = per_unit_ms("tensor.core.backward")
    out["tensor.core.out_mib"] = t.bytes["tensor.core.op"] / MIB / units
    out["training.step_p50_ms"] = 1e3 * statistics.median(t.step_seconds) if t.step_seconds else 0.0
    out["training.adam_ms"] = per_unit_ms("training.adam")
    out["training.snapshot_ms"] = per_unit_ms("training.snapshot")
    out["training.val_ms"] = per_unit_ms("training.val")
    out["metrics.evaluate_ms"] = per_unit_ms("metrics.evaluate")
    out["trace.coverage"] = ratio(t.covered, t.root_seconds)
    return out


def span_table(t: Tracer) -> dict:
    """label -> [calls, total ms], for the report."""
    return {label: [t.calls[label], round(1e3 * t.seconds[label], 3)] for label in sorted(t.seconds)}
