"""Per-layer tracing of padformer from outside the program.

The tracer replaces public names of padformer modules with timing wrappers,
at the place where the caller looks each name up: ``padformer.model``
imports ``conv_project`` and friends by name, so those are replaced in
``model``; every primitive creates its output through
``padformer.tensor.record``, so that one is replaced in ``tensor``, and each
backward closure it receives is timed and counted under the component that
recorded it. ``restore`` puts every original back.

Spans carry a name, start, end, parent span and step id. They stay in memory
and are written once, at the end of the run, by ``write_spans``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import padformer.harness as harness
import padformer.model as model
import padformer.tensor as tensor
import padformer.vpt as vpt
from padformer.costs import count_cost

LAYER_KINDS = ("qkv", "attention", "norm", "ffn")
# count_cost entries that are inline tensor calls in model.forward; their time
# is the forward span's self time, reported as forward.rest
INLINE_ENTRIES = ("residual", "pool", "head")
REST = "forward.rest"
# primitives recorded by train_step around the forwards (loss, concat, mean)
LOSS = "loss"


def component_names(depth: int) -> list:
    """Traced components of one forward, named as ``count_cost`` names them."""
    names = ["embed"]
    for i in range(depth):
        names += [f"layers.{i}.{kind}" for kind in LAYER_KINDS]
    return names


def component_flops(mcfg) -> dict:
    """Analytic forward FLOPs per clip for each component and forward.rest."""
    flops = {REST: 0}
    for entry in count_cost(mcfg).entries:
        if entry.name.rsplit(".", 1)[-1] in INLINE_ENTRIES:
            flops[REST] += entry.flops
        else:
            flops[entry.name] = entry.flops
    return flops


class Tracer:
    """Spans and counters for the calls into padformer's layers.

    ``install_model`` wraps the per-clip forward path (the components, the
    tape and the tensor primitives that dominate it); ``install_pipeline``
    wraps the calls around it (clip I/O, scoring, threshold search). The
    benchmark toggles the model group step by step, so one run can compare
    traced and untraced steps.
    """

    def __init__(self):
        self.spans = []                  # (name, start, end, parent, step)
        self.step = -1
        self.fwd = defaultdict(float)    # component -> forward seconds
        self.bwd = defaultdict(float)    # component -> backward-closure seconds
        self.prims = defaultdict(int)    # component -> primitives recorded
        self.secs = defaultdict(float)   # named call -> seconds
        self.calls = defaultdict(int)    # named call -> calls
        self.bytes_written = 0
        self._open = []                  # indices of open spans
        self._component = []             # components being recorded
        self._layer_calls = defaultdict(int)
        self._model_saved = []
        self._pipeline_saved = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        return span[2] - span[1]

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; its time and call count go under ``name``."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.secs[name] += self.end(idx)
            self.calls[name] += 1

    def _spanned(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.secs[name] += time.perf_counter() - t0
                self.calls[name] += 1
        return wrapper

    # -- model group -------------------------------------------------------

    def _forward(self, fn):
        def wrapper(*args, **kwargs):
            self._layer_calls.clear()
            self._component.append(REST)
            idx = self.begin("model.forward")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._component.pop()
                self.calls["model.forward"] += 1
        return wrapper

    def _component_call(self, kind, fn):
        def wrapper(*args, **kwargs):
            if not self._component:          # called outside a forward
                return fn(*args, **kwargs)
            if kind == "embed":
                name = "embed"
            else:
                name = f"layers.{self._layer_calls[kind]}.{kind}"
                self._layer_calls[kind] += 1
            self._component.append(name)
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.fwd[name] += self.end(idx)
                self._component.pop()
        return wrapper

    def _record(self, fn):
        def wrapper(out_data, parents, backward_fn):
            name = self._component[-1] if self._component else LOSS
            self.prims[name] += 1

            def timed_backward(g):
                t0 = time.perf_counter()
                grads = backward_fn(g)
                self.bwd[name] += time.perf_counter() - t0
                return grads

            return fn(out_data, parents, timed_backward)
        return wrapper

    def install_model(self):
        targets = [
            (model, "forward", self._forward(model.forward)),
            (model, "conv_token_embed", self._component_call("embed", model.conv_token_embed)),
            (model, "conv_project", self._component_call("qkv", model.conv_project)),
            (model, "multiscale_attention",
             self._component_call("attention", model.multiscale_attention)),
            (tensor, "layer_norm", self._component_call("norm", tensor.layer_norm)),
            (model, "conv_ffn", self._component_call("ffn", model.conv_ffn)),
            (tensor, "record", self._record(tensor.record)),
            (tensor, "conv2d", self._timed("tensor.conv2d", tensor.conv2d)),
            (tensor, "reshape", self._timed("tensor.reshape_transpose", tensor.reshape)),
            (tensor, "transpose", self._timed("tensor.reshape_transpose", tensor.transpose)),
            (tensor, "backward", self._spanned("tensor.backward", tensor.backward)),
            (model, "adam_step", self._spanned("tensor.adam_step", model.adam_step)),
        ]
        self._model_saved = _patch(targets)

    def restore_model(self):
        _unpatch(self._model_saved)
        self._model_saved = []

    # -- pipeline group ----------------------------------------------------

    def _write_tensor(self, fn):
        def wrapper(path, array):
            t0 = time.perf_counter()
            fn(path, array)
            self.secs["vpt.write"] += time.perf_counter() - t0
            self.calls["vpt.write"] += 1
            self.bytes_written += os.path.getsize(path)
        return wrapper

    def install_pipeline(self):
        targets = [
            (vpt, "write_tensor", self._write_tensor(vpt.write_tensor)),
            (vpt, "read_tensor", self._timed("vpt.read", vpt.read_tensor)),
            (harness, "score_split", self._spanned("harness.score_split", harness.score_split)),
            (harness, "select_threshold",
             self._spanned("metrics.select_threshold", harness.select_threshold)),
            (harness, "compute_metrics",
             self._spanned("metrics.compute_metrics", harness.compute_metrics)),
        ]
        self._pipeline_saved = _patch(targets)

    def restore(self):
        self.restore_model()
        _unpatch(self._pipeline_saved)
        self._pipeline_saved = []

    # -- results -----------------------------------------------------------

    def forward_self_seconds(self) -> float:
        """Forward span time not covered by its component spans."""
        total = 0.0
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == "model.forward":
                child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name == "model.forward":
                total += (end - start) - child[idx]
        return total

    def write_spans(self, path):
        """All spans as JSON lines: name, start/end in seconds, parent index, step."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")


def _patch(targets) -> list:
    saved = []
    for module, name, fn in targets:
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, fn)
    return saved


def _unpatch(saved):
    for module, name, fn in reversed(saved):
        setattr(module, name, fn)
