"""Span tracing from outside the program.

While installed, a :class:`Tracer` replaces public avfuse functions and
methods with wrappers that record one span per call (name, start, end,
parent span, window index) and count tensor-kernel primitive calls. Spans
stay in memory until :meth:`Tracer.write`. Uninstalling restores the
original attributes, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import avfuse.anomaly
import avfuse.detect_track
import avfuse.fusion
import avfuse.pipeline
import avfuse.tensor
import avfuse.vision_dsp

# Tensor-kernel primitives whose calls are counted (nested calls included,
# so attention_weights also counts the matmul/softmax it is built from).
TENSOR_PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "add_bias", "transpose", "softmax",
    "layer_norm", "gelu", "mean", "concat", "slice_cols", "slice_rows", "sum_all",
    "cross_entropy", "attention", "attention_weights",
)

# Spans whose tensor-op counts are kept.
OP_SCOPES = ("fusion.forward", "fusion.train_step")


def _job_window(args) -> int:
    return args[1].index


def _targets():
    """(owner, attribute, span name, window getter, only inside span name).

    Functions the pipeline imported by name are patched where it looks
    them up, in ``avfuse.pipeline``.
    """
    p, f, v, d, a, t = (avfuse.pipeline, avfuse.fusion, avfuse.vision_dsp,
                        avfuse.detect_track, avfuse.anomaly, avfuse.tensor)
    ctx = p.PipelineContext
    return [
        (ctx, "analyze", "pipeline.analyze", _job_window, None),
        (ctx, "detect", "pipeline.detect", _job_window, None),
        (ctx, "tokenize", "pipeline.tokenize", _job_window, None),
        (ctx, "fuse", "pipeline.fuse", _job_window, None),
        (ctx, "score", "pipeline.score", _job_window, None),
        (p.Sink, "__call__", "pipeline.sink", _job_window, None),
        (p, "emit_event_log", "pipeline.event_log", None, None),
        (p, "persist_anomaly_artifact", "pipeline.artifact", None, None),
        (p, "load_capture", "io.load_capture", None, None),
        (p, "align_audio_to_frames", "timebase.align_audio_to_frames", None, None),
        (p, "load_model", "fusion.load_model", None, None),
        (f, "load_model", "fusion.load_model", None, None),
        (a, "load_autoencoder", "anomaly.load_autoencoder", None, None),
        (p, "preprocess_frame", "vision_dsp.preprocess_frame", None, None),
        (p, "dwt2_energy", "vision_dsp.dwt2_energy", None, None),
        (v.DenseFlow, "__call__", "vision_dsp.dense_flow", None, None),
        (p, "spectral_stats", "audio_dsp.spectral_stats", None, None),
        (f, "stub_audio_embeddings", "fusion.stub_audio_embeddings", None, None),
        (f.AudioEnsembleFusion, "fuse", "fusion.ensemble_fuse", None, None),
        (f.BasicFusionModel, "forward", "fusion.forward", None, None),
        (f.AdvancedFusionModel, "forward", "fusion.forward", None, None),
        (p, "train_step", "fusion.train_step", None, None),
        (t, "backward", "tensor.backward", None, "fusion.train_step"),
        (p, "scripted_detector", "detect_track.scripted_detector", None, None),
        (p, "nms", "detect_track.nms", None, None),
        (p, "cross_detector_merge", "detect_track.cross_detector_merge", None, None),
        (d.Tracker, "step", "detect_track.tracker_step", None, None),
        (p, "zscore_score", "anomaly.zscore_score", None, None),
        (p, "audio_anomaly_score", "anomaly.audio_anomaly_score", None, None),
        (p, "autoencoder_score", "anomaly.autoencoder_score", None, None),
        (p, "combine_scores", "anomaly.combine_scores", None, None),
        (p, "autoencoder_train", "anomaly.autoencoder_train", None, None),
    ]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[dict] = []
        self.queue_puts: list[tuple[float, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.ops = dict.fromkeys(TENSOR_PRIMITIVES, 0)
        return local

    def _span_wrapper(self, fn, name: str, window_of, only_under: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            if only_under is not None and (parent is None or parent["name"] != only_under):
                return fn(*args, **kwargs)
            window = window_of(args) if window_of else (parent["window"] if parent else -1)
            span = {"id": next(self._ids), "name": name,
                    "parent": parent["id"] if parent else None, "window": window}
            counting = name in OP_SCOPES
            if counting:
                before = dict(state.ops)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if counting:
                    span["ops"] = {k: v - before[k] for k, v in state.ops.items() if v != before[k]}
                self.spans.append(span)
        return wrapper

    def _op_counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().ops[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _put_recorder(self, fn):
        @functools.wraps(fn)
        def wrapper(queue, item):
            self.queue_puts.append((time.perf_counter(), item.index))
            return fn(queue, item)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []
        for owner, attr, name, window_of, only_under in _targets():
            patches.append((owner, attr, self._span_wrapper(
                getattr(owner, attr), name, window_of, only_under)))
        for prim in TENSOR_PRIMITIVES:
            patches.append((avfuse.tensor, prim,
                            self._op_counter(getattr(avfuse.tensor, prim), prim)))
        queue = avfuse.pipeline.StageQueue
        patches.append((queue, "put", self._put_recorder(queue.put)))

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def write(self, path: str | Path) -> Path:
        """All spans as JSON lines, in the order they ended."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")
        return path

