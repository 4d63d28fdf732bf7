"""Per-layer metrics computed from recorded spans.

Pure standard library, shared by the traced pass (which computes them)
and ``run.py`` (which names and reports them).
"""

from __future__ import annotations

from checks import STAGES

# Layers reported as <name>.{calls,busy_s,p50_ms,p90_ms}; busy_s is self
# time (the span minus the traced spans it encloses), p50/p90 are per call.
LAYER_FUNCTIONS = (
    "vision_dsp.dense_flow", "vision_dsp.preprocess_frame", "vision_dsp.dwt2_energy",
    "fusion.stub_audio_embeddings", "fusion.ensemble_fuse", "fusion.forward",
    "fusion.train_step", "tensor.backward", "audio_dsp.spectral_stats",
    "detect_track.scripted_detector", "detect_track.nms",
    "detect_track.cross_detector_merge", "detect_track.tracker_step",
    "anomaly.zscore_score", "anomaly.audio_anomaly_score",
    "anomaly.autoencoder_score", "anomaly.combine_scores",
)
FORWARD_PRIMITIVES = ("matmul", "slice_cols", "softmax", "gelu", "layer_norm")
SETUP_LAYERS = ("io.load_capture", "fusion.load_model", "anomaly.load_autoencoder",
                "timebase.align_audio_to_frames")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer in LAYER_FUNCTIONS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                  (f"{layer}.p50_ms", "ms"), (f"{layer}.p90_ms", "ms")]
    names += [("tensor.ops_per_forward", "count"), ("tensor.ops_per_train_step", "count")]
    names += [(f"tensor.forward.{prim}", "count") for prim in FORWARD_PRIMITIVES]
    names.append(("anomaly.autoencoder_train.busy_s", "s"))
    for stage in STAGES:
        names += [(f"pipeline.{stage}.busy_p50_ms", "ms"), (f"pipeline.{stage}.busy_p90_ms", "ms"),
                  (f"pipeline.{stage}.wait_p50_ms", "ms"), (f"pipeline.{stage}.wait_p90_ms", "ms"),
                  (f"pipeline.{stage}.busy_share", "ratio")]
    names += [("pipeline.window_p50_ms", "ms"), ("pipeline.window_p90_ms", "ms"),
              ("pipeline.event_log_ms", "ms"), ("pipeline.artifact.calls", "count"),
              ("pipeline.artifact.busy_s", "s")]
    names += [(f"{layer}_ms", "ms") for layer in SETUP_LAYERS]
    names += [("trace.overhead_ratio", "ratio"), ("pipeline.threaded_windows_per_s", "1/s"),
              ("pipeline.inline_windows_per_s", "1/s")]
    return names


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summarize(spans: list[dict], queue_puts: list[tuple[float, int]], wall_s: float) -> dict:
    """Per-layer metric values (without the pass-level ones) from one pass."""
    by_name: dict[str, list[dict]] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])

    def durations_ms(name):
        return [(s["end"] - s["start"]) * 1e3 for s in by_name.get(name, [])]

    def self_s(name):
        return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                   for s in by_name.get(name, []))

    def median_ops(name, key=None):
        counts = [sum(s["ops"].values()) if key is None else s["ops"].get(key, 0)
                  for s in by_name.get(name, [])]
        return percentile(counts, 50)

    out = {}
    for layer in LAYER_FUNCTIONS:
        d = durations_ms(layer)
        out[f"{layer}.calls"] = len(d)
        out[f"{layer}.busy_s"] = self_s(layer)
        out[f"{layer}.p50_ms"] = percentile(d, 50)
        out[f"{layer}.p90_ms"] = percentile(d, 90)
    out["tensor.ops_per_forward"] = median_ops("fusion.forward")
    out["tensor.ops_per_train_step"] = median_ops("fusion.train_step")
    for prim in FORWARD_PRIMITIVES:
        out[f"tensor.forward.{prim}"] = median_ops("fusion.forward", prim)
    out["anomaly.autoencoder_train.busy_s"] = self_s("anomaly.autoencoder_train")

    ingest: dict[int, float] = {}
    for t, window in queue_puts:
        ingest[window] = min(t, ingest.get(window, t))
    ends: dict[tuple[str, int], float] = {}
    starts: dict[tuple[str, int], float] = {}
    for stage in STAGES:
        for s in by_name.get(f"pipeline.{stage}", []):
            starts[stage, s["window"]] = s["start"]
            ends[stage, s["window"]] = s["end"]
    previous = None
    for stage in STAGES:
        d = durations_ms(f"pipeline.{stage}")
        waits = []
        for (st, window), start in starts.items():
            if st != stage:
                continue
            ready = ingest.get(window) if previous is None else ends.get((previous, window))
            if ready is not None:
                waits.append((start - ready) * 1e3)
        out[f"pipeline.{stage}.busy_p50_ms"] = percentile(d, 50)
        out[f"pipeline.{stage}.busy_p90_ms"] = percentile(d, 90)
        out[f"pipeline.{stage}.wait_p50_ms"] = percentile(waits, 50)
        out[f"pipeline.{stage}.wait_p90_ms"] = percentile(waits, 90)
        out[f"pipeline.{stage}.busy_share"] = sum(d) / 1e3 / wall_s if wall_s > 0 else 0.0
        previous = stage
    in_flight = [(ends["sink", w] - starts["analyze", w]) * 1e3
                 for (stage, w) in starts if stage == "analyze" and ("sink", w) in ends]
    out["pipeline.window_p50_ms"] = percentile(in_flight, 50)
    out["pipeline.window_p90_ms"] = percentile(in_flight, 90)
    out["pipeline.event_log_ms"] = sum(durations_ms("pipeline.event_log"))
    out["pipeline.artifact.calls"] = len(by_name.get("pipeline.artifact", []))
    out["pipeline.artifact.busy_s"] = self_s("pipeline.artifact")
    for layer in SETUP_LAYERS:
        out[f"{layer}_ms"] = percentile(durations_ms(layer), 50)
    return out
