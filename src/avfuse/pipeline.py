"""Staged concurrent runtime: bounded queues, event log, artifacts, training.

Windows flow through ingest -> analyze -> detect -> tokenize -> fuse ->
score -> sink. One runner, :func:`run_stages`, drives every stage chain,
training included. Stages communicate only through bounded drop-oldest
queues, so a slow stage sheds load instead of blocking its producer; every
drop is counted and ``ingested == processed + dropped`` holds exactly per
stage. Threaded runs give each stage a worker thread; inline runs drain one
stage at a time through the same queues. With drops disabled both modes
produce identical output. The first stage that raises stops every worker,
and the run fails with an error naming the window and the stage.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import anomaly as anomaly_mod
from .anomaly import (
    AnomalyReport,
    AudioBaseline,
    DenseAutoencoder,
    StatWindow,
    audio_anomaly_score,
    autoencoder_score,
    autoencoder_train,
    combine_scores,
    event_anomaly_score,
    zscore_score,
)
from .audio_dsp import SpectralStats, cwt_scalogram, default_cwt_scales, spectral_stats, stft
from .config import Config
from .detect_track import Tracker, cross_detector_merge, nms, scripted_detector
from .errors import AvFuseError, InvalidConfig, InvalidInput
from .fusion import (
    LabeledSequence,
    TokenNormalizer,
    audio_matrix,
    build_model,
    build_visual_tokens,
    load_model,
    save_model,
    train_step,
    visual_matrix,
)
from .io import load_capture, write_pgm, write_wav
from .scenario import Scenario
from .timebase import AudioClip, align_audio_to_frames, validate_burst
from .vision_dsp import DenseFlow, FlowStats, WaveletEnergy, dwt2_energy, flow_stats, preprocess_frame

KIND_ORDER = {"detection": 0, "track": 1, "classification": 2, "anomaly": 3, "metric": 4}


@dataclass(frozen=True)
class WindowJob:
    """Everything known about one window; stages fill in their outputs.

    Ownership transfers with the queue hand-off, so although fields are
    filled progressively, no two threads ever hold the same job.
    """

    index: int
    timestamp: float
    raw: np.ndarray
    samples: np.ndarray
    preprocessed: np.ndarray | None = None
    wavelet: WaveletEnergy | None = None
    flow: FlowStats | None = None
    stats: SpectralStats | None = None
    fused: np.ndarray | None = None
    detections: tuple = ()
    tracks: tuple = ()
    visual_row: np.ndarray | None = None
    audio_row: np.ndarray | None = None
    motion_logits: np.ndarray | None = None
    event_logits: np.ndarray | None = None
    motion_pred: int | None = None
    report: AnomalyReport | None = None


@dataclass(frozen=True)
class EventRecord:
    t: float
    window: int
    kind: str
    payload: dict


class StageQueue:
    """Bounded FIFO with drop-oldest overflow; producers never block."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidInput(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.pushed = 0
        self.popped = 0
        self.dropped = 0

    def put(self, item) -> None:
        with self._cond:
            if self._closed:
                raise RuntimeError("put on a closed queue")
            if len(self._items) >= self.capacity:
                self._items.popleft()
                self.dropped += 1
            self._items.append(item)
            self.pushed += 1
            self._cond.notify()

    def get(self):
        """Next item, or None once the queue is closed and drained."""
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait(timeout=0.1)
            if self._items:
                self.popped += 1
                return self._items.popleft()
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class PipelineContext:
    """Single-owner state for every stage plus the stage functions."""

    def __init__(self, config: Config, scenario: Scenario, sample_rate: int,
                 model_bundle=None, autoencoder: DenseAutoencoder | None = None,
                 export_dir: str | Path | None = None, seed: int = 0):
        self.config = config
        self.scenario = scenario
        self.sample_rate = sample_rate
        self.seed = seed
        self.script = scenario.detection_script(config.detector)
        self.tracker = Tracker(config.tracker)
        self.flow_estimator = DenseFlow(config.vision.flow_alpha, config.vision.flow_iterations)
        self._prev_frame: np.ndarray | None = None

        if model_bundle is None:
            model = build_model(config.fusion)
            model_bundle = (model, TokenNormalizer.identity(model.config.visual_features,
                                                            model.config.audio_features))
        self.model, self.normalizer = model_bundle
        self.autoencoder = autoencoder
        self._visual_rows: deque = deque(maxlen=config.fusion.burst_tokens)
        self._audio_rows: deque = deque(maxlen=config.fusion.burst_tokens)

        self.stat_window = StatWindow(config.anomaly.history)
        self.audio_baseline = AudioBaseline(config.anomaly.history)
        self.export_dir = Path(export_dir) if export_dir else None

    # Stage functions, in pipeline order.

    def analyze(self, job: WindowJob) -> WindowJob:
        v = self.config.vision
        frame = preprocess_frame(job.raw, patch=v.nlm_patch, search=v.nlm_search,
                                 strength=v.nlm_strength)
        wavelet = dwt2_energy(frame)
        if self._prev_frame is None:
            flow = FlowStats(0.0, 0.0, 0.0)
        else:
            field_uv = self.flow_estimator(self._prev_frame, frame)
            flow = flow_stats(field_uv)
            if self.export_dir is not None:
                export_flow_csv(self.export_dir / f"flow_{job.index:04d}.csv", field_uv)
        self._prev_frame = frame
        stats = spectral_stats(job.samples, self.sample_rate)
        ensemble = self.model.ensemble
        fused = ensemble.embed(job.samples, self.sample_rate) if ensemble is not None else None
        return replace(job, preprocessed=frame, wavelet=wavelet, flow=flow,
                       stats=stats, fused=fused)

    def detect(self, job: WindowJob) -> WindowJob:
        d = self.config.detector
        fast = nms(scripted_detector(job.index, self.script, "fast", self.seed,
                                     d.confidence_floor), d.nms_iou_threshold)
        if d.dual:
            accurate = nms(scripted_detector(job.index, self.script, "accurate", self.seed,
                                             d.confidence_floor), d.nms_iou_threshold)
            merged = cross_detector_merge(fast, accurate, d.cross_merge_iou)
        else:
            merged = fast
        tracks = self.tracker.step(merged)
        return replace(job, detections=tuple(merged), tracks=tuple(
            (t.track_id, t.state.value,
             float(t.bbox.x1), float(t.bbox.y1), float(t.bbox.x2), float(t.bbox.y2))
            for t in tracks
        ))

    def tokenize(self, job: WindowJob) -> WindowJob:
        (visual_token,) = build_visual_tokens([list(job.detections)], [job.wavelet], [job.flow])
        c = self.model.config
        visual_row = self.normalizer.normalize_visual(visual_matrix([visual_token])[0, :c.visual_features])
        audio_row = self.normalizer.normalize_audio(audio_matrix([job.stats])[0, :c.audio_features])
        return replace(job, visual_row=visual_row, audio_row=audio_row)

    def fuse(self, job: WindowJob) -> WindowJob:
        self._visual_rows.append(job.visual_row)
        self._audio_rows.append(job.audio_row)
        visual = np.stack(self._visual_rows)
        audio = np.stack(self._audio_rows)
        motion, event = self.model.predict(visual, audio, job.fused)
        return replace(job, motion_logits=motion, event_logits=event,
                       motion_pred=int(np.argmax(motion)))

    def score(self, job: WindowJob) -> WindowJob:
        cfg = self.config.anomaly
        # Methods without a backing model report 0 at their configured
        # weight ("nothing detected") rather than being renormalized away,
        # so one saturated method cannot trigger a run on its own.
        scores = {
            "statistical": zscore_score(self.stat_window, job.preprocessed),
            "audio": audio_anomaly_score(job.stats.energy, job.stats.centroid_hz,
                                         self.audio_baseline),
            "reconstruction": 0.0,
            "event": 0.0,
        }
        if self.autoencoder is not None:
            scores["reconstruction"] = autoencoder_score(self.autoencoder, job.preprocessed)
        contributing: tuple[str, ...] = ()
        if job.event_logits is not None:
            event = event_anomaly_score(job.event_logits, self.config.anomaly_label_ids(),
                                        cfg.event_probability_threshold)
            scores["event"] = event.score
            contributing = tuple(self.config.event_labels[i] for i in event.label_ids)
        report = combine_scores(scores, cfg.weights, cfg.threshold,
                                contributing_events=contributing, timestamp=job.timestamp)
        return replace(job, report=report)


class Sink:
    """Terminal stage: event records, artifact persistence, counters."""

    def __init__(self, out_dir: Path, sample_rate: int):
        self.out_dir = out_dir
        self.sample_rate = sample_rate
        self.records: list[EventRecord] = []
        self.windows_processed = 0
        self.anomalies_triggered = 0
        self.artifact_errors = 0

    def __call__(self, job: WindowJob) -> WindowJob:
        t, w = job.timestamp, job.index
        self.records.append(EventRecord(t, w, "detection", {
            "count": len(job.detections),
            "boxes": [
                {"x1": float(d.bbox.x1), "y1": float(d.bbox.y1),
                 "x2": float(d.bbox.x2), "y2": float(d.bbox.y2),
                 "confidence": float(d.confidence), "class_id": int(d.class_id),
                 "source": d.source}
                for d in job.detections
            ],
        }))
        self.records.append(EventRecord(t, w, "track", {
            "tracks": [
                {"id": tid, "state": state, "x1": x1, "y1": y1, "x2": x2, "y2": y2}
                for tid, state, x1, y1, x2, y2 in job.tracks
            ],
        }))
        classification = {
            "motion_pred": job.motion_pred,
            "motion_logits": [float(x) for x in job.motion_logits],
        }
        if job.event_logits is not None:
            classification["event_pred"] = int(np.argmax(job.event_logits))
        self.records.append(EventRecord(t, w, "classification", classification))

        report = job.report
        self.records.append(EventRecord(t, w, "anomaly", {
            "combined": report.combined,
            "triggered": report.triggered,
            "type": report.anomaly_type,
            "scores": report.method_scores,
            "events": list(report.contributing_events),
        }))
        if report.triggered:
            self.anomalies_triggered += 1
            try:
                persist_anomaly_artifact(report, job.preprocessed, job.samples, self.sample_rate,
                                         self.out_dir / "anomalies")
            except OSError:
                self.artifact_errors += 1  # artifact loss is logged, never fatal
        self.windows_processed += 1
        return job


def persist_anomaly_artifact(report, frame: np.ndarray, samples: np.ndarray,
                             sample_rate: int, root: str | Path) -> list[Path]:
    """Write frame.pgm, snippet.wav and report.json for a triggered report.

    Directory name is ``<millisecond timestamp, 9 digits>_<anomaly type>``
    so listings sort by time and group by type.
    """
    if not report.triggered:
        raise InvalidInput("refusing to persist a non-triggered report")
    directory = Path(root) / f"{round(report.timestamp * 1000):09d}_{report.anomaly_type}"
    directory.mkdir(parents=True, exist_ok=True)
    frame_path = directory / "frame.pgm"
    wav_path = directory / "snippet.wav"
    report_path = directory / "report.json"
    write_pgm(frame_path, frame)
    write_wav(wav_path, samples, sample_rate)
    report_path.write_text(json.dumps({
        "timestamp": report.timestamp,
        "type": report.anomaly_type,
        "combined": report.combined,
        "scores": report.method_scores,
        "events": list(report.contributing_events),
    }, indent=2, sort_keys=True) + "\n")
    return [frame_path, wav_path, report_path]


def emit_event_log(records: list[EventRecord], path: str | Path) -> Path:
    """Line-delimited JSON ordered by timestamp (stable for equal stamps)."""
    ordered = sorted(
        enumerate(records),
        key=lambda item: (item[1].t, item[1].window, KIND_ORDER.get(item[1].kind, 9), item[0]),
    )
    lines = [
        json.dumps({"t": r.t, "window": r.window, "kind": r.kind, "payload": r.payload},
                   sort_keys=True)
        for _, r in ordered
    ]
    path = Path(path)
    path.write_text("".join(line + "\n" for line in lines))
    return path


@dataclass
class StageMetrics:
    processed: int = 0
    latencies_ms: list = field(default_factory=list)

    def percentiles(self) -> dict:
        if not self.latencies_ms:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
        values = np.array(self.latencies_ms)
        return {
            "p50_ms": float(np.percentile(values, 50)),
            "p95_ms": float(np.percentile(values, 95)),
            "max_ms": float(values.max()),
        }


@dataclass
class RunSummary:
    windows_ingested: int
    windows_processed: int
    anomalies_triggered: int
    drops: dict
    stage_latency: dict
    accounting_ok: bool
    artifact_errors: int
    log_path: str
    deterministic: bool


def export_flow_csv(path: Path, flow_field) -> None:
    """Two-plane CSV: the u rows stacked above the v rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    stacked = np.vstack([flow_field.u, flow_field.v])
    np.savetxt(path, stacked, delimiter=",")


def export_audio_features(samples: np.ndarray, sample_rate: int, config: Config,
                          export_dir: Path) -> None:
    """Whole-clip spectrogram and scalogram CSVs for debugging."""
    export_dir.mkdir(parents=True, exist_ok=True)
    a = config.audio
    if len(samples) >= a.window_size:
        spec = stft(samples, a.window_size, a.hop_length, sample_rate)
        np.savetxt(export_dir / "spectrogram.csv", spec.magnitudes, delimiter=",")
        scales = default_cwt_scales(sample_rate, a.cwt_scales, a.cwt_fmin_hz, a.cwt_fmax_hz)
        scalogram = cwt_scalogram(samples, scales, sample_rate)
        # Full time resolution would be enormous; sample at the STFT hop.
        np.savetxt(export_dir / "scalogram.csv",
                   scalogram.coefficients[:, ::a.hop_length], delimiter=",")


def open_capture(capture_dir: str | Path) -> tuple[Scenario, AudioClip, list[WindowJob]]:
    """Scenario, audio clip and one fresh job per aligned window of a capture."""
    capture_dir = Path(capture_dir)
    scenario_path = capture_dir / "scenario.json"
    if not scenario_path.exists():
        raise InvalidInput(f"missing scenario definition: {scenario_path}")
    scenario = Scenario.from_json(scenario_path)
    burst, clip = load_capture(capture_dir)
    validation = validate_burst(burst)
    if not validation.ok:
        raise InvalidInput("invalid burst: " + "; ".join(validation.violations))
    jobs = [
        WindowJob(index=w.frame_index, timestamp=burst.frames[w.frame_index].timestamp,
                  raw=burst.frames[w.frame_index].pixels, samples=w.samples)
        for w in align_audio_to_frames(burst, clip)
    ]
    return scenario, clip, jobs


def run_stages(stages: list, jobs: list[WindowJob], capacity: int, threaded: bool = False,
               delays: dict | None = None) -> tuple[list[StageQueue], dict[str, StageMetrics]]:
    """Push ``jobs`` through ``(name, fn)`` stages over bounded queues.

    Stage ``i`` pops from ``queues[i]`` and pushes to ``queues[i + 1]``.
    Threaded runs give every stage a worker thread; inline runs call the
    workers in turn, so each stage drains fully before the next starts,
    which gives the same output because every stage owns its own state.
    ``delays`` sleeps before each call of the named stages (a test hook).
    The first stage that raises stops every worker and is re-raised as an
    :class:`AvFuseError` naming the window and the stage.
    """
    delays = delays or {}
    queues = [StageQueue(capacity) for _ in stages]
    metrics = {name: StageMetrics() for name, _ in stages}
    failures: list[tuple[int, str, Exception]] = []

    def worker(stage_index: int) -> None:
        name, fn = stages[stage_index]
        q_in = queues[stage_index]
        q_out = queues[stage_index + 1] if stage_index + 1 < len(stages) else None
        delay = delays.get(name, 0.0)
        try:
            while not failures and (job := q_in.get()) is not None:
                if delay:
                    time.sleep(delay)
                start = time.perf_counter()
                try:
                    out = fn(job)
                except Exception as exc:
                    failures.append((job.index, name, exc))
                    return
                metrics[name].latencies_ms.append((time.perf_counter() - start) * 1e3)
                metrics[name].processed += 1
                if q_out is not None:
                    q_out.put(out)
        finally:
            if q_out is not None:
                q_out.close()

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(len(stages))] if threaded else []
    for thread in threads:
        thread.start()
    for job in jobs:
        queues[0].put(job)
    queues[0].close()
    for thread in threads:
        thread.join()
    if not threaded:
        for i in range(len(stages)):
            worker(i)
    if failures:
        index, name, exc = failures[0]
        raise AvFuseError(f"window {index}: {name} stage failed: {exc}") from exc
    return queues, metrics


def run_pipeline(
    capture_dir: str | Path,
    config: Config,
    out_dir: str | Path,
    queue_capacity: int | None = None,
    deterministic: bool = False,
    model_path: str | Path | None = None,
    autoencoder_path: str | Path | None = None,
    export_dir: str | Path | None = None,
    single_thread: bool = False,
    seed: int = 0,
) -> RunSummary:
    """Run the staged pipeline over a capture directory.

    ``deterministic`` sizes queues to hold every window so nothing drops;
    with drops impossible the event log and artifacts are byte-identical
    across runs. ``single_thread`` runs the same stages inline, one stage
    at a time through the same bounded queues, so drops are counted the
    same way. A stage that raises fails the run with an
    :class:`AvFuseError` naming the window and the stage (exit code 2).
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario, clip, jobs = open_capture(capture_dir)

    model_bundle = load_model(model_path) if model_path else None
    autoencoder = anomaly_mod.load_autoencoder(autoencoder_path) if autoencoder_path else None
    context = PipelineContext(config, scenario, clip.sample_rate,
                              model_bundle=model_bundle, autoencoder=autoencoder,
                              export_dir=export_dir, seed=seed)
    if export_dir is not None:
        export_audio_features(clip.samples, clip.sample_rate, config, Path(export_dir))

    sink = Sink(out_dir, clip.sample_rate)
    stages = [
        ("analyze", context.analyze),
        ("detect", context.detect),
        ("tokenize", context.tokenize),
        ("fuse", context.fuse),
        ("score", context.score),
        ("sink", sink),
    ]
    capacity = queue_capacity if queue_capacity is not None else config.runtime.queue_capacity
    if deterministic:
        capacity = max(capacity, len(jobs) + 1)
    queues, metrics = run_stages(stages, jobs, capacity, threaded=not single_thread,
                                 delays=config.runtime.stage_delays)
    drops = {name: queue.dropped for (name, _), queue in zip(stages, queues)}

    for name, _ in stages:
        sink.records.append(EventRecord(jobs[-1].timestamp, len(jobs) - 1, "metric", {
            "stage": name,
            "processed": metrics[name].processed,
            "dropped": drops[name],
        }))

    log_path = emit_event_log(sink.records, out_dir / "events.jsonl")
    summary = RunSummary(
        windows_ingested=queues[0].pushed,
        windows_processed=sink.windows_processed,
        anomalies_triggered=sink.anomalies_triggered,
        drops=drops,
        stage_latency={name: metrics[name].percentiles() for name, _ in stages},
        accounting_ok=all(q.pushed == q.popped + q.dropped for q in queues),
        artifact_errors=sink.artifact_errors,
        log_path=str(log_path),
        deterministic=deterministic,
    )
    (out_dir / "summary.json").write_text(json.dumps(asdict(summary), indent=2) + "\n")
    return summary


def build_training_sequences(capture_dir: str | Path, config: Config, seed: int = 0):
    """Labeled burst-sized token sequences from a generated scenario.

    Runs the analyze, detect and tokenize stages inline over every window,
    then chunks tokens into bursts; each burst inherits the scenario's
    motion and event ground truth.
    """
    scenario, clip, jobs = open_capture(capture_dir)
    context = PipelineContext(config, scenario, clip.sample_rate, seed=seed)
    tokens: list[WindowJob] = []
    run_stages([("analyze", context.analyze), ("detect", context.detect),
                ("tokenize", context.tokenize), ("collect", tokens.append)],
               jobs, capacity=len(jobs) + 1)

    chunk = config.fusion.burst_tokens
    sequences = []
    for start in range(0, len(tokens) - chunk + 1, chunk):
        span = range(start, start + chunk)
        motion = int(any(scenario.motion_label(w) for w in span))
        event = next((scenario.event_label(w) for w in span if scenario.event_label(w)), 0)
        sequences.append(LabeledSequence(
            visual=np.stack([tokens[w].visual_row for w in span]),
            audio=np.stack([tokens[w].audio_row for w in span]),
            motion_label=motion,
            fused=tokens[start + chunk - 1].fused,
            event_label=event,
        ))
    normal_frames = [job.preprocessed for job in tokens if not scenario.is_injected(job.index)]
    return sequences, normal_frames


def train_on_scenario(capture_dir: str | Path, config: Config, out_dir: str | Path,
                      seed: int = 0) -> dict:
    """Train the fusion model and autoencoder on a scenario capture.

    Raw (unnormalized) token sequences are refit through a fresh
    normalizer, the configured model is trained to convergence or
    ``fusion.steps``, and both artifacts land in ``out_dir``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    sequences, normal_frames = build_training_sequences(capture_dir, config, seed=seed)
    if not sequences:
        raise InvalidConfig(["scenario too short to build any training sequence"])
    normalizer = TokenNormalizer.fit([s.visual for s in sequences], [s.audio for s in sequences])
    batch = [replace(s, visual=normalizer.normalize_visual(s.visual),
                     audio=normalizer.normalize_audio(s.audio)) for s in sequences]

    model = build_model(config.fusion)
    loss = float("nan")
    accuracy = 0.0
    for step in range(1, config.fusion.steps + 1):
        loss = train_step(model, batch, config.fusion.learning_rate)
        if step % 10 == 0 or step == config.fusion.steps:
            accuracy = _motion_accuracy(model, batch)
            if accuracy >= 0.98:
                break

    model_path = out_dir / "fusion.bin"
    save_model(model_path, model, normalizer)

    ae_path = None
    if len(normal_frames) >= 32:
        autoencoder = autoencoder_train(
            normal_frames, steps=config.anomaly.autoencoder_steps,
            learning_rate=config.anomaly.autoencoder_learning_rate, seed=seed,
        )
        ae_path = out_dir / "autoencoder.bin"
        anomaly_mod.save_autoencoder(ae_path, autoencoder)

    return {
        "model_path": str(model_path),
        "autoencoder_path": str(ae_path) if ae_path else None,
        "final_loss": loss,
        "training_accuracy": accuracy,
        "sequences": len(batch),
    }


def _motion_accuracy(model, batch) -> float:
    correct = sum(int(np.argmax(model.predict(e.visual, e.audio, e.fused)[0])) == e.motion_label
                  for e in batch)
    return correct / len(batch)
