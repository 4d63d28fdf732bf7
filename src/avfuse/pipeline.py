"""Staged runtime: a bounded ingest queue, event log, artifacts, training.

Windows flow through ingest -> analyze -> detect -> tokenize -> fuse ->
score -> sink. One runner, :func:`run_stages`, drives every stage chain,
training included, on the calling thread: ingest fills one bounded
drop-oldest queue, and each stage then runs over every window the queue
released before the next stage starts. An overflowing queue sheds its
oldest window; every drop is counted and ``ingested == processed +
dropped`` holds exactly. A stage takes a run of consecutive windows:
analyze and fuse take up to ``RUN`` at once, so that non-local means,
Horn-Schunck and the fusion forward each make one call per run, and the
other stages take one. A window's stage latency is its share of its
run's time. The first stage that raises fails the run with an error
naming the stage and the window whose step failed, or the run's windows
for a step over the whole run. The sink writes the event log in the
order it makes the records, which is window order.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import anomaly as anomaly_mod
from .anomaly import (
    AnomalyReport,
    DenseAutoencoder,
    RollingBaseline,
    audio_anomaly_score,
    autoencoder_score,
    autoencoder_train,
    combine_scores,
    event_anomaly_score,
    zscore_score,
)
from .audio_dsp import SpectralStats, cwt_scalogram, default_cwt_scales, spectral_stats, stft
from .config import Config, VisionConfig
from .detect_track import Tracker, cross_detector_merge, nms, scripted_detector
from .errors import AvFuseError, InvalidConfig, InvalidInput
from .fusion import (
    FLOW_COLUMN,
    TokenNormalizer,
    TrainingBatch,
    audio_row,
    build_model,
    load_model,
    save_model,
    train_step,
    visual_row,
)
from .io import load_capture, write_pgm, write_wav
from .scenario import Scenario
from .timebase import AudioClip, align_audio_to_frames, validate_burst
from .vision_dsp import (
    DenseFlow,
    FlowField,
    WaveletEnergy,
    check_dwt_sides,
    check_nlm_search,
    dwt2_energy,
    preprocess_frame,  # noqa: F401  perfbench/tracing.py wraps it here by name
    preprocess_frames,
)

# A fusion loss above this multiple of the first step's has diverged, even while finite.
# Healthy runs on the training preset peak near 2.6 times; diverging ones reach 1e9 and more.
DIVERGED_LOSS_RATIO = 1000.0

# The most consecutive windows one analyze or fuse call takes. Larger stacks
# fall out of cache and make each window slower.
RUN = 4


@dataclass(frozen=True)
class WindowJob:
    """Everything known about one window; stages fill in their outputs."""

    index: int
    timestamp: float
    raw: np.ndarray
    samples: np.ndarray
    preprocessed: np.ndarray | None = None
    wavelet: WaveletEnergy | None = None
    flow: float = 0.0  # mean flow magnitude; 0.0 where no flow runs
    stats: SpectralStats | None = None
    fused: np.ndarray | None = None
    detections: tuple = ()
    tracks: tuple = ()  # one event-log dict per live track
    visual_row: np.ndarray | None = None
    audio_row: np.ndarray | None = None
    motion_logits: np.ndarray | None = None
    event_logits: np.ndarray | None = None
    report: AnomalyReport | None = None


class StageQueue:
    """Bounded FIFO with drop-oldest overflow, so a put never fails."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidInput(f"queue capacity must be >= 1, got {capacity}")
        self._items: deque = deque(maxlen=capacity)
        self.pushed = 0
        self.dropped = 0

    def put(self, item) -> None:
        if len(self._items) == self._items.maxlen:
            self.dropped += 1  # the append below evicts the oldest item
        self._items.append(item)
        self.pushed += 1

    def get(self):
        """Next item, or None when the queue is empty."""
        return self._items.popleft() if self._items else None


class PipelineContext:
    """Single-owner state for every stage plus the stage functions."""

    def __init__(self, config: Config, scenario: Scenario, sample_rate: int,
                 model_bundle=None, autoencoder: DenseAutoencoder | None = None,
                 export_dir: str | Path | None = None, seed: int = 0):
        self.config = config
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

        self.mean_baseline, self.energy_baseline, self.centroid_baseline = (
            RollingBaseline(config.anomaly.history) for _ in range(3))
        self.anomaly_label_ids = config.anomaly_label_ids()
        self.export_dir = Path(export_dir) if export_dir else None
        # Horn-Schunck is most of analyze; skip it when nothing reads the flow.
        self._flow_read = (self.model.config.visual_features > FLOW_COLUMN
                           or self.export_dir is not None)

    # Stage functions, in pipeline order.

    def analyze(self, job: WindowJob) -> WindowJob:
        """One window: the run of one of :meth:`analyze_run`."""
        return self.analyze_run([job])[0]

    def analyze_run(self, jobs: list[WindowJob]) -> list[WindowJob]:
        """Analyze consecutive windows: one NLM call on their frame stack and one
        Horn-Schunck call on their (previous, next) pairs, the first pair
        reaching back to the last frame of the run before; the DWT, spectral
        statistics and ensemble embed run per window."""
        v = self.config.vision
        frames = preprocess_frames(np.stack([job.raw for job in jobs]), patch=v.nlm_patch,
                                   search=v.nlm_search, strength=v.nlm_strength)
        flows = [0.0] * len(jobs)
        if self._flow_read:
            # Each frame pairs with the one before it; the capture's first frame has none.
            known = frames if self._prev_frame is None else np.concatenate(
                [self._prev_frame[np.newaxis], frames])
            first = len(jobs) + 1 - len(known)
            if len(known) > 1:
                stacked = self.flow_estimator(known[:-1], known[1:])
                for i, field in enumerate(map(FlowField, stacked.u, stacked.v), start=first):
                    flows[i] = float(field.magnitude.mean())
                    if self.export_dir is not None:
                        export_flow_csv(self.export_dir / f"flow_{jobs[i].index:04d}.csv", field)
        self._prev_frame = frames[-1]
        ensemble = self.model.ensemble
        out = []
        for job, frame, flow in zip(jobs, frames, flows):
            with _naming(job):
                wavelet = dwt2_energy(frame)
                stats = spectral_stats(job.samples, self.sample_rate)
                fused = (ensemble.embed(job.samples, self.sample_rate)
                         if ensemble is not None else None)
            out.append(replace(job, preprocessed=frame, wavelet=wavelet, flow=flow,
                               stats=stats, fused=fused))
        return out

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
        tracks = tuple(
            {"id": t.track_id, "state": t.state.value, "x1": float(t.bbox.x1),
             "y1": float(t.bbox.y1), "x2": float(t.bbox.x2), "y2": float(t.bbox.y2)}
            for t in self.tracker.step(merged)
        )
        return replace(job, detections=tuple(merged), tracks=tracks)

    def tokenize(self, job: WindowJob) -> WindowJob:
        c = self.model.config
        visual = visual_row(job.detections, job.wavelet, job.flow)[:c.visual_features]
        audio = audio_row(job.stats)[:c.audio_features]
        return replace(job, visual_row=self.normalizer.normalize_visual(visual),
                       audio_row=self.normalizer.normalize_audio(audio))

    def fuse(self, job: WindowJob) -> WindowJob:
        """One window: the run of one of :meth:`fuse_run`."""
        return self.fuse_run([job])[0]

    def fuse_run(self, jobs: list[WindowJob]) -> list[WindowJob]:
        """Fuse consecutive windows: each window's rows join the token deques
        in turn, and windows whose sequences have equal length share one
        ``predict``, the shorter warm-up sequences each alone."""
        sequences = []
        for job in jobs:
            self._visual_rows.append(job.visual_row)
            self._audio_rows.append(job.audio_row)
            sequences.append((job, np.stack(self._visual_rows), np.stack(self._audio_rows)))
        out = []
        for _, group in groupby(sequences, key=lambda sequence: len(sequence[1])):
            group_jobs, visual, audio = zip(*group)
            fused = (None if self.model.ensemble is None
                     else np.stack([job.fused for job in group_jobs]))
            motion, event = self.model.predict(np.stack(visual), np.stack(audio), fused)
            motion = motion.reshape(len(group_jobs), -1)
            if event is not None:
                event = event.reshape(len(group_jobs), -1)
            out += [replace(job, motion_logits=motion[i],
                            event_logits=None if event is None else event[i])
                    for i, job in enumerate(group_jobs)]
        return out

    def score(self, job: WindowJob) -> WindowJob:
        cfg = self.config.anomaly
        # Methods without a backing model report 0 at their configured
        # weight ("nothing detected") rather than being renormalized away,
        # so one saturated method cannot trigger a run on its own.
        scores = {
            "statistical": zscore_score(self.mean_baseline, job.preprocessed),
            "audio": audio_anomaly_score(job.stats.energy, job.stats.centroid_hz,
                                         self.energy_baseline, self.centroid_baseline),
            "reconstruction": 0.0,
            "event": 0.0,
        }
        if self.autoencoder is not None:
            scores["reconstruction"] = autoencoder_score(self.autoencoder, job.preprocessed)
        contributing: tuple[str, ...] = ()
        if job.event_logits is not None:
            event = event_anomaly_score(job.event_logits, self.anomaly_label_ids,
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
        self.records: list[dict] = []
        self.windows_processed = 0
        self.anomalies_triggered = 0
        self.artifact_errors = 0

    def log(self, t: float, window: int, kind: str, payload: dict) -> None:
        self.records.append({"t": t, "window": window, "kind": kind, "payload": payload})

    def __call__(self, job: WindowJob) -> WindowJob:
        t, w = job.timestamp, job.index
        self.log(t, w, "detection", {
            "count": len(job.detections),
            "boxes": [
                {"x1": float(d.bbox.x1), "y1": float(d.bbox.y1),
                 "x2": float(d.bbox.x2), "y2": float(d.bbox.y2),
                 "confidence": float(d.confidence), "class_id": int(d.class_id),
                 "source": d.source}
                for d in job.detections
            ],
        })
        self.log(t, w, "track", {"tracks": list(job.tracks)})
        classification = {
            "motion_pred": int(np.argmax(job.motion_logits)),
            "motion_logits": [float(x) for x in job.motion_logits],
        }
        if job.event_logits is not None:
            classification["event_pred"] = int(np.argmax(job.event_logits))
        self.log(t, w, "classification", classification)

        report = job.report
        self.log(t, w, "anomaly", {
            "combined": report.combined,
            "triggered": report.triggered,
            "type": report.anomaly_type,
            "scores": report.method_scores,
            "events": list(report.contributing_events),
        })
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


def emit_event_log(records: list[dict], path: str | Path) -> Path:
    """Line-delimited JSON, one record per line in the order given.

    :func:`run_pipeline` makes its records already ordered by (t, window,
    kind), so nothing is sorted: :func:`timebase.validate_burst` rejects
    frame timestamps that do not strictly increase; the one queue releases
    windows in ingest order, and the sink logs each window's detection,
    track, classification and anomaly records in that order; the metric
    records come last, stamped with the last window, which drop-oldest
    never sheds.
    """
    path = Path(path)
    path.write_text("".join(json.dumps(record, sort_keys=True) + "\n" for record in records))
    return path


def percentiles(latencies_ms: list[float]) -> dict:
    if not latencies_ms:
        return {"p50_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
    values = np.array(latencies_ms)
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


EXPORT_WINDOW, EXPORT_HOP = 1024, 512  # samples, for the --export-features STFT


def export_audio_features(samples: np.ndarray, sample_rate: int, export_dir: Path) -> None:
    """Whole-clip spectrogram and scalogram CSVs for debugging."""
    export_dir.mkdir(parents=True, exist_ok=True)
    if len(samples) >= EXPORT_WINDOW:
        spec = stft(samples, EXPORT_WINDOW, EXPORT_HOP, sample_rate)
        np.savetxt(export_dir / "spectrogram.csv", spec.magnitudes, delimiter=",")
        scalogram = cwt_scalogram(samples, default_cwt_scales(sample_rate))
        # Full time resolution would be enormous; sample at the STFT hop.
        np.savetxt(export_dir / "scalogram.csv", scalogram[:, ::EXPORT_HOP], delimiter=",")


def open_capture(capture_dir: str | Path,
                 vision: VisionConfig) -> tuple[Scenario, AudioClip, list[WindowJob]]:
    """Scenario, audio clip and one fresh job per aligned window of a capture.

    A ``vision.nlm_search`` wider than the frames is a config error.
    """
    capture_dir = Path(capture_dir)
    scenario_path = capture_dir / "scenario.json"
    if not scenario_path.exists():
        raise InvalidInput(f"missing scenario definition: {scenario_path}")
    scenario = Scenario.from_json(scenario_path)
    burst, clip = load_capture(capture_dir)
    validation = validate_burst(burst)
    if not validation.ok:
        raise InvalidInput("invalid burst: " + "; ".join(validation.violations))
    check_dwt_sides(*burst.frames[0].pixels.shape)
    try:
        check_nlm_search(vision.nlm_search, *burst.frames[0].pixels.shape)
    except InvalidInput as exc:
        raise InvalidConfig([f"vision.nlm_search: {exc} in {capture_dir}"]) from exc
    jobs = [
        WindowJob(index=w.frame_index, timestamp=burst.frames[w.frame_index].timestamp,
                  raw=burst.frames[w.frame_index].pixels, samples=w.samples)
        for w in align_audio_to_frames(burst, clip)
    ]
    return scenario, clip, jobs


class _WindowFailed(Exception):
    """A one-window step inside a stage over a run raised; its cause is the step's error."""

    def __init__(self, window: int):
        super().__init__(window)
        self.window = window


@contextmanager
def _naming(job: WindowJob):
    """Name ``job``'s window in any failure of the block."""
    try:
        yield
    except Exception as exc:
        raise _WindowFailed(job.index) from exc


def per_window(name: str, step) -> tuple:
    """The stage ``name`` that applies the one-window ``step`` to runs of one window."""
    return name, lambda jobs: [step(job) for job in jobs], 1


def _windows(jobs: list) -> str:
    if len(jobs) == 1:
        return f"window {jobs[0].index}"
    return f"windows {jobs[0].index}-{jobs[-1].index}"


def run_stages(stages: list, jobs: list[WindowJob],
               capacity: int) -> tuple[list, StageQueue, dict[str, list[float]]]:
    """Push ``jobs`` through ``(name, fn, run)`` stages behind one bounded queue.

    Ingest puts every job into one drop-oldest queue of ``capacity``, which
    sheds what overflows; then each stage runs over every window the queue
    released, in order, before the next stage starts, all on the calling
    thread. A stage's ``fn`` takes a list of at most ``run`` consecutive
    windows and returns their outputs; :func:`per_window` makes one from a
    one-window step. Returns the last stage's outputs, the queue and each
    stage's latency per window in ms: each window's share of its run's time.
    The first stage that raises is re-raised as an :class:`AvFuseError`
    naming the stage and the run's windows, or the one window whose step
    failed.
    """
    queue = StageQueue(capacity)
    for job in jobs:
        queue.put(job)
    batch = list(iter(queue.get, None))
    latencies: dict[str, list[float]] = {name: [] for name, _, _ in stages}
    for name, fn, run in stages:
        outputs = []
        for first in range(0, len(batch), run):
            jobs_run = batch[first:first + run]
            start = time.perf_counter()
            try:
                outputs += fn(jobs_run)
            except _WindowFailed as failed:
                cause = failed.__cause__
                raise AvFuseError(f"window {failed.window}: {name} stage failed: {cause}") from cause
            except Exception as exc:
                raise AvFuseError(f"{_windows(jobs_run)}: {name} stage failed: {exc}") from exc
            share = (time.perf_counter() - start) * 1e3 / len(jobs_run)
            latencies[name] += [share] * len(jobs_run)
        batch = outputs
    return batch, queue, latencies


def run_pipeline(
    capture_dir: str | Path,
    config: Config,
    out_dir: str | Path,
    deterministic: bool = False,
    model_path: str | Path | None = None,
    autoencoder_path: str | Path | None = None,
    export_dir: str | Path | None = None,
    seed: int = 0,
) -> RunSummary:
    """Run the staged pipeline over a capture directory.

    ``runtime.queue_capacity`` is the capacity of the one ingest queue,
    validated with the rest of the config before any file loads. Only that
    queue can drop, so every other stage reports 0 dropped. ``deterministic``
    sizes it to hold every window so nothing drops; with drops impossible
    the event log and artifacts are byte-identical across runs. A stage that raises fails the run with an
    :class:`AvFuseError` naming the window and the stage (exit code 2).
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario, clip, jobs = open_capture(capture_dir, config.vision)

    # Inference runs in float32 (see tensor): a model file is read as float32,
    # and the cast then reaches the untrained model and the ensemble.
    model_bundle = load_model(model_path, np.float32) if model_path else None
    autoencoder = anomaly_mod.load_autoencoder(autoencoder_path) if autoencoder_path else None
    context = PipelineContext(config, scenario, clip.sample_rate,
                              model_bundle=model_bundle, autoencoder=autoencoder,
                              export_dir=export_dir, seed=seed)
    context.model.cast_to_float32()
    if export_dir is not None:
        export_audio_features(clip.samples, clip.sample_rate, Path(export_dir))

    sink = Sink(out_dir, clip.sample_rate)
    stages = [
        ("analyze", context.analyze_run, RUN),
        per_window("detect", context.detect),
        per_window("tokenize", context.tokenize),
        ("fuse", context.fuse_run, RUN),
        per_window("score", context.score),
        per_window("sink", sink),
    ]
    capacity = config.runtime.queue_capacity
    if deterministic:
        capacity = max(capacity, len(jobs) + 1)
    _, queue, latencies = run_stages(stages, jobs, capacity)
    drops = dict.fromkeys(latencies, 0) | {"analyze": queue.dropped}

    for name in latencies:
        sink.log(jobs[-1].timestamp, len(jobs) - 1, "metric", {
            "stage": name,
            "processed": len(latencies[name]),
            "dropped": drops[name],
        })

    log_path = emit_event_log(sink.records, out_dir / "events.jsonl")
    summary = RunSummary(
        windows_ingested=queue.pushed,
        windows_processed=sink.windows_processed,
        anomalies_triggered=sink.anomalies_triggered,
        drops=drops,
        stage_latency={name: percentiles(ms) for name, ms in latencies.items()},
        accounting_ok=queue.pushed == sink.windows_processed + queue.dropped,
        artifact_errors=sink.artifact_errors,
        log_path=str(log_path),
        deterministic=deterministic,
    )
    (out_dir / "summary.json").write_text(json.dumps(asdict(summary), indent=2) + "\n")
    return summary


def build_training_sequences(capture_dir: str | Path, config: Config, seed: int = 0):
    """Labeled burst-sized token sequences from a generated scenario.

    Runs the analyze, detect and tokenize stages inline over every window
    with a freshly built model, then chunks tokens into consecutive bursts,
    dropping a partial last one; each burst inherits the scenario's motion
    and event ground truth and its last window's fused embedding. Returns
    the :class:`TrainingBatch` of every burst, the preprocessed normal
    frames and the model, untrained.
    """
    scenario, clip, jobs = open_capture(capture_dir, config.vision)
    context = PipelineContext(config, scenario, clip.sample_rate, seed=seed)
    tokens, _, _ = run_stages([("analyze", context.analyze_run, RUN),
                               per_window("detect", context.detect),
                               per_window("tokenize", context.tokenize)],
                              jobs, capacity=len(jobs) + 1)

    chunk = config.fusion.burst_tokens
    spans = [range(start, start + chunk) for start in range(0, len(tokens) - chunk + 1, chunk)]
    if not spans:
        raise InvalidConfig(["scenario too short to build any training sequence"])
    batch = TrainingBatch(
        visual=np.array([[tokens[w].visual_row for w in span] for span in spans]),
        audio=np.array([[tokens[w].audio_row for w in span] for span in spans]),
        motion=np.array([int(any(scenario.motion_label(w) for w in span)) for span in spans]),
        fused=(None if context.model.ensemble is None
               else np.array([tokens[span[-1]].fused for span in spans])),
        event=np.array([next((scenario.event_label(w) for w in span if scenario.event_label(w)), 0)
                        for span in spans]),
    )
    normal_frames = [job.preprocessed for job in tokens if not scenario.is_injected(job.index)]
    return batch, normal_frames, context.model


def train_on_scenario(capture_dir: str | Path, config: Config, out_dir: str | Path,
                      seed: int = 0) -> dict:
    """Train the fusion model and autoencoder on a scenario capture.

    Raw (unnormalized) token sequences are refit through a fresh
    normalizer, the configured model is trained to convergence or
    ``fusion.steps``, and both artifacts land in ``out_dir``. A non-finite
    loss in either trainer, or a fusion loss above ``DIVERGED_LOSS_RATIO``
    times the first step's, raises :class:`AvFuseError` before any file is
    written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    batch, normal_frames, model = build_training_sequences(capture_dir, config, seed=seed)
    normalizer = TokenNormalizer.fit(batch.visual, batch.audio)
    batch = replace(batch, visual=normalizer.normalize_visual(batch.visual),
                    audio=normalizer.normalize_audio(batch.audio))

    loss = float("nan")
    accuracy = 0.0
    autoencoder = None
    # A diverging trainer is reported by its non-finite loss, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, config.fusion.steps + 1):
            loss = train_step(model, batch, config.fusion.learning_rate)
            if step == 1:
                first_loss = loss
            if not np.isfinite(loss) or loss > DIVERGED_LOSS_RATIO * first_loss:
                raise AvFuseError(f"fusion model diverged: loss {loss} at step {step}; "
                                  "lower fusion.learning_rate")
            if step % 10 == 0 or step == config.fusion.steps:
                accuracy = _motion_accuracy(model, batch)
                if accuracy >= 0.98:
                    break

        if len(normal_frames) >= 32:
            autoencoder = autoencoder_train(
                normal_frames, steps=config.anomaly.autoencoder_steps,
                learning_rate=config.anomaly.autoencoder_learning_rate, seed=seed,
            )

    # Written only once both have trained, so a diverged trainer leaves no file.
    model_path = out_dir / "fusion.bin"
    save_model(model_path, model, normalizer)
    ae_path = None
    if autoencoder is not None:
        ae_path = out_dir / "autoencoder.bin"
        anomaly_mod.save_autoencoder(ae_path, autoencoder)

    return {
        "model_path": str(model_path),
        "autoencoder_path": str(ae_path) if ae_path else None,
        "final_loss": loss,
        "training_accuracy": accuracy,
        "sequences": len(batch.motion),
    }


def _motion_accuracy(model, batch: TrainingBatch) -> float:
    """The share of ``batch``'s sequences whose motion argmax is their label, from one
    ``predict`` over all of them."""
    motion, _ = model.predict(batch.visual, batch.audio, batch.fused)
    return float(np.mean(motion.reshape(len(batch.motion), -1).argmax(axis=1) == batch.motion))
