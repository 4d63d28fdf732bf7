"""Staged runtime: chunked ingest, event log, artifacts, training.

Windows flow through ingest -> analyze -> detect -> tokenize -> fuse ->
score -> sink. One runner, :func:`run_stages`, drives every stage chain,
training included, on the calling thread, one chunk of ``CHUNK``
consecutive windows at a time: ingest reads a chunk's frames and audio
samples when the chunk starts and cuts the chunk into :class:`Run` records
of up to ``RUN`` consecutive windows, each stage takes the chunk's runs in
window order and fills its own columns of each in place, and the sink
appends each run's records to the event log. So memory stays flat in the
capture's length. Ingest keeps the last ``capacity`` windows and sheds the
rest unread; every drop is counted and ``ingested == processed + dropped``
holds exactly. Every stage takes a whole run, so that non-local means,
Horn-Schunck and the fusion forward each make one call per run, and a
window's stage latency is its share of its run's time. The first stage
that raises fails the run with an error naming the stage and the window
whose step failed, or the run's windows for a step over the whole run. The
sink writes the event log in the order it makes the records, which is
window order.
"""

from __future__ import annotations

import json
import time
from collections import deque
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from . import anomaly as anomaly_mod
from .anomaly import (
    METHODS,
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
from .io import Capture, write_pgm, write_wav
from .io import load_capture  # noqa: F401  perfbench/tracing.py wraps it here by name
from .scenario import Scenario
from .timebase import align_audio_to_frames  # noqa: F401  perfbench/tracing.py wraps it here by name
from .timebase import padded_window, validate_timestamps, window_span, window_starts
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

# The most consecutive windows one stage call takes. Larger stacks fall out of
# cache and make each window slower.
RUN = 4

# The windows the runner reads and takes through every stage at once. A multiple
# of RUN, so that runs, and fuse's groups of equal-length sequences, stay as they
# would be over the whole capture. Each chunk frees what its stages held, and
# glibc returns the top of the heap, so the next chunk pays about 1000 page
# faults (2-3 ms) to grow it again: 64 makes that 2% of a basic window, 16 made
# it 10% (BENCH_31.json measures 4, 8, 16 and 64).
CHUNK = 64

# The event log's name until the run ends; a run that fails leaves no event log.
PARTIAL_LOG = "events.jsonl.partial"


@dataclass
class Run:
    """Up to ``RUN`` consecutive windows from window ``index`` on: their
    timestamps, (B, h, w) raw frames and (B, n) audio samples. Each stage
    fills its own columns, one entry or row per window, in place."""

    index: int
    timestamps: list[float]
    raw: np.ndarray
    samples: np.ndarray
    preprocessed: np.ndarray | None = None
    flows: list[float] | None = None  # mean flow magnitudes; 0.0 where no flow runs
    wavelets: list[WaveletEnergy] | None = None
    stats: list[SpectralStats] | None = None
    detections: list[tuple] | None = None
    tracks: list[tuple] | None = None  # one event-log dict per live track
    visual_rows: np.ndarray | None = None
    audio_rows: np.ndarray | None = None
    motion_logits: np.ndarray | None = None
    event_logits: np.ndarray | None = None
    reports: list[AnomalyReport] | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def windows(self) -> range:
        return range(self.index, self.index + len(self))


class StageQueue:
    """Bounded FIFO with drop-oldest overflow, so a put never fails.

    The runner sheds by position instead (:func:`run_stages`); perfbench's
    tracer still wraps ``put`` by name."""

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
        self.weights = anomaly_mod.normalized_weights(config.anomaly.weights)
        self.export_dir = Path(export_dir) if export_dir else None
        # Horn-Schunck is most of analyze; skip it when nothing reads the flow.
        self._flow_read = (self.model.config.visual_features > FLOW_COLUMN
                           or self.export_dir is not None)

    # Stage functions, in pipeline order; each fills its columns of a run.

    def analyze(self, run: Run) -> None:
        """One NLM call on the run's frame stack and one Horn-Schunck call on
        its (previous, next) pairs, the first pair reaching back to the last
        frame of the run before; then one DWT call on the denoised stack and
        one spectral statistics call on the run's samples."""
        v = self.config.vision
        frames = preprocess_frames(run.raw, patch=v.nlm_patch, search=v.nlm_search,
                                   strength=v.nlm_strength)
        run.flows = [0.0] * len(run)
        if self._flow_read:
            # Each frame pairs with the one before it; the capture's first frame has none.
            known = frames if self._prev_frame is None else np.concatenate(
                [self._prev_frame[np.newaxis], frames])
            first = len(run) + 1 - len(known)
            if len(known) > 1:
                stacked = self.flow_estimator(known[:-1], known[1:])
                for i, field in enumerate(map(FlowField, stacked.u, stacked.v), start=first):
                    run.flows[i] = float(field.magnitude.mean())
                    if self.export_dir is not None:
                        export_flow_csv(self.export_dir / f"flow_{run.index + i:04d}.csv", field)
        self._prev_frame = frames[-1]
        run.preprocessed, run.wavelets = frames, dwt2_energy(frames)
        run.stats = spectral_stats(run.samples, self.sample_rate)

    def detect(self, run: Run) -> None:
        d = self.config.detector
        run.detections, run.tracks = [], []
        for window in run.windows:
            with _naming(window):
                merged = nms(scripted_detector(window, self.script, "fast", self.seed,
                                               d.confidence_floor), d.nms_iou_threshold)
                if d.dual:
                    accurate = nms(scripted_detector(window, self.script, "accurate", self.seed,
                                                     d.confidence_floor), d.nms_iou_threshold)
                    merged = cross_detector_merge(merged, accurate, d.cross_merge_iou)
                run.detections.append(tuple(merged))
                run.tracks.append(tuple(
                    {"id": t.track_id, "state": t.state.value, "x1": float(t.bbox.x1),
                     "y1": float(t.bbox.y1), "x2": float(t.bbox.x2), "y2": float(t.bbox.y2)}
                    for t in self.tracker.step(merged)))

    def tokenize(self, run: Run) -> None:
        """Each window's token rows, normalized as one (B, f) stack per modality."""
        c = self.model.config
        visual, audio = [], []
        for window, detections, wavelet, flow, stats in zip(
                run.windows, run.detections, run.wavelets, run.flows, run.stats):
            with _naming(window):
                visual.append(visual_row(detections, wavelet, flow)[:c.visual_features])
                audio.append(audio_row(stats)[:c.audio_features])
        run.visual_rows = self.normalizer.normalize_visual(np.array(visual))
        run.audio_rows = self.normalizer.normalize_audio(np.array(audio))

    def fuse(self, run: Run) -> None:
        """Each window's rows join the token deques in turn, and windows whose
        sequences have equal length share one ``predict``, the shorter warm-up
        sequences each alone. The advanced model's audio ensemble embeds each
        window's samples here, the one stage that reads the embed."""
        ensemble = self.model.ensemble
        sequences = []
        for window, visual, audio, samples in zip(run.windows, run.visual_rows, run.audio_rows,
                                                  run.samples):
            self._visual_rows.append(visual)
            self._audio_rows.append(audio)
            with _naming(window):
                fused = None if ensemble is None else ensemble.embed(samples, self.sample_rate)
            sequences.append((np.stack(self._visual_rows), np.stack(self._audio_rows), fused))
        motions, events = [], []
        for _, group in groupby(sequences, key=lambda sequence: len(sequence[0])):
            visual, audio, fused = zip(*group)
            fused = None if ensemble is None else np.stack(fused)
            motion, event = self.model.predict(np.stack(visual), np.stack(audio), fused)
            motions.append(motion.reshape(len(visual), -1))
            events.append(None if event is None else event.reshape(len(visual), -1))
        run.motion_logits = np.concatenate(motions)
        run.event_logits = None if events[0] is None else np.concatenate(events)

    def score(self, run: Run) -> None:
        """One (B, 4) block of the run's method scores, a column per method in
        ``METHODS`` order, and one ``combine_scores`` call over it."""
        cfg = self.config.anomaly
        block = np.zeros((len(run), len(METHODS)))
        block[:, 0] = zscore_score(self.mean_baseline, run.preprocessed)
        # Methods without a backing model score 0 at their configured weight
        # ("nothing detected") rather than being renormalized away, so one
        # saturated method cannot trigger a run on its own.
        if self.autoencoder is not None:
            block[:, 1] = autoencoder_score(self.autoencoder, run.preprocessed)
        block[:, 2] = audio_anomaly_score([s.energy for s in run.stats],
                                          [s.centroid_hz for s in run.stats],
                                          self.energy_baseline, self.centroid_baseline)
        contributing = [()] * len(run)
        if run.event_logits is not None:
            block[:, 3], flagged = event_anomaly_score(run.event_logits, self.anomaly_label_ids,
                                                       cfg.event_probability_threshold)
            contributing = [tuple(self.config.event_labels[i] for i in ids) for ids in flagged]
        run.reports = combine_scores(block, self.weights, cfg.threshold, contributing,
                                     run.timestamps)


class Sink:
    """Terminal stage: event records, artifact persistence, counters.

    Each run's records are appended to ``PARTIAL_LOG`` in ``out_dir``, so
    ``records`` holds one run's at most; :meth:`close` appends the rest and
    renames the log to ``events.jsonl``.
    """

    def __init__(self, out_dir: Path, sample_rate: int):
        self.out_dir = out_dir
        self.sample_rate = sample_rate
        self.partial_log = out_dir / PARTIAL_LOG
        self.partial_log.write_text("")
        self.records: list[dict] = []
        self.windows_processed = 0
        self.anomalies_triggered = 0
        self.artifact_errors = 0

    def log(self, t: float, window: int, kind: str, payload: dict) -> None:
        self.records.append({"t": t, "window": window, "kind": kind, "payload": payload})

    def __call__(self, run: Run) -> None:
        """Log each window of ``run``, then append the run's records to the log."""
        for i, window in enumerate(run.windows):
            with _naming(window):
                self._log_window(run, i)
        self.windows_processed += len(run)
        emit_event_log(self.records, self.partial_log)
        self.records.clear()

    def _log_window(self, run: Run, i: int) -> None:
        t, w, detections = run.timestamps[i], run.index + i, run.detections[i]
        self.log(t, w, "detection", {
            "count": len(detections),
            "boxes": [
                {"x1": float(d.bbox.x1), "y1": float(d.bbox.y1),
                 "x2": float(d.bbox.x2), "y2": float(d.bbox.y2),
                 "confidence": float(d.confidence), "class_id": int(d.class_id),
                 "source": d.source}
                for d in detections
            ],
        })
        self.log(t, w, "track", {"tracks": list(run.tracks[i])})
        motion = run.motion_logits[i]
        classification = {
            "motion_pred": int(np.argmax(motion)),
            "motion_logits": [float(x) for x in motion],
        }
        if run.event_logits is not None:
            classification["event_pred"] = int(np.argmax(run.event_logits[i]))
        self.log(t, w, "classification", classification)

        report = run.reports[i]
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
                persist_anomaly_artifact(report, run.preprocessed[i], run.samples[i],
                                         self.sample_rate, self.out_dir / "anomalies")
            except OSError:
                self.artifact_errors += 1  # artifact loss is logged, never fatal

    def close(self) -> Path:
        """Append what is left, then give the log its final name."""
        emit_event_log(self.records, self.partial_log)
        return self.partial_log.replace(self.out_dir / "events.jsonl")


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
    """Append ``records`` to ``path`` as line-delimited JSON, one record per
    line in the order given.

    :func:`run_pipeline` makes its records already ordered by (t, window,
    kind), so nothing is sorted and each run's records can be appended as
    soon as the sink has them: :func:`timebase.validate_timestamps` rejects
    frame timestamps that do not strictly increase; the runner takes the
    windows in ingest order, run after run, and the sink logs each
    window's detection, track, classification and anomaly records in that
    order; the metric records come last, stamped with the last window,
    which ingest never sheds.
    """
    path = Path(path)
    with path.open("a") as log:
        log.writelines(json.dumps(record, sort_keys=True) + "\n" for record in records)
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


class CaptureWindows(Sequence):
    """The aligned windows of an opened capture, read as :class:`Run` records.

    A slice, whose step must be 1, reads its windows' frames and audio
    samples then, the samples through one open file, and cuts them into runs
    of up to ``RUN`` windows from the slice's start; an index reads its
    window as a run of one.
    Nothing is kept between reads. Every frame must have frame 0's size,
    checked as it is read.
    """

    def __init__(self, capture: Capture, shape: tuple[int, ...]):
        self.capture = capture
        self.shape = shape
        self.window_len, self.starts = window_starts(capture.timestamps, capture.wav.n_samples,
                                                     capture.sample_rate, capture.start_s)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, key):
        if isinstance(key, slice):
            indices = range(*key.indices(len(self)))
            if indices.step != 1:  # runs hold consecutive windows
                raise InvalidInput(f"capture windows slice with step 1 only, got step {key.step}")
            return self._read(indices)
        index = range(len(self))[key]
        return self._read(range(index, index + 1))[0]

    def _read(self, indices: range) -> list[Run]:
        n_samples = self.capture.wav.n_samples
        bodies = self.capture.read_samples([window_span(self.starts[i], self.window_len, n_samples)
                                            for i in indices])
        runs = []
        for first in range(0, len(indices), RUN):
            part = indices[first:first + RUN]
            samples = [padded_window(i, body, self.starts[i], self.window_len).samples
                       for i, body in zip(part, bodies[first:first + RUN])]
            runs.append(Run(index=part[0], timestamps=[self.capture.timestamps[i] for i in part],
                            raw=np.stack([self._frame(i) for i in part]), samples=np.stack(samples)))
        return runs

    def _frame(self, index: int) -> np.ndarray:
        pixels = self.capture.read_frame(index)
        if pixels.shape != self.shape:
            raise InvalidInput(f"invalid burst: frame {index}: dimensions {pixels.shape} "
                               f"differ from frame 0 {self.shape}")
        return pixels

def open_capture(capture_dir: str | Path,
                 vision: VisionConfig) -> tuple[Scenario, Capture, CaptureWindows]:
    """Scenario, opened capture and its windows, each read when indexed.

    The manifest, the WAV header, the timestamps, frame 0 and every
    window's place in the clip are checked here, before any stage runs;
    frame 0 gives the size the DWT and NLM checks take and every frame must
    have. A ``vision.nlm_search`` wider than the frames is a config error.
    """
    capture_dir = Path(capture_dir)
    scenario_path = capture_dir / "scenario.json"
    if not scenario_path.exists():
        raise InvalidInput(f"missing scenario definition: {scenario_path}")
    scenario = Scenario.from_json(scenario_path)
    capture = Capture(capture_dir)
    validation = validate_timestamps(capture.timestamps)
    if not validation.ok:
        raise InvalidInput("invalid burst: " + "; ".join(validation.violations))
    shape = capture.read_frame(0).shape
    check_dwt_sides(*shape)
    try:
        check_nlm_search(vision.nlm_search, *shape)
    except InvalidInput as exc:
        raise InvalidConfig([f"vision.nlm_search: {exc} in {capture_dir}"]) from exc
    return scenario, capture, CaptureWindows(capture, shape)


class _WindowFailed(Exception):
    """A one-window step inside a stage over a run raised; its cause is the step's error."""

    def __init__(self, window: int):
        super().__init__(window)
        self.window = window


@contextmanager
def _naming(window: int):
    """Name ``window`` in any failure of the block."""
    try:
        yield
    except Exception as exc:
        raise _WindowFailed(window) from exc


def _windows(run: Run) -> str:
    if len(run) == 1:
        return f"window {run.index}"
    return f"windows {run.index}-{run.index + len(run) - 1}"


def run_stages(stages: list, windows: Sequence,
               capacity: int) -> tuple[int, dict[str, list[float]]]:
    """Take the last ``capacity`` of ``windows`` through ``(name, fn)`` stages,
    chunk by chunk.

    The first ``len(windows) - capacity`` windows are shed unread. The rest
    go in chunks of ``CHUNK``: slicing ``windows`` reads a chunk's windows
    when it starts and returns them as consecutive :class:`Run` records,
    each stage's ``fn`` takes every run of the chunk in window order and
    fills its columns in place, and the chunk is released after the last
    stage, all on the calling thread.

    The bytes do not depend on the chunk size: state crosses windows only
    through the stages' own state (the previous frame, the baselines, the
    token deques, the tracker), and each stage still sees every window in
    order. ``CHUNK`` is a multiple of ``RUN`` and chunks start at the
    first kept window, so each run, and each of fuse's groups of
    equal-length sequences, holds the windows it would over the whole
    capture at once.

    Returns the number of windows shed and each stage's latency per window
    in ms: each window's share of its run's time. The first stage that
    raises is re-raised as an :class:`AvFuseError` naming the stage and the
    run's windows, or the one window whose step failed.
    """
    shed = max(0, len(windows) - capacity)
    latencies: dict[str, list[float]] = {name: [] for name, _ in stages}
    for chunk_start in range(shed, len(windows), CHUNK):
        runs = windows[chunk_start:chunk_start + CHUNK]
        for name, fn in stages:
            for run in runs:
                start = time.perf_counter()
                try:
                    fn(run)
                except _WindowFailed as failed:
                    cause = failed.__cause__
                    raise AvFuseError(f"window {failed.window}: {name} stage failed: {cause}") from cause
                except Exception as exc:
                    raise AvFuseError(f"{_windows(run)}: {name} stage failed: {exc}") from exc
                latencies[name] += [(time.perf_counter() - start) * 1e3 / len(run)] * len(run)
        runs = run = None  # so the next chunk is read after this one is freed
    return shed, latencies


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

    ``runtime.queue_capacity`` is how many windows ingest keeps, the last
    ones, validated with the rest of the config before any file loads. Only
    ingest can drop, so every other stage reports 0 dropped. ``deterministic``
    keeps every window so nothing drops; with drops impossible the event log
    and artifacts are byte-identical across runs. A stage that raises fails
    the run with an :class:`AvFuseError` naming the window and the stage
    (exit code 2), and a frame that cannot be read fails it with an
    :class:`InvalidInput` naming the file; either way the run leaves no
    ``events.jsonl``, though the artifacts of runs the sink finished stay.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario, capture, windows = open_capture(capture_dir, config.vision)

    # Inference runs in float32 (see tensor): a model file is read as float32,
    # and the cast then reaches the untrained model and the ensemble.
    model_bundle = load_model(model_path, np.float32) if model_path else None
    autoencoder = anomaly_mod.load_autoencoder(autoencoder_path) if autoencoder_path else None
    context = PipelineContext(config, scenario, capture.sample_rate,
                              model_bundle=model_bundle, autoencoder=autoencoder,
                              export_dir=export_dir, seed=seed)
    context.model.cast_to_float32()
    if export_dir is not None:
        export_audio_features(capture.read_samples([(0, capture.wav.n_samples)])[0],
                              capture.sample_rate, Path(export_dir))

    sink = Sink(out_dir, capture.sample_rate)
    stages = [("analyze", context.analyze), ("detect", context.detect),
              ("tokenize", context.tokenize), ("fuse", context.fuse), ("score", context.score),
              ("sink", sink)]
    capacity = config.runtime.queue_capacity
    if deterministic:
        capacity = max(capacity, len(windows) + 1)
    try:
        dropped, latencies = run_stages(stages, windows, capacity)
    except BaseException:
        sink.partial_log.unlink(missing_ok=True)
        raise
    drops = dict.fromkeys(latencies, 0) | {"analyze": dropped}

    for name in latencies:
        sink.log(capture.timestamps[-1], len(windows) - 1, "metric", {
            "stage": name,
            "processed": len(latencies[name]),
            "dropped": drops[name],
        })

    log_path = sink.close()
    summary = RunSummary(
        windows_ingested=len(windows),
        windows_processed=sink.windows_processed,
        anomalies_triggered=sink.anomalies_triggered,
        drops=drops,
        stage_latency={name: percentiles(ms) for name, ms in latencies.items()},
        accounting_ok=len(windows) == sink.windows_processed + dropped,
        artifact_errors=sink.artifact_errors,
        log_path=str(log_path),
        deterministic=deterministic,
    )
    (out_dir / "summary.json").write_text(json.dumps(asdict(summary), indent=2) + "\n")
    return summary


def build_training_sequences(capture_dir: str | Path, config: Config, seed: int = 0):
    """Labeled burst-sized token sequences from a generated scenario.

    Runs the analyze, detect and tokenize stages over every window with a
    freshly built model, then a collecting step keeps each window's token
    rows, the normal windows' preprocessed frames and, for the advanced
    model, the ensemble embed of each burst's last window, the only one a
    burst reads. Tokens chunk into consecutive bursts, dropping a partial
    last one; each burst inherits the scenario's motion and event ground
    truth. Returns the :class:`TrainingBatch` of every burst, the
    preprocessed normal frames and the model, untrained.
    """
    scenario, capture, windows = open_capture(capture_dir, config.vision)
    context = PipelineContext(config, scenario, capture.sample_rate, seed=seed)
    chunk = config.fusion.burst_tokens
    ensemble = context.model.ensemble
    visual, audio, fused, normal_frames = [], [], [], []

    def collect(run: Run) -> None:
        visual.extend(run.visual_rows)
        audio.extend(run.audio_rows)
        for window, samples, frame in zip(run.windows, run.samples, run.preprocessed):
            with _naming(window):
                if ensemble is not None and (window + 1) % chunk == 0:
                    fused.append(ensemble.embed(samples, capture.sample_rate))
                if not scenario.is_injected(window):
                    normal_frames.append(frame)

    run_stages([("analyze", context.analyze), ("detect", context.detect),
                ("tokenize", context.tokenize), ("collect", collect)],
               windows, capacity=len(windows) + 1)

    spans = [range(start, start + chunk) for start in range(0, len(windows) - chunk + 1, chunk)]
    if not spans:
        raise InvalidConfig(["scenario too short to build any training sequence"])
    batch = TrainingBatch(
        visual=np.array([[visual[w] for w in span] for span in spans]),
        audio=np.array([[audio[w] for w in span] for span in spans]),
        motion=np.array([int(any(scenario.motion_label(w) for w in span)) for span in spans]),
        fused=None if ensemble is None else np.array(fused),
        event=np.array([next((scenario.event_label(w) for w in span if scenario.event_label(w)), 0)
                        for span in spans]),
    )
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
