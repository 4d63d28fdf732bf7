"""Four anomaly scorers and their weighted combination.

Every method emits a score in [0, 1] so the weighted combination stays
commensurable: z-scores are clamped at ``z / Z_CAP`` and reconstruction
error at ``mse / (10 x final training MSE)``. One :class:`RollingBaseline`
per scalar (frame mean, audio energy, spectral centroid) always appends the
newest observation, anomalous or not. The frame-mean and reconstruction
scores take one frame or a (B, h, w) stack, whose means and block means are
each one frame's own reduction, so each frame scores the bytes it has alone.
The autoencoder's weights come from a :class:`tensor.ParamStore` and train
through :func:`tensor.sgd_step`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import AvFuseError, InvalidConfig, InvalidInput, NotTrained
from .tensor import Tensor

Z_CAP = 6.0
STD_FLOOR = 1e-6
MSE_CAP_FACTOR = 10.0
MSE_CAP_FLOOR = 1e-6
GRID = 8  # frames pool onto a GRID x GRID block-mean grid, the autoencoder's input

METHODS = ("statistical", "reconstruction", "audio", "event")


class RollingBaseline:
    """Bounded history of scalar observations with mean/std queries."""

    def __init__(self, capacity: int = 64):
        if capacity < 2:
            raise InvalidInput(f"baseline capacity must be >= 2, got {capacity}")
        self.values: deque[float] = deque(maxlen=capacity)

    def score(self, value: float) -> float:
        """Clamped z-score of ``value`` against the history, then append it.

        Fewer than two held values is warm-up: score 0, still appended.
        """
        score = 0.0
        if len(self.values) >= 2:
            history = np.array(self.values)
            z = abs(value - history.mean()) / max(float(history.std()), STD_FLOOR)
            score = min(z / Z_CAP, 1.0)
        self.values.append(float(value))
        return score


def zscore_score(baseline: RollingBaseline, frames: np.ndarray) -> float | list[float]:
    """:meth:`RollingBaseline.score` of one (h, w) frame's mean intensity, or
    the list of each frame's of a (B, h, w) stack, scored in order."""
    stack = np.asarray(frames, dtype=np.float64)
    means = stack.reshape(-1, stack.shape[-2] * stack.shape[-1]).mean(axis=1)
    scores = [baseline.score(float(mean)) for mean in means]
    return scores[0] if stack.ndim == 2 else scores


def block_mean_downsample(pixels: np.ndarray) -> np.ndarray:
    """Average-pool one frame, or each frame of a (B, h, w) stack, onto a GRID x GRID grid."""
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim not in (2, 3) or img.shape[-2] < GRID or img.shape[-1] < GRID:
        raise InvalidInput(f"frame must be at least {GRID}x{GRID}, got {img.shape}")
    h, w = img.shape[-2:]
    row_edges = (np.arange(GRID + 1) * h) // GRID
    col_edges = (np.arange(GRID + 1) * w) // GRID
    rows = np.add.reduceat(img, row_edges[:-1], axis=-2)
    cells = np.add.reduceat(rows, col_edges[:-1], axis=-1)
    counts = np.outer(np.diff(row_edges), np.diff(col_edges))
    return cells / counts


@dataclass
class DenseAutoencoder:
    """64 -> 16 -> 64 reconstruction model over 8x8 block-mean frames.

    GELU hidden activation, linear output; inputs are intensity grids
    scaled to [0, 1]. ``mse_cap`` is frozen at training time.
    """

    seed: int = 0
    training_mse: float | None = None

    def __post_init__(self):
        store = tz.ParamStore(self.seed)
        self.enc = store.linear("enc", GRID * GRID, 16)
        self.dec = store.linear("dec", 16, GRID * GRID)
        self.params = store.params

    def _forward(self, x: Tensor) -> Tensor:
        return tz.feed_forward(x, self.enc, self.dec)

    def reconstruct(self, vector: np.ndarray) -> np.ndarray:
        with tz.inference():
            return self._forward(Tensor(vector.reshape(1, -1))).data.reshape(-1)

    @property
    def mse_cap(self) -> float:
        if self.training_mse is None:
            raise NotTrained("autoencoder has not been trained")
        return max(MSE_CAP_FACTOR * self.training_mse, MSE_CAP_FLOOR)


def frame_to_vector(frames: np.ndarray) -> np.ndarray:
    """A frame's block means scaled to [0, 1], flat; a (B, h, w) stack gives (B, GRID^2)."""
    cells = block_mean_downsample(frames)
    return cells.reshape(*cells.shape[:-2], -1) / 255.0


def autoencoder_train(frames: list[np.ndarray], steps: int, learning_rate: float,
                      seed: int = 0) -> DenseAutoencoder:
    """Fit the reconstruction model on normal frames by full-batch descent.

    Raises :class:`AvFuseError` at the first step whose loss is not finite.
    """
    if len(frames) < 32:
        raise InvalidInput(f"need at least 32 training frames, got {len(frames)}")
    data = np.stack([frame_to_vector(f) for f in frames])
    model = DenseAutoencoder(seed=seed)
    x = Tensor(data)
    inv_n = 1.0 / data.size
    for step in range(1, steps + 1):
        diff = tz.sub(model._forward(x), x)
        loss = tz.scale(tz.sum_all(tz.mul(diff, diff)), inv_n)
        value = tz.sgd_step(model.params.values(), loss, learning_rate)
        if not np.isfinite(value):
            raise AvFuseError(f"autoencoder diverged: loss {value} at step {step}; "
                              "lower anomaly.autoencoder_learning_rate")
    recon = model._forward(Tensor(data)).data
    model.training_mse = float(np.mean((recon - data) ** 2))
    return model


def autoencoder_score(model: DenseAutoencoder, frames: np.ndarray) -> float | list[float]:
    """Reconstruction error scaled by the frozen training cap, clamped to 1: of one
    (h, w) frame, or the list of each frame's of a (B, h, w) stack.

    The block means are taken over the stack at once, but each frame is
    reconstructed alone: a stacked product can round differently.
    """
    vectors = frame_to_vector(frames)
    scores = []
    for vector in vectors.reshape(-1, GRID * GRID):
        recon = model.reconstruct(vector)
        mse = float(np.mean((recon - vector) ** 2))
        scores.append(min(mse / model.mse_cap, 1.0))
    return scores[0] if vectors.ndim == 1 else scores


def save_autoencoder(path, model: DenseAutoencoder) -> None:
    if model.training_mse is None:
        raise NotTrained("refusing to persist an untrained autoencoder")
    tz.save(path, model.params, {"meta.training_mse": np.array([[model.training_mse]])})


def load_autoencoder(path) -> DenseAutoencoder:
    """Rebuild a trained autoencoder; a malformed file raises :class:`InvalidInput`."""
    return tz.load(path, lambda: DenseAutoencoder(
        training_mse=float(tz.read("meta.training_mse", (1, 1))[0, 0])))


def audio_anomaly_score(energy: float, centroid_hz: float, energy_baseline: RollingBaseline,
                        centroid_baseline: RollingBaseline) -> float:
    """Max of the energy and centroid :meth:`RollingBaseline.score` values.

    Absolute z-scores catch drops (sudden silence) as well as bursts.
    """
    return max(energy_baseline.score(energy), centroid_baseline.score(centroid_hz))


@dataclass(frozen=True)
class EventScore:
    score: float
    label_ids: tuple[int, ...]


def event_anomaly_score(
    event_logits: np.ndarray,
    anomaly_label_ids,
    probability_threshold: float = 0.5,
) -> EventScore:
    """Softmax probability mass on known-anomalous event classes.

    Score is the single highest anomaly-class probability; ``label_ids``
    lists every anomaly class above the probability threshold.
    """
    logits = np.asarray(event_logits, dtype=np.float64).reshape(-1)
    ids = sorted(set(int(i) for i in anomaly_label_ids))
    if any(i < 0 or i >= len(logits) for i in ids):
        raise InvalidInput(f"anomaly label ids {ids} outside [0, {len(logits)})")
    if not ids:
        return EventScore(0.0, ())
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    flagged = tuple(i for i in ids if probs[i] > probability_threshold)
    return EventScore(float(max(probs[i] for i in ids)), flagged)


@dataclass(frozen=True)
class AnomalyReport:
    method_scores: dict[str, float]
    combined: float
    triggered: bool
    anomaly_type: str
    contributing_events: tuple[str, ...]
    timestamp: float


def combine_scores(
    scores: dict[str, float],
    weights: dict[str, float],
    threshold: float = 0.5,
    contributing_events: tuple[str, ...] = (),
    timestamp: float = 0.0,
) -> AnomalyReport:
    """Weighted combination with weights normalized to sum 1.

    The report's ``anomaly_type`` names the method with the largest
    weighted contribution (first of ``METHODS`` on ties).
    """
    unknown = set(scores) - set(METHODS)
    if unknown:
        raise InvalidConfig([f"unknown score methods: {sorted(unknown)}"])
    weight_values = np.array([float(weights.get(m, 0.0)) for m in METHODS])
    if np.any(weight_values < 0.0):
        raise InvalidConfig(["anomaly weights must be non-negative"])
    with np.errstate(over="ignore"):
        total = weight_values.sum()
    if not np.isfinite(total):
        raise InvalidConfig(["anomaly weights must sum to a finite number"])
    if total <= 0.0:
        raise InvalidConfig(["all anomaly weights are zero"])
    weight_values /= total
    score_values = np.array([float(np.clip(scores.get(m, 0.0), 0.0, 1.0)) for m in METHODS])
    contributions = weight_values * score_values
    combined = float(contributions.sum())
    dominant = METHODS[int(np.argmax(contributions))]
    return AnomalyReport(
        method_scores={m: float(s) for m, s in zip(METHODS, score_values)},
        combined=combined,
        triggered=combined >= threshold,
        anomaly_type=dominant,
        contributing_events=tuple(contributing_events),
        timestamp=timestamp,
    )
