"""Four anomaly scorers and their weighted combination, a run of windows at a time.

Every method emits a score in [0, 1] so the weighted combination stays
commensurable: z-scores are clamped at ``z / Z_CAP`` and reconstruction
error at ``mse / (10 x final training MSE)``. One :class:`RollingBaseline`
per scalar (frame mean, audio energy, spectral centroid) scores a run's
values against slices of one buffer and keeps each, anomalous or not. Each
frame of a (B, h, w) stack gets the frame-mean and reconstruction scores it
has alone, and :func:`combine_scores` weighs a (B, 4) block of method scores.
The autoencoder's weights come from a :class:`tensor.ParamStore` and train
through :func:`tensor.sgd_step`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import AvFuseError, InvalidInput, NotTrained
from .tensor import Tensor

Z_CAP = 6.0
STD_FLOOR = 1e-6
MSE_CAP_FACTOR = 10.0
MSE_CAP_FLOOR = 1e-6
GRID = 8  # frames pool onto a GRID x GRID block-mean grid, the autoencoder's input

METHODS = ("statistical", "reconstruction", "audio", "event")


class RollingBaseline:
    """The last ``capacity`` scalar observations, as one float64 array."""

    def __init__(self, capacity: int = 64):
        if capacity < 2:
            raise InvalidInput(f"baseline capacity must be >= 2, got {capacity}")
        self.capacity = capacity
        self.values = np.empty(0)

    def score(self, values) -> np.ndarray:
        """Clamped z-scores of ``values`` in order, each against the history before it,
        a slice of one buffer: the kept values, then ``values``. Fewer than two held
        values is warm-up: score 0."""
        kept = len(self.values)
        buffer = np.concatenate([self.values, np.asarray(values, dtype=np.float64).reshape(-1)])
        scores = np.zeros(len(buffer) - kept)
        for i, end in enumerate(range(kept, len(buffer))):
            history = buffer[max(0, end - self.capacity):end]
            if len(history) >= 2:
                z = abs(buffer[end] - history.mean()) / max(float(history.std()), STD_FLOOR)
                scores[i] = min(z / Z_CAP, 1.0)
        self.values = buffer[-self.capacity:]
        return scores


def zscore_score(baseline: RollingBaseline, frames: np.ndarray) -> float | np.ndarray:
    """:meth:`RollingBaseline.score` of one (h, w) frame's mean intensity, or
    the (B,) scores of each frame's of a (B, h, w) stack, scored in order."""
    stack = np.asarray(frames, dtype=np.float64)
    scores = baseline.score(stack.reshape(-1, stack.shape[-2] * stack.shape[-1]).mean(axis=1))
    return float(scores[0]) if stack.ndim == 2 else scores


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


def audio_anomaly_score(energies, centroids_hz, energy_baseline: RollingBaseline,
                        centroid_baseline: RollingBaseline) -> np.ndarray:
    """The larger of each window's energy and centroid scores; absolute z-scores catch
    drops (sudden silence) as well as bursts."""
    return np.maximum(energy_baseline.score(energies), centroid_baseline.score(centroids_hz))


def event_anomaly_score(event_logits: np.ndarray, anomaly_label_ids,
                        probability_threshold: float = 0.5
                        ) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Each (B, n) logit row's highest softmax probability on a known-anomalous event
    class, and the anomaly classes above ``probability_threshold``."""
    logits = np.asarray(event_logits, dtype=np.float64)
    ids = sorted(set(int(i) for i in anomaly_label_ids))
    if any(i < 0 or i >= logits.shape[1] for i in ids):
        raise InvalidInput(f"anomaly label ids {ids} outside [0, {logits.shape[1]})")
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    anomalous = probs[:, ids]
    flagged = [tuple(i for i, above in zip(ids, row) if above)
               for row in anomalous > probability_threshold]
    return anomalous.max(axis=1, initial=0.0), flagged  # no anomaly class scores 0


@dataclass(frozen=True)
class AnomalyReport:
    method_scores: dict[str, float]
    combined: float
    triggered: bool
    anomaly_type: str
    contributing_events: tuple[str, ...]
    timestamp: float


def normalized_weights(weights: dict[str, float]) -> np.ndarray:
    """The (4,) weights in ``METHODS`` order over their sum; a missing method weighs 0.
    ``Config.validate`` has rejected every map this cannot divide."""
    values = np.array([float(weights.get(m, 0.0)) for m in METHODS])
    return values / values.sum()


def combine_scores(scores: np.ndarray, weights: np.ndarray, threshold: float,
                   contributing_events: list[tuple[str, ...]],
                   timestamps: list[float]) -> list[AnomalyReport]:
    """One report per row of a (B, 4) block of method scores, clamped to [0, 1] and weighed
    by ``weights`` from :func:`normalized_weights`. A report's type names the method with the
    largest weighted contribution (first of ``METHODS`` on ties)."""
    clipped = np.clip(scores, 0.0, 1.0)
    contributions = weights * clipped
    return [
        AnomalyReport(method_scores=dict(zip(METHODS, row)), combined=combined,
                      triggered=combined >= threshold, anomaly_type=METHODS[dominant],
                      contributing_events=tuple(events), timestamp=timestamp)
        for row, combined, dominant, events, timestamp in zip(
            clipped.tolist(), contributions.sum(axis=1).tolist(),
            contributions.argmax(axis=1).tolist(), contributing_events, timestamps)
    ]
