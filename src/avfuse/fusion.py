"""Token construction, audio-ensemble fusion, and the two cross-modal models.

A run's visual tokens are the (B, 4) rows of :func:`visual_rows`; its audio
tokens are the (B, 5) rows of :func:`audio_dsp.spectral_stats`.
The basic model projects visual and audio tokens to a shared 128-dim space,
combines them by residual addition and runs a 2-layer self-attention encoder
(4 heads) into a binary motion head. The advanced model keeps the streams
separate at 256 dims, adds learned positional embeddings, folds a fused
audio-ensemble embedding into the audio stream, and alternates bidirectional
cross-attention (visual queries over audio keys/values and vice versa) with
per-stream feed-forward blocks across 4 layers of 8 heads, ending in motion
and 32-way event heads.

Both models keep one contract, written once in :class:`FusionModel`, so
callers never ask which one they hold:

- ``config.visual_features`` / ``config.audio_features``: how many leading
  columns of the visual / audio token rows the model reads;
- ``ensemble``: the :class:`AudioEnsembleFusion` whose ``embed`` gives the
  per-window fused audio vector, or ``None`` when the model reads none;
- ``forward(visual, audio, fused=None)``: the ``(motion, event)`` logit
  tensors, one row per sequence, ``event`` ``None`` for a model without an
  event head; the only method a model writes itself;
- ``predict(visual, audio, fused=None)``: those logits flat, recording no
  graph;
- ``loss(batch)``: the mean training loss of a :class:`TrainingBatch`,
  one graph for all its sequences.

Only :func:`build_model` and the save/load kind table name a model kind.
Each kind has the one shape above, fixed in its config record: a model
file records it and :func:`load_model` accepts no other.
Every weight but the ensemble's fixed reduction lives in a
:class:`tensor.ParamStore` and :func:`train_step` updates them through
:func:`tensor.sgd_step`.

``forward`` runs over the blocks the model's store returned. It takes
(n, f) token arrays for one sequence, (B, n, f) arrays for a batch of B,
which it stacks as B row blocks of n rows, or lists of B (n_b, f) arrays
for B sequences of any lengths, stacked in order as row blocks of their
own lengths (see :mod:`tensor`); each sequence attends, pools and takes
positional rows as it would alone, with no padding. Both models run one
:func:`_encoder_layer`, the basic model within its stream, the advanced
model across streams. Every attention block is a single
:func:`tensor.attention` call over all its heads and row blocks, in
training and at inference alike; ``predict`` runs the forward inside
:func:`tensor.inference`, so it records no graph. The pipeline's fuse stage
predicts each run of windows as one list, the shorter warm-up sequences
included. OpenBLAS may round a matrix product differently by its row count
(a (1, k) head row takes another path than a (B, k) block), so a batched
logit may move by about 1e-6 of its row's largest magnitude (tested to
1e-5).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import tensor as tz
from .audio_dsp import MEL_BANDS, mel_spectrogram, stft
from .config import MAX_TOKENS, FusionConfig
from .detect_track import Detection
from .errors import InvalidInput
from .tensor import Tensor

EMBED_DIM = 768
FUSED_DIM = 256
ENSEMBLE_MODELS = ("general", "speech", "scene")


FLOW_COLUMN = 3  # the flow magnitude's column in visual_rows


def visual_rows(detections: list[tuple[Detection, ...]], wavelets: np.ndarray,
                flows: np.ndarray) -> np.ndarray:
    """Each window's (bbox count, mean confidence, wavelet energy, flow magnitude)
    as one (B, 4) array, from its detections, its (7,) ``dwt2_energy`` row and
    its mean flow magnitude.

    The wavelet feature is the sum of the window's ``dwt2_energy`` row.
    """
    rows = np.empty((len(detections), 4))
    rows[:, 0] = [len(window) for window in detections]
    rows[:, 1] = [np.mean([d.confidence for d in window]) if window else 0.0
                  for window in detections]
    rows[:, 2] = wavelets.sum(axis=1)
    rows[:, FLOW_COLUMN] = flows
    return rows


class TokenNormalizer:
    """Per-feature z-normalization fitted on a training scenario.

    Raw features mix counts with Hz-scale values; without this the
    projections would be dominated by the largest unit.
    """

    def __init__(self, visual_mean, visual_std, audio_mean, audio_std):
        self.visual_mean = np.asarray(visual_mean, dtype=np.float64)
        self.visual_std = np.asarray(visual_std, dtype=np.float64)
        self.audio_mean = np.asarray(audio_mean, dtype=np.float64)
        self.audio_std = np.asarray(audio_std, dtype=np.float64)
        for name, std in (("norm.visual_std", self.visual_std), ("norm.audio_std", self.audio_std)):
            if not np.all(std > 0.0):
                raise InvalidInput(f"{name}: normalizer std must be positive")

    @classmethod
    def fit(cls, visual: np.ndarray, audio: np.ndarray) -> "TokenNormalizer":
        """Fitted on every token row of (B, n, f) or (n, f) visual and audio arrays."""
        visual = visual.reshape(-1, visual.shape[-1])
        audio = audio.reshape(-1, audio.shape[-1])
        return cls(
            visual.mean(axis=0), np.maximum(visual.std(axis=0), 1e-8),
            audio.mean(axis=0), np.maximum(audio.std(axis=0), 1e-8),
        )

    @classmethod
    def identity(cls, visual_features: int, audio_features: int) -> "TokenNormalizer":
        return cls(np.zeros(visual_features), np.ones(visual_features),
                   np.zeros(audio_features), np.ones(audio_features))

    def normalize_visual(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.visual_mean) / self.visual_std

    def normalize_audio(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.audio_mean) / self.audio_std

    def state(self) -> dict[str, np.ndarray]:
        return {
            "norm.visual_mean": self.visual_mean, "norm.visual_std": self.visual_std,
            "norm.audio_mean": self.audio_mean, "norm.audio_std": self.audio_std,
        }


def stub_audio_embeddings(samples, sample_rate: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 768-dim stand-ins for the three pretrained audio models.

    Mel-spectrogram band statistics pass through a fixed random projection
    seeded per model identity, giving three distinct but repeatable views of
    the same window.
    """
    samples = np.asarray(samples, dtype=np.float64)
    window = 1 << int(np.log2(max(2, min(512, len(samples)))))
    spec = stft(samples, window, window // 2, sample_rate)
    bands = np.log1p(mel_spectrogram(spec))
    stats = np.concatenate([bands.mean(axis=0), bands.std(axis=0)])  # 2 * MEL_BANDS values

    return tuple(np.tanh(projection @ stats) for projection in _ensemble_projections())


@lru_cache(maxsize=None)
def _ensemble_projections() -> tuple[np.ndarray, ...]:
    """The fixed (EMBED_DIM, 2 * MEL_BANDS) projection of each ensemble model.

    Drawn on first use and read-only, because every window and thread shares them.
    """
    width = 2 * MEL_BANDS
    projections = []
    for index in range(len(ENSEMBLE_MODELS)):
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, index]))
        projection = rng.normal(size=(EMBED_DIM, width)) / np.sqrt(width)
        projection.setflags(write=False)
        projections.append(projection)
    return tuple(projections)


class AudioEnsembleFusion:
    """Fixed linear reduction of three concatenated 768-dim embeddings to 256.

    A stand-in like the embeddings, so it never trains: a random-features map
    (Rahimi & Recht, NIPS 2007).
    """

    @cached_property
    def weight(self) -> np.ndarray:
        """uniform(+-1/sqrt(fan_in)) from seed 1, drawn on first use, so a load draws nothing."""
        bound = 1.0 / np.sqrt(3 * EMBED_DIM)
        return np.random.default_rng(1).uniform(-bound, bound, size=(3 * EMBED_DIM, FUSED_DIM))

    def fuse(self, e1, e2, e3) -> np.ndarray:
        """The 256-dim fused vector of three 768-dim embeddings."""
        inputs = [np.asarray(e, dtype=self.weight.dtype).reshape(-1) for e in (e1, e2, e3)]
        for i, e in enumerate(inputs):
            if e.size != EMBED_DIM:
                raise InvalidInput(f"ensemble input {i} must have {EMBED_DIM} values")
        return (np.concatenate(inputs).reshape(1, -1) @ self.weight).reshape(-1)

    def embed(self, samples, sample_rate: int) -> np.ndarray:
        """The fused vector of one audio window's three stand-in embeddings."""
        return self.fuse(*stub_audio_embeddings(samples, sample_rate))


def _token_arrays(model, visual, audio) -> tuple[Tensor, Tensor, int | list[int], list[int]]:
    """Both token arrays as row-block tensors of the model's dtype, checked against its
    widths, the ``blocks`` of their rows and each sequence's token count.

    (B, n, f) arrays are B sequences of n tokens, stacked as B*n rows in B
    blocks; lists of B (n_b, f) arrays are B sequences of any lengths,
    stacked in order, and the lengths are the blocks; an (n, f) array is one
    sequence.
    """
    config = model.config
    lengths = None
    if isinstance(visual, list):
        lengths = [len(sequence) for sequence in visual]
        if [len(sequence) for sequence in audio] != lengths:
            raise InvalidInput(f"token counts differ: visual {lengths}, "
                               f"audio {[len(sequence) for sequence in audio]}")
        try:
            visual, audio = np.concatenate(visual), np.concatenate(audio)
        except ValueError as exc:
            raise InvalidInput(f"token sequences do not stack: {exc}") from exc
    visual = np.atleast_2d(np.asarray(visual, dtype=model.dtype))
    audio = np.atleast_2d(np.asarray(audio, dtype=model.dtype))
    if visual.ndim > 3 or audio.ndim > 3:
        raise InvalidInput(f"token arrays must be (n, f) or (B, n, f): "
                           f"visual {visual.shape}, audio {audio.shape}")
    if visual.shape[:-1] != audio.shape[:-1] or 0 in visual.shape[:-1]:
        raise InvalidInput(
            f"token counts differ or empty: visual {visual.shape}, audio {audio.shape}"
        )
    if visual.shape[-1] != config.visual_features or audio.shape[-1] != config.audio_features:
        raise InvalidInput(
            f"expected {config.visual_features}/{config.audio_features} features, "
            f"got {visual.shape[-1]}/{audio.shape[-1]}"
        )
    blocks = lengths or (visual.shape[0] if visual.ndim == 3 else 1)
    if lengths is None:
        lengths = [visual.shape[-2]] * blocks
    return (Tensor(visual.reshape(-1, visual.shape[-1])),
            Tensor(audio.reshape(-1, audio.shape[-1])), blocks, lengths)


def _attention_block(store, prefix: str, dim: int) -> tuple:
    """The (q, k, v, out) projections of one attention block, created q, v, out, k.

    No key bias: a constant added to every key shifts each query's scores
    uniformly, which the row softmax cancels, leaving a dead parameter.
    """
    q, v, out = (store.linear(f"{prefix}.{part}", dim, dim) for part in ("q", "v", "out"))
    return q, store.make(f"{prefix}.k.weight", dim, (dim, dim)), v, out


def _encoder_layer(block, x: Tensor, context: Tensor, heads: int, blocks: int) -> Tensor:
    """Attention of ``x`` over ``context``, then a feed-forward, each inside residual + layer norm.

    ``block`` is ((q, k, v, out), attention norm, feed-forward, feed-forward norm);
    each of the ``blocks`` row blocks of ``x`` attends within its own block of ``context``.
    """
    (q, k, v, out), attention_norm, ffn, ffn_norm = block
    merged = tz.attention(tz.linear(x, q), tz.matmul(context, k), tz.linear(context, v),
                          heads, blocks)
    x = tz.layer_norm(tz.add(x, tz.linear(merged, out)), *attention_norm)
    return tz.layer_norm(tz.add(x, tz.feed_forward(x, *ffn)), *ffn_norm)


def _cross_entropy(kind: str, logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of ``logits`` rows against labels, each checked to be a class index."""
    if labels is None:
        raise InvalidInput(f"no {kind} labels for the model's {kind} head")
    classes = logits.shape[1]
    for label in labels:
        if not 0 <= label < classes:
            raise InvalidInput(f"{kind} label {label} outside [0, {classes})")
        if label != int(label):
            raise InvalidInput(f"{kind} label {label} is not an integer")
    return tz.cross_entropy(logits, labels)


class FusionModel:
    """The contract both models share; each defines only ``__init__`` and ``forward``."""

    ensemble: AudioEnsembleFusion | None = None

    def predict(self, visual: np.ndarray, audio: np.ndarray,
                fused=None) -> tuple[np.ndarray, np.ndarray | None]:
        """Flat motion and event logits, the second ``None`` without an event head."""
        with tz.inference():
            motion, event = self.forward(visual, audio, fused)
        return motion.data.reshape(-1), None if event is None else event.data.reshape(-1)

    def loss(self, batch: TrainingBatch) -> Tensor:
        """Mean motion (plus mean event) cross-entropy of ``batch``'s sequences."""
        motion, event = self.forward(batch.visual, batch.audio, batch.fused)
        loss = _cross_entropy("motion", motion, batch.motion)
        if event is None:
            return loss
        return tz.add(loss, _cross_entropy("event", event, batch.event))

    def parameters(self) -> list[Tensor]:
        return list(self.store.params.values())

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the weights; ``forward`` casts its inputs to it."""
        return self.proj_visual[0].data.dtype

    def cast_to_float32(self) -> None:
        """Cast every parameter and the ensemble's fixed reduction to float32 in place.

        Inference then runs in float32 (see :mod:`tensor`). One tensor is
        cast at a time, so the float64 and float32 copies of the whole model
        never coexist, and a tensor that is float32 already, as after
        ``load_model(path, np.float32)``, is left as it is. A parameter too
        large for float32 raises :class:`InvalidInput` naming its tensor.
        """
        for name, tensor in self.store.params.items():
            tensor.data = tz.cast(name, tensor.data, np.float32)
        if self.ensemble is not None:
            self.ensemble.weight = self.ensemble.weight.astype(np.float32, copy=False)


@dataclass(frozen=True)
class BasicFusionConfig:
    hidden: int = 128
    layers: int = 2
    heads: int = 4
    ffn_hidden: int = 512
    visual_features: int = 3
    audio_features: int = 4
    motion_classes: int = 2


class BasicFusionModel(FusionModel):
    """Shared-stream encoder for binary motion classification.

    No positional embeddings: attention plus mean pooling makes predictions
    invariant to token order, which the tests rely on.
    """

    config = BasicFusionConfig()

    def __init__(self, seed: int = 0):
        c = self.config
        self.store = store = tz.ParamStore(seed)
        self.proj_visual = store.linear("proj.visual", c.visual_features, c.hidden)
        self.proj_audio = store.linear("proj.audio", c.audio_features, c.hidden)
        self.layers = [(_attention_block(store, f"enc{layer}.attn", c.hidden),
                        store.layer_norm(f"enc{layer}.ln1", c.hidden),
                        store.feed_forward(f"enc{layer}.ffn", c.hidden, c.ffn_hidden),
                        store.layer_norm(f"enc{layer}.ln2", c.hidden))
                       for layer in range(c.layers)]
        self.head_motion = store.linear("head.motion", c.hidden, c.motion_classes)

    def forward(self, visual: np.ndarray, audio: np.ndarray, fused=None) -> tuple[Tensor, None]:
        """Motion logits (B x 2), one row per token sequence, and no event logits.

        ``fused`` is not read.
        """
        visual, audio, blocks, _ = _token_arrays(self, visual, audio)
        x = tz.add(tz.linear(visual, self.proj_visual), tz.linear(audio, self.proj_audio))
        for block in self.layers:
            x = _encoder_layer(block, x, x, self.config.heads, blocks)
        return tz.linear(tz.mean(x, blocks), self.head_motion), None


@dataclass(frozen=True)
class AdvancedFusionConfig:
    hidden: int = FUSED_DIM  # the fused embedding enters the audio stream at this width
    layers: int = 4
    heads: int = 8
    ffn_hidden: int = 1024
    visual_features: int = 4
    audio_features: int = 5
    motion_classes: int = 2
    event_classes: int = 32
    max_tokens: int = MAX_TOKENS


class AdvancedFusionModel(FusionModel):
    """Bidirectional cross-attention fusion with motion and event heads.

    Each layer attends visual queries over audio keys/values and audio
    queries over visual keys/values (both reading the pre-update streams),
    then applies per-stream feed-forward blocks; every sublayer is wrapped
    in residual + layer norm. The fused ensemble embedding enters as a
    broadcast additive bias on the projected audio tokens before layer 1.
    """

    config = AdvancedFusionConfig()

    def __init__(self, seed: int = 0):
        c = self.config
        self.store = store = tz.ParamStore(seed)
        self.proj_visual = store.linear("proj.visual", c.visual_features, c.hidden)
        self.proj_audio = store.linear("proj.audio", c.audio_features, c.hidden)
        self.pos_visual = store.make("pos.visual", c.hidden, (c.max_tokens, c.hidden))
        self.pos_audio = store.make("pos.audio", c.hidden, (c.max_tokens, c.hidden))
        self.layers = []  # (visual block, audio block) per layer
        for layer in range(c.layers):
            va = _attention_block(store, f"xattn{layer}.va", c.hidden)  # visual queries
            av = _attention_block(store, f"xattn{layer}.av", c.hidden)  # audio queries
            ln_v, ln_a = (store.layer_norm(f"xattn{layer}.ln_{s}", c.hidden) for s in "va")
            ffn_v, ffn_a = (store.feed_forward(f"ffn{layer}.{s}", c.hidden, c.ffn_hidden)
                            for s in "va")
            out_v, out_a = (store.layer_norm(f"ffn{layer}.ln_{s}", c.hidden) for s in "va")
            self.layers.append(((va, ln_v, ffn_v, out_v), (av, ln_a, ffn_a, out_a)))
        self.head_motion = store.linear("head.motion", 2 * c.hidden, c.motion_classes)
        self.head_event = store.linear("head.event", 2 * c.hidden, c.event_classes)
        self.ensemble = AudioEnsembleFusion()

    def forward(self, visual: np.ndarray, audio: np.ndarray, fused=None) -> tuple[Tensor, Tensor]:
        """Motion and event logit tensors, one row per token sequence.

        ``fused`` holds one FUSED_DIM vector per sequence; ``None`` reads as zeros.
        """
        visual, audio, blocks, lengths = _token_arrays(self, visual, audio)
        c = self.config
        n_tokens = max(lengths)
        if n_tokens > c.max_tokens:
            raise InvalidInput(f"{n_tokens} tokens exceed positional table of {c.max_tokens}")
        fused = np.asarray(np.zeros((len(lengths), FUSED_DIM)) if fused is None else fused,
                           self.dtype)
        if fused.size != len(lengths) * FUSED_DIM:
            raise InvalidInput(f"fused embedding must be {FUSED_DIM}-dim per sequence, "
                               f"got shape {fused.shape} for {len(lengths)} sequences")
        # The fused vector is a constant input: repeat it onto every token of its sequence.
        fused = Tensor(np.repeat(fused.reshape(-1, FUSED_DIM), lengths, axis=0))

        # Each sequence's tokens take the positional rows from row 0 on.
        v = tz.add_bias(tz.linear(visual, self.proj_visual),
                        tz.slice_rows(self.pos_visual, 0, n_tokens), blocks)
        a = tz.add_bias(tz.linear(audio, self.proj_audio),
                        tz.slice_rows(self.pos_audio, 0, n_tokens), blocks)
        a = tz.add_bias(a, fused)
        for visual_block, audio_block in self.layers:
            # Both attentions read the streams as they were before this layer.
            v, a = (_encoder_layer(visual_block, v, a, c.heads, blocks),
                    _encoder_layer(audio_block, a, v, c.heads, blocks))
        pooled = tz.concat([tz.mean(v, blocks), tz.mean(a, blocks)])
        return tz.linear(pooled, self.head_motion), tz.linear(pooled, self.head_event)


@dataclass(frozen=True)
class TrainingBatch:
    """B labeled sequences of n tokens, stacked: (B, n, f) token arrays, (B,) labels.

    ``fused`` (B, FUSED_DIM) and ``event`` are only read by the advanced
    model; its ``forward`` reads a missing ``fused`` as zeros.
    """

    visual: np.ndarray
    audio: np.ndarray
    motion: np.ndarray
    fused: np.ndarray | None = None
    event: np.ndarray | None = None


def build_model(f: FusionConfig) -> FusionModel:
    """Fresh model of the kind ``f`` asks for, seeded by ``f.seed``."""
    model_cls = AdvancedFusionModel if f.model == "advanced" else BasicFusionModel
    return model_cls(seed=f.seed)


def train_step(model, batch: TrainingBatch, learning_rate: float) -> float:
    """One full-batch gradient step on ``model.loss(batch)``; returns that loss.

    ``learning_rate`` 0 reports the loss without updating.
    """
    return tz.sgd_step(model.parameters(), model.loss(batch), learning_rate)


# meta.arch of a saved model is its index in this table, then its config's
# fields in declaration order.
MODEL_KINDS = (BasicFusionModel, AdvancedFusionModel)
ARCH_RECORDS = tuple([kind, *astuple(cls.config)] for kind, cls in enumerate(MODEL_KINDS))


# The float64 records save_model writes after the parameters.
RECORDS = ("norm.visual_mean", "norm.visual_std", "norm.audio_mean", "norm.audio_std", "meta.arch")


def save_model(path: str | Path, model, normalizer: TokenNormalizer) -> None:
    """Persist model parameters, normalizer and architecture in one file."""
    arch = np.array([ARCH_RECORDS[MODEL_KINDS.index(type(model))]], dtype=np.float64)
    tz.save(path, model.store.params, {**normalizer.state(), "meta.arch": arch})


def load_model(path: str | Path, dtype=np.float64):
    """Rebuild (model, normalizer) from :func:`save_model` output.

    Each parameter is read as ``dtype``: ``np.float32`` gives the model
    :meth:`FusionModel.cast_to_float32` would, without a float64 copy of
    it. The normalizer and ``meta.arch`` stay float64. A ``meta.arch`` that
    is not one of ``ARCH_RECORDS`` is rejected before any tensor is built.
    A malformed file, or a weight too large for ``dtype``, raises
    :class:`InvalidInput` naming ``path``.
    """
    def build():
        arch = tz.read("meta.arch").reshape(-1).tolist()
        if arch not in ARCH_RECORDS:
            raise InvalidInput(f"architecture record {arch} is neither the basic model's "
                               f"{ARCH_RECORDS[0]} nor the advanced model's {ARCH_RECORDS[1]}")
        model = MODEL_KINDS[ARCH_RECORDS.index(arch)]()
        visual, audio = (model.config.visual_features,), (model.config.audio_features,)
        return model, TokenNormalizer(
            tz.read("norm.visual_mean", visual), tz.read("norm.visual_std", visual),
            tz.read("norm.audio_mean", audio), tz.read("norm.audio_std", audio))

    return tz.load(path, build, dtype=dtype, keep=RECORDS)
