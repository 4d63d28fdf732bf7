"""Token construction, audio-ensemble fusion, and the two cross-modal models.

The basic model projects visual and audio tokens to a shared 128-dim space,
combines them by residual addition and runs a 2-layer self-attention encoder
(4 heads) into a binary motion head. The advanced model keeps the streams
separate at 256 dims, adds learned positional embeddings, folds a fused
audio-ensemble embedding into the audio stream, and alternates bidirectional
cross-attention (visual queries over audio keys/values and vice versa) with
per-stream feed-forward blocks across 4 layers of 8 heads, ending in motion
and 32-way event heads.

Both models keep one contract, so callers never ask which one they hold:

- ``config.visual_features`` / ``config.audio_features``: how many leading
  columns of :func:`visual_matrix` / :func:`audio_matrix` the model reads;
- ``ensemble``: the :class:`AudioEnsembleFusion` whose ``embed`` gives the
  per-window fused audio vector, or ``None`` when the model reads none;
- ``predict(visual, audio, fused=None)``: flat ``(motion_logits,
  event_logits)``, the second ``None`` for a model without an event head;
- ``loss(example)``: the training loss of one :class:`LabeledSequence`.

Only :func:`build_model` and the save/load kind table name a model kind.
Every weight, the ensemble's included, lives in a :class:`tensor.ParamStore`
and :func:`train_step` updates them through :func:`tensor.sgd_step`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from functools import reduce
from pathlib import Path

import numpy as np

from . import tensor as tz
from .audio_dsp import SpectralStats, mel_spectrogram, spectral_stats, stft
from .config import FusionConfig
from .detect_track import Detection
from .errors import InvalidInput
from .tensor import Tensor
from .timebase import AlignedWindow
from .vision_dsp import FlowStats, WaveletEnergy

EMBED_DIM = 768
FUSED_DIM = 256
ENSEMBLE_MODELS = ("general", "speech", "scene")


@dataclass(frozen=True)
class VisualToken:
    bbox_count: int
    mean_confidence: float
    wavelet_energy: float
    flow_mean_magnitude: float = 0.0


def build_visual_tokens(
    detections_per_frame: list[list[Detection]],
    wavelet_energies: list[WaveletEnergy],
    flow_stats: list[FlowStats] | None = None,
) -> list[VisualToken]:
    """One token per frame from detection counts, confidence, and texture.

    The wavelet feature is the sum of all seven subband energies. Flow
    statistics are optional; without them the flow feature stays 0 (the
    basic model never reads it).
    """
    if len(detections_per_frame) != len(wavelet_energies):
        raise InvalidInput(
            f"{len(detections_per_frame)} detection lists vs {len(wavelet_energies)} energies"
        )
    if flow_stats is not None and len(flow_stats) != len(wavelet_energies):
        raise InvalidInput(
            f"{len(flow_stats)} flow stats vs {len(wavelet_energies)} energies"
        )
    tokens = []
    for i, (dets, energy) in enumerate(zip(detections_per_frame, wavelet_energies)):
        mean_conf = float(np.mean([d.confidence for d in dets])) if dets else 0.0
        flow_mag = flow_stats[i].mean_magnitude if flow_stats is not None else 0.0
        tokens.append(VisualToken(len(dets), mean_conf, energy.total, flow_mag))
    return tokens


def build_audio_tokens(windows: list[AlignedWindow], sample_rate: int) -> list[SpectralStats]:
    """One token, the spectral statistics, per aligned window."""
    if not windows:
        raise InvalidInput("no aligned windows to tokenize")
    return [spectral_stats(window.samples, sample_rate) for window in windows]


def visual_matrix(tokens: list[VisualToken]) -> np.ndarray:
    """Rows of (bbox count, mean confidence, wavelet energy, flow magnitude)."""
    return np.asarray([(t.bbox_count, t.mean_confidence, t.wavelet_energy, t.flow_mean_magnitude)
                       for t in tokens], dtype=np.float64)


def audio_matrix(tokens: list[SpectralStats]) -> np.ndarray:
    """Rows of (zcr, centroid, bandwidth, rolloff, energy)."""
    return np.asarray([(t.zcr, t.centroid_hz, t.bandwidth_hz, t.rolloff_hz, t.energy)
                       for t in tokens], dtype=np.float64)


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

    @classmethod
    def fit(cls, visual_matrices: list[np.ndarray], audio_matrices: list[np.ndarray]) -> "TokenNormalizer":
        visual = np.concatenate(visual_matrices, axis=0)
        audio = np.concatenate(audio_matrices, axis=0)
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

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "TokenNormalizer":
        names = ("norm.visual_mean", "norm.visual_std", "norm.audio_mean", "norm.audio_std")
        for name in names:
            if name not in state:
                raise InvalidInput(f"parameter file missing tensor {name}")
        return cls(*(state[name].reshape(-1) for name in names))


def stub_audio_embeddings(samples, sample_rate: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 768-dim stand-ins for the three pretrained audio models.

    Mel-spectrogram band statistics pass through a fixed random projection
    seeded per model identity, giving three distinct but repeatable views of
    the same window.
    """
    samples = np.asarray(samples, dtype=np.float64)
    window = 1 << int(np.log2(max(2, min(512, len(samples)))))
    spec = stft(samples, window, window // 2, sample_rate)
    mel = mel_spectrogram(spec)
    bands = np.log1p(mel.bands)
    stats = np.concatenate([bands.mean(axis=0), bands.std(axis=0)])  # 128 values

    embeddings = []
    for index, name in enumerate(ENSEMBLE_MODELS):
        rng = np.random.default_rng(np.random.SeedSequence([0x5EED, index]))
        projection = rng.normal(size=(EMBED_DIM, stats.size)) / np.sqrt(stats.size)
        embeddings.append(np.tanh(projection @ stats))
    return tuple(embeddings)


class AudioEnsembleFusion:
    """Linear reduction of three concatenated 768-dim embeddings to 256."""

    def __init__(self, seed: int = 0):
        self.store = tz.ParamStore(seed)
        self.weight, self.bias = self.store.linear("ensemble", 3 * EMBED_DIM, FUSED_DIM)

    def fuse(self, e1, e2, e3) -> np.ndarray:
        """The 256-dim fused vector of three 768-dim embeddings."""
        inputs = [np.asarray(e, dtype=np.float64).reshape(-1) for e in (e1, e2, e3)]
        for i, e in enumerate(inputs):
            if e.size != EMBED_DIM:
                raise InvalidInput(f"ensemble input {i} must have {EMBED_DIM} values")
        concat = np.concatenate(inputs).reshape(1, -1)
        return (concat @ self.weight.data + self.bias.data).reshape(-1)

    def embed(self, samples, sample_rate: int) -> np.ndarray:
        """The fused vector of one audio window's three stand-in embeddings."""
        return self.fuse(*stub_audio_embeddings(samples, sample_rate))


def fuse_audio_ensemble(e1, e2, e3, fusion: AudioEnsembleFusion | None = None, seed: int = 0) -> np.ndarray:
    """Module-level convenience around :class:`AudioEnsembleFusion`."""
    return (fusion or AudioEnsembleFusion(seed=seed)).fuse(e1, e2, e3)


def _token_arrays(config, visual, audio) -> tuple[np.ndarray, np.ndarray]:
    """Both token matrices as 2-D float64, checked against the model's widths."""
    visual = np.atleast_2d(np.asarray(visual, dtype=np.float64))
    audio = np.atleast_2d(np.asarray(audio, dtype=np.float64))
    if visual.shape[0] != audio.shape[0] or visual.shape[0] == 0:
        raise InvalidInput(
            f"token counts differ or empty: visual {visual.shape}, audio {audio.shape}"
        )
    if visual.shape[1] != config.visual_features or audio.shape[1] != config.audio_features:
        raise InvalidInput(
            f"expected {config.visual_features}/{config.audio_features} features, "
            f"got {visual.shape[1]}/{audio.shape[1]}"
        )
    return visual, audio


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return tz.add_bias(tz.matmul(x, w), b)


def _multi_head_attention(store, prefix: str, query: Tensor, keyval: Tensor,
                          heads: int, trace: list | None) -> Tensor:
    p = store.params
    q = _linear(query, p[f"{prefix}.q.weight"], p[f"{prefix}.q.bias"])
    # No key bias: a constant added to every key shifts each query's scores
    # uniformly, which the row softmax cancels, leaving a dead parameter.
    k = tz.matmul(keyval, p[f"{prefix}.k.weight"])
    v = _linear(keyval, p[f"{prefix}.v.weight"], p[f"{prefix}.v.bias"])
    dim = q.shape[1]
    head_dim = dim // heads
    outs = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh, kh, vh = (tz.slice_cols(t, lo, hi) for t in (q, k, v))
        weights = tz.attention_weights(qh, kh)
        if trace is not None:
            trace.append(weights.data)
        outs.append(tz.matmul(weights, vh))
    merged = tz.concat(outs) if len(outs) > 1 else outs[0]
    return _linear(merged, p[f"{prefix}.out.weight"], p[f"{prefix}.out.bias"])


def _feed_forward(store, prefix: str, x: Tensor) -> Tensor:
    p = store.params
    hidden = tz.gelu(_linear(x, p[f"{prefix}.w1.weight"], p[f"{prefix}.w1.bias"]))
    return _linear(hidden, p[f"{prefix}.w2.weight"], p[f"{prefix}.w2.bias"])


def _init_mha(store, prefix: str, dim: int) -> None:
    for part in ("q", "v", "out"):
        store.linear(f"{prefix}.{part}", dim, dim)
    store.make(f"{prefix}.k.weight", dim, (dim, dim))


def _init_ffn(store, prefix: str, dim: int, hidden: int) -> None:
    store.linear(f"{prefix}.w1", dim, hidden)
    store.linear(f"{prefix}.w2", hidden, dim)


@dataclass(frozen=True)
class BasicFusionConfig:
    hidden: int = 128
    layers: int = 2
    heads: int = 4
    ffn_hidden: int = 512
    visual_features: int = 3
    audio_features: int = 4
    motion_classes: int = 2


class BasicFusionModel:
    """Shared-stream encoder for binary motion classification.

    No positional embeddings: attention plus mean pooling makes predictions
    invariant to token order, which the tests rely on.
    """

    def __init__(self, config: BasicFusionConfig | None = None, seed: int = 0):
        self.config = c = config or BasicFusionConfig()
        self.store = store = tz.ParamStore(seed)
        store.linear("proj.visual", c.visual_features, c.hidden)
        store.linear("proj.audio", c.audio_features, c.hidden)
        for layer in range(c.layers):
            _init_mha(store, f"enc{layer}.attn", c.hidden)
            store.layer_norm(f"enc{layer}.ln1", c.hidden)
            _init_ffn(store, f"enc{layer}.ffn", c.hidden, c.ffn_hidden)
            store.layer_norm(f"enc{layer}.ln2", c.hidden)
        store.linear("head.motion", c.hidden, c.motion_classes)
        self.ensemble = None

    def forward(self, visual: np.ndarray, audio: np.ndarray, trace: list | None = None) -> Tensor:
        """Motion logits (1 x 2) for one token sequence."""
        visual, audio = _token_arrays(self.config, visual, audio)
        c = self.config
        p = self.store.params
        v = _linear(Tensor(visual), p["proj.visual.weight"], p["proj.visual.bias"])
        a = _linear(Tensor(audio), p["proj.audio.weight"], p["proj.audio.bias"])
        x = tz.add(v, a)
        for layer in range(c.layers):
            attn = _multi_head_attention(self.store, f"enc{layer}.attn", x, x, c.heads, trace)
            x = tz.layer_norm(tz.add(x, attn), p[f"enc{layer}.ln1.gain"], p[f"enc{layer}.ln1.bias"])
            ff = _feed_forward(self.store, f"enc{layer}.ffn", x)
            x = tz.layer_norm(tz.add(x, ff), p[f"enc{layer}.ln2.gain"], p[f"enc{layer}.ln2.bias"])
        pooled = tz.mean(x, axis=0)
        return _linear(pooled, p["head.motion.weight"], p["head.motion.bias"])

    def predict(self, visual: np.ndarray, audio: np.ndarray,
                fused=None) -> tuple[np.ndarray, None]:
        """Flat motion logits and no event logits; ``fused`` is not read."""
        return self.forward(visual, audio).data.reshape(-1), None

    def predict_motion(self, visual: np.ndarray, audio: np.ndarray) -> int:
        return int(np.argmax(self.predict(visual, audio)[0]))

    def loss(self, example: "LabeledSequence") -> Tensor:
        """Motion cross-entropy of one labeled sequence."""
        _check_label("motion", example.motion_label, self.config.motion_classes)
        return tz.cross_entropy(self.forward(example.visual, example.audio), [example.motion_label])

    def parameters(self) -> list[Tensor]:
        return list(self.store.params.values())


@dataclass(frozen=True)
class AdvancedFusionConfig:
    hidden: int = 256
    layers: int = 4
    heads: int = 8
    ffn_hidden: int = 1024
    visual_features: int = 4
    audio_features: int = 5
    motion_classes: int = 2
    event_classes: int = 32
    max_tokens: int = 64


@dataclass(frozen=True)
class AdvancedOutput:
    motion_logits: np.ndarray  # (2,)
    event_logits: np.ndarray  # (32,)


class AdvancedFusionModel:
    """Bidirectional cross-attention fusion with motion and event heads.

    Each layer attends visual queries over audio keys/values and audio
    queries over visual keys/values (both reading the pre-update streams),
    then applies per-stream feed-forward blocks; every sublayer is wrapped
    in residual + layer norm. The fused ensemble embedding enters as a
    broadcast additive bias on the projected audio tokens before layer 1.
    """

    def __init__(self, config: AdvancedFusionConfig | None = None, seed: int = 0):
        self.config = c = config or AdvancedFusionConfig()
        if c.hidden != FUSED_DIM:
            raise InvalidInput(
                f"hidden dim {c.hidden} must equal the fused embedding dim {FUSED_DIM}"
            )
        self.store = store = tz.ParamStore(seed)
        store.linear("proj.visual", c.visual_features, c.hidden)
        store.linear("proj.audio", c.audio_features, c.hidden)
        store.make("pos.visual", c.hidden, (c.max_tokens, c.hidden))
        store.make("pos.audio", c.hidden, (c.max_tokens, c.hidden))
        for layer in range(c.layers):
            _init_mha(store, f"xattn{layer}.va", c.hidden)  # visual queries
            _init_mha(store, f"xattn{layer}.av", c.hidden)  # audio queries
            store.layer_norm(f"xattn{layer}.ln_v", c.hidden)
            store.layer_norm(f"xattn{layer}.ln_a", c.hidden)
            _init_ffn(store, f"ffn{layer}.v", c.hidden, c.ffn_hidden)
            _init_ffn(store, f"ffn{layer}.a", c.hidden, c.ffn_hidden)
            store.layer_norm(f"ffn{layer}.ln_v", c.hidden)
            store.layer_norm(f"ffn{layer}.ln_a", c.hidden)
        store.linear("head.motion", 2 * c.hidden, c.motion_classes)
        store.linear("head.event", 2 * c.hidden, c.event_classes)
        self.ensemble = AudioEnsembleFusion(seed=seed + 1)
        store.params.update(self.ensemble.store.params)

    def forward_graph(self, visual: np.ndarray, audio: np.ndarray, fused=None,
                      trace: list | None = None) -> tuple[Tensor, Tensor]:
        """Motion and event logit tensors; a ``fused`` of ``None`` reads as zeros."""
        visual, audio = _token_arrays(self.config, visual, audio)
        c = self.config
        n_tokens = visual.shape[0]
        if n_tokens > c.max_tokens:
            raise InvalidInput(f"{n_tokens} tokens exceed positional table of {c.max_tokens}")
        fused = np.zeros(FUSED_DIM) if fused is None else fused
        fused = np.asarray(fused, dtype=np.float64).reshape(1, -1)
        if fused.shape[1] != FUSED_DIM:
            raise InvalidInput(f"fused embedding must be {FUSED_DIM}-dim, got {fused.shape[1]}")
        fused = Tensor(fused)

        p = self.store.params
        v = _linear(Tensor(visual), p["proj.visual.weight"], p["proj.visual.bias"])
        a = _linear(Tensor(audio), p["proj.audio.weight"], p["proj.audio.bias"])
        v = tz.add(v, tz.slice_rows(p["pos.visual"], 0, n_tokens))
        a = tz.add(a, tz.slice_rows(p["pos.audio"], 0, n_tokens))
        a = tz.add_bias(a, fused)

        for layer in range(c.layers):
            v_att = _multi_head_attention(self.store, f"xattn{layer}.va", v, a, c.heads, trace)
            a_att = _multi_head_attention(self.store, f"xattn{layer}.av", a, v, c.heads, trace)
            v = tz.layer_norm(tz.add(v, v_att), p[f"xattn{layer}.ln_v.gain"], p[f"xattn{layer}.ln_v.bias"])
            a = tz.layer_norm(tz.add(a, a_att), p[f"xattn{layer}.ln_a.gain"], p[f"xattn{layer}.ln_a.bias"])
            v = tz.layer_norm(tz.add(v, _feed_forward(self.store, f"ffn{layer}.v", v)),
                              p[f"ffn{layer}.ln_v.gain"], p[f"ffn{layer}.ln_v.bias"])
            a = tz.layer_norm(tz.add(a, _feed_forward(self.store, f"ffn{layer}.a", a)),
                              p[f"ffn{layer}.ln_a.gain"], p[f"ffn{layer}.ln_a.bias"])

        pooled = tz.concat([tz.mean(v, axis=0), tz.mean(a, axis=0)])
        motion = _linear(pooled, p["head.motion.weight"], p["head.motion.bias"])
        event = _linear(pooled, p["head.event.weight"], p["head.event.bias"])
        return motion, event

    def forward(self, visual: np.ndarray, audio: np.ndarray, fused,
                trace: list | None = None) -> AdvancedOutput:
        motion, event = self.forward_graph(visual, audio, fused, trace)
        return AdvancedOutput(motion.data.reshape(-1).copy(), event.data.reshape(-1).copy())

    def predict(self, visual: np.ndarray, audio: np.ndarray,
                fused=None) -> tuple[np.ndarray, np.ndarray]:
        """Flat motion and event logits."""
        out = self.forward(visual, audio, fused)
        return out.motion_logits, out.event_logits

    def loss(self, example: "LabeledSequence") -> Tensor:
        """Motion plus event cross-entropy of one labeled sequence."""
        c = self.config
        _check_label("motion", example.motion_label, c.motion_classes)
        _check_label("event", example.event_label, c.event_classes)
        motion, event = self.forward_graph(example.visual, example.audio, example.fused)
        return tz.add(tz.cross_entropy(motion, [example.motion_label]),
                      tz.cross_entropy(event, [example.event_label]))

    def parameters(self) -> list[Tensor]:
        return list(self.store.params.values())


@dataclass(frozen=True)
class LabeledSequence:
    """One training example: token matrices plus labels.

    ``fused`` and ``event_label`` are only read by the advanced model.
    """

    visual: np.ndarray
    audio: np.ndarray
    motion_label: int
    fused: np.ndarray | None = None
    event_label: int | None = None


def _check_label(kind: str, label, classes: int) -> None:
    if label is None or not 0 <= label < classes:
        raise InvalidInput(f"{kind} label {label} outside [0, {classes})")


def build_model(f: FusionConfig) -> BasicFusionModel | AdvancedFusionModel:
    """Fresh seeded model of the kind and dimensions ``f`` asks for."""
    if f.model == "advanced":
        return AdvancedFusionModel(AdvancedFusionConfig(
            hidden=FUSED_DIM, layers=f.advanced_layers, heads=f.advanced_heads,
            ffn_hidden=f.advanced_ffn, max_tokens=f.max_tokens,
        ), seed=f.seed)
    return BasicFusionModel(BasicFusionConfig(
        hidden=f.basic_hidden, layers=f.basic_layers, heads=f.basic_heads,
        ffn_hidden=f.basic_ffn,
    ), seed=f.seed)


def train_step(model, batch: list[LabeledSequence], learning_rate: float) -> float:
    """One full-batch gradient step on the mean ``model.loss``; returns that loss.

    ``learning_rate`` 0 reports the loss without updating.
    """
    if not batch:
        raise InvalidInput("empty training batch")
    losses = [model.loss(example) for example in batch]
    total = tz.scale(reduce(tz.add, losses), 1.0 / len(batch))
    return tz.sgd_step(model.parameters(), total, learning_rate)


# meta.arch[0] of a saved model indexes this table; the rest of the record
# is the model's config fields in declaration order.
MODEL_KINDS = ((BasicFusionModel, BasicFusionConfig), (AdvancedFusionModel, AdvancedFusionConfig))


def save_model(path: str | Path, model, normalizer: TokenNormalizer) -> None:
    """Persist model parameters, architecture, and normalizer in one file."""
    state: dict[str, np.ndarray] = {name: t.data for name, t in model.store.params.items()}
    state.update(normalizer.state())
    kind = [cls for cls, _ in MODEL_KINDS].index(type(model))
    state["meta.arch"] = np.array([[kind, *astuple(model.config)]], dtype=np.float64)
    tz.save_tensors(path, state)


def load_model(path: str | Path):
    """Rebuild (model, normalizer) from :func:`save_model` output.

    A malformed file raises :class:`InvalidInput` naming ``path``.
    """
    state = tz.load_tensors(path)
    if "meta.arch" not in state:
        raise InvalidInput(f"{path}: not a fusion model file (no architecture record)")
    arch = state["meta.arch"].reshape(-1)
    if arch.size == 0 or arch[0] not in range(len(MODEL_KINDS)):
        raise InvalidInput(f"{path}: unknown model kind in architecture record {arch.tolist()}")
    model_cls, config_cls = MODEL_KINDS[int(arch[0])]
    dims = arch[1:]
    if dims.size != len(fields(config_cls)) or not np.all(
            np.isfinite(dims) & (dims >= 1) & (dims == np.round(dims))):
        raise InvalidInput(f"{path}: architecture record {arch.tolist()} must hold "
                           f"{len(fields(config_cls))} positive integers after kind {int(arch[0])}")
    try:
        model = model_cls(config_cls(*(int(x) for x in dims)))
        tz.load_state(model.store.params, state)
        normalizer = TokenNormalizer.from_state(state)
        c = model.config
        widths = [v.size for v in normalizer.state().values()]
        if widths != [c.visual_features] * 2 + [c.audio_features] * 2:
            raise InvalidInput(f"normalizer widths {widths} do not match the model's "
                               f"{c.visual_features} visual and {c.audio_features} audio features")
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    return model, normalizer
