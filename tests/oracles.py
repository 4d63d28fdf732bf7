"""Independent reference implementations and test doubles shared by the test suite.

Everything here is deliberately naive (loops, O(n^2) scans) and written
against the contracts, not against the package internals it checks.
"""

from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from avfuse.errors import InvalidInput
from avfuse.pipeline import RUN, Run
from avfuse.tensor import Tensor, backward


def brute_force_nms(boxes, scores, class_ids, sources, threshold):
    """Array-based greedy NMS; returns indices kept, per class."""

    def order_key(i):
        source_rank = 0 if sources[i] == "accurate" else 1
        x1, y1, x2, y2 = boxes[i]
        return (-scores[i], source_rank, class_ids[i], x1, y1, x2, y2)

    order = sorted(range(len(boxes)), key=order_key)
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if class_ids[i] != class_ids[j]:
                continue
            if pair_iou(boxes[i], boxes[j]) >= threshold:
                ok = False
                break
        if ok:
            kept.append(i)
    return kept


def pair_iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def scalar_attention(q, k, v):
    """Triple-loop scaled dot-product attention."""
    n, d_k = q.shape
    m = k.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = np.empty(m)
        for j in range(m):
            scores[j] = sum(q[i, t] * k[j, t] for t in range(d_k)) / np.sqrt(d_k)
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(m):
            for c in range(v.shape[1]):
                out[i, c] += weights[j] * v[j, c]
    return out


def identity_value_weights(attention, q, k, heads=1, blocks=1):
    """Each head's (n, m) weight matrix of ``attention(q, k, v, heads, blocks)``, in head
    order within row-block order.

    Read through the kernel's own output: with every head's block of the
    values an m x m identity matrix, the attended values are the weights.
    """
    n, m = q.shape[0] // blocks, k.shape[0] // blocks
    values = Tensor(np.tile(np.eye(m), (blocks, heads)))
    out = attention(q, k, values, heads, blocks).data
    return list(out.reshape(blocks, n, heads, m).transpose(0, 2, 1, 3).reshape(-1, n, m))


def scalar_softmax_rows(x):
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i] - x[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def scalar_layernorm(x, gain, bias, eps=1e-5):
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / np.sqrt(var + eps) * gain + bias
    return out


def scalar_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def reference_gelu_grad(x, g):
    """The gradient of :func:`tensor.gelu` at ``x`` times ``g``, one fresh array per step.

    Frozen from the kernel's closure before it ran in place; ``t`` takes the
    forward's operation order, so the two agree to the bit.
    """
    c = float(np.sqrt(2.0 / np.pi))
    t = np.tanh(c * (x * x * x * 0.044715 + x))
    du = c * (1.0 + 3 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _ref_linear(x, params, name):
    return x @ params[f"{name}.weight"] + params[f"{name}.bias"]


def _ref_mha(params, prefix, query, keyval, heads):
    q = _ref_linear(query, params, f"{prefix}.q")
    k = keyval @ params[f"{prefix}.k.weight"]  # key projection carries no bias
    v = _ref_linear(keyval, params, f"{prefix}.v")
    head_dim = q.shape[1] // heads
    outs = []
    for h in range(heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        outs.append(scalar_attention(q[:, lo:hi], k[:, lo:hi], v[:, lo:hi]))
    return _ref_linear(np.concatenate(outs, axis=1), params, f"{prefix}.out")


def _ref_ffn(params, prefix, x):
    return _ref_linear(scalar_gelu(_ref_linear(x, params, f"{prefix}.w1")), params, f"{prefix}.w2")


def _ref_ln(params, prefix, x):
    return scalar_layernorm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def ref_basic_forward(params, config, visual, audio):
    """Plain-numpy forward of the basic fusion model."""
    x = _ref_linear(visual, params, "proj.visual") + _ref_linear(audio, params, "proj.audio")
    for layer in range(config.layers):
        x = _ref_ln(params, f"enc{layer}.ln1", x + _ref_mha(params, f"enc{layer}.attn", x, x, config.heads))
        x = _ref_ln(params, f"enc{layer}.ln2", x + _ref_ffn(params, f"enc{layer}.ffn", x))
    pooled = x.mean(axis=0, keepdims=True)
    return _ref_linear(pooled, params, "head.motion")


def ref_advanced_forward(params, config, visual, audio, fused):
    """Plain-numpy forward of the advanced cross-attention model."""
    t = visual.shape[0]
    v = _ref_linear(visual, params, "proj.visual") + params["pos.visual"][:t]
    a = _ref_linear(audio, params, "proj.audio") + params["pos.audio"][:t]
    a = a + fused.reshape(1, -1)
    for layer in range(config.layers):
        v_att = _ref_mha(params, f"xattn{layer}.va", v, a, config.heads)
        a_att = _ref_mha(params, f"xattn{layer}.av", a, v, config.heads)
        v = _ref_ln(params, f"xattn{layer}.ln_v", v + v_att)
        a = _ref_ln(params, f"xattn{layer}.ln_a", a + a_att)
        v = _ref_ln(params, f"ffn{layer}.ln_v", v + _ref_ffn(params, f"ffn{layer}.v", v))
        a = _ref_ln(params, f"ffn{layer}.ln_a", a + _ref_ffn(params, f"ffn{layer}.a", a))
    pooled = np.concatenate([v.mean(axis=0, keepdims=True), a.mean(axis=0, keepdims=True)], axis=1)
    return _ref_linear(pooled, params, "head.motion"), _ref_linear(pooled, params, "head.event")


# Vision kernels as they were before the in-place rewrite. The rewrite keeps
# every floating-point operation and its order, so tests demand equal bytes.

DB2_LO = np.array([1.0 + np.sqrt(3.0), 3.0 + np.sqrt(3.0), 3.0 - np.sqrt(3.0),
                   1.0 - np.sqrt(3.0)]) / (4.0 * np.sqrt(2.0))
DB2_HI = np.array([DB2_LO[3], -DB2_LO[2], DB2_LO[1], -DB2_LO[0]])


def _cumsum_patch_sum(values, patch):
    acc = values
    for axis in (0, 1):
        sliced = np.cumsum(acc, axis=axis)
        sliced = np.concatenate(
            [np.take(sliced, [patch - 1], axis=axis),
             np.take(sliced, range(patch, acc.shape[axis]), axis=axis)
             - np.take(sliced, range(acc.shape[axis] - patch), axis=axis)],
            axis=axis,
        )
        acc = sliced
    return acc


def reference_nlm(pixels, patch=3, search=7, strength=10.0):
    """Non-local means with cumulative-sum patch sums and fresh arrays per offset."""
    img = pixels.astype(np.float64)
    pr, sr = patch // 2, search // 2
    padded = np.pad(img, sr + pr, mode="reflect")
    h, w = img.shape
    center_patch = padded[sr:sr + h + 2 * pr, sr:sr + w + 2 * pr]
    weight_sum = np.zeros_like(img)
    value_sum = np.zeros_like(img)
    inv_h2 = 1.0 / (strength * strength * patch * patch)
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            shifted_patch = padded[sr + dy:sr + dy + h + 2 * pr, sr + dx:sr + dx + w + 2 * pr]
            dist = _cumsum_patch_sum((center_patch - shifted_patch) ** 2, patch)
            weight = np.exp(-dist * inv_h2)
            value_sum += weight * shifted_patch[pr:pr + h, pr:pr + w]
            weight_sum += weight
    return np.clip(np.rint(value_sum / weight_sum), 0, 255).astype(np.uint8)


def _rolled_dwt_step(values, axis):
    n = values.shape[axis]
    lo = np.zeros_like(np.take(values, range(0, n, 2), axis=axis))
    hi = np.zeros_like(lo)
    for tap in range(4):
        rolled = np.take(np.roll(values, -tap, axis=axis), range(0, n, 2), axis=axis)
        lo = lo + DB2_LO[tap] * rolled
        hi = hi + DB2_HI[tap] * rolled
    return lo, hi


def reference_dwt2_energies(pixels):
    """(ll2, lh2, hl2, hh2, lh1, hl1, hh1) energies from np.roll db2 steps."""
    def level(values):
        lo_r, hi_r = _rolled_dwt_step(values, axis=0)
        ll, lh = _rolled_dwt_step(lo_r, axis=1)
        hl, hh = _rolled_dwt_step(hi_r, axis=1)
        return ll, lh, hl, hh

    ll1, lh1, hl1, hh1 = level(np.asarray(pixels, dtype=np.float64))
    ll2, lh2, hl2, hh2 = level(ll1)
    return tuple(float(np.sum(b * b)) for b in (ll2, lh2, hl2, hh2, lh1, hl1, hh1))


def _padded_neighbor_mean(values):
    padded = np.pad(values, 1, mode="edge")
    return 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:])


def reference_horn_schunck(frame_prev, frame_next, alpha=10.0, iterations=100):
    """Jacobi Horn-Schunck with an np.pad per sweep; returns (u, v)."""
    prev = np.asarray(frame_prev, dtype=np.float64)
    nxt = np.asarray(frame_next, dtype=np.float64)
    iy, ix = np.gradient(0.5 * (prev + nxt))
    it = nxt - prev
    denom = alpha ** 2 + ix ** 2 + iy ** 2
    u = np.zeros_like(prev)
    v = np.zeros_like(prev)
    for _ in range(iterations):
        u_bar = _padded_neighbor_mean(u)
        v_bar = _padded_neighbor_mean(v)
        residual = (ix * u_bar + iy * v_bar + it) / denom
        u = u_bar - ix * residual
        v = v_bar - iy * residual
    return u, v


def reference_spectral_stats(samples, sample_rate):
    """(zcr, centroid, bandwidth, rolloff, energy) of one window as computed before the
    statistics took a stack: the per-window reference the stacked ones must equal."""
    samples = np.asarray(samples, dtype=np.float64)
    zcr = int(np.count_nonzero(samples[:-1] * samples[1:] < 0)) / (len(samples) - 1)
    energy = float(np.mean(samples ** 2))
    magnitudes = np.abs(np.fft.rfft(samples))
    freqs = np.fft.rfftfreq(len(samples), d=1.0 / sample_rate)
    total_mag = magnitudes.sum()
    if total_mag == 0.0:
        return zcr, 0.0, 0.0, 0.0, energy
    centroid = float((freqs * magnitudes).sum() / total_mag)
    bandwidth = float(np.sqrt(((freqs - centroid) ** 2 * magnitudes).sum() / total_mag))
    cumulative = np.cumsum(magnitudes ** 2)
    rolloff_idx = int(np.searchsorted(cumulative, 0.85 * cumulative[-1]))
    return zcr, centroid, bandwidth, float(freqs[min(rolloff_idx, len(freqs) - 1)]), energy


def sequence(batch, i):
    """Sequence ``i`` of a :class:`fusion.TrainingBatch` as a batch of one: the per-example
    reference a batched loss is checked against."""
    return replace(batch, **{name: value[i:i + 1] for name, value in vars(batch).items()
                             if value is not None})


def ranking_auc(scores, labels):
    """Mann-Whitney AUC of scores against binary labels (ties count half)."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    if not pos or not neg:
        raise ValueError("need both positive and negative examples")
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def finite_diff_check(
    f,
    params: list[Tensor],
    step: float = 1e-5,
    max_coords_per_param: int | None = None,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic gradients and central differences.

    ``f`` must rebuild its graph from the current parameter data on every
    call and return a scalar Tensor. For large parameters a random subset of
    coordinates can be checked. The relative-error denominator is floored at
    1e-8 so near-zero gradients compare absolutely.
    """
    if step <= 0:
        raise InvalidInput("step must be positive")
    for p in params:
        p.grad = None
    backward(f())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + step
            plus = f().item()
            flat[idx] = original - step
            minus = f().item()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * step)
            reference = grad.reshape(-1)[idx]
            denom = max(abs(numeric), abs(reference), 1e-8)
            worst = max(worst, abs(numeric - reference) / denom)
    return worst


class HandWindows(Sequence):
    """Windows ``0..n-1`` as ingest serves them: a slice is cut into
    :class:`Run` records of up to ``RUN`` one-pixel windows from its start.
    ``reads`` lists the slices taken and ``served`` the runs each returned."""

    def __init__(self, n: int):
        self.n = n
        self.reads, self.served = [], []

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key: slice) -> list[Run]:
        indices = range(*key.indices(self.n))
        runs = []
        for offset in range(0, len(indices), RUN):
            part = indices[offset:offset + RUN]
            runs.append(Run(index=part[0], timestamps=[w / 10 for w in part],
                            raw=np.zeros((len(part), 1, 1)), samples=np.zeros((len(part), 1))))
        self.reads.append(key)
        self.served.append(runs)
        return runs
