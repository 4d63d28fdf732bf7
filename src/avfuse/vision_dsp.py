"""Frame preprocessing, wavelet texture energy, and dense optical flow.

Preprocessing is patch-based non-local means denoising on 8-bit grayscale.
Its patch distances are box sums of squared pixel differences, each search
offset and box-sum term one contiguous shift of the padded frame read as a
flat run; on 8-bit input every such sum is an exact integer in float64.
Texture energy comes from a 2-level Daubechies-2 decomposition with periodic
extension, which makes subband energies sum exactly to the pixel energy.
Dense motion is estimated with the Horn-Schunck variational scheme behind
the ``DenseFlow`` interface so a different solver can be slotted in later.
Its Jacobi sweeps update one edge-padded (u, v) buffer in place, in float32,
for ``train`` and ``run`` alike; against the float64 sweeps the field stays
within 1e-5 of its largest magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Daubechies-2 analysis pair; orthonormal, so circular-shift rows form a basis.
_SQRT3 = np.sqrt(3.0)
DB2_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * np.sqrt(2.0))
DB2_HI = np.array([DB2_LO[3], -DB2_LO[2], DB2_LO[1], -DB2_LO[0]])

RGB_LUMA = np.array([0.299, 0.587, 0.114])  # ITU-R 601

# DenseFlow squares alpha in float32. Above the root of float32's largest
# value the square overflows. Below 1e-9 it no longer changes a denominator
# where the gradient is non-zero (squared gradients are multiples of 1/16),
# and where the gradient vanishes it divides a brightness change into an
# overflow once under about 1e-18.
FLOW_ALPHA_MIN = 1e-9
FLOW_ALPHA_MAX = float(np.sqrt(np.float64(np.finfo(np.float32).max)))

# nlm_denoise's weight exponents are at most 255^2 / strength^2; this keeps them finite.
NLM_STRENGTH_MIN = 1e-150


@dataclass(frozen=True)
class FlowField:
    u: np.ndarray  # horizontal displacement, pixels/frame
    v: np.ndarray  # vertical displacement, pixels/frame

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)


@dataclass(frozen=True)
class WaveletEnergy:
    ll2: float
    lh2: float
    hl2: float
    hh2: float
    lh1: float
    hl1: float
    hh1: float

    @property
    def subband_energies(self) -> np.ndarray:
        return np.array([self.ll2, self.lh2, self.hl2, self.hh2, self.lh1, self.hl1, self.hh1])

    @property
    def total(self) -> float:
        return float(self.subband_energies.sum())


def to_grayscale(pixels: np.ndarray) -> np.ndarray:
    """Collapse an (H, W, 3) RGB frame to 8-bit grayscale; pass 2-D through."""
    pixels = np.asarray(pixels)
    if pixels.ndim == 2:
        return pixels.astype(np.uint8)
    if pixels.ndim == 3 and pixels.shape[2] == 3:
        gray = pixels.astype(np.float64) @ RGB_LUMA
        return np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    raise InvalidInput(f"expected (H, W) or (H, W, 3) pixel grid, got shape {pixels.shape}")


def nlm_denoise(
    pixels: np.ndarray, patch: int = 3, search: int = 7, strength: float = 10.0
) -> np.ndarray:
    """Non-local means: each pixel becomes the similarity-weighted average of
    pixels in its search window, weighted by patch distance.

    Weight is ``exp(-mean((P_i - P_j)^2) / strength^2)``; the center pixel
    participates with weight 1, so constants are preserved exactly.

    The reflect-padded frame is one flat run of ``wide``-value rows plus a zero
    tail, so offset ``(dy, dx)`` is a shift by ``dy * wide + dx`` and the patch
    sums add shifts by ``k * wide`` and ``k``. The last ``wide - w`` columns of
    each row wrap into the next row (pixel or zero differences, within +-255)
    and are dropped. Each kept pixel's distance is the exact integer sum of its
    squared 8-bit differences, in any addition order, and the same ``exp`` and
    ``(dy, dx)`` accumulation follow, so the bytes match a 2-D window sum.
    """
    img = pixels.astype(np.float64)
    if img.ndim != 2 or img.size == 0:
        raise InvalidInput(f"expected a 2-D frame with non-zero area, got shape {img.shape}")
    if patch < 1 or patch % 2 == 0:
        raise InvalidInput(f"patch must be odd and positive, got {patch}")
    check_nlm_search(search, *img.shape)
    pr, sr = patch // 2, search // 2
    pad = sr + pr
    h, w = img.shape
    wide = w + 2 * pad
    flat = np.concatenate([np.pad(img, pad, mode="reflect").ravel(), np.zeros(2 * pad)])

    n = h * wide  # one output run; its last wide - w columns are thrown away
    origin = sr * wide + sr
    center = flat[origin:origin + n + 2 * pr * (wide + 1)]
    diff = np.empty_like(center)
    rows = np.empty(n + 2 * pr)
    weight, weighted, weight_sum, value_sum = np.zeros((4, n))
    neg_inv_h2 = -1.0 / (strength * strength * patch * patch)
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            start = origin + dy * wide + dx
            np.subtract(center, flat[start:start + center.size], out=diff)
            np.multiply(diff, diff, out=diff)
            np.copyto(rows, diff[:rows.size])
            for k in range(1, patch):
                rows += diff[k * wide:k * wide + rows.size]
            np.copyto(weight, rows[:n])
            for k in range(1, patch):
                weight += rows[k:k + n]
            np.multiply(weight, neg_inv_h2, out=weight)
            np.exp(weight, out=weight)
            start += pr * (wide + 1)
            np.multiply(weight, flat[start:start + n], out=weighted)
            value_sum += weighted
            weight_sum += weight
    mean = (value_sum / weight_sum).reshape(h, wide)[:, :w]  # the center weight is 1
    return np.clip(np.rint(mean), 0, 255).astype(np.uint8)


def check_nlm_search(search: int, h: int, w: int) -> None:
    """Raise InvalidInput unless a ``search`` x ``search`` window fits an ``h`` x ``w`` frame.

    The work and memory of :func:`nlm_denoise` grow with the square of the
    window, so a window wider than the frame only costs time.
    """
    if search > min(h, w):
        raise InvalidInput(f"search window {search} exceeds the smaller side of a {h}x{w} frame")


def preprocess_frame(pixels: np.ndarray, patch: int = 3, search: int = 7, strength: float = 10.0) -> np.ndarray:
    """Grayscale conversion (if needed) followed by non-local means denoising."""
    gray = to_grayscale(pixels)
    return nlm_denoise(gray, patch=patch, search=search, strength=strength)


def _dwt_step(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """One periodic db2 analysis step along ``axis``; length must be even.

    Tap ``k`` of output ``j`` reads sample ``(2j + k) mod n``: a stride-2
    slice of one copy extended periodically by two samples.
    """
    n = values.shape[axis]
    extended = np.concatenate([values, values.take([0, 1], axis=axis)], axis=axis)
    lead = (slice(None),) * axis
    taps = [extended[lead + (slice(tap, tap + n, 2),)] for tap in range(4)]
    lo = DB2_LO[0] * taps[0] + DB2_LO[1] * taps[1] + DB2_LO[2] * taps[2] + DB2_LO[3] * taps[3]
    hi = DB2_HI[0] * taps[0] + DB2_HI[1] * taps[1] + DB2_HI[2] * taps[2] + DB2_HI[3] * taps[3]
    return lo, hi


def _dwt2_level(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    lo_r, hi_r = _dwt_step(values, axis=0)
    ll, lh = _dwt_step(lo_r, axis=1)
    hl, hh = _dwt_step(hi_r, axis=1)
    return ll, lh, hl, hh


def check_dwt_sides(h: int, w: int) -> None:
    """Raise InvalidInput unless an ``h`` x ``w`` frame fits :func:`dwt2_energy`.

    Both sides must be at least 8 and divisible by 4 so two dyadic halvings
    stay even.
    """
    if h < 8 or w < 8:
        raise InvalidInput(f"frame must be at least 8x8, got {h}x{w}")
    if h % 4 or w % 4:
        raise InvalidInput(f"frame dimensions must be divisible by 4, got {h}x{w}")


def dwt2_energy(pixels: np.ndarray) -> WaveletEnergy:
    """Subband energies of a 2-level periodic db2 decomposition.

    The frame's sides must pass :func:`check_dwt_sides`. Orthonormality plus
    periodic extension makes the total equal the pixel sum of squares.
    """
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim != 2:
        raise InvalidInput(f"expected a 2-D frame, got shape {img.shape}")
    check_dwt_sides(*img.shape)

    ll1, lh1, hl1, hh1 = _dwt2_level(img)
    ll2, lh2, hl2, hh2 = _dwt2_level(ll1)

    def energy(band: np.ndarray) -> float:
        return float(np.sum(band * band))

    return WaveletEnergy(
        ll2=energy(ll2), lh2=energy(lh2), hl2=energy(hl2), hh2=energy(hh2),
        lh1=energy(lh1), hl1=energy(hl1), hh1=energy(hh1),
    )


class DenseFlow:
    """Horn-Schunck dense flow estimator.

    Minimizes brightness-constancy error plus ``alpha``-weighted smoothness
    with a fixed number of Jacobi iterations on raw 0..255 intensities, in
    float32; ``alpha`` lies in [``FLOW_ALPHA_MIN``, ``FLOW_ALPHA_MAX``].
    """

    def __init__(self, alpha: float = 10.0, iterations: int = 100):
        if not FLOW_ALPHA_MIN <= alpha <= FLOW_ALPHA_MAX or iterations < 1:
            raise InvalidInput(f"alpha must be in [{FLOW_ALPHA_MIN:g}, {FLOW_ALPHA_MAX}] "
                               "and iterations >= 1")
        self.alpha = float(alpha)
        self.iterations = int(iterations)

    def __call__(self, frame_prev: np.ndarray, frame_next: np.ndarray) -> FlowField:
        prev = np.asarray(frame_prev, dtype=np.float32)
        nxt = np.asarray(frame_next, dtype=np.float32)
        if prev.shape != nxt.shape or prev.ndim != 2:
            raise InvalidInput(
                f"frames must be 2-D and equal-sized, got {prev.shape} vs {nxt.shape}"
            )
        if min(prev.shape) < 2:
            raise InvalidInput(f"frames must be at least 2x2 for a gradient, got {prev.shape}")

        h, w = prev.shape
        iy, ix = np.gradient(0.5 * (prev + nxt))
        denom = self.alpha ** 2 + ix ** 2 + iy ** 2

        # u and v, edge-padded by one pixel. Each sweep writes rows 1..h,
        # border columns included, so that every neighbour sum is a shift of
        # one contiguous run per plane; those columns get a gradient of 0 and
        # throwaway values, and the border is refreshed before each sweep.
        def rows(values, fill: float) -> np.ndarray:
            out = np.full((h, w + 2), fill, dtype=np.float32)
            out[:, 1:-1] = values
            return out.reshape(-1)

        grad = np.stack([rows(ix, 0.0), rows(iy, 0.0)])
        it, denom = rows(nxt - prev, 0.0), rows(denom, 1.0)
        padded = np.zeros((2, h + 2, w + 2), dtype=np.float32)
        runs = padded.reshape(2, -1)
        width, lo, hi = w + 2, w + 2, (w + 2) * (h + 1)
        bar = np.empty_like(grad)
        step = np.empty_like(grad)
        residual = np.empty_like(it)
        for _ in range(self.iterations):
            padded[:, 0] = padded[:, 1]
            padded[:, -1] = padded[:, -2]
            padded[:, :, 0] = padded[:, :, 1]
            padded[:, :, -1] = padded[:, :, -2]
            np.add(runs[:, lo - width:hi - width], runs[:, lo + width:hi + width], out=bar)
            bar += runs[:, lo - 1:hi - 1]
            bar += runs[:, lo + 1:hi + 1]
            bar *= 0.25
            np.multiply(grad, bar, out=step)
            np.add(step[0], step[1], out=residual)
            residual += it
            residual /= denom
            np.multiply(grad, residual, out=step)
            np.subtract(bar, step, out=runs[:, lo:hi])
        return FlowField(u=padded[0, 1:-1, 1:-1].copy(), v=padded[1, 1:-1, 1:-1].copy())
