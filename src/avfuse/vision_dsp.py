"""Frame preprocessing, wavelet texture energy, and dense optical flow.

Preprocessing is patch-based non-local means denoising on 8-bit grayscale.
Its patch distances are box sums of squared pixel differences, each search
offset and box-sum term one contiguous shift of the padded frame read as a
flat run; on 8-bit input every such sum is an integer of at most
patch^2 * 255^2, which float32 holds exactly up to ``NLM_PATCH_MAX`` = 15
(14,630,625 < 2^24), so the distances run in float32 and meet the float64
weights as the very integers float64 would hold.
The distance of ``p`` to ``p + s`` is the distance of ``p + s`` to ``p``, and
being exact it is the same float, so the mirrored weight is bit-identical:
each pair of offsets ``-s`` and ``+s`` costs one distance plane and one
``exp``, added after the center pixel in pair order, not raster order.
A (B, h, w) stack of frames runs as B such runs at once, up to ``STACK``
frames to a pass, every op elementwise, so each frame keeps the bytes it has
alone; one frame is the stack of one.
Texture energy comes from a 2-level Daubechies-2 decomposition with periodic
extension, which makes subband energies sum exactly to the pixel energy. It
too takes one frame or a (B, h, w) stack, one row of seven energies per frame,
every step elementwise over the stack and each energy one sum over a
contiguous band of one frame, so each frame gets the bytes it has alone.
Dense motion is estimated with the Horn-Schunck variational scheme behind
the ``DenseFlow`` interface so a different solver can be slotted in later.
Its Jacobi sweeps update one edge-padded (u, v) buffer in place, in float32,
for ``train`` and ``run`` alike; against the float64 sweeps the field stays
within 1e-5 of its largest magnitude. It takes one pair of frames or a
stack of B pairs, up to ``STACK`` pairs to a pass, each pair with the bytes
it has alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Daubechies-2 analysis pair; orthonormal, so circular-shift rows form a basis.
_SQRT3 = np.sqrt(3.0)
DB2_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * np.sqrt(2.0))
DB2_HI = np.array([DB2_LO[3], -DB2_LO[2], DB2_LO[1], -DB2_LO[0]])

# DenseFlow squares alpha in float32. Above the root of float32's largest
# value the square overflows. Below 1e-9 it no longer changes a denominator
# where the gradient is non-zero (squared gradients are multiples of 1/16),
# and where the gradient vanishes it divides a brightness change into an
# overflow once under about 1e-18.
FLOW_ALPHA_MIN = 1e-9
FLOW_ALPHA_MAX = float(np.sqrt(np.float64(np.finfo(np.float32).max)))

# preprocess_frame's weight exponents are at most 255^2 / strength^2; this keeps them finite.
NLM_STRENGTH_MIN = 1e-150
# The largest patch whose 8-bit distances, at most patch^2 * 255^2, float32 holds exactly
# (below 2^24); at 17 they would pass it.
NLM_PATCH_MAX = 15

# The most frames, or pairs of frames, that one pass of non-local means or
# Horn-Schunck takes: their planes for larger stacks fall out of cache and make
# each frame slower. Larger stacks run in passes of this many.
STACK = 4


@dataclass(frozen=True)
class FlowField:
    u: np.ndarray  # horizontal displacement, pixels/frame
    v: np.ndarray  # vertical displacement, pixels/frame

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.u, self.v)


def preprocess_frame(pixels: np.ndarray, patch: int = 3, search: int = 7,
                     strength: float = 10.0) -> np.ndarray:
    """Non-local means denoising of one 2-D 8-bit grayscale frame: the run of
    one of :func:`preprocess_frames`."""
    frame = np.asarray(pixels)
    if frame.ndim != 2 or frame.size == 0:
        raise InvalidInput(f"expected a 2-D frame with non-zero area, got shape {frame.shape}")
    return preprocess_frames(frame[np.newaxis], patch, search, strength)[0]


def preprocess_frames(frames: np.ndarray, patch: int = 3, search: int = 7,
                      strength: float = 10.0) -> np.ndarray:
    """Non-local means denoising of a (B, h, w) stack of 8-bit grayscale frames:
    each pixel becomes the similarity-weighted average of pixels in its search
    window, weighted by patch distance.

    Weight is ``exp(-mean((P_i - P_j)^2) / strength^2)``; the center pixel
    participates with weight 1, so constants are preserved exactly.

    Each reflect-padded frame is one flat run of ``wide``-value rows plus a
    zero tail, one row of a (B, L) array, so offset ``(dy, dx)`` is a shift by
    ``dy * wide + dx`` and the patch sums add shifts by ``k * wide`` and
    ``k``; every op runs over all B rows at once. The last ``wide - w``
    columns of each frame row wrap into the next row (pixel or zero
    differences, within +-255) and are dropped. Each kept pixel's distance is
    the integer sum of its squared 8-bit differences, at most
    ``patch^2 * 255^2``, below 2^24 for ``patch <= NLM_PATCH_MAX``, so
    float32 holds it and every partial sum exactly, in any addition order:
    it is the same integer as a 2-D window sum of each frame alone, and is
    scaled into the float64 weight plane as the float64 sums would hold it.
    Frames that are not uint8 and a larger patch raise :class:`InvalidInput`.
    A stack of more than ``STACK`` frames runs ``STACK`` frames to a pass.

    The sums start from the center pixel and weight 1. Each offset before
    the center in raster order, a shift by ``-s``, then gets one weight plane
    over ``n + reach`` positions: ``weight[q]`` is the weight of pixel ``q``
    against ``q - s``, which is also the weight of ``q - s`` against ``q``.
    The plane is added once for offset ``-s`` and once, read ``s`` further
    on, for offset ``+s``. Those are the very weights of a raster-order
    loop; only their addition order differs, so a mean could round
    differently only within rounding of an exact .5 tie. No pixel did on
    captures, random frames or two-valued tie probes (steps, stripes and
    checkerboards, some on exact ties), all checked against the raster-order
    reference in the tests.
    """
    img = np.asarray(frames)
    if img.ndim != 3 or img.size == 0:
        raise InvalidInput(f"expected a (B, h, w) stack with non-zero area, got shape {img.shape}")
    if img.dtype != np.uint8:
        raise InvalidInput(f"expected 8-bit frames, got dtype {img.dtype}")
    if not 1 <= patch <= NLM_PATCH_MAX or patch % 2 == 0:
        raise InvalidInput(f"patch must be odd and in [1, {NLM_PATCH_MAX}], got {patch}")
    check_nlm_search(search, *img.shape[1:])
    return np.concatenate([_nlm(img[first:first + STACK], patch, search, strength)
                           for first in range(0, len(img), STACK)])


def _nlm(img: np.ndarray, patch: int, search: int, strength: float) -> np.ndarray:
    """:func:`preprocess_frames` of a checked stack in one pass."""
    b, h, w = img.shape
    pr, sr = patch // 2, search // 2
    pad = sr + pr
    wide = w + 2 * pad
    padded = np.pad(img, ((0, 0), (pad, pad), (pad, pad)), mode="reflect").reshape(b, -1)
    flat = np.concatenate([padded, np.zeros((b, 2 * pad), np.uint8)], axis=1).astype(np.float64)
    flat32 = flat.astype(np.float32)  # the distances' copy

    n = h * wide  # one output run per frame; its last wide - w columns are thrown away
    reach = sr * wide + sr  # the largest shift of a search offset
    span = n + reach + 2 * pr * (wide + 1)
    center = flat32[:, reach:reach + span]
    pixels = flat[:, pad * (wide + 1):pad * (wide + 1) + n + reach]
    diff = np.empty((b, span), np.float32)
    rows = np.empty((b, n + reach + 2 * pr), np.float32)
    dist = np.empty((b, n + reach), np.float32)
    weight = np.empty((b, n + reach))
    weighted = np.empty((b, n))
    value_sum, weight_sum = pixels[:, :n].copy(), np.ones((b, n))  # the center weight is 1
    neg_inv_h2 = -1.0 / (strength * strength * patch * patch)
    for dy in range(-sr, 1):
        for dx in range(-sr, sr + 1 if dy else 0):
            s = -(dy * wide + dx)  # this offset shifts by -s, its mirror by +s
            start = reach - s
            np.subtract(center, flat32[:, start:start + span], out=diff)
            np.multiply(diff, diff, out=diff)
            np.copyto(rows, diff[:, :rows.shape[1]])
            for k in range(1, patch):
                rows += diff[:, k * wide:k * wide + rows.shape[1]]
            np.copyto(dist, rows[:, :n + reach])
            for k in range(1, patch):
                dist += rows[:, k:k + n + reach]
            np.multiply(dist, neg_inv_h2, out=weight, dtype=np.float64)
            np.exp(weight, out=weight)
            start += pr * (wide + 1)
            for plane, near in ((weight[:, :n], flat[:, start:start + n]),
                                (weight[:, s:s + n], pixels[:, s:s + n])):
                np.multiply(plane, near, out=weighted)
                value_sum += weighted
                weight_sum += plane
    mean = (value_sum / weight_sum).reshape(b, h, wide)[:, :, :w]
    return np.clip(np.rint(mean), 0, 255).astype(np.uint8)


def check_nlm_search(search: int, h: int, w: int) -> None:
    """Raise InvalidInput unless a ``search`` x ``search`` window fits an ``h`` x ``w`` frame.

    The work and memory of :func:`preprocess_frame` grow with the square of the
    window, so a window wider than the frame only costs time.
    """
    if search > min(h, w):
        raise InvalidInput(f"search window {search} exceeds the smaller side of a {h}x{w} frame")


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
    """One 2-D level of each frame of a (B, h, w) stack: rows, then columns."""
    lo_r, hi_r = _dwt_step(values, axis=1)
    ll, lh = _dwt_step(lo_r, axis=2)
    hl, hh = _dwt_step(hi_r, axis=2)
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


def dwt2_energy(pixels: np.ndarray) -> np.ndarray:
    """Subband energies of a 2-level periodic db2 decomposition: a (7,) row
    ``(ll2, lh2, hl2, hh2, lh1, hl1, hh1)`` for one (h, w) frame, or a (B, 7)
    array of each frame's row for a (B, h, w) stack.

    The frames' sides must pass :func:`check_dwt_sides`. Orthonormality plus
    periodic extension makes each row's sum equal its frame's pixel sum of
    squares. Every step is elementwise over the stack and each energy sums
    one frame's contiguous band, so each frame gets the bytes it has alone.
    """
    img = np.asarray(pixels, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise InvalidInput(f"expected a 2-D frame or a (B, h, w) stack, got shape {img.shape}")
    check_dwt_sides(*img.shape[-2:])
    stack = img.reshape(-1, *img.shape[-2:])

    ll1, lh1, hl1, hh1 = _dwt2_level(stack)
    ll2, lh2, hl2, hh2 = _dwt2_level(ll1)
    energies = np.stack([np.sum((band * band).reshape(len(stack), -1), axis=1)
                         for band in (ll2, lh2, hl2, hh2, lh1, hl1, hh1)], axis=1)
    return energies[0] if img.ndim == 2 else energies


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
        """The flow from ``frame_prev`` to ``frame_next``: two (h, w) frames, or two
        (B, h, w) stacks of B pairs, whose fields come back stacked the same way.

        Every op of a sweep runs over the pairs of a pass, up to ``STACK``, at
        once and is elementwise, so each pair's field has the bytes it has alone.
        """
        prev = np.asarray(frame_prev, dtype=np.float32)
        nxt = np.asarray(frame_next, dtype=np.float32)
        if prev.shape != nxt.shape or prev.ndim not in (2, 3):
            raise InvalidInput(
                f"frames must be 2-D (or (B, h, w) stacks) and equal-sized, "
                f"got {prev.shape} vs {nxt.shape}"
            )
        if min(prev.shape[-2:]) < 2 or prev.size == 0:
            raise InvalidInput(f"frames must be at least 2x2 for a gradient, got {prev.shape}")

        shape = prev.shape
        prev, nxt = (frames.reshape(-1, *shape[-2:]) for frames in (prev, nxt))
        u, v = np.concatenate([self._sweeps(prev[first:first + STACK], nxt[first:first + STACK])
                               for first in range(0, len(prev), STACK)], axis=1)
        return FlowField(u=u.reshape(shape), v=v.reshape(shape))

    def _sweeps(self, prev: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """The (2, B, h, w) u and v planes of B float32 pairs, in one pass."""
        b, h, w = prev.shape
        iy, ix = np.gradient(0.5 * (prev + nxt), axis=(1, 2))
        denom = self.alpha ** 2 + ix ** 2 + iy ** 2

        # u and v, edge-padded by one pixel. Each sweep writes rows 1..h,
        # border columns included, so that every neighbour sum is a shift of
        # one contiguous run per plane and pair; those columns get a gradient
        # of 0 and throwaway values, and the border is refreshed before each sweep.
        def rows(values, fill: float) -> np.ndarray:
            out = np.full((b, h, w + 2), fill, dtype=np.float32)
            out[:, :, 1:-1] = values
            return out.reshape(b, -1)

        grad = np.stack([rows(ix, 0.0), rows(iy, 0.0)])
        it, denom = rows(nxt - prev, 0.0), rows(denom, 1.0)
        padded = np.zeros((2, b, h + 2, w + 2), dtype=np.float32)
        runs = padded.reshape(2, b, -1)
        width, lo, hi = w + 2, w + 2, (w + 2) * (h + 1)
        bar = np.empty_like(grad)
        step = np.empty_like(grad)
        residual = np.empty_like(it)
        for _ in range(self.iterations):
            padded[:, :, 0] = padded[:, :, 1]
            padded[:, :, -1] = padded[:, :, -2]
            padded[..., 0] = padded[..., 1]
            padded[..., -1] = padded[..., -2]
            np.add(runs[..., lo - width:hi - width], runs[..., lo + width:hi + width], out=bar)
            bar += runs[..., lo - 1:hi - 1]
            bar += runs[..., lo + 1:hi + 1]
            bar *= 0.25
            np.multiply(grad, bar, out=step)
            np.add(step[0], step[1], out=residual)
            residual += it
            residual /= denom
            np.multiply(grad, residual, out=step)
            np.subtract(bar, step, out=runs[..., lo:hi])
        return padded[:, :, 1:-1, 1:-1]
