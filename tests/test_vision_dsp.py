import tracemalloc

import numpy as np
import pytest

from avfuse.errors import InvalidInput
from avfuse.io import load_capture
from avfuse.vision_dsp import (
    NLM_PATCH_MAX,
    NLM_STRENGTH_MIN,
    DenseFlow,
    dwt2_energy,
    preprocess_frame,
    preprocess_frames,
)
from oracles import reference_dwt2_energies, reference_horn_schunck, reference_nlm

SHAPES = [(8, 8), (12, 20), (36, 52), (64, 64)]


def random_frames(shape, count=2):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    return [rng.integers(0, 256, size=shape, dtype=np.uint8) for _ in range(count)]


def scalar_nlm(pixels, patch=3, search=7, strength=10.0):
    """Loop-based NLM with the same reflect padding, the weight-formula oracle."""
    img = pixels.astype(np.float64)
    pr, sr = patch // 2, search // 2
    padded = np.pad(img, sr + pr, mode="reflect")
    out = np.zeros_like(img)
    h, w = img.shape
    for y in range(h):
        for x in range(w):
            cy, cx = y + sr + pr, x + sr + pr
            ref = padded[cy - pr:cy + pr + 1, cx - pr:cx + pr + 1]
            num = den = 0.0
            for dy in range(-sr, sr + 1):
                for dx in range(-sr, sr + 1):
                    cand = padded[cy + dy - pr:cy + dy + pr + 1, cx + dx - pr:cx + dx + pr + 1]
                    dist = np.mean((ref - cand) ** 2)
                    weight = np.exp(-dist / strength ** 2)
                    num += weight * padded[cy + dy, cx + dx]
                    den += weight
            out[y, x] = num / den
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def two_valued_frames(size=16):
    """Frames of two values a and a + d as steps, stripes, checkerboards, 2x2 checkerboards,
    diagonals and discs: equal-weight neighbours that put a mean on an exact .5 are likeliest here."""
    y, x = np.indices((size, size))
    masks = [x >= size // 2, y >= size // 3, x % 2 == 0, y % 3 == 0, (x + y) % 2 == 0,
             (x // 2 + y // 2) % 2 == 0, x >= y, x + y < size,
             (y - size / 2 + 0.5) ** 2 + (x - size / 2 + 0.5) ** 2 <= (size / 4) ** 2]
    return np.stack([np.where(mask, a + d, a).astype(np.uint8) for mask in masks
                     for d in (1, 2, 3, 5) for a in (0, 100, 250)])


def gaussian_blob(h, w, cy, cx, sigma=6.0, amp=200.0):
    y, x = np.mgrid[0:h, 0:w]
    return (amp * np.exp(-((y - cy) ** 2 + (x - cx) ** 2) / (2 * sigma ** 2))).astype(np.uint8)


class TestPreprocessFrame:
    def test_constant_frame_unchanged(self):
        frame = np.full((24, 24), 100, dtype=np.uint8)
        np.testing.assert_array_equal(preprocess_frame(frame), frame)

    def test_impulse_strictly_reduced(self):
        frame = np.full((32, 32), 100, dtype=np.uint8)
        frame[16, 16] = 150
        out = preprocess_frame(frame)
        assert out[16, 16] < 150
        assert out[10, 10] == 100

    def test_matches_scalar_weight_formula(self):
        rng = np.random.default_rng(13)
        frame = rng.integers(0, 256, size=(12, 14), dtype=np.uint8)
        np.testing.assert_array_equal(preprocess_frame(frame), scalar_nlm(frame))

    def test_checkerboard_edges_preserved(self):
        cb = ((np.indices((32, 32)).sum(axis=0) % 2) * 255).astype(np.uint8)
        out = preprocess_frame(cb)
        in_contrast = int(cb.max()) - int(cb.min())
        out_contrast = int(out.max()) - int(out.min())
        assert out_contrast >= 0.5 * in_contrast

    def test_idempotent_on_smooth_frames(self):
        y, x = np.mgrid[0:32, 0:32]
        smooth = (100 + 30 * np.sin(x / 16.0) + 15 * np.cos(y / 16.0)).astype(np.uint8)
        once = preprocess_frame(smooth)
        twice = preprocess_frame(once)
        assert np.abs(once.astype(int) - twice.astype(int)).max() <= 2

    def test_rgb_frame_rejected_naming_the_shape(self):
        with pytest.raises(InvalidInput, match=r"shape \(8, 8, 3\)"):
            preprocess_frame(np.zeros((8, 8, 3), dtype=np.uint8))

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidInput):
            preprocess_frame(np.zeros((0, 8), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (0, 0)])
    def test_nlm_zero_area_names_the_shape(self, shape):
        with pytest.raises(InvalidInput, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            preprocess_frame(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("patch", [0, 2, 4])
    def test_even_patch_rejected(self, patch):
        with pytest.raises(InvalidInput, match="patch must be odd"):
            preprocess_frame(np.zeros((8, 8), dtype=np.uint8), patch=patch)

    def test_the_largest_patch_keeps_every_distance_below_2_to_the_24(self):
        """float32 holds every integer up to 2^24, so it holds each 8-bit distance exactly
        up to patch 15; at 17 the largest would not fit."""
        assert NLM_PATCH_MAX == 15
        assert NLM_PATCH_MAX ** 2 * 255 ** 2 < 2 ** 24 < (NLM_PATCH_MAX + 2) ** 2 * 255 ** 2

    def test_patch_above_the_largest_rejected(self):
        preprocess_frame(np.zeros((16, 16), dtype=np.uint8), patch=NLM_PATCH_MAX, search=15)
        with pytest.raises(InvalidInput, match=r"patch must be odd and in \[1, 15\], got 17"):
            preprocess_frame(np.zeros((20, 20), dtype=np.uint8), patch=17, search=17)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.uint16, np.int8, bool])
    def test_frames_that_are_not_8_bit_rejected_naming_the_dtype(self, dtype):
        """The distances are exact only for 8-bit input."""
        with pytest.raises(InvalidInput, match=f"expected 8-bit frames, got dtype {np.dtype(dtype)}$"):
            preprocess_frames(np.zeros((2, 8, 8), dtype=dtype))

    @pytest.mark.parametrize("strength", [10.0, 300.0, 3e4])
    def test_bytes_equal_reference_where_distances_are_largest(self, strength):
        """Full-contrast 0/255 checkerboards at patch 15: every odd offset puts each pixel
        255 away from its partner, a distance of 15^2 * 255^2 = 14,630,625, the largest an
        8-bit frame can reach; float32 holds it and each partial sum exactly."""
        y, x = np.indices((24, 24))
        boards = [(x + y) % 2, (x // 2 + y // 2) % 2, (x + y + 1) % 2, (x // 3 + y) % 2]
        frames = np.stack([board * 255 for board in boards]).astype(np.uint8)
        frames[3, 11, 7] = 128
        denoised = preprocess_frames(frames, NLM_PATCH_MAX, NLM_PATCH_MAX, strength)
        for frame, out in zip(frames, denoised):
            np.testing.assert_array_equal(
                out, reference_nlm(frame, NLM_PATCH_MAX, NLM_PATCH_MAX, strength))

    def test_search_window_wider_than_the_frame_rejected(self):
        preprocess_frame(np.zeros((7, 12), dtype=np.uint8), search=7)
        with pytest.raises(InvalidInput, match="search window 9 exceeds the smaller side of a 8x12"):
            preprocess_frame(np.zeros((8, 12), dtype=np.uint8), search=9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("patch", [1, 3, 7])
    def test_strength_floor_keeps_every_weight_finite(self, patch):
        """At the floor only identical patches weigh, so a full-contrast frame comes back unchanged."""
        frame = ((np.indices((16, 16)).sum(axis=0) % 2) * 255).astype(np.uint8)
        frame[5, 9] = 17
        out = preprocess_frame(frame, patch=patch, search=7, strength=NLM_STRENGTH_MIN)
        np.testing.assert_array_equal(out, frame)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("patch,search", [(1, 3), (3, 7), (5, 7)])
    def test_bytes_equal_cumsum_reference(self, shape, patch, search):
        for frame in random_frames(shape):
            np.testing.assert_array_equal(preprocess_frame(frame, patch, search),
                                          reference_nlm(frame, patch, search))

    @pytest.mark.parametrize("patch,search,strength", [(3, 7, 10), (3, 5, 1), (1, 3, 0.5),
                                                        (5, 9, 2), (3, 7, 100), (1, 5, 1e3),
                                                        (1, 3, 1 / np.sqrt(np.log(2)))])
    def test_bytes_equal_reference_on_rounding_tie_probes(self, patch, search, strength):
        """Each +-offset pair is added after the center, not in raster order; only a mean within
        rounding of a .5 tie could tell the orders apart, and two-valued frames are where ties
        sit. At the last strength a neighbour one level apart weighs exactly 1/2, so a stripe
        pixel with three equal and six differing neighbours averages to an exact .5."""
        frames = two_valued_frames()
        denoised = preprocess_frames(frames, patch, search, strength)
        for frame, out in zip(frames, denoised):
            np.testing.assert_array_equal(out, reference_nlm(frame, patch, search, strength))

    def test_memory_does_not_grow_with_the_search_window(self):
        """One weight plane at a time: at search 15 the peak stays under twice that at search 3,
        where keeping one plane per offset pair would take about ten times as much."""
        frames = random_frames((64, 64), count=4)
        peaks = []
        for search in (3, 15):
            tracemalloc.start()
            try:
                preprocess_frames(np.stack(frames), 3, search)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bytes_equal_reference_where_the_flat_rows_wrap(self, injection_capture):
        """Tall frames, a search window as wide as the frame, patch equal to search and every
        injection frame: the wrapped columns of the flat layout never reach a kept pixel."""
        cases = [(frame, 3, 7) for frame in random_frames((20, 8))]
        cases += [(frame, patch, 7) for patch in (1, 3, 5) for frame in random_frames((7, 12))]
        cases += [(frame, 7, 7) for frame in random_frames((16, 16))]
        burst, _ = load_capture(injection_capture)
        cases += [(frame.pixels, 3, 7) for frame in burst.frames]
        for frame, patch, search in cases:
            np.testing.assert_array_equal(preprocess_frame(frame, patch, search),
                                          reference_nlm(frame, patch, search))


class TestDwt2Energy:
    def test_zero_frame_all_zero(self):
        we = dwt2_energy(np.zeros((16, 16)))
        assert np.all(we.subband_energies == 0.0)
        assert we.total == 0.0

    def test_energy_conservation_thousand_random_frames(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            h = int(rng.integers(2, 9)) * 4
            w = int(rng.integers(2, 9)) * 4
            img = rng.uniform(0.0, 255.0, size=(h, w))
            we = dwt2_energy(img)
            pixel_energy = float(np.sum(img * img))
            assert abs(we.total - pixel_energy) <= 1e-6 * pixel_energy

    def test_constant_frame_energy_all_in_ll2(self):
        c = 9.0
        we = dwt2_energy(np.full((16, 16), c))
        assert np.allclose(we.subband_energies[1:], 0.0, atol=1e-18)
        assert we.ll2 == pytest.approx(c * c * 256, rel=1e-12)

    def test_too_small_frame_rejected(self):
        with pytest.raises(InvalidInput):
            dwt2_energy(np.zeros((4, 16)))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_to_rolled_reference(self, shape):
        rng = np.random.default_rng(4)
        for frame in [*random_frames(shape), rng.normal(0.0, 100.0, size=shape)]:
            assert tuple(dwt2_energy(frame).subband_energies) == reference_dwt2_energies(frame)


class TestDenseFlow:
    def test_identical_frames_give_zero_flow(self):
        frame = gaussian_blob(32, 32, 16, 16)
        flow = DenseFlow()(frame, frame)
        assert np.abs(flow.magnitude).max() < 1e-3

    def test_horizontal_shift_recovered_in_blob_interior(self):
        f1 = gaussian_blob(64, 64, 32, 31)
        f2 = gaussian_blob(64, 64, 32, 32)
        flow = DenseFlow()(f1, f2)
        interior = f1 > 40
        assert abs(flow.u[interior].mean() - 1.0) <= 0.25
        assert abs(flow.v[interior].mean()) <= 0.25

    def test_vertical_shift_by_axis_symmetry(self):
        f1 = gaussian_blob(64, 64, 31, 32)
        f2 = gaussian_blob(64, 64, 32, 32)
        flow = DenseFlow()(f1, f2)
        interior = f1 > 40
        assert abs(flow.v[interior].mean() - 1.0) <= 0.25
        assert abs(flow.u[interior].mean()) <= 0.25

    def test_translation_equivariance(self):
        f1 = gaussian_blob(64, 64, 32, 31)
        f2 = gaussian_blob(64, 64, 32, 32)
        g1 = gaussian_blob(64, 64, 37, 34)
        g2 = gaussian_blob(64, 64, 37, 35)
        base = DenseFlow()(f1, f2).u[f1 > 40].mean()
        shifted = DenseFlow()(g1, g2).u[g1 > 40].mean()
        assert abs(shifted - base) <= 0.1 * abs(base)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            DenseFlow()(np.zeros((8, 8)), np.zeros((8, 10)))

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (0, 4)])
    def test_degenerate_frames_name_the_shape(self, shape):
        with pytest.raises(InvalidInput, match=rf"\({shape[0]}, {shape[1]}\)"):
            DenseFlow()(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("iterations", [1, 7, 100])
    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    def test_float32_sweeps_stay_within_1e_5_of_float64_reference(self, shape, iterations, alpha):
        """The field within 1e-5 of its largest magnitude, the mean magnitude within 1e-5."""
        prev, nxt = random_frames(shape)
        flow = DenseFlow(alpha, iterations)(prev, nxt)
        u, v = reference_horn_schunck(prev, nxt, alpha=alpha, iterations=iterations)
        magnitude = np.hypot(u, v)
        assert flow.u.dtype == flow.v.dtype == np.float32
        assert np.abs(flow.u - u).max() <= 1e-5 * magnitude.max()
        assert np.abs(flow.v - v).max() <= 1e-5 * magnitude.max()
        assert abs(flow.magnitude.mean() - magnitude.mean()) <= 1e-5 * magnitude.mean()

    def test_estimator_parameters_validated(self):
        with pytest.raises(InvalidInput):
            DenseFlow(alpha=0.0)
        with pytest.raises(InvalidInput):
            DenseFlow(iterations=0)

