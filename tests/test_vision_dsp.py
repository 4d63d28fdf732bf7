import numpy as np
import pytest

from avfuse.errors import InvalidInput
from avfuse.io import load_capture
from avfuse.vision_dsp import (
    NLM_STRENGTH_MIN,
    DenseFlow,
    dwt2_energy,
    nlm_denoise,
    preprocess_frame,
    to_grayscale,
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
        np.testing.assert_array_equal(nlm_denoise(frame), scalar_nlm(frame))

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

    def test_rgb_converted_with_601_weights(self):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        rgb[..., 1] = 255  # pure green
        gray = to_grayscale(rgb)
        assert np.all(gray == round(0.587 * 255))

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidInput):
            preprocess_frame(np.zeros((0, 8), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(0, 8), (8, 0), (0, 0)])
    def test_nlm_zero_area_names_the_shape(self, shape):
        with pytest.raises(InvalidInput, match=rf"shape \({shape[0]}, {shape[1]}\)"):
            nlm_denoise(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("patch", [0, 2, 4])
    def test_even_patch_rejected(self, patch):
        with pytest.raises(InvalidInput, match="patch must be odd"):
            nlm_denoise(np.zeros((8, 8), dtype=np.uint8), patch=patch)

    def test_search_window_wider_than_the_frame_rejected(self):
        nlm_denoise(np.zeros((7, 12), dtype=np.uint8), search=7)
        with pytest.raises(InvalidInput, match="search window 9 exceeds the smaller side of a 8x12"):
            nlm_denoise(np.zeros((8, 12), dtype=np.uint8), search=9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("patch", [1, 3, 7])
    def test_strength_floor_keeps_every_weight_finite(self, patch):
        """At the floor only identical patches weigh, so a full-contrast frame comes back unchanged."""
        frame = ((np.indices((16, 16)).sum(axis=0) % 2) * 255).astype(np.uint8)
        frame[5, 9] = 17
        out = nlm_denoise(frame, patch=patch, search=7, strength=NLM_STRENGTH_MIN)
        np.testing.assert_array_equal(out, frame)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("patch,search", [(1, 3), (3, 7), (5, 7)])
    def test_bytes_equal_cumsum_reference(self, shape, patch, search):
        for frame in random_frames(shape):
            np.testing.assert_array_equal(nlm_denoise(frame, patch, search),
                                          reference_nlm(frame, patch, search))

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
            np.testing.assert_array_equal(nlm_denoise(frame, patch, search),
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

