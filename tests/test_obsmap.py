"""Tests for observation-map construction, mirroring, pooling, and export."""

import numpy as np
import pytest

from sparseps.errors import DegenerateSamplesError, HemisphereError
from sparseps.fileio import read_pgm
from sparseps.geometry import fibonacci_hemisphere, normalize
from helpers import reference_observation_map
from sparseps.obsmap import (
    ObservationMap,
    PixelSamples,
    avg_pool,
    axis_from_normal,
    build_observation_map,
    build_observation_maps,
    load_obsm,
    map_cell_lights,
    mirror,
    project_light,
    save_obsm,
    save_pgm,
)


def random_map(w, rng, density=1.0):
    values = rng.uniform(0.0, 1.0, size=(w, w))
    mask = (rng.uniform(size=(w, w)) < density).astype(np.uint8)
    values *= mask
    return ObservationMap(values, mask)


class TestProjectLight:
    def test_zenith_maps_to_center(self):
        assert project_light([0, 0, 1], 32) == (16, 16)

    def test_grazing_x_clamps_to_edge(self):
        assert project_light([0.999, 0.0, 0.045], 32) == (16, 31)

    def test_derived_example(self):
        # col = floor(32 * 1.5 / 2) = 24, row = floor(32 * 0.5 / 2) = 8
        assert project_light([0.5, -0.5, 0.7071], 32) == (8, 24)

    def test_below_horizon_raises(self):
        with pytest.raises(HemisphereError):
            project_light([0.0, 0.0, -0.1], 32)

    def test_total_on_closed_hemisphere(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = rng.normal(size=3)
            v[2] = abs(v[2])
            l = v / np.linalg.norm(v)
            row, col = project_light(l, 32)
            assert 0 <= row < 32 and 0 <= col < 32


class TestBuildObservationMap:
    def test_single_sample_normalizes_to_one(self):
        samples = PixelSamples([[0.0, 0.0, 1.0]], [0.5])
        obs = build_observation_map(samples, 32)
        assert obs.values[16, 16] == 1.0
        assert obs.mask.sum() == 1
        assert obs.mask[16, 16] == 1

    def test_collision_average_then_peak_normalization(self):
        # Two samples in the same cell: (0.2 + 0.6)/2 divided by the 0.6 peak.
        l = [0.0, 0.0, 1.0]
        samples = PixelSamples([l, l], [0.2, 0.6])
        obs = build_observation_map(samples, 32)
        assert obs.values[16, 16] == pytest.approx(0.4 / 0.6)
        assert obs.values[16, 16] == pytest.approx(0.6667, abs=1e-4)
        assert obs.mask.sum() == 1

    def test_dense_cover_leaves_holes(self):
        lights = fibonacci_hemisphere(1000)
        samples = PixelSamples(lights, lights[:, 2])
        obs = build_observation_map(samples, 32)
        assert obs.mask.sum() < 1024

    def test_all_zero_irradiance_raises(self):
        samples = PixelSamples([[0, 0, 1.0], [0.3, 0, 0.954]], [0.0, 0.0])
        with pytest.raises(DegenerateSamplesError):
            build_observation_map(samples, 32)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        lights = fibonacci_hemisphere(200)
        samples = PixelSamples(lights, rng.uniform(0.0, 5.0, size=200))
        obs = build_observation_map(samples, 32)
        assert obs.values.max() <= 1.0
        assert obs.values.min() >= 0.0

    def test_unoccupied_cells_are_exactly_zero(self):
        samples = PixelSamples([[0.0, 0.0, 1.0]], [2.0])
        obs = build_observation_map(samples, 16)
        assert np.count_nonzero(obs.values) == 1


class TestBuildObservationMaps:
    def setup_method(self):
        rng = np.random.default_rng(21)
        lights = fibonacci_hemisphere(9)
        self.lights = np.vstack([lights, lights[:1], lights[:1]])
        self.irr = rng.uniform(0.0, 2.0, size=(11, 6))
        self.irr[:, 2] = 0.0                  # all-zero column
        self.irr[4, 3] = 0.0                  # one dark sample

    def test_equals_per_column_maps_bit_for_bit(self):
        values, mask, ok = build_observation_maps(self.lights, self.irr, 32)
        # The last two lights repeat the first: three share one cell.
        assert mask.sum() == 9
        np.testing.assert_array_equal(ok, [True, True, False, True, True, True])
        for p in range(self.irr.shape[1]):
            ref = reference_observation_map(self.lights, self.irr[:, p], 32)
            if ref is None:
                assert not ok[p]
                np.testing.assert_array_equal(values[p], 0.0)
                continue
            np.testing.assert_array_equal(values[p], ref[0])
            np.testing.assert_array_equal(mask, ref[1])
            single = build_observation_map(PixelSamples(self.lights, self.irr[:, p]), 32)
            np.testing.assert_array_equal(single.values, ref[0])
            np.testing.assert_array_equal(single.mask, ref[1])

    def test_negative_irradiance_rejected(self):
        irr = self.irr.copy()
        irr[0, 0] = -1.0
        with pytest.raises(ValueError):
            build_observation_maps(self.lights, irr, 32)


class TestPixelSamplesValidation:
    def test_requires_at_least_one_sample(self):
        with pytest.raises(ValueError):
            PixelSamples(np.zeros((0, 3)), np.zeros(0))

    def test_rejects_negative_irradiance(self):
        with pytest.raises(ValueError):
            PixelSamples([[0, 0, 1.0]], [-0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PixelSamples([[0, 0, 1.0]], [np.nan])

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            PixelSamples([[0, 0, 1.0]], [0.1, 0.2])


class TestMapCellLights:
    def test_round_trip_through_projection(self):
        lights, rows, cols = map_cell_lights(32)
        for l, r, c in zip(lights[:50], rows[:50], cols[:50]):
            assert project_light(l, 32) == (r, c)

    def test_only_disk_cells(self):
        lights, rows, cols = map_cell_lights(32)
        assert lights.shape[0] < 1024
        assert np.all(lights[:, 2] > 0)


class TestAxisFromNormal:
    def test_in_plane_normal(self):
        np.testing.assert_allclose(axis_from_normal([0, 1, 0]), [0, 1])

    def test_degenerate_convention(self):
        np.testing.assert_allclose(axis_from_normal([0, 0, 1]), [1, 0])

    def test_derived_normalization(self):
        axis = axis_from_normal([0.6, 0.6, 0.529])
        np.testing.assert_allclose(axis, [0.7071, 0.7071], atol=1e-4)

    def test_stack_matches_single_calls_bit_for_bit(self):
        rng = np.random.default_rng(8)
        normals = rng.normal(size=(2000, 3))
        normals[:3, :2] = [[0.0, 0.0], [1e-7, 0.0], [0.0, -1e-7]]
        stacked = axis_from_normal(normals)
        single = np.stack([axis_from_normal(n) for n in normals])
        np.testing.assert_array_equal(stacked, single)
        np.testing.assert_array_equal(stacked[:3], [[1.0, 0.0]] * 3)
        # The stack path must not round the single-vector norm differently.
        for n, axis in zip(normals[3:], single[3:]):
            np.testing.assert_array_equal(axis, n[:2] / np.linalg.norm(n[:2]))


class TestMirror:
    def test_vertical_axis_is_column_flip(self):
        rng = np.random.default_rng(1)
        obs = random_map(8, rng)
        out = mirror(obs, [0, 1, 0])
        np.testing.assert_array_equal(out.values, obs.values[:, ::-1])
        np.testing.assert_array_equal(out.mask, obs.mask[:, ::-1])

    def test_degenerate_axis_is_row_flip(self):
        rng = np.random.default_rng(2)
        obs = random_map(8, rng)
        out = mirror(obs, [0, 0, 1])
        np.testing.assert_array_equal(out.values, obs.values[::-1, :])

    def test_axis_aligned_involution_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            obs = random_map(16, rng, density=0.7)
            twice = mirror(mirror(obs, [0, 1, 0]), [0, 1, 0])
            assert np.max(np.abs(twice.values - obs.values)) == 0.0
            np.testing.assert_array_equal(twice.mask, obs.mask)

    def test_diagonal_axis_is_transpose(self):
        rng = np.random.default_rng(4)
        obs = random_map(8, rng)
        axis_n = normalize([1.0, 1.0, 0.5])
        out = mirror(obs, axis_n)
        np.testing.assert_allclose(out.values, obs.values.T, atol=1e-12)

    def test_preserves_sum_for_dense_smooth_maps(self):
        # Disk-supported radial bump; reflections stay inside the disk.
        w = 32
        idx = (np.arange(w) - (w - 1) / 2.0) / (w / 2.0)
        xx, yy = np.meshgrid(idx, idx)
        rr = xx ** 2 + yy ** 2
        values = np.where(rr < 0.81, np.exp(-rr * 3.0), 0.0)
        obs = ObservationMap(values, (values > 0).astype(np.uint8))
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = normalize(np.append(rng.normal(size=2), abs(rng.normal()) + 0.2))
            out = mirror(obs, n)
            assert out.values.sum() == pytest.approx(values.sum(), rel=0.01)


class TestAvgPool:
    def test_constant_map(self):
        obs = ObservationMap(np.full((8, 8), 0.3), np.ones((8, 8), np.uint8))
        out = avg_pool(obs)
        assert out.width == 4
        np.testing.assert_allclose(out.values, 0.3)

    def test_shape_halves(self):
        obs = ObservationMap(np.zeros((32, 32)), np.zeros((32, 32), np.uint8))
        assert avg_pool(obs).width == 16

    def test_block_mean(self):
        values = np.zeros((2, 2))
        values[0, 0], values[0, 1], values[1, 0], values[1, 1] = 0, 0.4, 0.8, 1.0
        obs = ObservationMap(values, np.ones((2, 2), np.uint8))
        assert avg_pool(obs).values[0, 0] == pytest.approx(0.55)

    def test_mask_any(self):
        mask = np.zeros((4, 4), np.uint8)
        mask[0, 1] = 1
        obs = ObservationMap(np.zeros((4, 4)), mask)
        out = avg_pool(obs)
        assert out.mask[0, 0] == 1
        assert out.mask[1, 1] == 0

    def test_odd_width_rejected(self):
        obs = ObservationMap(np.zeros((3, 3)), np.zeros((3, 3), np.uint8))
        with pytest.raises(ValueError):
            avg_pool(obs)


class TestExport:
    def test_obsm_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        obs = random_map(16, rng, density=0.5)
        path = tmp_path / "map.obsm"
        save_obsm(obs, path)
        back = load_obsm(path)
        assert back.width == 16
        np.testing.assert_allclose(back.values, obs.values, atol=1e-7)
        np.testing.assert_array_equal(back.mask, obs.mask)

    def test_obsm_layout(self, tmp_path):
        obs = ObservationMap(np.zeros((4, 4)), np.zeros((4, 4), np.uint8))
        path = tmp_path / "map.obsm"
        save_obsm(obs, path)
        raw = path.read_bytes()
        assert raw[:4] == b"OBSM"
        assert int.from_bytes(raw[4:8], "little") == 4
        assert len(raw) == 8 + 4 * 16 + 16

    def test_pgm_scaling(self, tmp_path):
        values = np.zeros((4, 4))
        values[0, 0] = 1.0
        values[1, 1] = 0.5
        obs = ObservationMap(values, (values > 0).astype(np.uint8))
        path = tmp_path / "map.pgm"
        save_pgm(obs, path)
        img = read_pgm(path)
        assert img[0, 0] == 255
        assert img[1, 1] == 128   # rint(0.5 * 255) = 128
        assert img[2, 2] == 0
