"""Tests for observation-map construction, mirroring, pooling, and export."""

import numpy as np
import pytest

from sparseps.errors import DegenerateSamplesError, HemisphereError
from sparseps.fileio import read_pgm
from sparseps.geometry import normalize, sample_hemisphere_lights
from helpers import (
    ClippedReflection,
    avg_pool,
    criterion_8_trial,
    parent_observation_maps,
    parent_sample_maps,
    reference_observation_map,
    reference_sample_maps,
)
from sparseps.obsmap import (
    BatchReflection,
    ObservationMap,
    PixelSamples,
    ReflectionPlan,
    axis_from_normal,
    build_observation_map,
    build_observation_maps,
    build_sample_maps,
    map_cell_lights,
    mirror,
    mirror_fill,
    occupied_cells,
    project_light,
    save_obsm,
    save_pgm,
)


def scattered_sample_maps(samples, w):
    """build_sample_maps' occupied cells and values scattered into zeroed
    (len(samples), w*w) maps and uint8 0/1 masks."""
    cells, sparse = build_sample_maps(samples, w)
    values = np.zeros((len(samples), w * w))
    values.reshape(-1)[cells] = sparse
    mask = np.zeros(values.shape, np.uint8)
    mask.reshape(-1)[cells] = 1
    return values, mask


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
        lights = sample_hemisphere_lights(1000, 90.0, np.random.default_rng(2))
        samples = PixelSamples(lights, lights[:, 2])
        obs = build_observation_map(samples, 32)
        assert obs.mask.sum() < 1024

    def test_all_zero_irradiance_raises(self):
        samples = PixelSamples([[0, 0, 1.0], [0.3, 0, 0.954]], [0.0, 0.0])
        with pytest.raises(DegenerateSamplesError):
            build_observation_map(samples, 32)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        lights = sample_hemisphere_lights(200, 90.0, rng)
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
        lights = sample_hemisphere_lights(9, 90.0, rng)
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


class TestOccupiedCells:
    """occupied_cells against the per-pixel reference maps, and the dense
    builders against the parent's dense-average arithmetic, bit for bit."""

    def check(self, lights, irr, w=32):
        cells, values, ok = occupied_cells(lights, irr, w)
        assert values.shape == (cells.size, irr.shape[1])
        assert (np.diff(cells) > 0).all()
        for p in range(irr.shape[1]):
            ref = reference_observation_map(lights, irr[:, p], w)
            if ref is None:
                assert not ok[p]
                np.testing.assert_array_equal(values[:, p], 0.0)
                continue
            assert ok[p]
            np.testing.assert_array_equal(cells, np.flatnonzero(ref[1]))
            assert values[:, p].tobytes() == ref[0].ravel()[cells].tobytes()
        got = build_observation_maps(lights, irr, w)
        want = parent_observation_maps(lights, irr, w)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return cells, values, ok

    def test_shared_cell_and_all_zero_column(self):
        rng = np.random.default_rng(23)
        lights = sample_hemisphere_lights(9, 90.0, rng)
        # Three lights share the first cell, two others another one.
        lights = np.vstack([lights, lights[:1], lights[:1],
                            [[0.1, 0.1, 0.99], [0.1001, 0.1001, 0.99]]])
        irr = rng.uniform(0.0, 2.0, size=(13, 5))
        irr[:, 1] = 0.0
        self.check(lights, irr, 4)             # fewer cells than lights
        cells, values, ok = self.check(lights, irr)
        assert cells.size == 10
        np.testing.assert_array_equal(ok, [True, False, True, True, True])
        shared = np.searchsorted(cells, np.ravel_multi_index(
            project_light([0.1, 0.1, 0.99], 32), (32, 32)))
        assert values[shared, 0] == (irr[11, 0] + irr[12, 0]) / 2 / irr[:, 0].max()

    def test_dense_reference_lights(self):
        from sparseps.render import BlinnPhong, dense_map_lights, shade

        lights = dense_map_lights(1000, 32)
        irr = shade(normalize([0.3, -0.2, 0.9]), lights,
                    BlinnPhong(kd=0.3, ks=0.7, shininess=20.0))
        cells, _, _ = self.check(lights, irr[:, None])
        assert cells.size > 500

    def test_ten_lights_on_the_criterion_8_sphere(self):
        lights, irr, _ = criterion_8_trial()
        assert irr.shape == (10, 793)
        cells, _, ok = self.check(lights, irr)
        assert cells.size <= 10 and ok.any()

    def test_sample_maps_match_parent_arithmetic(self):
        rng = np.random.default_rng(43)
        samples = TestBuildSampleMaps.samples(rng, [1, 3, 10, 40, 2, 17, 10])
        samples.append(PixelSamples([[0.1, 0.1, 0.99], [0.1001, 0.1001, 0.99]],
                                    [0.3, 0.7]))
        for w in (4, 8, 32):
            got = scattered_sample_maps(samples, w)
            # The reference builds float masks; the program's are 0/1 bytes.
            values, mask = parent_sample_maps(samples, w)
            want = values, mask.astype(np.uint8)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


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
            np.testing.assert_array_equal(axis, n[:2] / np.linalg.norm(n[:2], axis=-1))


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


class TestBatchReflection:
    """A stack of axes gives what one batch of one per axis gives."""

    @staticmethod
    def axes(rng):
        normals = rng.normal(size=(12, 3))
        normals[:, 2] = np.abs(normals[:, 2]) + 0.1
        normals[:6, :2] = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                           [1.0, 1.0], [0.0, 0.0]]
        normals[6, :2] = [1e-8, -1e-8]        # within 1e-6 of z: the fallback
        return axis_from_normal(normals)

    @pytest.mark.parametrize("method", ["gather", "adjoint",
                                        "angle_derivative_of_gather",
                                        "gather_nearest"])
    @pytest.mark.parametrize("w", [8, 16, 32])
    def test_stack_equals_single_plans_bit_for_bit(self, w, method):
        rng = np.random.default_rng(w)
        axes = self.axes(rng)
        np.testing.assert_array_equal(axes[5:7], [[1.0, 0.0]] * 2)
        if method == "gather_nearest":
            grids = (rng.uniform(size=(len(axes), w * w)) < 0.5).astype(np.uint8)
        else:
            grids = rng.uniform(size=(len(axes), w * w))
        stacked = getattr(BatchReflection(w, axes), method)(grids)
        if method in ("gather", "gather_nearest"):
            single = np.stack([
                getattr(ReflectionPlan(w, a), method)(g.reshape(w, w)).ravel()
                for a, g in zip(axes, grids)])
        else:
            single = np.concatenate([
                getattr(BatchReflection(w, a[None]), method)(g[None])
                for a, g in zip(axes, grids)])
        assert stacked.dtype == single.dtype
        np.testing.assert_array_equal(stacked, single)


    WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32, 64]

    @staticmethod
    def angle_axes(degrees):
        rad = np.radians(degrees)
        return np.column_stack([np.cos(rad), np.sin(rad)])

    @pytest.mark.parametrize("method", ["gather", "adjoint",
                                        "angle_derivative_of_gather",
                                        "gather_nearest"])
    @pytest.mark.parametrize("w", WIDTHS)
    def test_matches_clipped_reference_bit_for_bit(self, w, method):
        # Axis-aligned, the 45-degree diagonals, the 22.5-degree family
        # (whose mirror positions reach furthest outside the grid), normals
        # near z (the fallback axis) and random normals.
        rng = np.random.default_rng(100 + w)
        normals = rng.normal(size=(24, 3))
        normals[:, 2] = np.abs(normals[:, 2]) + 0.1
        normals[:3, :2] = [[1e-8, 0.0], [0.0, -1e-9], [0.0, 0.0]]
        axes = np.concatenate([self.angle_axes(np.arange(0, 360, 22.5)),
                               axis_from_normal(normals)])
        if method == "gather_nearest":
            grids = (rng.uniform(size=(len(axes), w * w)) < 0.5).astype(np.uint8)
        elif method == "adjoint":
            grids = np.sign(rng.normal(size=(len(axes), w * w)))
            grids[:, ::5] = 0.0
        else:
            grids = rng.uniform(size=(len(axes), w * w))
            grids[:, ::3] = 0.0
        got = getattr(BatchReflection(w, axes), method)(grids)
        want = getattr(ClippedReflection(w, axes), method)(grids)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w,pad", [(1, 1), (2, 2), (16, 5), (32, 8)])
    def test_border_width(self, w, pad):
        assert BatchReflection(w, [[1.0, 0.0]]).pad == pad

    def test_corners_stay_in_their_own_padded_block(self):
        # A border too narrow would not raise: a corner past it reads the
        # neighbouring map's cells.  So check every corner's block, row and
        # column, on the 45-degree diagonals and on the 22.5-degree family,
        # where mirror positions reach (w-1)/2 * sqrt(2) from the center.
        axes = self.angle_axes(np.arange(0, 360, 22.5))
        for w in range(1, 65):
            refl = BatchReflection(w, axes)
            side = w + 2 * refl.pad
            for idx, (dy, dx) in zip(refl._idx, [(0, 0), (0, 1), (1, 0), (1, 1)]):
                block, cell = np.divmod(idx, side * side)
                row, col = np.divmod(cell, side)
                np.testing.assert_array_equal(
                    block, np.broadcast_to(np.arange(len(axes))[:, None], idx.shape))
                assert (row >= dy).all() and (row < side - 1 + dy).all(), w
                assert (col >= dx).all() and (col < side - 1 + dx).all(), w


class TestMirrorFill:
    """Testing only the 3 x 3 blocks around the known cells' mirror
    positions selects exactly the cells that BatchReflection.gather_nearest,
    read at every cell, selects."""

    WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 32, 64]

    @staticmethod
    def axes(rng):
        # The 22.5-degree family (axis-aligned and 45-degree axes among
        # them), normals near z (the fallback axis) and random normals.
        rad = np.radians(np.arange(0, 360, 22.5))
        normals = rng.normal(size=(24, 3))
        normals[:, 2] = np.abs(normals[:, 2]) + 0.1
        normals[:3, :2] = [[1e-8, 0.0], [0.0, -1e-9], [0.0, 0.0]]
        return np.concatenate([np.column_stack([np.cos(rad), np.sin(rad)]),
                               axis_from_normal(normals)])

    @staticmethod
    def every_cell(w, axes, known):
        """(dst, src) of each empty cell whose nearest mirror cell is known,
        from gather_nearest over every cell of an index grid (cell + 1, so
        0 reads outside the grid)."""
        size = w * w
        read = BatchReflection(w, axes).gather_nearest(
            np.tile(np.arange(1, size + 1), (len(axes), 1)))
        inside = read.reshape(-1) > 0
        src = (read - 1 + np.arange(len(axes))[:, None] * size).reshape(-1)
        flat = known.reshape(-1)
        take = inside & ~flat & flat[np.where(inside, src, 0)]
        dst = np.flatnonzero(take)
        return np.column_stack([dst, src[dst]])

    @staticmethod
    def pairs(dst, src):
        # Repeats are allowed; each cell must keep one source.
        return np.unique(np.column_stack([dst, src]), axis=0)

    @pytest.mark.parametrize("density", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("w", WIDTHS)
    def test_per_map_known(self, w, density):
        # Maps with their own known cells each take a call of their own.
        rng = np.random.default_rng(300 + w)
        axes = self.axes(rng)
        known = rng.uniform(size=(len(axes), w * w)) < density
        known[::5] = False
        known[::5, rng.integers(w * w)] = True        # one known cell
        known[1] = False                              # none
        size = w * w
        got = np.concatenate([
            np.column_stack(mirror_fill(w, axes[k:k + 1], np.flatnonzero(known[k])))
            + k * size for k in range(len(axes))])
        np.testing.assert_array_equal(self.pairs(*got.T),
                                      self.every_cell(w, axes, known))

    @pytest.mark.parametrize("w", WIDTHS)
    def test_shared_known(self, w):
        rng = np.random.default_rng(400 + w)
        axes = self.axes(rng)
        known = rng.uniform(size=w * w) < 0.1
        known[rng.integers(w * w)] = True
        got = self.pairs(*mirror_fill(w, axes, np.flatnonzero(known)))
        want = self.every_cell(w, axes, np.broadcast_to(known, (len(axes), w * w)))
        np.testing.assert_array_equal(got, want)


class TestBuildSampleMaps:
    """The occupied cells of training maps, each with its own lights, found
    in one pass."""

    @staticmethod
    def samples(rng, counts):
        out = []
        for k in counts:
            pool = sample_hemisphere_lights(64, 90.0, rng)
            lights = pool[rng.choice(64, size=k, replace=False)]
            out.append(PixelSamples(lights, rng.uniform(0.0, 1.0, size=k)))
        return out

    def test_matches_per_sample_maps_bit_for_bit(self):
        rng = np.random.default_rng(41)
        samples = self.samples(rng, [1, 3, 10, 40, 2, 17])
        # Two lights in one cell: their mean is what the map holds.
        samples.append(PixelSamples([[0.1, 0.1, 0.99], [0.1001, 0.1001, 0.99],
                                     [0.5, 0.0, 0.866]], [0.3, 0.7, 0.2]))
        for w in (4, 8, 32):
            values, mask = scattered_sample_maps(samples, w)
            ref_values, ref_mask = reference_sample_maps(samples, w)
            assert values.tobytes() == ref_values.tobytes()
            assert mask.dtype == np.uint8
            assert mask.tobytes() == ref_mask.astype(np.uint8).tobytes()
            for s, v, m in zip(samples, values, mask):
                one = build_observation_map(s, w)
                assert v.tobytes() == one.values.ravel().tobytes()
                np.testing.assert_array_equal(m, one.mask.ravel())
        cells, _ = build_sample_maps(samples, 32)
        assert (np.diff(cells) > 0).all() and cells.size == mask.sum()
        row, col = project_light([0.1, 0.1, 0.99], 32)
        assert project_light([0.1001, 0.1001, 0.99], 32) == (row, col)
        assert mask[-1].sum() == 2
        assert values[-1, row * 32 + col] == (0.3 + 0.7) / 2 / 0.7

    def test_all_zero_sample_raises(self):
        rng = np.random.default_rng(42)
        samples = self.samples(rng, [5, 4, 6])
        samples[1] = PixelSamples(samples[1].lights, np.zeros(4))
        with pytest.raises(DegenerateSamplesError, match="sample 1"):
            build_sample_maps(samples, 16)
        with pytest.raises(DegenerateSamplesError):
            reference_sample_maps(samples, 16)


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
        raw = path.read_bytes()
        # Width, then the float32 values, then the mask bytes, row-major.
        assert int.from_bytes(raw[4:8], "little") == 16
        values = np.frombuffer(raw, dtype="<f4", count=256, offset=8)
        mask = np.frombuffer(raw, dtype=np.uint8, count=256, offset=8 + 4 * 256)
        np.testing.assert_allclose(values.reshape(16, 16), obs.values, atol=1e-7)
        np.testing.assert_array_equal(mask.reshape(16, 16), obs.mask)

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
