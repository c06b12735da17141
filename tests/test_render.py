"""Tests for shading, sphere rendering, dense maps, and shadow injection."""

import numpy as np
import pytest

from sparseps.fileio import read_pfm, write_pfm
from sparseps.geometry import normalize, sample_hemisphere_lights
from sparseps.losses import sym_loss
from sparseps.obsmap import PixelSamples
from sparseps.render import (
    BlinnPhong,
    Lambertian,
    OccluderCone,
    dense_map_lights,
    inject_cast_shadow,
    load_scene,
    make_dense_gt_map,
    render_sphere,
    save_scene,
    shade,
)

Z = np.array([0.0, 0.0, 1.0])


def reflect_across_vn_plane(l, n):
    """Mirror a light across the plane spanned by the view axis and n."""
    m = np.cross(Z, n)
    m = m / np.linalg.norm(m)
    return l - 2.0 * np.dot(l, m) * m


class TestShade:
    def test_lambertian_head_on(self):
        assert shade(Z, Z, Lambertian(albedo=1.0)) == pytest.approx(1.0)

    def test_attached_shadow_is_zero(self):
        n = Z
        l = normalize([0.3, 0.0, -0.3])  # n.l < 0
        for brdf in (Lambertian(0.8), BlinnPhong(0.2, 1.0, 10.0)):
            assert shade(n, l, brdf) == 0.0

    def test_blinn_phong_head_on(self):
        # h = (l + v)/|l + v| = z, so 1 * (0.2 + 1 * 1^10) = 1.2
        brdf = BlinnPhong(kd=0.2, ks=1.0, shininess=10.0)
        assert shade(Z, Z, brdf) == pytest.approx(1.2)

    def test_batched_lights(self):
        lights = sample_hemisphere_lights(20, 75.0, np.random.default_rng(0))
        n = normalize([0.2, -0.1, 0.9])
        batch = shade(n, lights, Lambertian(0.7))
        single = [shade(n, l, Lambertian(0.7)) for l in lights]
        np.testing.assert_allclose(batch, single)

    def test_isotropy_witness(self):
        # Lights mirrored across the (v, n) plane shade identically.
        rng = np.random.default_rng(13)
        brdfs = [Lambertian(0.9), BlinnPhong(0.3, 0.8, 25.0)]
        for _ in range(100):
            n = normalize([rng.normal(), rng.normal(), abs(rng.normal()) + 0.1])
            l1 = sample_hemisphere_lights(1, 90.0, rng)[0]
            l2 = reflect_across_vn_plane(l1, n)
            for brdf in brdfs:
                assert shade(n, l1, brdf) == pytest.approx(
                    shade(n, l2, brdf), abs=1e-12)

    def test_lambertian_monotone_in_angle(self):
        angles = np.radians(np.linspace(0.0, 180.0, 50))
        values = [shade(Z, [np.sin(a), 0.0, np.cos(a)], Lambertian(1.0))
                  for a in angles]
        assert all(v >= 0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRenderSphere:
    def test_center_pixel_normal_is_apex(self):
        scene = render_sphere(64, Lambertian(1.0), [Z])
        np.testing.assert_allclose(scene.normals[32, 32], [0, 0, 1])

    def test_zenith_light_image_equals_nz(self):
        scene = render_sphere(64, Lambertian(1.0), [Z])
        np.testing.assert_allclose(scene.images[0], scene.normals[:, :, 2])

    def test_pixel_count_matches_disk(self):
        res = 48
        scene = render_sphere(res, Lambertian(1.0), [Z])
        idx = np.arange(res)
        x = 2.0 * idx / res - 1.0
        xx, yy = np.meshgrid(x, x)
        assert scene.mask.sum() == np.count_nonzero(xx ** 2 + yy ** 2 < 1.0)

    def test_pixel_samples_accessor(self):
        lights = sample_hemisphere_lights(5, 60.0, np.random.default_rng(2))
        scene = render_sphere(32, Lambertian(0.5), lights)
        samples = scene.pixel_samples(16, 16)
        assert len(samples) == 5
        np.testing.assert_allclose(
            samples.irradiance,
            shade(samples.normal, lights, Lambertian(0.5)))

    def test_outside_disk_rejected(self):
        scene = render_sphere(32, Lambertian(1.0), [Z])
        with pytest.raises(ValueError):
            scene.pixel_samples(0, 0)


class TestInjectCastShadow:
    def test_tiny_cone_changes_nothing(self):
        lights = sample_hemisphere_lights(50, 80.0, np.random.default_rng(3))
        samples = PixelSamples(lights, np.linspace(0.1, 1.0, 50))
        cone = OccluderCone(normalize([0.41234, 0.113, 0.9]), 1e-9)
        out = inject_cast_shadow(samples, cone)
        np.testing.assert_array_equal(out.irradiance, samples.irradiance)

    def test_direct_hit_zeroed(self):
        lights = sample_hemisphere_lights(10, 70.0, np.random.default_rng(4))
        samples = PixelSamples(lights, np.full(10, 0.5))
        cone = OccluderCone(lights[3], 5.0)
        out = inject_cast_shadow(samples, cone)
        assert out.irradiance[3] == 0.0

    def test_zenith_cone_fraction_matches_cap_area(self):
        # Spherical cap over hemisphere: (1 - cos 30 deg) = 0.1340.
        lights = sample_hemisphere_lights(1000, 90.0, np.random.default_rng(5))
        samples = PixelSamples(lights, np.ones(1000))
        out = inject_cast_shadow(samples, OccluderCone(Z, 30.0))
        fraction = np.mean(out.irradiance == 0.0)
        assert fraction == pytest.approx(1.0 - np.cos(np.radians(30.0)), abs=0.02)
        assert fraction == pytest.approx(0.134, abs=0.02)

    def test_shadow_breaks_symmetry_of_dense_maps(self):
        # A one-sided occluder must strictly raise the symmetric loss.
        from sparseps.obsmap import axis_from_normal, build_observation_map

        rng = np.random.default_rng(6)
        wins = 0
        for _ in range(20):
            n = normalize([rng.normal(), rng.normal(), abs(rng.normal()) + 0.4])
            lights = dense_map_lights(1000, 32)
            irr = shade(n, lights, Lambertian(0.9))
            samples = PixelSamples(lights, irr, n)
            axis = axis_from_normal(n)
            # Center the cone off the mirror axis (one-sided damage) and make
            # sure it actually covers at least one lit sample.
            cos_half = np.cos(np.radians(15.0))
            while True:
                center = sample_hemisphere_lights(1, 80.0, rng)[0]
                off_axis = abs(center[0] * axis[1] - center[1] * axis[0])
                covered = irr[lights @ center >= cos_half]
                if off_axis > 0.35 and covered.size and covered.max() > 0:
                    break
            shadowed = inject_cast_shadow(samples, OccluderCone(center, 15.0))
            clean_map = build_observation_map(samples, 32)
            shadow_map = build_observation_map(shadowed, 32)
            if sym_loss(shadow_map, n) > sym_loss(clean_map, n):
                wins += 1
        assert wins == 20


class TestDenseGtMap:
    def test_width_and_peak(self):
        obs = make_dense_gt_map(Z, Lambertian(1.0), 1000, 32)
        assert obs.width == 32
        assert obs.values.max() == pytest.approx(1.0, abs=1e-2)

    def test_zenith_lambertian_peak_is_exact(self):
        obs = make_dense_gt_map(Z, Lambertian(1.0), 1000, 32)
        assert obs.values.max() == 1.0

    def test_radial_profile_matches_oracle(self):
        # Lambertian at the apex: value is sqrt(1 - r^2) scaled by the peak
        # irradiance of the light sequence.  The outer rim is excluded, where
        # the support edge dominates the discretization error.
        obs = make_dense_gt_map(Z, Lambertian(1.0), 1000, 32)
        idx = np.arange(32)
        x = (2.0 * idx + 1.0) / 32 - 1.0
        xx, yy = np.meshgrid(x, x)
        r = np.sqrt(xx ** 2 + yy ** 2)
        peak = dense_map_lights(1000, 32)[:, 2].max()
        expected = np.sqrt(np.clip(1.0 - r ** 2, 0.0, None)) / peak
        occupied = obs.mask.astype(bool) & (r <= 0.7)
        assert np.max(np.abs(obs.values - expected)[occupied]) <= 0.02

    def test_ring_spread_is_small(self):
        from collections import defaultdict

        obs = make_dense_gt_map(Z, Lambertian(1.0), 1000, 32)
        idx = np.arange(32)
        x = (2.0 * idx + 1.0) / 32 - 1.0
        xx, yy = np.meshgrid(x, x)
        r = np.sqrt(xx ** 2 + yy ** 2)
        rings = defaultdict(list)
        for i, j in zip(*np.nonzero(obs.mask)):
            if r[i, j] <= 0.6:
                rings[round(r[i, j], 9)].append(obs.values[i, j])
        spread = max(max(v) - min(v) for v in rings.values() if len(v) > 1)
        assert spread <= 0.02

    def test_isotropy_symmetry_both_variants(self):
        rng = np.random.default_rng(7)
        for brdf in (Lambertian(0.8), BlinnPhong(0.4, 0.8, 20.0)):
            for _ in range(5):
                n = normalize([rng.normal(), rng.normal(),
                               abs(rng.normal()) + 0.5])
                if n[2] < 0.3:
                    continue
                obs = make_dense_gt_map(n, brdf, 1000, 32)
                assert sym_loss(obs, n) / obs.mask.sum() <= 0.02

    def test_deterministic(self):
        a = make_dense_gt_map([0.3, 0.1, 0.9486], BlinnPhong(), 1000, 32)
        b = make_dense_gt_map([0.3, 0.1, 0.9486], BlinnPhong(), 1000, 32)
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("light_count,w", [(1000, 32), (1000, 16),
                                               (100, 64), (300, 8)])
    def test_bit_identical_to_build_observation_map(self, light_count, w):
        from sparseps.obsmap import build_observation_map

        rng = np.random.default_rng(light_count + w)
        lights = dense_map_lights(light_count, w)
        for brdf in (Lambertian(0.7), BlinnPhong(0.3, 0.9, 30.0)):
            for _ in range(3):
                n = normalize([rng.normal(), rng.normal(),
                               abs(rng.normal()) + 0.3])
                want = build_observation_map(
                    PixelSamples(lights, shade(n, lights, brdf), n), w)
                got = make_dense_gt_map(n, brdf, light_count, w)
                assert got.values.tobytes() == want.values.tobytes()
                assert got.mask.tobytes() == want.mask.tobytes()

    def test_all_dark_normal_rejected(self):
        from sparseps.errors import DegenerateSamplesError

        with pytest.raises(DegenerateSamplesError):
            make_dense_gt_map([0.0, 0.0, -1.0], Lambertian(1.0), 1000, 32)

    def test_light_count_floor(self):
        with pytest.raises(ValueError):
            make_dense_gt_map(Z, Lambertian(1.0), 50, 32)

    def test_dense_lights_cached_read_only(self):
        lights = dense_map_lights(1000, 32)
        assert dense_map_lights(1000, 32) is lights
        assert dense_map_lights(1000, 16) is not lights
        with pytest.raises(ValueError):
            lights[0, 0] = 0.5
        assert lights.shape == (1000, 3)


class TestSceneIO:
    def test_pfm_round_trip_gray(self, tmp_path):
        rng = np.random.default_rng(8)
        img = rng.uniform(0, 2, size=(17, 23)).astype(np.float32)
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        np.testing.assert_allclose(read_pfm(path), img)

    def test_pfm_round_trip_color(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(11, 7, 3)).astype(np.float32)
        path = tmp_path / "normals.pfm"
        write_pfm(path, img)
        np.testing.assert_allclose(read_pfm(path), img)

    def test_scene_round_trip(self, tmp_path):
        lights = sample_hemisphere_lights(4, 70.0, np.random.default_rng(10))
        scene = render_sphere(24, Lambertian(0.6), lights)
        scene.meta["seed"] = 10
        save_scene(scene, tmp_path / "scene")
        back = load_scene(tmp_path / "scene")
        assert back.resolution == 24
        np.testing.assert_array_equal(back.mask, scene.mask)
        np.testing.assert_allclose(back.lights, scene.lights, atol=1e-7)
        np.testing.assert_allclose(back.images, scene.images, atol=1e-6)
        np.testing.assert_allclose(back.normals, scene.normals, atol=1e-6)
        assert back.meta["seed"] == "10"
