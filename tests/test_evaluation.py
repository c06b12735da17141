"""Tests for the trial protocol, noise sweeps, outlier tables, and reports."""

import statistics
import sys

import numpy as np
import pytest

from helpers import (
    criterion_8_sphere,
    criterion_8_trial,
    reference_inpaint_ls,
    reference_model_solver,
    reference_observation_map,
)
from sparseps.evaluation import (
    InpaintLsSolver,
    LsSolver,
    ModelSolver,
    TrialConfig,
    noise_sweep,
    outlier_sensitivity,
    read_report,
    run_trials,
    write_report,
)
from sparseps.errors import SparsePSError
from sparseps.fileio import read_pgm, read_pfm
from sparseps.geometry import angular_error_deg, normalize, sample_hemisphere_lights
from sparseps.obsmap import PixelSamples, occupied_cells
from sparseps.render import Lambertian, render_sphere, shade
from sparseps.solvers import new_li_model, new_ne_model


def shadow_free_sphere(res=32, pool=120, zenith=30.0, seed=7, albedo=0.8):
    """Lambertian sphere whose mask keeps only pixels lit by every pool light."""
    lights = sample_hemisphere_lights(pool, zenith, np.random.default_rng(seed))
    scene = render_sphere(res, Lambertian(albedo), lights)
    scene.mask &= np.all(scene.images > 0, axis=0)
    return scene


def coplanar_sphere(off_plane):
    """Lambertian sphere lit by three lights in the x-z plane, plus one off
    it when off_plane; the mask keeps pixels lit by every light."""
    t = np.radians([-20.0, 0.0, 20.0])
    lights = np.column_stack([np.sin(t), np.zeros(3), np.cos(t)])
    if off_plane:
        lights = np.vstack([lights, [0.0, np.sin(t[2]), np.cos(t[2])]])
    scene = render_sphere(16, Lambertian(0.8), lights)
    scene.mask &= np.all(scene.images > 0, axis=0)
    return scene


def random_points(count, seed, n_lights=10):
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        n = normalize([rng.normal(), rng.normal(), abs(rng.normal()) + 0.5])
        lights = sample_hemisphere_lights(n_lights, 75.0, rng)
        irr = shade(n, lights, Lambertian(0.9))
        if irr.max() > 0:
            points.append(PixelSamples(lights, irr, n))
    return points


class TestRunTrials:
    def test_protocol_counts(self):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(seed=1))
        assert report.n_trials == 100
        assert report.n_lights == 10
        assert report.per_trial_mean_deg.shape == (100,)

    def test_ls_exact_on_noiseless_lambertian(self):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(seed=1))
        assert report.overall_mean_deg <= 0.1
        assert report.excluded_pixels == 0

    def test_deterministic_given_seed(self):
        scene = shadow_free_sphere()
        cfg = TrialConfig(n_trials=12, seed=9)
        a = run_trials(scene, LsSolver(), cfg)
        b = run_trials(scene, LsSolver(), cfg)
        np.testing.assert_array_equal(a.per_trial_mean_deg, b.per_trial_mean_deg)
        np.testing.assert_array_equal(a.error_map_deg, b.error_map_deg)
        assert a.overall_mean_deg == b.overall_mean_deg

    def test_overall_mean_is_trial_mean(self):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(n_trials=20, seed=3))
        assert report.overall_mean_deg == pytest.approx(
            report.per_trial_mean_deg.mean())
        shuffled = report.per_trial_mean_deg.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert shuffled.mean() == pytest.approx(report.overall_mean_deg)

    def test_pool_too_small_rejected(self):
        scene = shadow_free_sphere(pool=8)
        with pytest.raises(ValueError):
            run_trials(scene, LsSolver(), TrialConfig(n_lights=10, seed=0))

    @pytest.mark.parametrize("solver", [LsSolver(), InpaintLsSolver(w=8)])
    def test_coplanar_draws_are_excluded(self, solver):
        # Of the four three-light draws, the one without the off-plane light
        # does not span 3D: its trials exclude every pixel and record NaN.
        scene = coplanar_sphere(off_plane=True)
        report = run_trials(scene, solver, TrialConfig(n_trials=12, n_lights=3,
                                                       seed=0))
        per_trial = report.per_trial_mean_deg
        degenerate = np.isnan(per_trial)
        assert 0 < degenerate.sum() < 12
        assert report.excluded_pixels == degenerate.sum() * scene.mask.sum()
        assert report.overall_mean_deg == per_trial[~degenerate].mean()
        assert np.isfinite(report.overall_mean_deg)

    def test_no_trial_with_a_valid_pixel_raises(self):
        with pytest.raises(SparsePSError, match="ls: no trial has a valid pixel"):
            run_trials(coplanar_sphere(off_plane=False), LsSolver(),
                       TrialConfig(n_trials=3, n_lights=3, seed=0))

    def test_error_map_zero_outside_mask(self):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(n_trials=5, seed=2))
        assert np.all(report.error_map_deg[~scene.mask] == 0)


class TestNoiseSweep:
    def test_sigma_zero_equals_plain_run(self):
        scene = shadow_free_sphere()
        cfg = TrialConfig(n_trials=15, seed=4)
        plain = run_trials(scene, LsSolver(), cfg)
        swept = noise_sweep(scene, LsSolver(), [0.0, 2.0], cfg)[0]
        np.testing.assert_array_equal(plain.per_trial_mean_deg,
                                      swept.per_trial_mean_deg)

    def test_length_and_monotone_trend(self):
        scene = shadow_free_sphere()
        sigmas = [0.0, 2.0, 4.0, 6.0, 8.0]
        reports = noise_sweep(scene, LsSolver(), sigmas,
                              TrialConfig(n_trials=40, seed=5))
        assert len(reports) == len(sigmas)
        means = [r.overall_mean_deg for r in reports]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]

    def test_levels_share_light_draws(self):
        class Recorder:
            name = "ls"

            def __init__(self):
                self.lights = []

            def solve_batch(self, lights, irradiance_matrix):
                self.lights.append(lights)
                return LsSolver().solve_batch(lights, irradiance_matrix)

        scene = shadow_free_sphere()
        cfg = TrialConfig(n_trials=25, seed=6)
        clean, noisy = Recorder(), Recorder()
        run_trials(scene, clean, cfg)
        run_trials(scene, noisy, TrialConfig(n_trials=25, seed=6, sigma_deg=2.0))
        for exact, perturbed in zip(clean.lights, noisy.lights):
            assert np.all(angular_error_deg(perturbed, exact) < 15.0)

    def test_unsorted_sigmas_rejected(self):
        scene = shadow_free_sphere()
        with pytest.raises(ValueError):
            noise_sweep(scene, LsSolver(), [4.0, 2.0], TrialConfig(seed=0))


class TestOutlierSensitivity:
    def test_zero_level_is_clean_baseline(self):
        points = random_points(20, seed=6)
        table, _ = outlier_sensitivity(points, LsSolver(), [0.0, 20.0], seed=1)
        clean = []
        for p in points:
            normals, valid = LsSolver().solve_batch(p.lights, p.irradiance[:, None])
            if valid[0]:
                from sparseps.geometry import angular_error_deg
                clean.append(angular_error_deg(normals[0], p.normal))
        assert table[0][1] == pytest.approx(np.mean(clean))

    def test_larger_cones_hurt_ls(self):
        points = random_points(30, seed=8)
        table, _ = outlier_sensitivity(points, LsSolver(),
                                       [0.0, 10.0, 40.0], seed=2)
        by_angle = dict(table)
        assert by_angle[40.0] > by_angle[10.0]

    def test_row_count_matches_levels(self):
        points = random_points(10, seed=9)
        levels = [0.0, 5.0, 15.0, 30.0]
        table, _ = outlier_sensitivity(points, LsSolver(), levels, seed=3)
        assert len(table) == len(levels)
        assert [row[0] for row in table] == levels

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            outlier_sensitivity(random_points(5, seed=10), LsSolver(), [10.0])

    def test_level_where_every_point_fails_raises(self):
        # A solver that gives up on any dark sample solves every unshadowed
        # point but none under 85-degree cones, so that level has no mean:
        # an error naming it, not a NaN row.
        class GivesUpInShadow(LsSolver):
            def solve_batch(self, lights, irradiance_matrix):
                normals, valid = super().solve_batch(lights, irradiance_matrix)
                return normals, valid & (irradiance_matrix > 0).all(axis=0)

        points = [p for p in random_points(12, seed=11)
                  if (p.irradiance > 0).all()]
        table, _ = outlier_sensitivity(points, GivesUpInShadow(), [0.0, 5.0],
                                       seed=4)
        assert np.isfinite(table[0][1])
        with pytest.raises(SparsePSError, match="outlier level 85 deg"):
            outlier_sensitivity(points, GivesUpInShadow(), [0.0, 85.0], seed=4)


class TestOtherSolvers:
    def test_inpaint_ls_runs_and_is_sane(self):
        scene = shadow_free_sphere(res=24, pool=60)
        report = run_trials(scene, InpaintLsSolver(w=16),
                            TrialConfig(n_trials=2, seed=11))
        assert report.solver == "inpaint_ls"
        assert np.isfinite(report.overall_mean_deg)

    def test_diffusion_variant_name(self):
        assert InpaintLsSolver(mirror_step=False).name == "diffusion_ls"

    def test_model_solver_runs(self):
        rng = np.random.default_rng(12)
        w = 8
        li = new_li_model(w, rng, hidden=(8,))
        ne = new_ne_model(w, rng, hidden=(8,))
        for layer in ne.layers:
            layer.bias += rng.normal(0, 0.1, layer.bias.shape)
        scene = shadow_free_sphere(res=16, pool=40)
        report = run_trials(scene, ModelSolver(li, ne, w=w),
                            TrialConfig(n_trials=2, seed=13))
        assert report.solver == "trained"
        assert np.isfinite(report.overall_mean_deg)


def angle_rad(a, b):
    """Angle between rows of a and b, accurate near zero."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=1), np.sum(a * b, axis=1))


class TestBatchedSolversMatchPerPixelLoops:
    def setup_class(cls):
        cls.lights, irr, _ = criterion_8_trial()
        cls.irr = irr[:, ::3].copy()
        cls.irr[:, 5] = 0.0                 # a pixel in shadow under every light

    def assert_same(self, got, ref):
        normals, valid = got
        ref_normals, ref_valid = ref
        np.testing.assert_array_equal(valid, ref_valid)
        assert not valid[5]
        assert angle_rad(normals[valid], ref_normals[valid]).max() <= 1e-12
        np.testing.assert_array_equal(normals[~valid], 0.0)

    @pytest.mark.parametrize("mirror_step", [True, False])
    def test_inpaint_ls(self, mirror_step):
        solver = InpaintLsSolver(w=32, mirror_step=mirror_step)
        self.assert_same(
            solver.solve_batch(self.lights, self.irr),
            reference_inpaint_ls(self.lights, self.irr, 32, mirror_step))

    def test_model_solver(self):
        rng = np.random.default_rng(12)
        li = new_li_model(32, rng, hidden=(16,))
        ne = new_ne_model(32, rng, hidden=(16,))
        for layer in ne.layers:
            layer.bias += rng.normal(0, 0.1, layer.bias.shape)
        got = ModelSolver(li, ne, w=32).solve_batch(self.lights, self.irr)
        ref = reference_model_solver(li, ne, self.lights, self.irr, 32)
        self.assert_same(got, ref)
        # The models read the compact maps; those carry the reference bits.
        # The normals may not: the first layers skip the zero terms.
        cells, values, ok = occupied_cells(self.lights, self.irr, 32)
        for p in range(self.irr.shape[1]):
            sparse = reference_observation_map(self.lights, self.irr[:, p], 32)
            assert ok[p] == (sparse is not None)
            if sparse is not None:
                np.testing.assert_array_equal(cells, np.flatnonzero(sparse[1]))
                assert values[:, p].tobytes() == sparse[0].ravel()[cells].tobytes()


def protocol_pixels(res):
    """The criterion-8 light pool and the masked pixel values of its res x
    res sphere: (pool (300, 3), values (300, pixels))."""
    scene = criterion_8_sphere(res)
    return scene.lights, scene.images[:, scene.mask]


class TestModelSolverWorkspace:
    """One solver reused across trials gives the bytes a fresh one gives."""

    def setup_class(cls):
        rng = np.random.default_rng(21)
        cls.li = new_li_model(32, rng, hidden=(24, 16))
        cls.ne = new_ne_model(32, rng, hidden=(12, 8))
        for layer in cls.ne.layers:
            layer.bias += rng.normal(0, 0.1, layer.bias.shape)
        cls.scenes = {res: protocol_pixels(res) for res in (32, 16)}

    def draw(self, seed, res=32, n_lights=10):
        pool, values = self.scenes[res]
        idx = np.random.default_rng(seed).choice(len(pool), n_lights,
                                                 replace=False)
        return pool[idx], values[idx]

    def assert_reuse_matches_fresh(self, trials):
        solver = ModelSolver(self.li, self.ne, w=32)
        for lights, irr in trials:
            normals, valid = solver.solve_batch(lights, irr)
            fresh_normals, fresh_valid = ModelSolver(
                self.li, self.ne, w=32).solve_batch(lights, irr)
            assert normals.tobytes() == fresh_normals.tobytes()
            assert valid.tobytes() == fresh_valid.tobytes()

    def test_alternating_sphere_sizes(self):
        assert [self.scenes[res][1].shape[1] for res in (32, 16)] == [793, 193]
        self.assert_reuse_matches_fresh(
            [self.draw(seed, res) for seed, res in
             enumerate((32, 16, 32, 16, 16, 32))])

    def test_alternating_light_counts(self):
        self.assert_reuse_matches_fresh(
            [self.draw(seed, 32, n) for seed, n in
             enumerate((3, 10, 20, 10, 3, 20))])

    def test_lights_sharing_cells(self):
        # Copies of lights, turned by 1e-4 rad, land in their cells.
        lights, irr = self.draw(3, 32, n_lights=6)
        turned = lights[:4] + [1e-4, 0.0, 0.0]
        turned /= np.linalg.norm(turned, axis=1, keepdims=True)
        lights = np.vstack([lights, turned])
        irr = np.vstack([irr, irr[:4]])
        cells, _, _ = occupied_cells(lights, irr, 32)
        assert cells.size == 6 < len(lights)
        self.assert_reuse_matches_fresh(
            [self.draw(4), (lights, irr), self.draw(5, 16)])

    def test_trial_without_valid_pixel(self):
        lights, irr = self.draw(6)
        dark = np.zeros_like(irr)
        normals, valid = ModelSolver(self.li, self.ne).solve_batch(lights, dark)
        assert not valid.any() and not normals.any()
        self.assert_reuse_matches_fresh(
            [(lights, irr), (lights, dark), self.draw(7), (lights, dark[:, :5])])

    def test_models_changed_in_place_are_read(self):
        li = new_li_model(32, np.random.default_rng(24), hidden=(24, 16))
        ne = new_ne_model(32, np.random.default_rng(25), hidden=(12, 8))
        solver = ModelSolver(li, ne, w=32)
        lights, irr = self.draw(10)
        before = solver.solve_batch(lights, irr)[0]
        for model in (li, ne):
            model.layers[0].weights *= -0.5
        after = solver.solve_batch(lights, irr)[0]
        fresh = ModelSolver(li, ne, w=32).solve_batch(lights, irr)[0]
        assert after.tobytes() == fresh.tobytes() != before.tobytes()

    def test_results_are_not_views_of_the_workspace(self):
        solver = ModelSolver(self.li, self.ne, w=32)
        normals, valid = solver.solve_batch(*self.draw(8))
        kept = normals.copy(), valid.copy()
        again = solver.solve_batch(*self.draw(9))
        assert normals.tobytes() == kept[0].tobytes()
        assert valid.tobytes() == kept[1].tobytes()
        assert normals.tobytes() != again[0].tobytes()
        assert not np.shares_memory(normals, again[0])


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor fault counts as Linux reports them")
def test_trained_trials_fault_in_no_fresh_pages():
    # Before the solver reused its workspace, each 32 x 32 trial mapped
    # about 16 MB of fresh temporaries: about 3 900 minor faults a trial.
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(22)
    solver = ModelSolver(new_li_model(32, rng), new_ne_model(32, rng), w=32)
    pool, values = protocol_pixels(32)
    draws = np.random.default_rng(23)

    def trial():
        idx = draws.choice(len(pool), 10, replace=False)
        solver.solve_batch(pool[idx], values[idx])

    trial()
    faults = []
    for _ in range(10):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trial()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert statistics.median(faults) < 400, faults


class TestReports:
    def test_round_trip_header(self, tmp_path):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(n_trials=7, seed=14))
        path = tmp_path / "report.txt"
        write_report(report, path)
        header, trials = read_report(path)
        assert header["solver"] == "ls"
        assert header["seed"] == "14"
        assert header["n_trials"] == "7"
        assert header["n_lights"] == "10"
        assert float(header["mean_error_deg"]) == float(
            f"{report.overall_mean_deg:.6g}")
        assert trials.shape == (7,)

    def test_deterministic_bytes(self, tmp_path):
        scene = shadow_free_sphere()
        report = run_trials(scene, LsSolver(), TrialConfig(n_trials=4, seed=15))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_error_map_pgm_saturates_at_45(self, tmp_path):
        scene = shadow_free_sphere(res=16, pool=40)
        report = run_trials(scene, LsSolver(), TrialConfig(n_trials=2, seed=16))
        report.error_map_deg[~scene.mask] = 0.0
        rows, cols = np.nonzero(scene.mask)
        report.error_map_deg[rows[0], cols[0]] = 50.0   # above saturation
        report.error_map_deg[rows[1], cols[1]] = 45.0
        path = tmp_path / "report.txt"
        write_report(report, path)
        pgm = read_pgm(tmp_path / "report_errmap.pgm")
        assert pgm[rows[0], cols[0]] == 255
        assert pgm[rows[1], cols[1]] == 255
        pfm = read_pfm(tmp_path / "report_errmap.pfm")
        assert pfm[rows[0], cols[0]] == pytest.approx(50.0, abs=1e-4)
