"""Tests for the LS baseline, inpainting, models, and alternating training."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    break_checkpoint,
    criterion_8_trial,
    generator_drawing,
    reference_adam_step,
    reference_inpaint,
    reference_sample_maps,
    reference_training_set,
    restrict_inputs,
)
from sparseps.evaluation import ModelSolver
from sparseps.errors import (
    DegenerateLightingError,
    DegenerateSamplesError,
    NormalizationError,
    ShapeError,
)
from sparseps.geometry import normalize, sample_hemisphere_lights
from sparseps.losses import ROWS, LossWeights
from sparseps.mlp import (
    ADAM_CHUNK,
    AdamState,
    DenseLayer,
    MlpModel,
    adam_step,
    dense_layer,
    init_model,
    load_model,
    save_model,
)
from sparseps.obsmap import (
    ObservationMap,
    PixelSamples,
    axis_from_normal,
    build_observation_map,
    mirror,
    occupied_cells,
)
from sparseps.render import Lambertian, make_dense_gt_map, shade
from sparseps.solvers import (
    TrainConfig,
    TrainingSet,
    _INPAINT_BLOCK,
    _Prepared,
    li_objective,
    li_objective_and_grads,
    ls_normal,
    ls_normal_batch,
    make_training_set,
    ne_objective,
    ne_objective_and_grads,
    new_li_model,
    new_ne_model,
    symmetry_inpaint,
    symmetry_inpaint_maps,
    train_alternating,
)

Z = np.array([0.0, 0.0, 1.0])


class TestLsNormal:
    def test_axis_lights_identity(self):
        n = normalize([0.4, 0.3, 0.866])
        lights = np.eye(3)
        n_hat, albedo = ls_normal(lights, n)   # irradiance = components of n
        np.testing.assert_allclose(n_hat, n, atol=1e-10)
        assert albedo == pytest.approx(1.0, abs=1e-10)

    def test_sphere_pixel_exact_recovery(self):
        rng = np.random.default_rng(0)
        lights = sample_hemisphere_lights(10, 30.0, rng)
        for _ in range(20):
            n = normalize([rng.normal() * 0.3, rng.normal() * 0.3,
                           abs(rng.normal()) + 1.0])
            irr = shade(n, lights, Lambertian(albedo=0.75))
            assert np.all(irr > 0), "lights must be attached-shadow-free"
            n_hat, albedo = ls_normal(lights, irr)
            np.testing.assert_allclose(n_hat, n, atol=1e-8)
            assert albedo == pytest.approx(0.75, abs=1e-8)

    def test_coplanar_lights_rejected(self):
        lights = np.array([[1.0, 0, 0.2], [0, 1.0, 0.2], [0.5, 0.5, 0.2]])
        lights[2] = 0.5 * lights[0] + 0.5 * lights[1]
        with pytest.raises(DegenerateLightingError):
            ls_normal(lights, np.ones(3))

    def test_coplanar_batch_rejected(self):
        # Ten lights in the x-z plane span only 2D, however many there are.
        theta = np.linspace(-1.2, 1.2, 10)
        lights = np.column_stack([np.sin(theta), np.zeros(10), np.cos(theta)])
        with pytest.raises(DegenerateLightingError):
            ls_normal_batch(lights, np.ones((10, 4)))
        with pytest.raises(DegenerateLightingError):
            ls_normal_batch(np.eye(3)[:2], np.ones((2, 4)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        lights = sample_hemisphere_lights(8, 40.0, rng)
        n = normalize([0.2, -0.1, 0.95])
        irr = shade(n, lights, Lambertian(0.6))
        base, alb_base = ls_normal(lights, irr)
        scaled, alb_scaled = ls_normal(lights, 7.5 * irr)
        np.testing.assert_allclose(scaled, base, atol=1e-12)
        assert alb_scaled == pytest.approx(7.5 * alb_base, rel=1e-12)

    def test_zero_fit_raises(self):
        lights = np.eye(3)
        with pytest.raises(NormalizationError):
            ls_normal(lights, np.zeros(3))

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        lights = sample_hemisphere_lights(10, 45.0, rng)
        normals = np.stack([normalize([rng.normal() * 0.3, rng.normal() * 0.3,
                                       1.0]) for _ in range(7)])
        irr = np.stack([shade(n, lights, Lambertian(0.9)) for n in normals]).T
        batch, valid = ls_normal_batch(lights, irr)
        assert valid.all()
        for p in range(7):
            single, _ = ls_normal(lights, irr[:, p])
            np.testing.assert_allclose(batch[p], single, atol=1e-12)


class TestSymmetryInpaint:
    def test_dense_input_unchanged(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(16, 16))
        obs = ObservationMap(values, np.ones((16, 16), np.uint8))
        out = symmetry_inpaint(obs, n_hint=normalize([0.3, 0.2, 0.9]))
        np.testing.assert_array_equal(out.values, values)

    def test_single_known_cell_mirrors_exactly(self):
        w = 16
        values = np.zeros((w, w))
        mask = np.zeros((w, w), np.uint8)
        values[4, 4] = 0.8
        mask[4, 4] = 1
        obs = ObservationMap(values, mask)
        out = symmetry_inpaint(obs, n_hint=[0, 1, 0])   # column flip
        assert out.values[4, w - 1 - 4] == 0.8

    def test_known_cells_never_modified_and_full(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = 16
            mask = (rng.uniform(size=(w, w)) < 0.1).astype(np.uint8)
            if not mask.any():
                mask[3, 5] = 1
            values = rng.uniform(0, 1, size=(w, w)) * mask
            obs = ObservationMap(values, mask)
            n_hint = normalize([rng.normal(), rng.normal(), 1.0])
            out = symmetry_inpaint(obs, n_hint=n_hint)
            assert out.mask.all()
            known = mask.astype(bool)
            np.testing.assert_array_equal(out.values[known], values[known])
            assert np.all(out.values >= 0) and np.all(out.values <= 1)

    def test_mirror_fill_beats_diffusion_on_sphere_points(self):
        # Paired comparison against the dense-map oracle with the true normal
        # as hint: the mirror step should win on at least 80 of 100 points.
        rng = np.random.default_rng(5)
        brdf = Lambertian(albedo=0.9)
        wins = 0
        for _ in range(100):
            n = normalize([rng.normal(), rng.normal(), abs(rng.normal()) + 0.3])
            lights = sample_hemisphere_lights(10, 75.0, rng)
            irr = shade(n, lights, brdf)
            if irr.max() <= 0:
                continue
            sparse = build_observation_map(PixelSamples(lights, irr), 32)
            reference = make_dense_gt_map(n, brdf, 1000, 32)
            with_mirror = symmetry_inpaint(sparse, n_hint=n)
            without = symmetry_inpaint(sparse, n_hint=n, mirror_step=False)
            err_mirror = np.abs(with_mirror.values - reference.values).mean()
            err_diff = np.abs(without.values - reference.values).mean()
            if err_mirror < err_diff:
                wins += 1
        assert wins >= 80


class TestSymmetryInpaintMaps:
    """The batched inpainter against whole-grid passes, one map at a time."""

    def setup_class(cls):
        lights, irr, _ = criterion_8_trial()
        cls.cells, values, ok = occupied_cells(lights, irr, 32)
        boot, boot_ok = ls_normal_batch(lights, irr)
        keep = ok & boot_ok
        cls.values, cls.boot = values[:, keep], boot[keep]
        cls.mask = np.zeros(32 * 32, np.uint8)
        cls.mask[cls.cells] = 1
        cls.mask = cls.mask.reshape(32, 32)
        # Every 9th map, and both maps at each edge between two blocks.
        m = cls.values.shape[1]
        edges = range(_INPAINT_BLOCK, m, _INPAINT_BLOCK)
        cls.check = sorted({*range(0, m, 9), *edges,
                            *(edge - 1 for edge in edges)})
        assert m > 2 * _INPAINT_BLOCK

    def dense(self, p):
        out = np.zeros(32 * 32)
        out[self.cells] = self.values[:, p]
        return out.reshape(32, 32)

    @pytest.mark.parametrize("mirror_step", [True, False])
    def test_bit_identical_to_per_map_passes(self, mirror_step):
        axes = axis_from_normal(self.boot) if mirror_step else None
        dense = symmetry_inpaint_maps(32, self.cells, self.values, axes)
        assert dense.shape == (32 * 32, self.values.shape[1])
        for p in self.check:
            ref = reference_inpaint(self.dense(p), self.mask, self.boot[p],
                                    mirror_step)
            np.testing.assert_array_equal(dense[:, p].reshape(32, 32), ref)
            single = symmetry_inpaint(ObservationMap(self.dense(p), self.mask),
                                      n_hint=self.boot[p], mirror_step=mirror_step)
            np.testing.assert_array_equal(single.values, ref)

    @pytest.mark.parametrize("w", [1, 3, 5, 8, 9, 16, 31])
    def test_per_map_known_against_reference(self, w):
        # Each map its own known cells, inpainted as a batch of one, then
        # all maps sharing one set, at odd and even widths, with maps of one
        # known cell and a map of none (which stays zero).  Values reach
        # 1.5, so the clip changes known cells and the restore must undo it.
        rng = np.random.default_rng(50 + w)
        m = 12
        values = 1.5 * rng.uniform(size=(m, w, w))
        known = rng.uniform(size=(m, w, w)) < 0.15
        known[:3] = False
        known[0, w // 2, 0] = known[1, 0, w - 1] = True
        normals = rng.normal(size=(m, 3))
        normals[:, 2] = np.abs(normals[:, 2]) + 0.1
        normals[3, :2] = [1e-8, 0.0]                  # the fallback axis
        normals[4, :2] = [0.0, 1.0]                   # axis-aligned
        normals[5, :2] = [1.0, 1.0]                   # 45 degrees
        flat = values.reshape(m, -1)
        for mirror_step in (True, False):
            axes = axis_from_normal(normals) if mirror_step else None
            for p in range(m):
                cells = np.flatnonzero(known[p])
                one = None if axes is None else axes[p:p + 1]
                dense = symmetry_inpaint_maps(w, cells, flat[p, cells, None], one)
                ref = reference_inpaint(values[p], known[p], normals[p],
                                        mirror_step)
                assert dense.tobytes() == ref.tobytes(), (p, mirror_step)
                assert p != 2 or not dense.any()      # map 2: no known cell
            cells = np.flatnonzero(known[5])
            dense = symmetry_inpaint_maps(w, cells, flat[:, cells].T, axes)
            for p in range(m):
                ref = reference_inpaint(values[p], known[5], normals[p],
                                        mirror_step)
                assert dense[:, p].tobytes() == ref.tobytes(), (p, mirror_step)

    @pytest.mark.parametrize("mirror_step", [True, False])
    @pytest.mark.parametrize("m", [0, 1, _INPAINT_BLOCK - 1, _INPAINT_BLOCK,
                                   _INPAINT_BLOCK + 1, 2 * _INPAINT_BLOCK + 1])
    def test_block_edges_against_reference(self, m, mirror_step):
        # Every map of stacks that end just before, at and after a block
        # edge, with values that reach 1.5 so that the clip and the
        # restore of the known cells show.
        w = 11
        rng = np.random.default_rng(m)
        known = rng.uniform(size=(w, w)) < 0.12
        cells = np.flatnonzero(known)
        values = 1.5 * rng.uniform(size=(m, w, w))
        normals = rng.normal(size=(m, 3))
        normals[:, 2] = np.abs(normals[:, 2]) + 0.1
        axes = axis_from_normal(normals) if mirror_step else None
        dense = symmetry_inpaint_maps(w, cells, values.reshape(m, w * w)[:, cells].T,
                                      axes)
        assert dense.shape == (w * w, m)
        for p in range(m):
            ref = reference_inpaint(values[p], known, normals[p], mirror_step)
            assert dense[:, p].tobytes() == ref.tobytes(), p

    def test_read_cells_are_rows_of_the_whole_result(self):
        # Any cells, known or not, in any order and with repeats.
        axes = axis_from_normal(self.boot)
        whole = symmetry_inpaint_maps(32, self.cells, self.values, axes)
        read = np.random.default_rng(51).permutation(32 * 32)[:300]
        read = np.concatenate([read, self.cells[::-1], read[:5]])
        got = symmetry_inpaint_maps(32, self.cells, self.values, axes, read)
        assert got.tobytes() == whole[read].tobytes()
        assert symmetry_inpaint_maps(32, self.cells, self.values[:, :0], axes[:0],
                                     read).shape == (read.size, 0)

    def test_no_known_cell_rejected(self):
        empty = ObservationMap(np.zeros((8, 8)), np.zeros((8, 8), np.uint8))
        with pytest.raises(DegenerateSamplesError):
            symmetry_inpaint(empty, n_hint=Z)


class TestForwards:
    """f and g through ModelSolver, the one inference path."""

    @staticmethod
    def trial(rng, m=20):
        lights = sample_hemisphere_lights(10, 75.0, rng)
        return lights, rng.uniform(0.0, 1.0, size=(10, m))

    def test_li_output_shape_and_range(self):
        rng = np.random.default_rng(6)
        model = new_li_model(8, rng, hidden=(16, 16))
        x = np.concatenate([rng.uniform(0, 1, (5, 64)),
                            (rng.uniform(size=(5, 64)) < 0.2)], axis=1)
        out = model.forward(x)
        assert out.shape == (5, 64)
        assert np.all(out > 0) and np.all(out < 1)

    def test_li_zero_weight_model_constant(self):
        w = 4
        layers = [DenseLayer(np.zeros((w * w, 2 * w * w)),
                             np.full(w * w, 0.3), "sigmoid")]
        model = MlpModel(layers)
        x = np.random.default_rng(7).uniform(0, 1, (3, 2 * w * w))
        np.testing.assert_allclose(model.forward(x), 1.0 / (1.0 + np.exp(-0.3)))

    @staticmethod
    def assert_width_mismatch(li_w, ne_w, tag):
        rng = np.random.default_rng(8)
        li = new_li_model(li_w, rng, hidden=(4,))
        ne = new_ne_model(ne_w, rng, hidden=(4,))
        with pytest.raises(ShapeError, match=f"model {tag} takes 512 inputs, "
                           "but maps of width 8 give 2\\*w\\*w = 128"):
            ModelSolver(li, ne, w=8)

    def test_li_dimension_mismatch(self):
        self.assert_width_mismatch(16, 8, "f")

    def test_ne_dimension_mismatch(self):
        self.assert_width_mismatch(8, 16, "g")

    def test_li_deterministic(self):
        rng = np.random.default_rng(9)
        solver = ModelSolver(new_li_model(8, rng, hidden=(8,)),
                             new_ne_model(8, rng, hidden=(8,)), w=8)
        lights, irr = self.trial(rng)
        a, valid_a = solver.solve_batch(lights, irr)
        b, valid_b = solver.solve_batch(lights, irr)
        assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(valid_a, valid_b)

    def test_ne_output_unit_upper_hemisphere(self):
        rng = np.random.default_rng(10)
        li = new_li_model(8, rng, hidden=(8,))
        ne = new_ne_model(8, rng, hidden=(8, 8))
        for layer in ne.layers:
            layer.bias += rng.normal(0, 0.1, layer.bias.shape)
        lights, irr = self.trial(rng)
        normals, valid = ModelSolver(li, ne, w=8).solve_batch(lights, irr)
        assert valid.all()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        assert np.all(normals[:, 2] >= 0)

    def test_ne_zero_output_gives_invalid_pixel(self):
        w = 4
        li = new_li_model(w, np.random.default_rng(11), hidden=(4,))
        ne = MlpModel([DenseLayer(np.zeros((3, 2 * w * w)), np.zeros(3),
                                  "linear")])
        lights, irr = self.trial(np.random.default_rng(12), m=3)
        normals, valid = ModelSolver(li, ne, w=w).solve_batch(lights, irr)
        assert not valid.any()
        np.testing.assert_array_equal(normals, 0.0)


class TestMlpModel:
    @pytest.mark.parametrize("activation,plain", [
        ("relu", lambda z: np.maximum(z, 0.0)),
        ("sigmoid", lambda z: 1.0 / (1.0 + np.exp(-z))),
        ("linear", lambda z: z),
    ])
    def test_dense_layer_keeps_the_expression_bits(self, activation, plain):
        rng = np.random.default_rng(46)
        a = rng.normal(size=(37, 24))
        weights = rng.normal(size=(40, 24))
        bias = rng.normal(size=40)
        expected = plain(a @ weights.T + bias).tobytes()
        out = np.empty((37, 40))
        assert dense_layer(a, weights, bias, activation, out) is out
        assert out.tobytes() == expected
        # Into the last columns of a wider buffer, whose first ones the
        # caller fills afterwards.
        wide = np.full((37, 45), np.nan)
        dense_layer(a, weights, bias, activation, wide, start=5)
        assert wide[:, 5:].copy().tobytes() == expected
        assert np.isfinite(wide[:, :5]).all()

    def test_restrict_inputs_matches_dense_forward(self):
        rng = np.random.default_rng(44)
        model = new_ne_model(32, rng, hidden=(32, 16))
        cols = np.concatenate([np.sort(rng.choice(1024, 10, replace=False)),
                               np.arange(1024, 2048)])
        x = np.zeros((50, 2048))
        x[:, cols] = rng.uniform(0.0, 1.0, size=(50, cols.size))
        small = restrict_inputs(model, cols)
        assert small.input_dim == cols.size
        assert small.layers[1:] == model.layers[1:]
        assert small.layers[1].weights is model.layers[1].weights
        dense = model.forward(x)
        got = small.forward(x[:, cols])
        # Relative to each output vector: a linear output near zero cancels.
        assert (np.linalg.norm(got - dense, axis=1)
                <= 1e-13 * np.linalg.norm(dense, axis=1)).all()
        one = small.forward(x[:1, cols])
        assert np.linalg.norm(one - dense[:1]) <= 1e-13 * np.linalg.norm(dense[0])

    @pytest.mark.parametrize("make", [new_li_model, new_ne_model])
    def test_backward_without_input_grad_keeps_param_grads(self, make):
        rng = np.random.default_rng(45)
        model = make(8, rng, hidden=(16, 8))
        x = rng.uniform(0.0, 1.0, size=(20, model.input_dim))
        out, cache = model.forward_trace(x)
        grad_out = rng.normal(size=out.shape)
        full, grad_x = model.backward(cache, grad_out)
        part, none = model.backward(cache, grad_out, want_input_grad=False)
        assert grad_x.shape == x.shape and none is None
        for (dw, db), (pw, pb) in zip(full, part):
            assert dw.tobytes() == pw.tobytes()
            assert db.tobytes() == pb.tobytes()


class TestPipelineGradients:
    def _fd_worst(self, model, objective, analytic, h=1e-6):
        worst = 0.0
        for i, layer in enumerate(model.layers):
            for param, grad in ((layer.weights, analytic[i][0]),
                                (layer.bias, analytic[i][1])):
                flat = param.ravel()
                gflat = np.asarray(grad).ravel()
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + h
                    up = objective()
                    flat[k] = orig - h
                    down = objective()
                    flat[k] = orig
                    fd = (up - down) / (2.0 * h)
                    worst = max(worst, abs(gflat[k] - fd) / (abs(fd) + 1e-8))
        return worst

    def _miniature(self, w, seed, hidden=(2, 2)):
        rng = np.random.default_rng(seed)
        dataset = make_training_set(6, lights_per_point=6, w=w, rng=rng,
                                    dense_lights=100)
        prep = _Prepared(dataset, w)
        li = new_li_model(w, rng, hidden=hidden)
        ne = new_ne_model(w, rng, hidden=hidden)
        # Tiny nets can go fully dead under relu with zero biases; jitter so
        # the finite-difference probes sit inside a smooth region.
        for model in (li, ne):
            for layer in model.layers:
                layer.bias += rng.normal(0.0, 0.05, size=layer.bias.shape)
        return prep, li, ne

    def test_ne_parameter_gradients_4x4(self):
        prep, li, ne = self._miniature(4, seed=21)
        idx = np.arange(prep.count)
        _, grads = ne_objective_and_grads(li, ne, prep, idx)
        worst = self._fd_worst(ne, lambda: ne_objective(li, ne, prep, idx), grads)
        assert worst <= 1e-3

    @pytest.mark.parametrize("weights", [LossWeights(),
                                         LossWeights(lambda_s=1.0, lambda_a=1.0)])
    @pytest.mark.parametrize("batched,per_sample", [
        (ne_objective_and_grads, ne_objective),
        (li_objective_and_grads, li_objective),
    ])
    @pytest.mark.parametrize("w", [4, 8, 16])
    def test_batched_loss_equals_per_sample(self, w, batched, per_sample, weights):
        prep, li, ne = self._miniature(w, seed=25)
        idx = np.arange(prep.count)
        loss, _ = batched(li, ne, prep, idx, weights)
        assert loss == pytest.approx(per_sample(li, ne, prep, idx, weights),
                                     rel=1e-12, abs=0.0)

    def test_full_pipeline_gradients_w8(self):
        prep, li, ne = self._miniature(8, seed=23)
        idx = np.arange(prep.count)
        _, g_ne = ne_objective_and_grads(li, ne, prep, idx)
        worst_ne = self._fd_worst(ne, lambda: ne_objective(li, ne, prep, idx), g_ne)
        _, g_li = li_objective_and_grads(li, ne, prep, idx)
        worst_li = self._fd_worst(li, lambda: li_objective(li, ne, prep, idx), g_li)
        assert worst_ne <= 1e-3
        assert worst_li <= 1e-3


class TestTraining:
    def _tiny_dataset(self, count, w, seed):
        rng = np.random.default_rng(seed)
        return make_training_set(count, lights_per_point=8, w=w, rng=rng,
                                 dense_lights=200)

    def test_schedule_is_five_to_one(self):
        dataset = self._tiny_dataset(40, 8, seed=31)
        cfg = TrainConfig(batch_size=4, epochs=3, seed=0,
                          li_hidden=(8,), ne_hidden=(8,))
        _, _, trace = train_alternating(dataset, cfg)
        expected = ["ne" if k % 6 < 5 else "li" for k in range(len(trace.step_kinds))]
        assert trace.step_kinds == expected
        assert abs(trace.ne_steps - 5 * trace.li_steps) <= 4

    def test_same_seed_bit_identical_checkpoints(self, tmp_path):
        dataset = self._tiny_dataset(30, 8, seed=32)
        cfg = TrainConfig(batch_size=8, epochs=2, seed=5,
                          li_hidden=(8,), ne_hidden=(8,))
        li1, ne1, _ = train_alternating(dataset, cfg)
        li2, ne2, _ = train_alternating(dataset, cfg)
        paths = []
        for tag, model in (("li1", li1), ("li2", li2), ("ne1", ne1), ("ne2", ne2)):
            path = tmp_path / f"{tag}.spln"
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[2].read_bytes() == paths[3].read_bytes()

    def test_ne_loss_decreases_on_lambertian_set(self):
        # 200 sphere points, lr 1e-3, 50 epochs: mean estimation loss in the
        # final epoch must come in below the first epoch's.
        rng = np.random.default_rng(33)
        dataset = make_training_set(400, 10, 16, rng)[:200]
        cfg = TrainConfig(learning_rate=1e-3, batch_size=64, epochs=50, seed=2,
                          li_hidden=(64, 64), ne_hidden=(32, 16))
        _, _, trace = train_alternating(dataset, cfg)
        first = trace.ne_epoch_mean[0]
        last = [v for v in trace.ne_epoch_mean if np.isfinite(v)][-1]
        assert last < first

    def test_prepared_maps_match_per_sample_reference(self):
        # A shared cell, a draw at the rim, and byte-equal maps and masks.
        rng = np.random.default_rng(37)
        dataset = make_training_set(20, lights_per_point=8, w=16, rng=rng,
                                    dense_lights=200)
        lights = dataset.lights.copy()
        lights[3, :3] = [[0.2, 0.2, 0.96], [0.2001, 0.2, 0.96], [-0.5, 0.1, 0.86]]
        lights[5] = sample_hemisphere_lights(8, 90.0, rng)
        dataset = replace(dataset, lights=lights)
        prep = _Prepared(dataset, 16)
        assert np.asarray(prep.m_flat)[3].sum() < 8
        values, mask = reference_sample_maps([s for s, _, _ in dataset], 16)
        assert np.asarray(prep.s_flat).tobytes() == values.tobytes()
        assert np.asarray(prep.m_flat).tobytes() == mask.astype(np.uint8).tobytes()

    def test_prepared_rejects_all_zero_sample(self):
        dataset = self._tiny_dataset(4, 8, seed=38)
        irradiance = dataset.irradiance.copy()
        irradiance[2] = 0.0
        dataset = replace(dataset, irradiance=irradiance)
        with pytest.raises(DegenerateSamplesError, match="sample 2"):
            _Prepared(dataset, 8)

    @staticmethod
    def _dense_prep(prep):
        """prep's fields as plain dense arrays, with a float mask, as
        bench/run.py's reference_prep lays them out."""
        dense = {f: np.asarray(getattr(prep, f)) for f in
                 ("s_flat", "n_gt", "d_gt_flat", "d_gt_pooled_flat", "gt_axes")}
        return SimpleNamespace(**dense, m_flat=np.asarray(prep.m_flat, float),
                               w=prep.w, count=prep.count)

    @pytest.mark.parametrize("shared", [True, False],
                             ids=["draws_per_point_4", "distinct_maps"])
    def test_compact_prepared_matches_dense_layout(self, shared):
        rng = np.random.default_rng(39)
        dataset = make_training_set(6, w=32, rng=rng, dense_lights=200,
                                    draws_per_point=4)
        if not shared:
            owner = dataset.owner
            dataset = replace(dataset, owner=np.arange(len(dataset)),
                              normals=dataset.normals[owner],
                              dense=dataset.dense[owner])
        prep = _Prepared(dataset, 32)
        assert len(prep.d_gt_flat.table) == (6 if shared else 24)
        dense = self._dense_prep(prep)
        li = new_li_model(32, rng, hidden=(16,))
        ne = new_ne_model(32, rng, hidden=(16,))
        idx = rng.permutation(prep.count)[:ROWS + 5]
        for objective in (ne_objective_and_grads, li_objective_and_grads):
            loss, grads = objective(li, ne, prep, idx)
            want_loss, want_grads = objective(li, ne, dense, idx)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            for got, want in zip(grads, want_grads, strict=True):
                for a, b in zip(got, want, strict=True):
                    assert a.tobytes() == b.tobytes()
        for i in (0, 7, prep.count - 1):
            row = prep.m_flat[i]
            assert row.shape == (32 * 32,) and row.dtype == np.uint8
            assert row.tobytes() == dense.m_flat[i].astype(np.uint8).tobytes()
            assert prep.s_flat[i].tobytes() == dense.s_flat[i].tobytes()

    def test_prepared_holds_one_reference_row_per_point(self):
        dataset = make_training_set(50, w=32, rng=np.random.default_rng(40),
                                    draws_per_point=4)
        prep = _Prepared(dataset, 32)
        assert prep.count == 200
        held = []
        for value in vars(prep).values():
            parts = vars(value).values() if hasattr(value, "__dict__") else [value]
            held += [a for a in parts if isinstance(a, np.ndarray)]
        assert all(a.shape != (prep.count, 32 * 32) for a in held)
        assert sum(len(a) for a in held if a.shape[1:] == (32 * 32,)) == 50
        assert sum(len(a) for a in held if a.shape[1:] == (16 * 16,)) == 50

    def test_empty_batch_rejected_by_both_objectives(self):
        dataset = self._tiny_dataset(4, 8, seed=41)
        prep = _Prepared(dataset, 8)
        rng = np.random.default_rng(41)
        li = new_li_model(8, rng, hidden=(4,))
        ne = new_ne_model(8, rng, hidden=(4,))
        for objective in (ne_objective_and_grads, li_objective_and_grads):
            with pytest.raises(ValueError, match="empty batch"):
                objective(li, ne, prep, np.arange(0))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda rng: new_li_model(16, rng), id="new_li_model"),
        pytest.param(lambda rng: new_ne_model(16, rng), id="new_ne_model"),
        # The default f at w = 32: 854k parameters, 52 chunks.
        pytest.param(lambda rng: new_li_model(32, rng), id="new_li_model_w32"),
        # Weights of 2 * ADAM_CHUNK + 643 elements: a short last chunk.
        pytest.param(lambda rng: init_model([ADAM_CHUNK // 64 + 3, 129, 5],
                                            ["relu", "linear"], rng),
                     id="short_last_chunk"),
    ])
    def test_adam_step_matches_textbook_formula(self, make):
        # Five steps, each against Adam with its m_hat and v_hat
        # temporaries, bit for bit.
        rng = np.random.default_rng(39)
        model = make(rng)
        reference = MlpModel([DenseLayer(l.weights.copy(), l.bias.copy(),
                                         l.activation) for l in model.layers])
        state = AdamState.for_model(model)
        ref_state = AdamState.for_model(reference)
        for step in range(5):
            grads = [(rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape))
                     for l in model.layers]
            grads[0][0][:, ::7] = 0.0
            lr = 1e-3 * (step + 1)
            adam_step(model, grads, state, lr)
            reference_adam_step(reference, grads, ref_state, lr, 0.9, 0.999)
            for got, want in zip(model.layers, reference.layers):
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
        for pairs, ref_pairs in ((state.m, ref_state.m), (state.v, ref_state.v)):
            for got, want in zip(pairs, ref_pairs):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("which", ["weights", "m", "v"])
    def test_adam_step_rejects_non_contiguous_arrays(self, which):
        # A flat chunk of a Fortran-ordered array would be a copy, and the
        # update would be lost; nothing is updated before the error.
        rng = np.random.default_rng(40)
        model = new_ne_model(8, rng)
        state = AdamState.for_model(model)
        grads = [(np.ones_like(l.weights), np.ones_like(l.bias))
                 for l in model.layers]
        if which == "weights":
            model.layers[1].weights = np.asfortranarray(model.layers[1].weights)
        else:
            moments = getattr(state, which)
            moments[1] = (np.asfortranarray(moments[1][0]), moments[1][1])
        before = [l.weights.copy() for l in model.layers]
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(model, grads, state, 1e-3)
        assert state.step == 0
        for layer, weights in zip(model.layers, before):
            assert layer.weights.tobytes() == weights.tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_alternating([], TrainConfig())


def _map_owners(dataset):
    """For each triple of a list, the first-seen index of its map object,
    which is also that of its normal object: which triples share a point."""
    maps, normals = {}, {}
    owners = [(maps.setdefault(id(d), len(maps)),
               normals.setdefault(id(n), len(normals))) for _, n, d in dataset]
    assert all(m == n for m, n in owners)
    return [m for m, _ in owners]


def assert_same_triple(got, want):
    """Every field of two (samples, normal, dense map) triples byte-equal."""
    (s1, n1, d1), (s2, n2, d2) = got, want
    assert s1.normal is n1
    for a, b in ((s1.lights, s2.lights), (s1.irradiance, s2.irradiance),
                 (s1.normal, s2.normal), (n1, n2), (d1.values, d2.values),
                 (d1.mask, d2.mask)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def assert_same_training_set(got, want):
    """Every triple of the TrainingSet `got` byte-equal to the list
    `want`'s, its points shared as in `want`."""
    assert isinstance(got, TrainingSet) and len(got) == len(want)
    for pair in zip(got, want):
        assert_same_triple(*pair)
    # Each point's draws share one map: one row of got.dense.
    assert got.owner.tolist() == _map_owners(want)
    assert len(got.normals) == len(got.dense) == len(set(_map_owners(want)))


class TestTrainingSet:
    """make_training_set against the per-point loop it replays."""

    # The last three rows redraw: at seed 11, 14 of the loop's 914 draws
    # (three lights), 92 of 492 and 24 of 124 (one light) were all in
    # attached shadow.
    GRID = {
        "w32_draws4": dict(count=300, lights_per_point=10, w=32, draws_per_point=4),
        "w16": dict(count=200, lights_per_point=10, w=16),
        "w8_dense200": dict(count=50, lights_per_point=10, w=8, draws_per_point=2,
                            dense_lights=200),
        "min_nz_0": dict(count=400, lights_per_point=10, w=16, draws_per_point=4,
                         min_nz=0.0),
        "redraws_3_lights": dict(count=300, lights_per_point=3, w=8, min_nz=0.0,
                                 dense_lights=100, draws_per_point=3),
        "redraws_1_light": dict(count=200, lights_per_point=1, w=8, min_nz=0.0,
                                dense_lights=100, draws_per_point=2),
        "redraws_1_light_1_draw": dict(count=100, lights_per_point=1, w=8,
                                       min_nz=0.0, dense_lights=100),
    }

    @pytest.mark.parametrize("name", list(GRID))
    def test_matches_per_point_loop(self, name):
        kwargs = self.GRID[name]
        got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
        assert_same_training_set(make_training_set(rng=got_rng, **kwargs),
                                 reference_training_set(rng=want_rng, **kwargs))
        assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()

    @pytest.mark.parametrize("seed", ["int", "list", "generator", "mt19937"])
    def test_generator_ends_where_the_loop_leaves_it(self, seed):
        def make():
            return {"int": 7, "list": [7, 1],
                    "generator": np.random.default_rng(7),
                    "mt19937": np.random.Generator(np.random.MT19937(7))}[seed]

        got_rng, want_rng = make(), make()
        kwargs = dict(count=30, lights_per_point=2, w=8, min_nz=0.0,
                      dense_lights=100, draws_per_point=3)
        # A passed-in generator goes on to a second set, then to plain draws.
        for _ in range(2):
            assert_same_training_set(make_training_set(rng=got_rng, **kwargs),
                                     reference_training_set(rng=want_rng, **kwargs))
        if seed in ("generator", "mt19937"):
            assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()

    def test_point_keeps_its_draws_at_the_attempt_cap(self):
        # Point 1 sits at the rim, normal (0.99998, 0, 0.0063), Lambertian: a
        # light at azimuth 0 lights it and one at azimuth pi leaves it in
        # shadow.  Of its 40 attempts at two draws, one is lit, so it keeps
        # one draw; point 2, at the rim too, is never lit and is dropped;
        # point 3 faces the viewer.  Each light set is one z and one azimuth
        # double.
        rim = [0.99999, 0.5, 0.25, 0.5]     # x, y, Lambertian, albedo
        up = [0.5, 0.5, 0.25, 0.5]
        lit, shadow = [0.5, 0.0], [0.5, 0.5]
        doubles = rim + lit + shadow * 39 + rim + shadow * 40 + up + lit * 2
        kwargs = dict(count=2, lights_per_point=1, w=8, min_nz=0.0,
                      dense_lights=100, draws_per_point=2)
        got_rng, want_rng = generator_drawing(doubles), generator_drawing(doubles)
        got = make_training_set(rng=got_rng, **kwargs)
        assert_same_training_set(got, reference_training_set(rng=want_rng, **kwargs))
        assert [round(float(n[0]), 5) for _, n, _ in got] == [0.99998, 0.0, 0.0]
        assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()

    ARGUMENTS = [("count", -1), ("lights_per_point", 0), ("draws_per_point", 0),
                 ("min_nz", 1.0), ("min_nz", -0.1), ("dense_lights", 99)]

    @pytest.mark.parametrize("name,value", ARGUMENTS,
                             ids=[f"{n}_{v}" for n, v in ARGUMENTS])
    def test_rejects_an_argument_before_drawing(self, name, value):
        # draws_per_point < 1 and min_nz >= 1 keep no point, so a build
        # would never end.
        rng = np.random.default_rng(3)
        kwargs = dict(count=4, lights_per_point=10, w=8, dense_lights=100)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            make_training_set(rng=rng, **kwargs)
        assert rng.random() == np.random.default_rng(3).random()

    def test_indexing_builds_the_reference_triple(self):
        kwargs = dict(count=30, lights_per_point=4, w=8, dense_lights=100,
                      draws_per_point=3)
        got = make_training_set(rng=np.random.default_rng(12), **kwargs)
        want = reference_training_set(rng=np.random.default_rng(12), **kwargs)
        for i in (0, 7, np.int64(7), np.int32(89), -1, -90):
            assert_same_triple(got[i], want[int(i)])
        for i in (90, np.int64(90), -91):
            with pytest.raises(IndexError):
                got[i]

    def test_iterates_the_reference_triples(self):
        kwargs = dict(count=20, lights_per_point=6, w=8, dense_lights=100,
                      draws_per_point=2)
        got = list(make_training_set(rng=np.random.default_rng(13), **kwargs))
        want = reference_training_set(rng=np.random.default_rng(13), **kwargs)
        assert len(got) == len(want) == 40
        for pair in zip(got, want):
            assert_same_triple(*pair)

    def test_slice_trains_as_the_same_draws_built_by_hand(self, tmp_path):
        dataset = make_training_set(30, lights_per_point=8, w=8, dense_lights=100,
                                    rng=np.random.default_rng(14), draws_per_point=3)
        part = dataset[10:50]
        assert isinstance(part, TrainingSet) and len(part) == 40
        points, owner = np.unique(dataset.owner[10:50], return_inverse=True)
        by_hand = TrainingSet(dataset.lights[10:50].copy(),
                              dataset.irradiance[10:50].copy(), owner,
                              dataset.normals[points], dataset.dense[points],
                              dataset.mask)
        cfg = TrainConfig(batch_size=8, epochs=2, seed=3,
                          li_hidden=(8,), ne_hidden=(8,))
        for tag, data in (("slice", part), ("hand", by_hand)):
            li, ne, _ = train_alternating(data, cfg)
            save_model(li, tmp_path / f"li_{tag}.spln")
            save_model(ne, tmp_path / f"ne_{tag}.spln")
        for kind in ("li", "ne"):
            assert ((tmp_path / f"{kind}_slice.spln").read_bytes()
                    == (tmp_path / f"{kind}_hand.spln").read_bytes())

    def test_empty_set_draws_nothing(self):
        rng = np.random.default_rng(3)
        assert len(make_training_set(0, rng=rng)) == 0
        assert rng.random() == np.random.default_rng(3).random()


class TestInferAndCheckpoints:
    def test_infer_contract(self):
        rng = np.random.default_rng(34)
        w = 8
        li = new_li_model(w, rng, hidden=(8,))
        ne = new_ne_model(w, rng, hidden=(8,))
        for layer in ne.layers:
            layer.bias += rng.normal(0, 0.1, layer.bias.shape)
        lights = sample_hemisphere_lights(10, 75.0, rng)
        irr = shade(normalize([0.2, 0.1, 0.97]), lights, Lambertian(0.8))
        normals, valid = ModelSolver(li, ne, w=w).solve_batch(lights, irr[:, None])
        assert normals.shape == (1, 3) and valid.tolist() == [True]
        assert np.linalg.norm(normals[0]) == pytest.approx(1.0, abs=1e-12)
        assert normals[0, 2] >= 0

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(35)
        model = new_ne_model(8, rng, hidden=(8, 4))
        path = tmp_path / "model.spln"
        save_model(model, path)
        back = load_model(path)
        assert len(back.layers) == len(model.layers)
        for a, b in zip(back.layers, model.layers):
            assert a.activation == b.activation
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-6)
            np.testing.assert_allclose(a.bias, b.bias, atol=1e-6)

    @pytest.mark.parametrize("case,message", [
        ("truncated_header", "truncated checkpoint, the header"),
        ("unknown_activation", "unknown activation code 7"),
        ("short_payload", "truncated checkpoint, layer 1's bias"),
    ])
    def test_broken_checkpoint_is_value_error_naming_file(self, tmp_path, case,
                                                           message):
        path = tmp_path / "model.spln"
        save_model(new_ne_model(4, np.random.default_rng(40), hidden=(5,)), path)
        break_checkpoint(path, case)
        with pytest.raises(ValueError, match=message) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_checkpoint_layout(self, tmp_path):
        model = MlpModel([DenseLayer(np.zeros((2, 3)), np.zeros(2), "relu")])
        path = tmp_path / "model.spln"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SPLN"
        assert int.from_bytes(raw[4:8], "little") == 1      # version
        assert int.from_bytes(raw[8:12], "little") == 1     # layer count
        assert int.from_bytes(raw[12:16], "little") == 2    # rows
        assert int.from_bytes(raw[16:20], "little") == 3    # cols
        assert raw[20] == 0                                  # relu code
        assert len(raw) == 21 + 4 * (6 + 2)

    def test_mirror_roundtrip_of_saved_f32(self, tmp_path):
        # Loading gives float32-rounded parameters; saving again is stable.
        rng = np.random.default_rng(36)
        model = new_li_model(4, rng, hidden=(4,))
        p1 = tmp_path / "a.spln"
        p2 = tmp_path / "b.spln"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
