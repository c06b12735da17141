"""Tests for the benchmark's own output checks.

Each reference in checks.py must agree with sparseps on a tiny case and must
reject a planted error: a normal rotated by 1e-3 rad, a flipped sign, or one
gradient coordinate scaled by 1.01.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from sparseps import evaluation, render, solvers  # noqa: E402
from sparseps.geometry import sample_hemisphere_lights  # noqa: E402
from sparseps.losses import LossWeights  # noqa: E402
from sparseps.obsmap import PixelSamples, build_observation_map  # noqa: E402


def rotate(n, angle):
    """n turned by `angle` rad about an axis perpendicular to it."""
    axis = np.cross(n, [1.0, 0.0, 0.0])
    axis /= np.linalg.norm(axis)
    return n * np.cos(angle) + np.cross(axis, n) * np.sin(angle)


@pytest.fixture(scope="module")
def scene():
    pool = sample_hemisphere_lights(40, 75.0, np.random.default_rng(5))
    return render.render_sphere(8, render.BlinnPhong(0.3, 0.7, 20.0), pool)


@pytest.fixture(scope="module")
def draw(scene):
    idx = np.random.default_rng(6).choice(40, size=10, replace=False)
    return scene.lights[idx], scene.images[idx][:, scene.mask]


def assert_rejects_planted(normals, valid, ref, ref_valid):
    p = int(np.nonzero(valid)[0][0])
    assert checks.normal_mismatches(normals, valid, ref, ref_valid) == 0
    rotated = normals.copy()
    rotated[p] = rotate(normals[p], 1e-3)
    assert checks.normal_mismatches(rotated, valid, ref, ref_valid) == 1
    flipped = normals.copy()
    flipped[p] = -normals[p]
    assert checks.normal_mismatches(flipped, valid, ref, ref_valid) == 1
    assert checks.unit_upper_violations(flipped, valid) == 1


def test_ls_reference_matches_program(draw):
    lights, irr = draw
    normals, valid = evaluation.LsSolver().solve_batch(lights, irr)
    ref, ref_valid = checks.ls_reference(lights, irr)
    assert_rejects_planted(normals, valid, ref, ref_valid)


def test_observation_maps_match_program(draw):
    lights, irr = draw
    values, mask, ok = checks.observation_maps(lights, irr, 8)
    for p in range(irr.shape[1]):
        if not ok[p]:
            continue
        obs = build_observation_map(PixelSamples(lights, irr[:, p]), 8)
        assert np.array_equal(obs.values, values[p])
        assert np.array_equal(obs.mask.astype(bool), mask)


def test_trained_reference_matches_program(draw):
    lights, irr = draw
    rng = np.random.default_rng(7)
    li = solvers.new_li_model(8, rng, hidden=(16,))
    ne = solvers.new_ne_model(8, rng, hidden=(16,))
    normals, valid = evaluation.ModelSolver(li, ne, w=8).solve_batch(lights, irr)
    layers = [[(l.weights, l.bias, l.activation) for l in m.layers] for m in (li, ne)]
    ref, ref_valid = checks.trained_reference(*layers, lights, irr, 8)
    assert valid.all()
    assert_rejects_planted(normals, valid, ref, ref_valid)


def test_inpaint_reference_matches_program(draw):
    lights, irr = draw
    normals, valid = evaluation.InpaintLsSolver(w=16).solve_batch(lights, irr)
    ref = [checks.inpaint_reference(lights, irr[:, p], 16)
           for p in range(irr.shape[1])]
    ref_normals = np.array([n for n, _ in ref])
    ref_valid = np.array([v for _, v in ref])
    assert valid.any()
    assert_rejects_planted(normals, valid, ref_normals, ref_valid)


def test_inpaint_reference_mirror_step_matters(draw):
    # The diffusion-only variant must not pass for the mirrored one.
    lights, irr = draw
    plain, valid = evaluation.InpaintLsSolver(w=16, mirror_step=False).solve_batch(
        lights, irr)
    ref = [checks.inpaint_reference(lights, irr[:, p], 16)
           for p in range(irr.shape[1])]
    assert checks.normal_mismatches(plain, valid, np.array([n for n, _ in ref]),
                                    np.array([v for _, v in ref])) > 0


def test_mean_error_matches_run_trials(scene):
    report = evaluation.run_trials(scene, evaluation.LsSolver(),
                                   evaluation.TrialConfig(n_trials=1, seed=3))
    idx = np.random.default_rng(3).choice(40, size=10, replace=False)
    normals, valid = evaluation.LsSolver().solve_batch(
        scene.lights[idx], scene.images[idx][:, scene.mask])
    truth, mask = checks.sphere_normals(8)
    assert np.array_equal(mask, scene.mask)
    ours = checks.mean_error_deg(normals, valid, truth[mask])
    assert abs(ours - report.per_trial_mean_deg[0]) <= checks.MEAN_ERR_TOL_DEG
    p = int(np.nonzero(valid)[0][0])
    normals[p] = -normals[p]
    assert abs(checks.mean_error_deg(normals, valid, truth[mask])
               - report.per_trial_mean_deg[0]) > checks.MEAN_ERR_TOL_DEG


@pytest.fixture(scope="module")
def tiny_training():
    rng = np.random.default_rng(23)
    dataset = solvers.make_training_set(6, lights_per_point=6, w=8, rng=rng,
                                        dense_lights=100)
    li = solvers.new_li_model(8, rng, hidden=(4, 4))
    ne = solvers.new_ne_model(8, rng, hidden=(4, 4))
    for model in (li, ne):
        for layer in model.layers:
            layer.bias += rng.normal(0.0, 0.05, size=layer.bias.shape)
    return dataset, li, ne, run.reference_prep(dataset, 8)


@pytest.mark.parametrize("kind", ["ne", "li"])
def test_gradient_check_accepts_program_and_rejects_scaled(tiny_training, kind):
    dataset, li, ne, prep = tiny_training
    weights = LossWeights(lambda_s=2e-3, lambda_a=2e-6)
    idx = np.arange(prep.count)
    model = ne if kind == "ne" else li
    batched = getattr(solvers, f"{kind}_objective_and_grads")
    per_sample = getattr(solvers, f"{kind}_objective")
    loss, grads = batched(li, ne, prep, idx, weights)
    assert loss == pytest.approx(per_sample(li, ne, prep, idx, weights), rel=1e-9)
    params = [p for layer in model.layers for p in (layer.weights, layer.bias)]
    flat = [g for pair in grads for g in pair]
    coords = run.sample_coords(params, flat, np.random.default_rng(0))

    def objective():
        return per_sample(li, ne, prep, idx, weights)

    bad, checked, _ = checks.gradient_mismatches(objective, params, flat, coords)
    assert checked >= 2 and not bad
    planted = [g.copy() for g in flat]
    pi, k = coords[0]
    planted[pi].reshape(-1)[k] *= 1.01
    bad, _, _ = checks.gradient_mismatches(objective, params, planted, coords[:1])
    assert len(bad) == 1


def test_gradient_check_steps_past_a_kink_closer_than_h():
    # 3x + 0.01 |x - 2e-8| at x = 0: the slope is 2.99 and a kink sits 2e-8
    # away, inside the default step, where the central difference reads 3.0.
    x = np.zeros(1)

    def objective():
        return 3.0 * x[0] + 0.01 * abs(x[0] - 2e-8)

    bad, checked, skipped = checks.gradient_mismatches(
        objective, [x], [np.array([2.99])], [(0, 0)])
    assert (bad, checked, skipped) == ([], 1, 0)
    bad, _, _ = checks.gradient_mismatches(
        objective, [x], [np.array([2.99 * 1.01])], [(0, 0)])
    assert len(bad) == 1


def test_reference_prep_matches_program(tiny_training):
    dataset, _, _, prep = tiny_training
    program = solvers._Prepared(dataset, 8)
    for field in ("s_flat", "m_flat", "n_gt", "d_gt_flat", "d_gt_pooled_flat",
                  "gt_axes"):
        assert np.array_equal(getattr(prep, field), getattr(program, field)), field


def test_tracer_self_time_and_restore():
    class Owner:
        @staticmethod
        def outer():
            return Owner.inner() + 1

        @staticmethod
        def inner():
            return 1

    original = Owner.__dict__["inner"]
    tracer = Tracer()
    tracer.op = "round0"
    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner", work=lambda args, kwargs, result: 5.0)
    assert Owner.outer() == 2
    tracer.remove()
    assert Owner.inner is original.__func__
    stats, covered = tracer.summary(lambda op: True)
    outer, inner = stats["outer"], stats["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
    assert inner["work"] == 5.0
    assert covered["round0"] == pytest.approx(outer["total_s"])


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
